"""Command-line front end.

Every subcommand prints text by default and supports --format json (and csv
where tabular output makes sense).  Exit codes: 0 on success, 2 for invalid
or excluded input, 1 for a violated arithmetic invariant (InvariantError).
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import InvariantError, SeqLabError
from .rational import format_rational, parse_rational
from .ring import ParamPair, make_element
from .transforms import classify_cyclotomic, check_parameter
from .group import GroupElement, group_sqrt, primitivity
from .laxton import laxton_eq, laxton_torsion
from . import lab
from .lab import PrimeWindow


def _pair(text: str) -> Tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected 'a,b', got %r" % text)
    try:
        return parse_rational(parts[0]), parse_rational(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _index_range(text: str) -> Tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("expected 'a..b', got %r" % text)
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("range bounds must be integers: %r" % text)
    if a > b:
        raise argparse.ArgumentTypeError("empty range %r" % text)
    return a, b


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _window_arg(text: str) -> PrimeWindow:
    try:
        return PrimeWindow.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _primes_arg(text: str) -> PrimeWindow:
    return _window_arg("first:" + text)


def _add_context_args(p: argparse.ArgumentParser, t_only: bool = False) -> None:
    p.add_argument("--t", type=_rational, default=None, metavar="T",
                   help="one-parameter recursion x_{n+1} = t*x_n - x_{n-1}")
    if not t_only:
        p.add_argument("--T", dest="big_t", type=_rational, default=None, metavar="T")
        p.add_argument("--Q", dest="big_q", type=_rational, default=None, metavar="Q",
                       help="two-parameter recursion x_{n+1} = T*x_n - Q*x_{n-1}")


def _add_window_args(p: argparse.ArgumentParser, default: str) -> None:
    p.add_argument("--window", type=_window_arg, default=None, metavar="MODE:SIZE",
                   help="prime window, 'first:K' or 'below:B' (default %s)" % default)
    p.add_argument("--primes", type=_primes_arg, default=None, metavar="K",
                   help="shorthand for --window first:K")
    p.add_argument("--parallel", type=int, default=None, metavar="N",
                   help="sweep the window with N worker processes")


def _resolve_window(args: argparse.Namespace, default: str) -> PrimeWindow:
    if args.window is not None and args.primes is not None:
        raise SeqLabError("give either --window or --primes, not both")
    if args.primes is not None:
        return args.primes
    return args.window if args.window is not None else PrimeWindow.parse(default)


def _context(args: argparse.Namespace) -> ParamPair:
    t = args.t
    big_t = getattr(args, "big_t", None)
    big_q = getattr(args, "big_q", None)
    if t is not None:
        if big_t is not None or big_q is not None:
            raise SeqLabError("give either --t or --T/--Q, not both")
        return ParamPair.one_param(t)
    if big_t is None or big_q is None:
        raise SeqLabError("a context is required: --t, or --T and --Q")
    return ParamPair(big_t, big_q)


def _require_t(args: argparse.Namespace) -> Fraction:
    if args.t is None:
        raise SeqLabError("--t is required here")
    return args.t


def _emit_json(payload: dict) -> int:
    json.dump(payload, sys.stdout, indent=2, sort_keys=False)
    sys.stdout.write("\n")
    return 0


def _emit_csv(header: Sequence[str], rows: Sequence[Sequence[object]]) -> int:
    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return 0


def _no_csv(what: str) -> int:
    raise SeqLabError("csv output is not defined for %s" % what)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_seq(args: argparse.Namespace) -> int:
    ctx = _context(args)
    x = make_element(ctx, *args.x)
    lo, hi = args.range
    # format every term before printing any, so a term too long to print
    # fails with nothing on stdout
    terms = [[n, format_rational(v)] for n, v in zip(range(lo, hi + 1), x.terms(lo, hi + 1))]
    if args.format == "json":
        payload = {
            "context": ctx.to_dict(),
            "x": [format_rational(x.x0), format_rational(x.x1)],
            "range": [lo, hi],
            "terms": terms,
        }
        return _emit_json(payload)
    if args.format == "csv":
        return _emit_csv(["n", "value"], terms)
    for n, v in terms:
        print("x_%d = %s" % (n, v))
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    t = _require_t(args)
    check_parameter(t)
    cls = classify_cyclotomic(t)
    report = primitivity(t)
    payload: dict = {
        "t": format_rational(t),
        "kind": cls.kind,
        "primitive": report.is_primitive,
        "witnesses": [
            {"r": w.r, "u": format_rational(w.u), "sign": w.sign} for w in report.witnesses
        ],
    }
    if cls.kind == "circular":
        payload["a"] = format_rational(cls.a)
        payload["circular_primitive"] = report.circular_primitive
    elif cls.kind == "cubic":
        payload["f"] = format_rational(cls.f)
        payload["associates"] = [format_rational(a) for a in cls.associates]
    if not report.is_primitive:
        m, u, sign = report.decomposition
        payload["decomposition"] = {"m": m, "u": format_rational(u), "sign": sign}
    if args.format == "json":
        return _emit_json(payload)
    if args.format == "csv":
        return _no_csv("classify")
    print("t = %s: %s" % (payload["t"], payload["kind"]))
    if cls.kind == "circular":
        print("  a = %s (t^2 + a^2 = 4), circular-primitive: %s"
              % (payload["a"], payload["circular_primitive"]))
    elif cls.kind == "cubic":
        print("  f = %s, associates a = %s" % (payload["f"], ", ".join(payload["associates"])))
    if report.is_primitive:
        print("  primitive: no prime-order Chebyshev preimage")
    else:
        parts = ", ".join(
            "t = %sC_%d(%s)" % ("" if w.sign > 0 else "-", w.r, format_rational(w.u))
            for w in report.witnesses
        )
        print("  imprimitive: %s" % parts)
        d = payload["decomposition"]
        print("  maximal decomposition: m = %d, u = %s, sign = %+d" % (d["m"], d["u"], d["sign"]))
    return 0


def cmd_torsion(args: argparse.Namespace) -> int:
    table = laxton_torsion(_require_t(args))
    if args.format == "json":
        return _emit_json(table.to_dict())
    if args.format == "csv":
        return _emit_csv(
            ["a0", "a1", "order"],
            [[e.element.rep.a0, e.element.rep.a1, e.order] for e in table.entries],
        )
    print("torsion of the class group at t = %s (%s)" % (format_rational(table.t), table.kind))
    if table.group_type:
        print("  structure: Z/%d x Z/%d%s" % (table.group_type[0], table.group_type[1],
                                              "" if table.enumerated else " (structural)"))
    for e in table.entries:
        print("  [%d, %d]  order %d" % (e.element.rep.a0, e.element.rep.a1, e.order))
    if table.note:
        print("  note: %s" % table.note)
    return 0


def cmd_sqrt(args: argparse.Namespace) -> int:
    ctx = _context(args)
    y = GroupElement.from_pair(ctx, *args.x)
    roots = group_sqrt(y)
    if args.format == "json":
        return _emit_json({
            "context": ctx.to_dict(),
            "y": [format_rational(y.a0), format_rational(y.a1)],
            "roots": [[format_rational(r.a0), format_rational(r.a1)] for r in roots],
        })
    if args.format == "csv":
        return _emit_csv(["a0", "a1"], [[format_rational(r.a0), format_rational(r.a1)] for r in roots])
    if not roots:
        print("no square roots: det is not a rational square")
    for r in roots:
        print("[%s, %s]" % (format_rational(r.a0), format_rational(r.a1)))
    return 0


def cmd_laxton_eq(args: argparse.Namespace) -> int:
    ctx = _context(args)
    x = GroupElement.from_pair(ctx, *args.x)
    y = GroupElement.from_pair(ctx, *args.y)
    witness = laxton_eq(x, y)
    if args.format == "json":
        payload = {
            "context": ctx.to_dict(),
            "x": [format_rational(x.a0), format_rational(x.a1)],
            "y": [format_rational(y.a0), format_rational(y.a1)],
            "equivalent": witness is not None,
        }
        if witness is not None:
            payload["witness"] = {"k": witness.k, "scale": format_rational(witness.scale)}
        return _emit_json(payload)
    if args.format == "csv":
        return _no_csv("laxton-eq")
    if witness is None:
        print("not equivalent")
    else:
        print("equivalent: x = %s * D^%d * y" % (format_rational(witness.scale), witness.k))
    return 0


def cmd_divisors(args: argparse.Namespace) -> int:
    t = _require_t(args)
    window = _resolve_window(args, "first:300")
    x = GroupElement.from_pair(ParamPair.one_param(t), *args.x)
    eligible, excluded = lab.window_split(t, window)
    flags = lab.divisor_flags([x], eligible, processes=args.parallel)
    members = [p for p, (hit,) in zip(eligible, flags) if hit]
    if args.format == "json":
        return _emit_json({
            "t": format_rational(t),
            "x": [format_rational(x.a0), format_rational(x.a1)],
            "window": window.to_dict(),
            "eligible": len(eligible),
            "excluded": excluded,
            "gamma": members,
            "density_pi_t": len(members) / len(eligible) if eligible else None,
        })
    if args.format == "csv":
        return _emit_csv(["p"], [[p] for p in members])
    print("Gamma([%s, %s]) at t = %s, window %s:%d"
          % (format_rational(x.a0), format_rational(x.a1), format_rational(t),
             window.mode, window.size))
    print("  %d of %d admissible primes (%d excluded from window)"
          % (len(members), len(eligible), len(excluded)))
    print("  " + " ".join(str(p) for p in members))
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    t = _require_t(args)
    window = _resolve_window(args, "first:300")
    if args.cubic:
        part = lab.cubic_partition(t, window, processes=args.parallel)
        payload = part.to_dict()
        label = "Gamma(S)"
    else:
        if args.x is None:
            raise SeqLabError("--x is required unless --cubic is given")
        x = GroupElement.from_pair(ParamPair.one_param(t), *args.x)
        part = lab.partition_six(x, window, processes=args.parallel)
        payload = part.to_dict()
        label = "Gamma(X^2)"
    if args.format == "json":
        return _emit_json(payload)
    if args.format == "csv":
        return _emit_csv(
            ["cell", "count", "primes"],
            [[name, len(ps), " ".join(map(str, ps))] for name, ps in payload["cells"].items()],
        )
    print("partition of %s at t = %s, window %s:%d (%d admissible primes)"
          % (label, payload["t"], window.mode, window.size, payload["eligible"]))
    for name, ps in payload["cells"].items():
        print("  %-6s %4d  %s" % (name, len(ps), " ".join(map(str, ps))))
    return 0


def cmd_table3(args: argparse.Namespace) -> int:
    window = _resolve_window(args, "first:1200")
    reports = lab.table3(window, processes=args.parallel, full=args.full)
    for rep in reports:
        dev = lab.reference_deviation(rep, args.convention)
        if dev > 0.01:
            print("warning: (T, Q) = (%d, %d) deviates from the reference by %.4f"
                  % (rep.T, rep.Q, dev), file=sys.stderr)
    if args.format == "json":
        return _emit_json({"convention": args.convention, "rows": [r.to_dict() for r in reports]})
    if args.format == "text":
        print("%-8s %-8s %-10s %-10s %-10s %-10s" % ("T,Q", "x", "X", "WX", "both", "product"))
        for rep in reports:
            dens = rep.densities(args.convention)
            print("%-8s %-8s %-10.3f %-10.3f %-10.3f %-10.3f"
                  % ("%d,%d" % (rep.T, rep.Q), "%d,%d" % (rep.x0, rep.x1),
                     dens["x"], dens["wx"], dens["intersection"], dens["product"]))
        return 0
    return _emit_csv(lab.CSV_HEADER, [r.csv_row(args.convention) for r in reports])


def cmd_independence(args: argparse.Namespace) -> int:
    window = _resolve_window(args, "first:1200")
    if args.big_t is None or args.big_q is None:
        raise SeqLabError("--T and --Q are required")
    T, Q = args.big_t, args.big_q
    if T.denominator != 1 or Q.denominator != 1:
        raise SeqLabError("--T and --Q must be integers")
    x0, x1 = args.x
    if x0.denominator != 1 or x1.denominator != 1:
        raise SeqLabError("--x must be an integer pair")
    rep = lab.independence_report(
        int(T), int(Q), int(x0), int(x1), window,
        processes=args.parallel, full=args.full,
    )
    if args.format == "json":
        return _emit_json(rep.to_dict())
    if args.format == "csv":
        return _emit_csv(lab.CSV_HEADER, [rep.csv_row(args.convention)])
    dens = rep.densities(args.convention)
    print("independence of even/odd divisor sets for (T, Q) = (%d, %d), x = [%d, %d]"
          % (rep.T, rep.Q, rep.x0, rep.x1))
    print("  t = %s, window %s:%d, %d admissible primes (%d excluded)"
          % (format_rational(rep.t), window.mode, window.size,
             rep.eligible_count, len(rep.excluded)))
    print("  |G_X| = %d, |G_WX| = %d, |G_X & G_WX| = %d"
          % (rep.count_x, rep.count_wx, rep.count_both))
    print("  densities (%s): X %.3f, WX %.3f, intersection %.3f, product %.3f"
          % (args.convention, dens["x"], dens["wx"], dens["intersection"], dens["product"]))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqlab",
        description="exact arithmetic for second-order linear recursive sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        # let values like "-3..8", "-1,1" or "-7/2" follow a flag unquoted
        p._negative_number_matcher = re.compile(r"^-\d")
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        return p

    p = add("seq", cmd_seq, "print a stretch of the sequence carried by an element")
    _add_context_args(p)
    p.add_argument("--x", type=_pair, required=True, metavar="A,B",
                   help="initial terms x_0, x_1")
    p.add_argument("--range", type=_index_range, default=(0, 10), metavar="A..B",
                   help="inclusive index range (default 0..10)")

    p = add("classify", cmd_classify, "cyclotomic class and primitivity of t")
    _add_context_args(p, t_only=True)

    p = add("torsion", cmd_torsion, "torsion subgroup of the class group at t")
    _add_context_args(p, t_only=True)

    p = add("sqrt", cmd_sqrt, "square roots of a class in the sequence group")
    _add_context_args(p)
    p.add_argument("--x", type=_pair, required=True, metavar="A,B")

    p = add("laxton-eq", cmd_laxton_eq, "decide equivalence of two classes")
    _add_context_args(p)
    p.add_argument("--x", type=_pair, required=True, metavar="A,B")
    p.add_argument("--y", type=_pair, required=True, metavar="A,B")

    p = add("divisors", cmd_divisors, "prime divisor set of a class over a window")
    _add_context_args(p, t_only=True)
    p.add_argument("--x", type=_pair, required=True, metavar="A,B")
    _add_window_args(p, "first:300")

    p = add("partition", cmd_partition, "partition of Gamma(X^2) (or Gamma(S) with --cubic)")
    _add_context_args(p, t_only=True)
    p.add_argument("--x", type=_pair, default=None, metavar="A,B")
    p.add_argument("--cubic", action="store_true",
                   help="three-way partition of Gamma(S) for cubic t")
    _add_window_args(p, "first:300")

    p = add("table3", cmd_table3, "rerun the published independence table")
    p.set_defaults(format="csv")
    _add_window_args(p, "first:1200")
    p.add_argument("--convention", choices=lab.CONVENTIONS, default="pi_t")
    p.add_argument("--full", action="store_true", help="include divisor-set members (json)")

    p = add("independence", cmd_independence, "independence report for one (T, Q, x0, x1)")
    p.add_argument("--T", dest="big_t", type=_rational, required=True, metavar="T")
    p.add_argument("--Q", dest="big_q", type=_rational, required=True, metavar="Q")
    p.add_argument("--x", type=_pair, required=True, metavar="A,B")
    _add_window_args(p, "first:1200")
    p.add_argument("--convention", choices=lab.CONVENTIONS, default="pi_t")
    p.add_argument("--full", action="store_true", help="include divisor-set members (json)")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SeqLabError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except InvariantError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
