"""Command-line front end.

Every subcommand prints text by default and supports --format json (and csv
where tabular output makes sense).  A subcommand returns an `Output` and
`main` alone prints it, once the command has finished.  Exit codes: 0 on
success, 2 for invalid or excluded input, 1 for a violated arithmetic
invariant (InvariantError).

One parser per process, dispatch by name: `main` builds the parser on its
first call and keeps it, and runs the module's `cmd_<command>` as it stands
when the call is made.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import InvariantError, SeqLabError
from .rational import format_rational, parse_rational
from .ring import ParamPair, make_element
from .transforms import classify_cyclotomic
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
    p.set_defaults(default_window=default)
    p.add_argument("--window", type=_window_arg, default=None, metavar="MODE:SIZE",
                   help="prime window, 'first:K' or 'below:B' (default %s)" % default)
    p.add_argument("--primes", type=_primes_arg, default=None, metavar="K",
                   help="shorthand for --window first:K")


def _resolve_window(args: argparse.Namespace) -> PrimeWindow:
    if args.window is not None and args.primes is not None:
        raise SeqLabError("give either --window or --primes, not both")
    if args.primes is not None:
        return args.primes
    return args.window if args.window is not None else PrimeWindow.parse(args.default_window)


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


class Output(NamedTuple):
    """A subcommand's result in every format: the --format json document,
    the text lines, and the csv (header, rows), or None where csv is not
    defined.  Only `main` prints it, so an error leaves stdout empty."""

    payload: dict
    lines: List[str]
    table: Optional[Tuple[Sequence[str], List[Sequence[object]]]] = None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_seq(args: argparse.Namespace) -> Output:
    ctx = _context(args)
    x = make_element(ctx, *args.x)
    lo, hi = args.range
    # the end terms come from two powerings, so a span with an unprintable
    # end fails here, before its terms are computed
    format_rational(x.term(lo))
    format_rational(x.term(hi))
    terms = [[n, format_rational(v)] for n, v in zip(range(lo, hi + 1), x.terms(lo, hi + 1))]
    payload = {
        "context": ctx.to_dict(),
        "x": [format_rational(x.x0), format_rational(x.x1)],
        "range": [lo, hi],
        "terms": terms,
    }
    return Output(payload, ["x_%d = %s" % (n, v) for n, v in terms], (["n", "value"], terms))


def cmd_classify(args: argparse.Namespace) -> Output:
    t = _require_t(args)
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
    lines = ["t = %s: %s" % (payload["t"], payload["kind"])]
    if cls.kind == "circular":
        payload["a"] = format_rational(cls.a)
        payload["circular_primitive"] = report.circular_primitive
        lines.append("  a = %s (t^2 + a^2 = 4), circular-primitive: %s"
                     % (payload["a"], payload["circular_primitive"]))
    elif cls.kind == "cubic":
        payload["f"] = format_rational(cls.f)
        payload["associates"] = [format_rational(a) for a in cls.associates]
        lines.append("  f = %s, associates a = %s" % (payload["f"], ", ".join(payload["associates"])))
    if report.is_primitive:
        lines.append("  primitive: no prime-order Chebyshev preimage")
    else:
        m, u, sign = report.decomposition
        payload["decomposition"] = {"m": m, "u": format_rational(u), "sign": sign}
        lines.append("  imprimitive: %s" % ", ".join(
            "t = %sC_%d(%s)" % ("" if w["sign"] > 0 else "-", w["r"], w["u"]) for w in payload["witnesses"]
        ))
        lines.append("  maximal decomposition: m = %d, u = %s, sign = %+d"
                     % (m, payload["decomposition"]["u"], sign))
    return Output(payload, lines)


def cmd_torsion(args: argparse.Namespace) -> Output:
    table = laxton_torsion(_require_t(args))
    lines = ["torsion of the class group at t = %s (%s)" % (format_rational(table.t), table.kind)]
    if table.group_type:
        lines.append("  structure: Z/%d x Z/%d%s" % (table.group_type[0], table.group_type[1],
                                                    "" if table.enumerated else " (structural)"))
    reps = [(e.element.rep.a0, e.element.rep.a1, e.order) for e in table.entries]
    lines += ["  [%d, %d]  order %d" % rep for rep in reps]
    if table.note:
        lines.append("  note: %s" % table.note)
    return Output(table.to_dict(), lines, (["a0", "a1", "order"], reps))


def cmd_sqrt(args: argparse.Namespace) -> Output:
    ctx = _context(args)
    y = GroupElement.from_pair(ctx, *args.x)
    roots = [[format_rational(r.a0), format_rational(r.a1)] for r in group_sqrt(y)]
    payload = {
        "context": ctx.to_dict(),
        "y": [format_rational(y.a0), format_rational(y.a1)],
        "roots": roots,
    }
    lines = ["[%s, %s]" % tuple(r) for r in roots] or ["no square roots: det is not a rational square"]
    return Output(payload, lines, (["a0", "a1"], roots))


def cmd_laxton_eq(args: argparse.Namespace) -> Output:
    ctx = _context(args)
    x = GroupElement.from_pair(ctx, *args.x)
    y = GroupElement.from_pair(ctx, *args.y)
    witness = laxton_eq(x, y)
    payload = {
        "context": ctx.to_dict(),
        "x": [format_rational(x.a0), format_rational(x.a1)],
        "y": [format_rational(y.a0), format_rational(y.a1)],
        "equivalent": witness is not None,
    }
    if witness is None:
        return Output(payload, ["not equivalent"])
    payload["witness"] = {"k": witness.k, "scale": format_rational(witness.scale)}
    return Output(payload, ["equivalent: x = %s * D^%d * y" % (payload["witness"]["scale"], witness.k)])


def cmd_divisors(args: argparse.Namespace) -> Output:
    t = _require_t(args)
    window = _resolve_window(args)
    x = GroupElement.from_pair(ParamPair.one_param(t), *args.x)
    eligible, excluded, flags = lab.sweep([x], window)
    members = [p for p, (hit,) in zip(eligible, flags) if hit]
    payload = {
        "t": format_rational(t),
        "x": [format_rational(x.a0), format_rational(x.a1)],
        "window": window.to_dict(),
        "eligible": len(eligible),
        "excluded": excluded,
        "gamma": members,
        "density_pi_t": len(members) / len(eligible) if eligible else None,
    }
    lines = [
        "Gamma([%s, %s]) at t = %s, window %s:%d"
        % (payload["x"][0], payload["x"][1], payload["t"], window.mode, window.size),
        "  %d of %d admissible primes (%d excluded from window)"
        % (len(members), len(eligible), len(excluded)),
        "  " + " ".join(map(str, members)),
    ]
    return Output(payload, lines, (["p"], [[p] for p in members]))


def cmd_partition(args: argparse.Namespace) -> Output:
    t = _require_t(args)
    window = _resolve_window(args)
    if args.cubic:
        part = lab.cubic_partition(t, window)
        label = "Gamma(S)"
    else:
        if args.x is None:
            raise SeqLabError("--x is required unless --cubic is given")
        x = GroupElement.from_pair(ParamPair.one_param(t), *args.x)
        part = lab.partition_six(x, window)
        label = "Gamma(X^2)"
    payload = part.to_dict()
    cells = [(name, len(ps), " ".join(map(str, ps))) for name, ps in payload["cells"].items()]
    lines = ["partition of %s at t = %s, window %s:%d (%d admissible primes)"
             % (label, payload["t"], window.mode, window.size, payload["eligible"])]
    lines += ["  %-6s %4d  %s" % cell for cell in cells]
    return Output(payload, lines, (["cell", "count", "primes"], cells))


def cmd_table3(args: argparse.Namespace) -> Output:
    reports = lab.table3(_resolve_window(args), full=args.full)
    for rep in reports:
        dev = lab.reference_deviation(rep, args.convention)
        if dev > 0.01:
            print("warning: (T, Q) = (%d, %d) deviates from the reference by %.4f"
                  % (rep.T, rep.Q, dev), file=sys.stderr)
    rows = [r.to_dict() for r in reports]
    lines = ["%-8s %-8s %-10s %-10s %-10s %-10s" % ("T,Q", "x", "X", "WX", "both", "product")]
    for row in rows:
        dens = row["densities"][args.convention]
        lines.append("%-8s %-8s %-10.3f %-10.3f %-10.3f %-10.3f"
                     % ("%d,%d" % (row["T"], row["Q"]), "%d,%d" % tuple(row["x"]),
                        dens["x"], dens["wx"], dens["intersection"], dens["product"]))
    payload = {"convention": args.convention, "rows": rows}
    return Output(payload, lines, (lab.CSV_HEADER, [r.csv_row(args.convention) for r in reports]))


def cmd_independence(args: argparse.Namespace) -> Output:
    window = _resolve_window(args)
    T, Q = args.big_t, args.big_q
    if T.denominator != 1 or Q.denominator != 1:
        raise SeqLabError("--T and --Q must be integers")
    x0, x1 = args.x
    if x0.denominator != 1 or x1.denominator != 1:
        raise SeqLabError("--x must be an integer pair")
    rep = lab.independence_report(int(T), int(Q), int(x0), int(x1), window, full=args.full)
    payload = rep.to_dict()
    dens = payload["densities"][args.convention]
    lines = [
        "independence of even/odd divisor sets for (T, Q) = (%d, %d), x = [%d, %d]"
        % (rep.T, rep.Q, rep.x0, rep.x1),
        "  t = %s, window %s:%d, %d admissible primes (%d excluded)"
        % (payload["t"], window.mode, window.size, rep.eligible_count, len(rep.excluded)),
        "  |G_X| = %d, |G_WX| = %d, |G_X & G_WX| = %d" % (rep.count_x, rep.count_wx, rep.count_both),
        "  densities (%s): X %.3f, WX %.3f, intersection %.3f, product %.3f"
        % (args.convention, dens["x"], dens["wx"], dens["intersection"], dens["product"]),
    ]
    return Output(payload, lines, (lab.CSV_HEADER, [rep.csv_row(args.convention)]))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqlab",
        description="exact arithmetic for second-order linear recursive sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        # let values like "-3..8", "-1,1" or "-7/2" follow a flag unquoted
        p._negative_number_matcher = re.compile(r"^-\d")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        return p

    p = add("seq", "print a stretch of the sequence carried by an element")
    _add_context_args(p)
    p.add_argument("--x", type=_pair, required=True, metavar="A,B",
                   help="initial terms x_0, x_1")
    p.add_argument("--range", type=_index_range, default=(0, 10), metavar="A..B",
                   help="inclusive index range (default 0..10)")

    p = add("classify", "cyclotomic class and primitivity of t")
    _add_context_args(p, t_only=True)

    p = add("torsion", "torsion subgroup of the class group at t")
    _add_context_args(p, t_only=True)

    p = add("sqrt", "square roots of a class in the sequence group")
    _add_context_args(p)
    p.add_argument("--x", type=_pair, required=True, metavar="A,B")

    p = add("laxton-eq", "decide equivalence of two classes")
    _add_context_args(p)
    p.add_argument("--x", type=_pair, required=True, metavar="A,B")
    p.add_argument("--y", type=_pair, required=True, metavar="A,B")

    p = add("divisors", "prime divisor set of a class over a window")
    _add_context_args(p, t_only=True)
    p.add_argument("--x", type=_pair, required=True, metavar="A,B")
    _add_window_args(p, "first:300")

    p = add("partition", "partition of Gamma(X^2) (or Gamma(S) with --cubic)")
    _add_context_args(p, t_only=True)
    p.add_argument("--x", type=_pair, default=None, metavar="A,B")
    p.add_argument("--cubic", action="store_true",
                   help="three-way partition of Gamma(S) for cubic t")
    _add_window_args(p, "first:300")

    p = add("table3", "rerun the published independence table")
    p.set_defaults(format="csv")
    _add_window_args(p, "first:1200")
    p.add_argument("--convention", choices=lab.CONVENTIONS, default="pi_t")
    p.add_argument("--full", action="store_true", help="include divisor-set members (json)")

    p = add("independence", "independence report for one (T, Q, x0, x1)")
    p.add_argument("--T", dest="big_t", type=_rational, required=True, metavar="T")
    p.add_argument("--Q", dest="big_q", type=_rational, required=True, metavar="Q")
    p.add_argument("--x", type=_pair, required=True, metavar="A,B")
    _add_window_args(p, "first:1200")
    p.add_argument("--convention", choices=lab.CONVENTIONS, default="pi_t")
    p.add_argument("--full", action="store_true", help="include divisor-set members (json)")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call of `main`."""
    return build_parser()


def subcommand(name: str):
    """The subcommand function for a parsed command name, looked up at call time."""
    return globals()["cmd_" + name.replace("-", "_")]


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        out = subcommand(args.command)(args)
        if args.format == "json":
            text = json.dumps(out.payload, indent=2) + "\n"
        elif args.format == "text":
            text = "".join(line + "\n" for line in out.lines)
        elif out.table is None:
            raise SeqLabError("csv output is not defined for %s" % args.command)
        else:
            buf = io.StringIO()
            csv.writer(buf).writerows([out.table[0], *out.table[1]])
            text = buf.getvalue()
        sys.stdout.write(text)
        return 0
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
