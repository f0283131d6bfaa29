"""Correctness oracle: seqlab outputs checked against literal definitions.

Nothing here imports seqlab.  Each check recomputes what an output claims
from the definitions, with integers and Fractions:

- prime windows and admissibility, by trial division;
- divisor membership, by scanning the terms mod p for one period,
  ord_p(D) terms, where ord_p(D) is the first n >= 1 with U_n = 0 mod p;
- torsion orders, by exact powering in the ring and searching the powers
  of D for a scalar multiple;
- laxton-eq witnesses, by checking x = scale * D**k * y in the ring;
- square roots, by squaring them;
- classify witnesses and seq terms, by the Chebyshev and term recursions.

Term scans and torsion powering are costly, so they run on a seeded sample
of primes and entries; everything else is checked on every call.
`check_calls` returns, for each refuted call, the reason.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import isqrt
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import chebyshev_c, d_power, reduce_pair, ring_mul

Pair = Tuple[Fraction, Fraction]

SCAN_PRIMES_PER_CALL = 6  # sampled primes per sweep call (per row for table3)
TORSION_ENTRIES_PER_CALL = 2  # sampled torsion entries per torsion call
D_POWER_SEARCH = 64  # |j| bound when looking for D**j among powers
LAXTON_NEGATIVE_SEARCH = 12  # |k| bound when confirming a "not equivalent"


class Refuted(Exception):
    pass


def expect(ok: bool, why: str) -> None:
    if not ok:
        raise Refuted(why)


def frac(text) -> Fraction:
    return Fraction(str(text))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, isqrt(n) + 1))


def rational_sqrt(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    return Fraction(rn, rd) if rn * rn == x.numerator and rd * rd == x.denominator else None


# ---------------------------------------------------------------------------
# windows and term scans
# ---------------------------------------------------------------------------


_ODD_PRIMES: List[int] = []


def odd_primes(mode: str, size: int) -> List[int]:
    """The first `size` odd primes, or the odd primes below `size`."""
    n = _ODD_PRIMES[-1] + 2 if _ODD_PRIMES else 3
    while (len(_ODD_PRIMES) < size) if mode == "first" else (n < size + 2):
        if is_prime(n):
            _ODD_PRIMES.append(n)
        n += 2
    if mode == "first":
        return _ODD_PRIMES[:size]
    return [p for p in _ODD_PRIMES if p < size]


def admissible(t: Fraction, p: int) -> bool:
    delta = t * t - 4
    return t.numerator % p != 0 and t.denominator % p != 0 and delta.numerator % p != 0


def check_window(t: Fraction, window: dict, eligible: int, excluded: Sequence[int]) -> List[int]:
    """The window's admissible primes, after checking the output's split."""
    primes = odd_primes(window["mode"], window["size"])
    good = [p for p in primes if admissible(t, p)]
    expect(len(good) == eligible, "eligible count %d, literal %d" % (eligible, len(good)))
    expect(list(excluded) == [p for p in primes if not admissible(t, p)], "excluded primes differ")
    return good


def ord_d(t_p: int, p: int) -> int:
    """ord_p(D): the first n >= 1 with U_n(t) = 0 mod p."""
    u0, u1, n = 0, 1, 1
    while u1 % p:
        u0, u1, n = u1, (t_p * u1 - u0) % p, n + 1
    return n


def divides_some_term(x: Pair, t_p: int, p: int, period: int) -> bool:
    """Whether p divides one of x_0 .. x_{period-1} of the class of x."""
    a0, a1 = reduce_pair(*x)
    a, b = a0 % p, a1 % p
    for _ in range(period):
        if a == 0:
            return True
        a, b = b, (t_p * b - a) % p
    return False


def scan_flags(t: Fraction, elements: Sequence[Pair], p: int) -> List[bool]:
    t_p = t.numerator * pow(t.denominator, -1, p) % p
    period = ord_d(t_p, p)
    return [divides_some_term(x, t_p, p, period) for x in elements]


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------


def arg(argv: Sequence[str], flag: str) -> Optional[str]:
    return argv[argv.index(flag) + 1] if flag in argv else None


def arg_pair(argv: Sequence[str], flag: str) -> Pair:
    a, b = arg(argv, flag).split(",")
    return frac(a), frac(b)


def check_table3(argv, out, expect_, rng) -> None:
    rows = out["rows"]
    expect(len(rows) == 6, "expected six rows")
    expect(out["convention"] == (arg(argv, "--convention") or "pi_t"), "convention echoed wrongly")
    for row in rows:
        T, Q = Fraction(row["T"]), Fraction(row["Q"])
        x0, x1 = map(Fraction, row["x"])
        t = T * T / Q - 2
        expect(frac(row["t"]) == t, "t of row (%s, %s)" % (T, Q))
        good = check_window(t, row["window"], row["eligible"], row["excluded"])
        x = (Q * x0, T * x1 - Q * x0)
        wx = ring_mul(t, (Fraction(-1), Fraction(1)), x)
        members = row["members"]
        mx, mwx = set(members["x"]), set(members["wx"])
        counts = row["counts"]
        expect((counts["x"], counts["wx"], counts["both"]) == (len(mx), len(mwx), len(mx & mwx)),
               "counts differ from members")
        dens = row["densities"]["pi_t"]
        expect(abs(dens["x"] - len(mx) / len(good)) < 1e-12, "density of X")
        expect(abs(dens["intersection"] - len(mx & mwx) / len(good)) < 1e-12, "density of the intersection")
        for p in rng.sample(good, min(SCAN_PRIMES_PER_CALL, len(good))):
            fx, fwx = scan_flags(t, (x, wx), p)
            expect(fx == (p in mx) and fwx == (p in mwx),
                   "row (%s, %s): membership of p = %d disagrees with the term scan" % (T, Q, p))


def check_divisors(argv, out, expect_, rng) -> None:
    t = frac(arg(argv, "--t"))
    x = arg_pair(argv, "--x")
    good = check_window(t, out["window"], out["eligible"], out["excluded"])
    gamma = set(out["gamma"])
    expect(gamma <= set(good), "divisor outside the admissible primes")
    expect(abs(out["density_pi_t"] - len(gamma) / len(good)) < 1e-12, "density of Gamma(X)")
    for p in rng.sample(good, min(SCAN_PRIMES_PER_CALL, len(good))):
        expect(scan_flags(t, (x,), p)[0] == (p in gamma), "p = %d disagrees with the term scan" % p)


SIX_CELLS = (("x_cx", 0, 1), ("x_wx", 0, 2), ("x_vx", 0, 3),
             ("wx_vx", 2, 3), ("cx_wx", 1, 2), ("cx_vx", 1, 3))


def check_partition(argv, out, expect_, rng) -> None:
    t = frac(arg(argv, "--t"))
    good = check_window(t, out["window"], out["eligible"], out["excluded"])
    cells = {k: set(v) for k, v in out["cells"].items()}
    if "--cubic" in argv:
        f = rational_sqrt((4 - t * t) / 3)
        expect(f is not None and f != 0, "t is not cubic")
        s, y = (Fraction(2), t + f), (Fraction(2), t + 3 * f)
        w = (Fraction(-1), Fraction(1))
        elements = (s, ring_mul(t, w, s), y, ring_mul(t, w, y))
        union = set(out["gamma_s"])
        for p in rng.sample(good, min(SCAN_PRIMES_PER_CALL, len(good))):
            fs, fws, fy, fwy = scan_flags(t, elements, p)
            expect(fs == (p in union), "p = %d in Gamma(S) disagrees with the term scan" % p)
            for name, flag in (("ws", fws), ("y", fy), ("wy", fwy)):
                expect(flag == (p in cells[name]), "p = %d in cell %s disagrees with the term scan" % (p, name))
        return
    x = arg_pair(argv, "--x")
    c, w, v = (Fraction(2), t), (Fraction(-1), Fraction(1)), (Fraction(1), Fraction(1))
    elements = (x, ring_mul(t, c, x), ring_mul(t, w, x), ring_mul(t, v, x), ring_mul(t, x, x))
    square = set(out["gamma_square"])
    for p in rng.sample(good, min(SCAN_PRIMES_PER_CALL, len(good))):
        flags = scan_flags(t, elements, p)
        expect(flags[4] == (p in square), "p = %d in Gamma(X^2) disagrees with the term scan" % p)
        for name, i, j in SIX_CELLS:
            expect((flags[i] and flags[j]) == (p in cells[name]),
                   "p = %d in cell %s disagrees with the term scan" % (p, name))


def check_classify(argv, out, expect_, rng) -> None:
    t = frac(arg(argv, "--t"))
    a = rational_sqrt(4 - t * t)
    f = rational_sqrt((4 - t * t) / 3)
    kind = "circular" if a else "cubic" if f else "generic"
    expect(out["kind"] == kind, "kind %s, literal %s" % (out["kind"], kind))
    if kind == "circular":
        expect(frac(out["a"]) == a, "circular associate a")
    if kind == "cubic":
        expect(frac(out["f"]) == f, "cubic f")
    for wit in out["witnesses"]:
        expect(wit["sign"] * chebyshev_c(frac(wit["u"]), wit["r"]) == t, "witness %r fails" % wit)
    expect(out["primitive"] == (not out["witnesses"]), "primitive flag and witnesses disagree")
    if expect_.get("family") == "nonprimitive":
        expect(not out["primitive"], "t = C_r(u) reported primitive")
    if "decomposition" in out:
        d = out["decomposition"]
        expect(d["sign"] * chebyshev_c(frac(d["u"]), d["m"]) == t, "decomposition fails")


def d_powers(t: Fraction, bound: int) -> Dict[int, Pair]:
    """D**j = [U_j, U_{j+1}] for |j| <= bound, with U_{-n} = -U_n."""
    u = [Fraction(0), Fraction(1)]
    while len(u) < bound + 2:
        u.append(t * u[-1] - u[-2])

    def at(n: int) -> Fraction:
        return u[n] if n >= 0 else -u[-n]

    return {j: (at(j), at(j + 1)) for j in range(-bound, bound + 1)}


def d_power_exponent(z: Pair, powers: Dict[int, Pair]) -> Optional[int]:
    """A j with z a scalar multiple of D**j among `powers`, else None."""
    for j, (u0, u1) in powers.items():
        if z[0] * u1 == z[1] * u0:
            return j
    return None


def check_torsion(argv, out, expect_, rng) -> None:
    t = frac(arg(argv, "--t"))
    entries = out["entries"]
    if not out["enumerated"]:
        expect(not entries, "structural table lists entries")
        return
    size = 1
    for n in out["group_type"]:
        size *= n
    if out["note"] == "":
        expect(len(entries) == size, "%d entries for a group of order %d" % (len(entries), size))
    powers = d_powers(t, D_POWER_SEARCH)
    for e in rng.sample(entries, min(TORSION_ENTRIES_PER_CALL, len(entries))):
        g = tuple(map(Fraction, e["element"]))
        n = e["order"]
        acc: Pair = (Fraction(0), Fraction(1))
        for m in range(1, n + 1):
            acc = ring_mul(t, acc, g)
            hit = d_power_exponent(acc, powers)
            expect((hit is not None) == (m == n),
                   "element %r: power %d %s a multiple of a D power" % (e["element"], m, "is" if hit is not None else "is not"))


def check_sqrt(argv, out, expect_, rng) -> None:
    t = frac(arg(argv, "--t"))
    y = tuple(map(frac, out["y"]))
    roots = [tuple(map(frac, r)) for r in out["roots"]]
    det = y[1] * y[1] - t * y[0] * y[1] + y[0] * y[0]
    expect(bool(roots) == (rational_sqrt(det) is not None), "roots exist iff det is a rational square")
    if expect_.get("square"):
        expect(len(roots) == 2, "a square must have two roots")
    if roots:
        expect(len(roots) == 2 and roots[0] != roots[1], "roots must be two distinct classes")
    for r in roots:
        r2 = ring_mul(t, r, r)
        expect(r2[0] * y[1] == r2[1] * y[0], "root %r does not square to y" % (r,))


def check_laxton_eq(argv, out, expect_, rng) -> None:
    t = frac(arg(argv, "--t"))
    x = tuple(map(frac, out["x"]))
    y = tuple(map(frac, out["y"]))
    expect(x == tuple(map(Fraction, reduce_pair(*arg_pair(argv, "--x")))), "x echoed wrongly")
    if out["equivalent"]:
        k, scale = out["witness"]["k"], frac(out["witness"]["scale"])
        got = ring_mul(t, d_power(t, k), y)
        expect((scale * got[0], scale * got[1]) == x, "witness x = scale * D^k * y fails")
        return
    expect(expect_.get("equivalent") is None, "built as y = s * D^k * x, reported not equivalent")
    for k in range(-LAXTON_NEGATIVE_SEARCH, LAXTON_NEGATIVE_SEARCH + 1):
        z = ring_mul(t, d_power(t, k), y)
        expect(z[0] * x[1] != z[1] * x[0], "not equivalent, yet x is a multiple of D^%d * y" % k)


def check_seq(argv, out, expect_, rng) -> None:
    if arg(argv, "--t") is not None:
        big_t, big_q = frac(arg(argv, "--t")), Fraction(1)
    else:
        big_t, big_q = frac(arg(argv, "--T")), frac(arg(argv, "--Q"))
    x0, x1 = arg_pair(argv, "--x")
    lo, hi = map(int, arg(argv, "--range").split(".."))
    terms = {0: x0, 1: x1}
    for n in range(2, hi + 1):
        terms[n] = big_t * terms[n - 1] - big_q * terms[n - 2]
    for n in range(-1, lo - 1, -1):
        terms[n] = (big_t * terms[n + 1] - terms[n + 2]) / big_q
    got = [(n, frac(v)) for n, v in out["terms"]]
    expect(got == [(n, terms[n]) for n in range(lo, hi + 1)], "terms differ from the recursion")


CHECKS = {
    "table3": check_table3, "divisors": check_divisors, "partition": check_partition,
    "classify": check_classify, "torsion": check_torsion, "sqrt": check_sqrt,
    "laxton-eq": check_laxton_eq, "seq": check_seq,
}


def check_calls(calls: Sequence[dict], outputs: Sequence[str], seed: int) -> Dict[int, str]:
    """Refuted call indices with the reason; an empty dict means all agree."""
    rng = random.Random("oracle:%d" % seed)
    refuted: Dict[int, str] = {}
    for i, (spec, text) in enumerate(zip(calls, outputs)):
        argv = spec["argv"]
        try:
            CHECKS[argv[0]](argv, json.loads(text), spec["expect"], rng)
        except Refuted as exc:
            refuted[i] = str(exc)
        except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
            refuted[i] = "malformed output: %s: %s" % (type(exc).__name__, exc)
    return refuted
