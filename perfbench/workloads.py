"""Seeded call lists for the benchmark workloads.

Every workload is a list of calls; a call is a dict with the CLI `argv`
(always `--format json`), a `kind` naming the subcommand, and `expect`,
facts the generator knows by construction that the oracle checks the
output against (an equivalent pair, a square, a non-primitive parameter).
The same (workload, seed) always gives the same list.

Only the mix of parameters depends on the seed.  The number of calls of
each kind and the window sizes are fixed multisets, shuffled by the seed,
so the amount of work stays nearly the same from seed to seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from typing import Dict, List, Tuple

WORKLOADS = ("table3", "explore", "algebra")

# table3: the six published rows over one window of TABLE3_PRIMES odd primes
# (the published window), plus a seeded offset below TABLE3_JITTER (under
# 3 % more work).
TABLE3_PRIMES = 1200
TABLE3_JITTER = 32

# explore: calls per kind, and the short windows they cycle through.
EXPLORE_MIX = (("divisors", 14), ("partition", 14), ("cubic", 8))
EXPLORE_FIRST = (160, 200, 240, 280, 320, 360, 400)
EXPLORE_BELOW = (1000, 1400, 1800, 2200, 2600)

# algebra: calls per kind; parameter families cycle through FAMILIES.
ALGEBRA_MIX = (("classify", 32), ("torsion", 32), ("sqrt", 32), ("laxton-eq", 32), ("seq", 32))
FAMILIES = ("generic", "circular", "cubic", "nonprimitive")

EXCLUDED = {Fraction(v) for v in (0, 1, -1, 2, -2)}


def fmt(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def pair_arg(a: Fraction, b: Fraction) -> str:
    return "%s,%s" % (fmt(a), fmt(b))


def det(t: Fraction, x0: Fraction, x1: Fraction, q: Fraction = Fraction(1)) -> Fraction:
    """det of the ring element [x0, x1] over (T, Q) = (t, q)."""
    return x1 * x1 - t * x0 * x1 + q * x0 * x0


def ring_mul(t: Fraction, x: Tuple[Fraction, Fraction], y: Tuple[Fraction, Fraction]) -> Tuple[Fraction, Fraction]:
    """Product in R(t), on second rows (Q = 1)."""
    return (x[1] * y[0] + x[0] * y[1] - t * x[0] * y[0], x[1] * y[1] - x[0] * y[0])


def reduce_pair(x0: Fraction, x1: Fraction) -> Tuple[int, int]:
    """The coprime integer pair of a class: a1 > 0, or a1 = 0 and a0 > 0."""
    x0, x1 = Fraction(x0), Fraction(x1)
    lcm = x0.denominator * x1.denominator // gcd(x0.denominator, x1.denominator)
    a0, a1 = int(x0 * lcm), int(x1 * lcm)
    g = gcd(a0, a1)
    a0, a1 = a0 // g, a1 // g
    if a1 < 0 or (a1 == 0 and a0 < 0):
        a0, a1 = -a0, -a1
    return a0, a1


def chebyshev_c(u: Fraction, r: int) -> Fraction:
    """C_r(u): C_0 = 2, C_1 = u, C_{n+1} = u*C_n - C_{n-1}."""
    a, b = Fraction(2), Fraction(u)
    for _ in range(r):
        a, b = b, u * b - a
    return a


def d_power(t: Fraction, k: int) -> Tuple[Fraction, Fraction]:
    """Second row [U_k, U_{k+1}] of D**k in R(t), for any integer k."""
    a, b = Fraction(0), Fraction(1)
    for _ in range(abs(k)):
        a, b = (b, t * b - a) if k > 0 else (t * a - b, a)
    return a, b


def rand_rational(rng: random.Random, num: int, den: int) -> Fraction:
    while True:
        n, d = rng.randint(-num, num), rng.randint(1, den)
        if n and gcd(n, d) == 1:
            return Fraction(n, d)


def generic_t(rng: random.Random) -> Fraction:
    while True:
        t = rand_rational(rng, 40, 9)
        if t not in EXCLUDED:
            return t


def circular_t(rng: random.Random) -> Fraction:
    """t = 2(1 - m**2)/(1 + m**2): t**2 + a**2 = 4 with a rational."""
    while True:
        m = rand_rational(rng, 6, 5)
        t = 2 * (1 - m * m) / (1 + m * m)
        if t not in EXCLUDED:
            return t


def cubic_t(rng: random.Random) -> Fraction:
    """t = 2(1 - 3m**2)/(1 + 3m**2): t**2 - 4 = -3f**2 with f rational."""
    while True:
        m = rand_rational(rng, 5, 5)
        t = 2 * (1 - 3 * m * m) / (1 + 3 * m * m)
        if t not in EXCLUDED:
            return t


def nonprimitive_t(rng: random.Random) -> Fraction:
    """t = C_r(u) for a prime r, so t is not primitive."""
    while True:
        r = rng.choice((2, 3))
        u = rand_rational(rng, 7, 2)
        t = chebyshev_c(u, r)
        if u not in EXCLUDED and t not in EXCLUDED:
            return t


FAMILY_T = {"generic": generic_t, "circular": circular_t, "cubic": cubic_t, "nonprimitive": nonprimitive_t}


def rand_pair(rng: random.Random, t: Fraction, span: int = 12, q: Fraction = Fraction(1)) -> Tuple[Fraction, Fraction]:
    """A pair of small integers with nonzero det over (t, q)."""
    while True:
        x = (Fraction(rng.randint(-span, span)), Fraction(rng.randint(-span, span)))
        if x != (0, 0) and det(t, x[0], x[1], q) != 0:
            return x


def spread(rng: random.Random, values, count: int) -> List:
    """`count` values cycling through `values`, in a seeded order."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def call(kind: str, argv: List[str], **expect) -> Dict:
    return {"kind": kind, "argv": argv + ["--format", "json"], "expect": expect}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def table3_calls(rng: random.Random) -> List[Dict]:
    k = TABLE3_PRIMES + rng.randrange(TABLE3_JITTER)
    argv = ["table3", "--window", "first:%d" % k, "--full",
            "--convention", rng.choice(("pi_t", "all"))]
    return [call("table3", argv)]


def explore_calls(rng: random.Random) -> List[Dict]:
    kinds = [kind for kind, n in EXPLORE_MIX for _ in range(n)]
    rng.shuffle(kinds)
    windows = {kind: spread(rng, ["first:%d" % k for k in EXPLORE_FIRST]
                            + ["below:%d" % b for b in EXPLORE_BELOW], n)
               for kind, n in EXPLORE_MIX}
    out = []
    for kind in kinds:
        window = windows[kind].pop()
        if kind == "cubic":
            out.append(call("cubic", ["partition", "--t", fmt(cubic_t(rng)), "--cubic", "--window", window]))
            continue
        t = generic_t(rng)
        x = rand_pair(rng, t)
        out.append(call(kind, [kind, "--t", fmt(t), "--x", pair_arg(*x), "--window", window]))
    return out


def parameter_pool(per_family: int) -> List[Tuple[str, Fraction]]:
    """The same `per_family` parameters of each family, whatever the seed.

    One classify or torsion call costs from 1 to 100 ms, by the divisor
    counts of its parameter, so a fresh draw of them per seed would move a
    pass's total by a tenth; the seed only orders this pool.
    """
    rng = random.Random("algebra-pool")
    return [(family, FAMILY_T[family](rng)) for family in FAMILIES for _ in range(per_family)]


def algebra_calls(rng: random.Random) -> List[Dict]:
    kinds = [kind for kind, n in ALGEBRA_MIX for _ in range(n)]
    rng.shuffle(kinds)
    families = {kind: spread(rng, FAMILIES, n) for kind, n in ALGEBRA_MIX}
    pools = {kind: spread(rng, parameter_pool(n // len(FAMILIES)), n) for kind, n in ALGEBRA_MIX
             if kind in ("classify", "torsion")}
    # half of the sqrt inputs are squares and half of the laxton-eq pairs are
    # built equivalent, so the root and witness paths run, not only rejects
    constructed = {kind: spread(rng, (True, False), n) for kind, n in ALGEBRA_MIX}
    out = []
    for kind in kinds:
        family = families[kind].pop()
        built = constructed[kind].pop()
        if kind in pools:
            family, t = pools[kind].pop()
            out.append(call(kind, [kind, "--t", fmt(t)], family=family))
            continue
        t = FAMILY_T[family](rng)
        if kind == "sqrt":
            z = rand_pair(rng, t, span=6)
            y = ring_mul(t, z, z) if built else rand_pair(rng, t)
            y = reduce_pair(*y)
            out.append(call(kind, ["sqrt", "--t", fmt(t), "--x", pair_arg(*map(Fraction, y))],
                            square=built))
        elif kind == "laxton-eq":
            x = rand_pair(rng, t)
            if built:
                k = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
                s = rand_rational(rng, 5, 5)
                y = tuple(s * v for v in ring_mul(t, d_power(t, k), x))
            else:
                y = rand_pair(rng, t)
            out.append(call(kind, ["laxton-eq", "--t", fmt(t), "--x", pair_arg(*x),
                                   "--y", pair_arg(*y)], equivalent=built or None))
        else:
            lo = rng.randint(-30, 0)
            hi = lo + rng.randint(30, 50)
            if built:
                ctx = ["--t", fmt(t)]
                x = rand_pair(rng, t)
            else:
                big_t, big_q = rand_rational(rng, 9, 3), rand_rational(rng, 9, 3)
                ctx = ["--T", fmt(big_t), "--Q", fmt(big_q)]
                x = rand_pair(rng, big_t, q=big_q)
            out.append(call(kind, ["seq"] + ctx + ["--x", pair_arg(*x), "--range", "%d..%d" % (lo, hi)]))
    return out


def generate(workload: str, seed: int) -> List[Dict]:
    """The call list of `workload` for `seed`."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "table3":
        return table3_calls(rng)
    if workload == "explore":
        return explore_calls(rng)
    if workload == "algebra":
        return algebra_calls(rng)
    raise ValueError("unknown workload %r" % workload)
