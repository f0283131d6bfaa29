"""Mod-p layer against brute-force oracles.

The oracles here know nothing about the group theory: they enumerate
projective classes directly, compute element orders by stepping, and decide
divisibility by scanning sequence terms mod p.  The layer must agree.  For
the larger seeded sets, orders come from a pair-power reference: classes
multiplied as 2-vectors by square-and-multiply, which shares nothing with
the layer's Lucas ladder.
"""

import itertools
import multiprocessing
import os
import random
from fractions import Fraction

import pytest

from seqlab import lab, modp, primes as primes_module
from seqlab.errors import DegenerateParameterError, ExcludedPrimeError, SingularElementError
from seqlab.ring import ParamPair
from seqlab.transforms import classify_cyclotomic
from seqlab.group import GroupElement, class_c, class_v, class_w, companion_class, primitivity
from seqlab.lab import PrimeWindow, cubic_partition, divisor_flags, gamma, partition_six
from seqlab.modp import (
    divisor_table,
    in_admissible_set,
    is_divisor,
    modp_context,
    modp_reduce,
    ord_companion,
    ord_p,
    qr_filter,
    trichotomy_class,
    xi,
)
from seqlab.primes import factorize, odd_primes_below

F = Fraction

T3 = ParamPair.one_param(3)


def t_mod_p(t, p):
    return t.numerator * pow(t.denominator, -1, p) % p


def brute_nonsingular_count(t, p):
    """Count projective classes (a0 : a1) over F_p with det != 0, directly."""
    tp = t_mod_p(t, p)
    count = 1  # the class (1 : 0) has det a0^2 = 1
    for c in range(p):  # classes (c : 1)
        det = (1 - tp * c + c * c) % p
        if det != 0:
            count += 1
    return count


def brute_class_order(t, p, pair):
    """Order of a class by repeated multiplication, no factoring tricks."""
    tp = t_mod_p(t, p)

    def mul(x, y):
        return ((x[1] * y[0] + x[0] * y[1] - tp * x[0] * y[0]) % p,
                (x[1] * y[1] - x[0] * y[0]) % p)

    def norm(x):
        if x[1] != 0:
            inv = pow(x[1], -1, p)
            return (x[0] * inv % p, 1)
        return (1, 0)

    start = norm(pair)
    acc = start
    for k in range(1, 2 * p + 3):
        if acc == (0, 1):
            return k
        acc = norm(mul(acc, start))
    raise AssertionError("order not found")


def brute_divides(t, x, p):
    """Does p divide some term x_n, n in [0, ord_p(D))? Term scan mod p."""
    tp = t_mod_p(t, p)
    a, b = x.a0 % p, x.a1 % p
    for _ in range(ord_companion(t, p)):
        if a == 0:
            return True
        a, b = b, (tp * b - a) % p
    return False


def test_admissible_set():
    # t = 3: delta = 5; excluded odd primes are 3 and 5
    assert not in_admissible_set(F(3), 3)
    assert not in_admissible_set(F(3), 5)
    assert not in_admissible_set(F(3), 2)
    assert all(in_admissible_set(F(3), p) for p in (7, 11, 13, 17, 19))
    # t = 19/3: denominator kills 3, numerator kills 19, delta = 325/9 kills 5, 13
    t = F(19, 3)
    for p in (3, 5, 13, 19):
        assert not in_admissible_set(t, p)
    assert in_admissible_set(t, 7)


def test_context_frozen_anchors():
    assert modp_context(3, 7).group_order == 8       # 5 is not a QR mod 7
    assert modp_context(3, 11).group_order == 10     # 5 = 4**2 mod 11
    assert ord_companion(3, 7) == 4
    assert xi(3, 7) == 8
    assert trichotomy_class(3, 7) == "C"
    with pytest.raises(ExcludedPrimeError):
        modp_context(3, 5)


@pytest.mark.parametrize("t", [F(3), F(-3), F(19, 3), F(6, 5), F(11, 7)])
def test_group_order_formula_vs_enumeration(t):
    for p in odd_primes_below(300):
        if not in_admissible_set(t, p):
            continue
        ctx = modp_context(t, p)
        assert ctx.group_order == brute_nonsingular_count(t, p)
        delta = t * t - 4
        dp = t_mod_p(delta, p)
        euler = pow(dp, (p - 1) // 2, p)
        assert ctx.group_order == (p - 1 if euler == 1 else p + 1)


@pytest.mark.parametrize("t", [F(3), F(19, 3)])
def test_ord_p_matches_brute_stepping(t):
    ctx = ParamPair.one_param(t)
    for p in odd_primes_below(80):
        if not in_admissible_set(t, p):
            continue
        for pair in ((1, 4), (2, 9), (1, 0), (5, 3)):
            x = GroupElement.from_pair(ctx, *pair)
            if x.det.numerator % p == 0:  # singular mod p, no order
                continue
            assert ord_p(modp_reduce(x, p)) == brute_class_order(t, p, pair)


def test_ord_divides_group_order():
    t = F(19, 3)
    ctx = ParamPair.one_param(t)
    for p in odd_primes_below(120):
        if not in_admissible_set(t, p):
            continue
        n = modp_context(t, p).group_order
        for pair in ((1, 4), (3, 2), (1, 7)):
            x = GroupElement.from_pair(ctx, *pair)
            if x.det.numerator % p == 0:
                continue
            assert n % ord_p(modp_reduce(x, p)) == 0


def test_xi_and_companion_order_relation():
    """ord(D) = xi if xi is odd, else xi/2 (W**2 is a shifted identity)."""
    for t in (F(3), F(19, 3), F(6, 5)):
        for p in odd_primes_below(150):
            if not in_admissible_set(t, p):
                continue
            k = xi(t, p)
            d = ord_companion(t, p)
            assert d == (k if k % 2 == 1 else k // 2)


def test_is_divisor_matches_scan():
    for t in (F(3), F(19, 3)):
        ctx = ParamPair.one_param(t)
        for pair in ((1, 3), (-1, 1), (1, 1), (2, 3), (1, 4), (3, 7)):
            x = GroupElement.from_pair(ctx, *pair)
            for p in odd_primes_below(120):
                if not in_admissible_set(t, p):
                    continue
                assert is_divisor(x, p) == brute_divides(t, x, p), (t, pair, p)


def test_is_divisor_frozen_anchor():
    # the W sequence at t = 3 mod 7 cycles through {6, 1, 4, 4, 1, 6, 3, 3}: no 0
    assert not is_divisor(class_w(3), 7)
    w = class_w(3).ring_element()
    assert [int(w.term(n)) % 7 for n in range(8)] == [6, 1, 4, 4, 1, 6, 3, 3]
    # D's sequence is U, and every admissible prime divides some U_n
    d = companion_class(T3)
    assert all(is_divisor(d, p) for p in (7, 11, 13, 17, 19, 23))


def test_is_divisor_singular_mod_p():
    # det[1, 5] = 11 at t = 3: the reduction mod 11 is singular, never a divisor
    x = GroupElement.from_pair(T3, 1, 5)
    assert not is_divisor(x, 11)
    with pytest.raises(SingularElementError):
        modp_reduce(x, 11)


def test_trichotomy_partition():
    for t in (F(3), F(19, 3), F(6, 5), F(11, 7)):
        for p in odd_primes_below(200):
            if not in_admissible_set(t, p):
                continue
            k = xi(t, p)
            cls = trichotomy_class(t, p)
            if k % 2 == 1:
                assert cls == "W"
            elif k % 4 == 2:
                assert cls == "V"
            else:
                assert cls == "C"
            # the named class divides, the other two do not
            w, v, c = class_w(t), class_v(t), class_c(ParamPair.one_param(t))
            hits = {name: is_divisor(g, p) for name, g in (("W", w), ("V", v), ("C", c))}
            assert hits[cls] is True
            assert sum(hits.values()) == 1


def test_trichotomy_frozen():
    got = [(p, trichotomy_class(3, p)) for p in (7, 11, 13, 17, 19, 23, 29, 31)]
    assert got == [(7, "C"), (11, "W"), (13, "V"), (17, "V"),
                   (19, "W"), (23, "C"), (29, "W"), (31, "W")]


def test_qr_filter_necessary_for_divisor():
    for t in (F(3), F(19, 3)):
        ctx = ParamPair.one_param(t)
        for pair in ((1, 3), (1, 4), (2, 5), (3, 8)):
            x = GroupElement.from_pair(ctx, *pair)
            for p in odd_primes_below(150):
                if not in_admissible_set(t, p):
                    continue
                if is_divisor(x, p):
                    assert qr_filter(x, p)


def test_qr_filter_euler():
    # det W = 5; QRs mod 11 are {1, 3, 4, 5, 9}
    assert qr_filter(class_w(3), 11)
    assert not qr_filter(class_w(3), 7)


# ---------------------------------------------------------------------------
# the order reference: pair powering, independent of the Lucas ladder
# ---------------------------------------------------------------------------


def pair_mul(tp, p, x, y):
    """(x1 + x0*e)(y1 + y0*e) mod p, with e**2 = -t*e - 1."""
    return ((x[1] * y[0] + x[0] * y[1] - tp * x[0] * y[0]) % p,
            (x[1] * y[1] - x[0] * y[0]) % p)


def pair_normalize(p, x):
    assert x[0] % p or x[1] % p, "zero pair mod %d" % p
    if x[1] % p:
        return (x[0] * pow(x[1], -1, p) % p, 1)
    return (1, 0)


def pair_pow(tp, p, x, n):
    """x**n mod p by square-and-multiply on 2-vectors, as a normalized class."""
    acc = (0, 1)
    while n:
        if n & 1:
            acc = pair_mul(tp, p, acc, x)
        x = pair_mul(tp, p, x, x)
        n >>= 1
    return pair_normalize(p, acc)


def pair_order(t, p, pair):
    """Order of a class nonsingular mod p, by descent through the factored
    group order p -+ 1: drop each prime q while x**(order/q) is a scalar."""
    tp = t_mod_p(t, p)
    order = p - 1 if pow((tp * tp - 4) % p, (p - 1) // 2, p) == 1 else p + 1
    for q in factorize(order):
        while order % q == 0 and pair_pow(tp, p, pair, order // q) == (0, 1):
            order //= q
    return order


def singular_mod(t, pair, p):
    tp = t_mod_p(t, p)
    return (pair[1] * pair[1] - tp * pair[0] * pair[1] + pair[0] * pair[0]) % p == 0


def descent_companion_order(t, p):
    """ord_p(D) by pair powering, the kernel's reference."""
    return pair_order(t, p, (1, t_mod_p(t, p)))


def descent_flag(x, p):
    pair = (x.a0, x.a1)
    if singular_mod(x.ctx.T, pair, p):
        return False
    return descent_companion_order(x.ctx.T, p) % pair_order(x.ctx.T, p, pair) == 0


# ---------------------------------------------------------------------------
# the batched kernel against the pair-power orders
# ---------------------------------------------------------------------------


def random_classes(rng, t, count):
    ctx = ParamPair.one_param(t)
    out = []
    while len(out) < count:
        a0, a1 = rng.randint(-40, 40), rng.randint(-40, 40)
        if (a0, a1) == (0, 0) or a1 * a1 - t * a0 * a1 + a0 * a0 == 0:
            continue
        out.append(GroupElement.from_pair(ctx, a0, a1))
    return out


@pytest.mark.parametrize("t, kind", [
    (F(3), "generic"), (F(19, 3), "generic"),
    (F(-6, 5), "circular"), (F(48, 25), "circular"),
    (F(11, 7), "cubic"), (F(-22, 13), "cubic"),
])
def test_batched_flags_match_descent(t, kind):
    assert classify_cyclotomic(t).kind == kind
    rng = random.Random(20211001)
    elements = random_classes(rng, t, 12) + [class_w(t), class_v(t), class_c(ParamPair.one_param(t))]
    primes = [p for p in odd_primes_below(700) if in_admissible_set(t, p)]
    table = divisor_flags(elements, primes)
    for p, row in zip(primes, table):
        assert row == tuple(descent_flag(x, p) for x in elements), (t, p)


def lucas_pairs():
    """10 000 seeded admissible (t, p) with p < 6000, sorted."""
    rng = random.Random(1992)
    primes = odd_primes_below(6000)
    pairs = set()
    while len(pairs) < 10000:
        t = F(rng.randint(-90, 90), rng.randint(1, 15))
        p = rng.choice(primes)
        if t in (0, 1, -1, 2, -2) or not in_admissible_set(t, p):
            continue
        pairs.add((t, p))
    return sorted(pairs)


def test_lucas_companion_order_matches_descent():
    for t, p in lucas_pairs():
        assert ord_companion(t, p) == descent_companion_order(t, p), (t, p)


def test_xi_and_trichotomy_match_pair_power_reference():
    for t, p in lucas_pairs():
        k = pair_order(t, p, (-1, 1))
        assert xi(t, p) == k, (t, p)
        assert trichotomy_class(t, p) == ("W" if k % 2 else "V" if k % 4 == 2 else "C"), (t, p)


@pytest.mark.parametrize("kind", ["integer", "fractional", "circular", "cubic"])
def test_ord_p_matches_pair_power_reference(kind):
    """ord_p on 125 seeded (t, p) per kind, p < 6000, four classes each: a
    random pair, the scalar [p, 1], [1, 0] and D (2 000 triples in all)."""
    rng = random.Random(0x0D + len(kind))
    primes = odd_primes_below(6000)
    for _ in range(125):
        while True:
            t, p = random_parameter(rng, kind), rng.choice(primes)
            if t not in (0, 1, -1, 2, -2) and in_admissible_set(t, p):
                break
        ctx = ParamPair.one_param(t)
        while True:
            pair = (rng.randint(-60, 60), rng.randint(-60, 60))
            if pair != (0, 0) and not singular_mod(t, pair, p):
                break
        for a0, a1 in (pair, (p, 1), (1, 0), (t.denominator, t.numerator)):
            x = GroupElement.from_pair(ctx, a0, a1)
            assert ord_p(modp_reduce(x, p)) == pair_order(t, p, (x.a0, x.a1)), (t, p, x)


def test_kernel_edge_cases():
    # det[1, 5] = 11 at t = 3: singular mod 11, never a divisor
    singular = GroupElement.from_pair(T3, 1, 5)
    # [7, 1] is the scalar 1 mod 7 (a0 = 0): in every subgroup
    scalar = GroupElement.from_pair(T3, 7, 1)
    d = companion_class(T3)
    assert divisor_table([singular, d], [11]) == [(False, True)]
    assert divisor_table([scalar, d], [7]) == [(True, True)]
    assert not is_divisor(singular, 11) and is_divisor(scalar, 7)
    assert all(is_divisor(d, p) for p in odd_primes_below(400) if in_admissible_set(F(3), p))


def test_kernel_mixes_parameters_in_one_call():
    t1, t2 = F(3), F(19, 3)
    x1 = GroupElement.from_pair(T3, 1, 4)
    x2 = GroupElement.from_pair(ParamPair.one_param(t2), 2, 9)
    elements = [x1, x2, class_w(t1), class_w(t2)]
    primes = [p for p in odd_primes_below(400) if in_admissible_set(t1, p) and in_admissible_set(t2, p)]
    table = divisor_flags(elements, primes)
    assert table == [tuple(is_divisor(x, p) for x in elements) for p in primes]
    assert table == [tuple(descent_flag(x, p) for x in elements) for p in primes]


def test_kernel_rejects_excluded_primes():
    x = GroupElement.from_pair(T3, 1, 4)
    for p in (2, 3, 5, 9, 15):  # 2, the primes dividing t(t^2 - 4) = 15, composites
        with pytest.raises(ExcludedPrimeError):
            divisor_flags([x], [7, p])
        with pytest.raises(ExcludedPrimeError):
            is_divisor(x, p)


@pytest.mark.parametrize("entry, message", [
    (lambda x: modp_reduce(x, 7), "mod-p reduction takes one-parameter classes"),
    (lambda x: qr_filter(x, 7), "QR filter takes one-parameter classes"),
    (lambda x: is_divisor(x, 7), "divisor test takes one-parameter classes"),
    (lambda x: divisor_table([x], [7]), "divisor test takes one-parameter classes"),
    (lambda x: gamma(x, PrimeWindow("first", 20)), "divisor sweeps take one-parameter classes"),
], ids=["modp_reduce", "qr_filter", "is_divisor", "divisor_table", "gamma"])
def test_two_parameter_classes_are_degenerate(entry, message):
    """A class over (T, Q) with Q != 1 is outside every mod-p entry point's
    domain, whatever the prime: the error names the parameter, not p."""
    x = GroupElement.from_pair(ParamPair(3, 2), 1, 4)
    with pytest.raises(DegenerateParameterError, match="^%s$" % message):
        entry(x)


def test_divisor_flags_parallel_equals_serial(monkeypatch):
    t = F(19, 3)
    elements = random_classes(random.Random(7), t, 3)
    primes = [p for p in odd_primes_below(238_000) if in_admissible_set(t, p)]
    assert len(primes) >= lab.POOL_MIN_ROWS  # one t: below that the serial path runs
    # four CPUs to run on, so a one-CPU runner still pools; the pool is held
    # here, so only an explicit stop ends its workers
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    started, pools = [], []
    real_pool = multiprocessing.get_context().Pool

    def counted_pool(n):
        started.append(n)
        pools.append(real_pool(n))
        return pools[-1]

    monkeypatch.setattr(multiprocessing, "Pool", counted_pool)
    assert divisor_flags(elements, primes) == divisor_table(elements, primes)
    assert started == [4]
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# the ladder test against a literal term scan
# ---------------------------------------------------------------------------


def period_scan_divides(t, a0, a1, p):
    """Does p divide some x_n? Step x_{n+1} = t*x_n - x_{n-1} mod p until
    the state (x_n, x_{n+1}) comes back to (x_0, x_1)."""
    tp = t_mod_p(t, p)
    start = a, b = a0 % p, a1 % p
    while a != 0:
        a, b = b, (tp * b - a) % p
        if (a, b) == start:
            return False
    return True


def random_parameter(rng, kind):
    """A random t of the given kind; circular and cubic t come from m = u/v."""
    u, v = rng.randint(1, 30), rng.randint(1, 30)
    return {
        "integer": F(rng.choice([-1, 1]) * rng.randint(3, 60)),
        "fractional": F(rng.randint(-200, 200), rng.randint(2, 40)),
        "circular": F(2 * (v * v - u * u), v * v + u * u),
        "cubic": F(2 * (v * v - 3 * u * u), v * v + 3 * u * u),
    }[kind]


def special_pairs(t, p):
    """Integer pairs that are singular, scalar or traceless mod p."""
    tp = t_mod_p(t, p)
    pairs = [(p, 1), (3 * p, -2), (2, tp), (2 * t.denominator, t.numerator)]
    roots = [r for r in range(p) if (r * r - tp * r + 1) % p == 0]  # det(1, r) = 0 mod p
    return pairs + [(1, r) for r in roots] + [(1, r + p) for r in roots]


@pytest.mark.parametrize("kind", ["integer", "fractional", "circular", "cubic"])
def test_ladder_test_matches_period_scan(kind):
    rng = random.Random(0x5EED + len(kind))
    primes = odd_primes_below(600)
    cases = 0
    while cases < 60:
        t = random_parameter(rng, kind)
        p = rng.choice(primes)
        if t in (0, 1, -1, 2, -2) or not in_admissible_set(t, p):
            continue
        assert classify_cyclotomic(t).kind == kind or kind in ("integer", "fractional")
        ctx = ParamPair.one_param(t)
        pairs = special_pairs(t, p) + [(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(8)]
        elements = []
        for a0, a1 in pairs:
            if (a0, a1) != (0, 0) and a1 * a1 - t * a0 * a1 + a0 * a0 != 0:
                elements.append(GroupElement.from_pair(ctx, a0, a1))
        (row,) = divisor_table(elements, [p])
        assert row == tuple(period_scan_divides(t, x.a0, x.a1, p) for x in elements), (t, p)
        cases += 1


def test_ladder_test_special_classes():
    """Singular classes never divide, scalar classes always do, and a
    traceless class (z = -1) divides exactly when ord_p(D) is even."""
    parities = set()
    for t in (F(3), F(19, 3), F(-6, 5), F(11, 7)):
        ctx = ParamPair.one_param(t)
        for p in odd_primes_below(400):
            if not in_admissible_set(t, p):
                continue
            m = ord_companion(t, p)
            tp = t_mod_p(t, p)
            scalar = GroupElement.from_pair(ctx, p, 1)
            traceless = [GroupElement.from_pair(ctx, 2, tp), GroupElement.from_pair(ctx, 2 * t.denominator, t.numerator)]
            singular = [GroupElement.from_pair(ctx, 1, r) for r in range(p) if (r * r - tp * r + 1) % p == 0]
            (row,) = divisor_table([scalar] + traceless + singular, [p])
            assert row == (True,) + (m % 2 == 0,) * 2 + (False,) * len(singular), (t, p)
            parities.add(m % 2)
    assert parities == {0, 1}


# ---------------------------------------------------------------------------
# the Euler gate: the index of <D> and the ladder-only reference
# ---------------------------------------------------------------------------


def ladder_only_flag(t_p, p, m, a0, a1):
    """The divisor test with no gate: det != 0 and V_m(tr**2/det - 2) = 2
    on the Lucas ladder, for every class on every row."""
    det = (a1 * a1 - t_p * a0 * a1 + a0 * a0) % p
    if det == 0:
        return False
    tr = 2 * a1 - t_p * a0
    return modp._lucas_v((tr * tr * pow(det, -1, p) - 2) % p, p, m) == 2


@pytest.mark.parametrize("kind", ["integer", "fractional", "circular", "cubic"])
def test_index_of_companion_subgroup_is_even(kind):
    """k = N/ord_p(D) is even on 400 seeded rows per kind, p < 5000: <D>
    lies in the squares, as det D = 1.  Both k = 2 and k >= 4 occur."""
    rng = random.Random(0x1DE + len(kind))
    primes = odd_primes_below(5000)
    seen = set()
    for _ in range(400):
        while True:
            t, p = random_parameter(rng, kind), rng.choice(primes)
            if t not in (0, 1, -1, 2, -2) and in_admissible_set(t, p):
                break
        ctx = modp_context(t, p)
        k, rest = divmod(ctx.group_order, ctx.companion_order)
        assert rest == 0 and k % 2 == 0, (t, p, k)
        seen.add(min(k, 4))
    assert seen == {2, 4}


@pytest.mark.parametrize("kind", ["integer", "fractional", "circular", "cubic"])
def test_lazy_index_matches_full_descent(kind):
    """On 300 seeded fresh rows per kind, p < 5000, the index k that a row
    finds on demand, from one descent whose 2-part Euler's criterion on
    t + 2 settles, equals N // ord_p(D) from the descent over all of N.
    Rows with N = 0 mod 4 occur, with t + 2 a residue and with t + 2 a
    non-residue, and so do rows with N = 2 mod 4 except for circular t:
    there t**2 - 4 is -1 times a square, so N = p - 1 exactly when
    p = 1 mod 4 and N = 0 mod 4 always."""
    rng = random.Random(0x1A2 + len(kind))
    primes = odd_primes_below(5000)
    branches = set()
    for _ in range(300):
        while True:
            t, p = random_parameter(rng, kind), rng.choice(primes)
            if t not in (0, 1, -1, 2, -2) and in_admissible_set(t, p):
                break
        row = modp._row.__wrapped__(t.numerator, t.denominator, p)
        assert row[2] == 0
        t_p, n = row[0], p + row[1]
        eager = n // modp._order((t_p * t_p - 2) % p, p, n)
        assert modp._index(row, p) == row[2] == eager, (t, p)
        residue = pow((t_p + 2) % p, (p - 1) // 2, p) == 1
        branches.add("2 mod 4" if n % 4 else "t + 2 residue" if residue else "t + 2 non-residue")
    four = {"t + 2 residue", "t + 2 non-residue"}
    assert branches == (four if kind == "circular" else four | {"2 mod 4"})


def test_rows_find_the_index_only_for_a_residue_class(monkeypatch):
    """A sweep runs the order descent only on rows where some class has a
    nonzero residue det, once each; an identical second sweep runs none."""
    descents = []
    real_order = modp._order
    monkeypatch.setattr(modp, "_order", lambda s, p, n: descents.append(p) or real_order(s, p, n))
    modp._row.cache_clear()
    t = F(19, 3)
    elements = random_classes(random.Random(17), t, 2)
    primes = [p for p in odd_primes_below(5000) if in_admissible_set(t, p)]
    tp = {p: t_mod_p(t, p) for p in primes}
    needed = [p for p in primes
              if any(pow(x.a1 * x.a1 - tp[p] * x.a0 * x.a1 + x.a0 * x.a0, (p - 1) // 2, p) == 1
                     for x in elements)]
    table = divisor_table(elements, primes)
    assert descents == needed and 0 < len(needed) < len(primes) - 100
    descents.clear()
    assert divisor_table(elements, primes) == table
    assert descents == []


@pytest.mark.parametrize("t", [F(3), F(19, 3), F(-6, 5), F(11, 7)])
def test_gate_matches_ladder_reference_on_every_class(t):
    """Every class (a0, a1) mod p for every admissible p < 60: the kernel
    (Euler's criterion, then the ladder when k >= 4) equals the ladder-only
    test; a sample of them equals a literal term scan."""
    ctx = ParamPair.one_param(t)
    kinds, indices = set(), set()
    sample = random.Random(60)
    for p in odd_primes_below(60):
        if not in_admissible_set(t, p):
            continue
        row = modp_context(t, p)
        t_p, m = row.t_p, row.companion_order
        indices.add(min(row.group_order // m, 4))
        classes = [(a0, a1) for a0 in range(p) for a1 in range(p) if (a0, a1) != (0, 0)]
        elements = [GroupElement.from_pair(ctx, a0, a1) for a0, a1 in classes]
        (flags,) = divisor_table(elements, [p])
        for (a0, a1), x, flag in zip(classes, elements, flags):
            assert flag == ladder_only_flag(t_p, p, m, x.a0, x.a1), (t, p, a0, a1)
            if (a1 * a1 - t_p * a0 * a1 + a0 * a0) % p == 0:
                kinds.add("singular")
            elif a0 == 0:
                kinds.add("scalar")
            elif (2 * a1 - t_p * a0) % p == 0:
                kinds.add("traceless")
            if sample.random() < 0.05:
                assert flag == period_scan_divides(t, a0, a1, p), (t, p, a0, a1)
    assert kinds == {"singular", "scalar", "traceless"} and indices == {2, 4}


def test_window_sweeps_neither_test_primality_nor_factor(monkeypatch):
    """Rows built by a sweep read p's primality and the factors of p +- 1
    off the window's sieve: neither Miller-Rabin nor trial division runs,
    and a primitivity call or a smaller sieve after the sweep keeps the
    table."""
    counts = {"_miller_rabin": 0, "_trial_division": 0}

    def counted(name, real):
        def call(n):
            counts[name] += 1
            return real(n)
        return call

    for name in counts:
        monkeypatch.setattr(primes_module, name, counted(name, getattr(primes_module, name)))
    monkeypatch.setattr(primes_module, "_table", (0, memoryview(b"").cast("H")))
    modp._row.cache_clear()
    t = F(19, 3)
    x = GroupElement.from_pair(ParamPair.one_param(t), 1, 4)
    window = PrimeWindow("first", 700)
    assert len(gamma(x, window)) > 100
    partition_six(x, window)
    cubic_partition(F(11, 7), PrimeWindow("below", 5000))
    assert modp._row.cache_info().misses > 1300
    assert counts == {"_miller_rabin": 0, "_trial_division": 0}
    table = primes_module._table
    primitivity(3)
    odd_primes_below(100)
    assert primes_module._table is table


def valuation(n, q):
    e = 0
    while n % q == 0:
        n //= q
        e += 1
    return e


def group_order_ref(t, p):
    tp = t_mod_p(t, p)
    return p - 1 if pow((tp * tp - 4) % p, (p - 1) // 2, p) == 1 else p + 1


@pytest.mark.parametrize("p, n, sample", [
    (97, 96, None), (127, 128, None), (163, 162, None), (257, 256, None),  # 2**5*3, 2**7, 2*3**4, 2**8
    (487, 486, 60), (769, 768, 60),  # 2*3**5, 2**8*3
])
def test_orders_on_high_prime_powers_match_stepping(p, n, sample):
    """ord_p, ord_companion and xi against order by stepping, on groups
    whose order carries a high prime power, where the descent divides by
    the same q many times: every class mod p, or a seeded sample plus the
    scalar class (order 1) and a traceless class (order 2)."""
    t = next(F(c) for c in itertools.count(3) if in_admissible_set(F(c), p) and group_order_ref(F(c), p) == n)
    tp = t_mod_p(t, p)
    ctx = ParamPair.one_param(t)
    classes = [(1, 0)] + [(c, 1) for c in range(p)]
    if sample:
        classes = [(0, 1), (2, tp)] + random.Random(p).sample(classes, sample)
    seen = set()
    for pair in classes:
        if singular_mod(t, pair, p):
            continue
        order = brute_class_order(t, p, pair)
        assert ord_p(modp_reduce(GroupElement.from_pair(ctx, *pair), p)) == order, (t, p, pair)
        seen.add(order)
    assert ord_companion(t, p) == brute_class_order(t, p, (1, tp))
    assert xi(t, p) == brute_class_order(t, p, (-1, 1))
    assert {1, 2} <= seen
    if not sample:  # a cyclic group has an element of every order dividing n
        assert seen == {d for d in range(1, n + 1) if n % d == 0}


def companion_descent_range(t, p):
    """(n, m'): the range the descent for ord_p(D) runs over and the order
    it finds there, from the pair-power reference.  With half = N/2: half
    itself when it is odd, half/2 when 4 | N and t + 2 is a residue, else
    the odd part half/2**a, where it finds ord_p(D)/2**a."""
    n, m = group_order_ref(t, p), descent_companion_order(t, p)
    half = n // 2
    if half % 2:
        return half, m
    if pow((t_mod_p(t, p) + 2) % p, (p - 1) // 2, p) == 1:
        return half // 2, m
    a = valuation(half, 2)
    return half >> a, m >> a


def test_descent_runs_one_ladder_per_prime_it_keeps(monkeypatch):
    """On the rows of one sweep, each descent for ord_p(D), over the range
    n that companion_descent_range gives, runs sum over q | n of
    min(e_q, v_q(n/m') + 1) ladders, with e_q = v_q(n) and m' the order it
    finds: one per prime, and one more per factor q it divides out."""
    ladders, descents = [], []
    real_order, real_lucas = modp._order, modp._lucas_v

    def counted_lucas(s, p, n):
        ladders.append(n)
        return real_lucas(s, p, n)

    def counted_order(s, p, n):
        start = len(ladders)
        m = real_order(s, p, n)
        descents.append((p, n, len(ladders) - start))
        return m

    monkeypatch.setattr(modp, "_lucas_v", counted_lucas)
    monkeypatch.setattr(modp, "_order", counted_order)
    modp._row.cache_clear()
    t = F(19, 3)
    elements = random_classes(random.Random(18), t, 3)
    primes = lab.window_split(t, PrimeWindow("first", 700))[0]
    divisor_table(elements, primes)
    repeats = 0
    for p, n, count in descents:
        expected, m = companion_descent_range(t, p)
        assert n == expected and n % m == 0, p
        steps = [min(e, valuation(n // m, q) + 1) for q, e in factorize(n).items()]
        assert count == sum(steps), (p, n, m)
        repeats += any(step > 1 for step in steps)
    assert len(descents) > 500 and repeats > 20


def test_row_cache_is_bounded():
    caches = [f for f in vars(modp).values() if hasattr(f, "cache_info")]
    assert caches == [modp._row]
    assert all(f.cache_info().maxsize is not None for f in caches)
    assert modp._row.cache_info().maxsize >= 6 * 1232  # one table3 window of six rows


def test_qr_filter_and_xi_run_no_companion_descent(monkeypatch):
    """qr_filter needs only t_p, and xi runs only its own descent: neither
    finds ord_p(D) on a fresh row."""
    descents = []
    real_order = modp._order
    monkeypatch.setattr(modp, "_order", lambda s, p, n: descents.append(p) or real_order(s, p, n))
    modp._row.cache_clear()
    t = F(19, 3)
    x = GroupElement.from_pair(ParamPair.one_param(t), 2, 7)
    primes = [p for p in odd_primes_below(20_000) if in_admissible_set(t, p)]
    assert len(primes) == 2257
    flags = [qr_filter(x, p) for p in primes]
    assert descents == [] and 0 < sum(flags) < len(primes)
    modp._row.cache_clear()
    for p in primes[:500]:
        xi(t, p)
    assert descents == primes[:500]


def test_modp_reduce_runs_no_companion_descent(monkeypatch):
    """modp_reduce needs only t_p: 500 reductions on fresh rows run no
    descent, ord_p then runs only its own, and companion_order finds
    ord_p(D) when it is read, once per row."""
    descents = []
    real_order = modp._order
    monkeypatch.setattr(modp, "_order", lambda s, p, n: descents.append(p) or real_order(s, p, n))
    modp._row.cache_clear()
    t = F(19, 3)
    x = GroupElement.from_pair(ParamPair.one_param(t), 2, 7)  # det -107/3
    primes = [p for p in odd_primes_below(5000) if in_admissible_set(t, p) and p != 107][:500]
    assert len(primes) == 500
    reduced = [modp_reduce(x, p) for p in primes]
    assert descents == []
    orders = [ord_p(r) for r in reduced]
    assert descents == primes
    del descents[:]
    ms = [r.ctx.companion_order for r in reduced] + [r.ctx.companion_order for r in reduced]
    assert descents == primes
    modp._row.cache_clear()
    assert ms[:500] == ms[500:] == [modp_context(t, p).companion_order for p in primes]
    assert [m % n == 0 for m, n in zip(ms, orders)] == [is_divisor(x, p) for p in primes]


def test_excluded_prime_messages():
    x = GroupElement.from_pair(T3, 1, 4)
    y = GroupElement.from_pair(ParamPair.one_param(F(19, 3)), 2, 9)
    for elem, p, t in ((x, 2, "3"), (x, 5, "3"), (x, 9, "3"), (y, 13, "19/3"), (y, 19, "19/3"), (y, 21, "19/3")):
        with pytest.raises(ExcludedPrimeError, match=r"^p = %d is not admissible for t = %s$" % (p, t)):
            divisor_table([elem], [7, p])


def test_warm_rows_need_no_factoring(monkeypatch):
    """Once the rows are cached, modp_reduce, qr_filter and ord_companion
    factor nothing; ord_p and xi read the group order's factors off the
    window's sieve, as the rows do, and a smaller sieve keeps it."""
    monkeypatch.setattr(primes_module, "_table", (0, memoryview(b"").cast("H")))
    t = F(19, 3)
    primes = [p for p in odd_primes_below(800) if in_admissible_set(t, p)]
    for p in primes:
        ord_companion(t, p)
    calls, trial = [], []
    real, real_trial = primes_module.factorize, primes_module._trial_division
    monkeypatch.setattr(primes_module, "factorize", lambda n: calls.append(n) or real(n))
    monkeypatch.setattr(primes_module, "_trial_division", lambda n: trial.append(n) or real_trial(n))
    x = GroupElement.from_pair(ParamPair.one_param(t), 2, 7)
    reduced = []
    for p in primes:
        ord_companion(t, p)
        qr_filter(x, p)
        try:
            reduced.append(modp_reduce(x, p))
        except SingularElementError:
            pass
    assert calls == [] and len(reduced) > 100
    for el in reduced:
        assert ord_p(el) == pair_order(t, el.ctx.p, (el.a0, el.a1))
        assert xi(t, el.ctx.p) == pair_order(t, el.ctx.p, (-1, 1))
    assert len(calls) == 2 * len(reduced) and trial == []
    odd_primes_below(100)  # a smaller sieve keeps the table
    for el in reduced:
        ord_p(el)
        xi(t, el.ctx.p)
    assert trial == []
