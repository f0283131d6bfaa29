"""Sequence-group layer: reduction to canonical coprime pairs, group laws,
square roots, torsion and Chebyshev primitivity."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seqlab import primes
from seqlab.errors import ContextMismatchError, DegenerateParameterError, SingularElementError
from seqlab.primes import primes_below
from seqlab.rational import divisors
from seqlab.ring import ParamPair, chebyshev_c, make_element
from seqlab.lab import PrimeWindow, gamma
from seqlab.rational import is_rational_square
from seqlab.group import (
    GroupElement,
    _cleared_det,
    _has_square_det,
    _lucas_v,
    _reduced,
    class_c,
    class_v,
    class_w,
    companion_class,
    group_sqrt,
    identity_class,
    maximal_decomposition,
    primitivity,
    reduce_element,
    torsion_l,
)

F = Fraction

T3 = ParamPair.one_param(3)

small_rationals = st.fractions(min_value=-8, max_value=8, max_denominator=5)

group_ts = st.sampled_from([F(3), F(-3), F(19, 3), F(6, 5), F(11, 7), F(7, 2), F(5)])


@st.composite
def group_elements(draw, ts=group_ts):
    ctx = ParamPair.one_param(draw(ts))
    a0 = draw(small_rationals)
    a1 = draw(small_rationals)
    det = a1 * a1 - ctx.T * a0 * a1 + a0 * a0
    if det == 0:
        a0, a1 = 0, 1
    return GroupElement.from_pair(ctx, a0, a1)


def test_reduction_normal_form():
    x = GroupElement.from_pair(T3, F(2, 3), F(-4, 5))
    assert (x.a0, x.a1) == (-5, 6)
    assert GroupElement.from_pair(T3, 10, 15) == GroupElement.from_pair(T3, 2, 3)
    assert GroupElement.from_pair(T3, -2, -3) == GroupElement.from_pair(T3, 2, 3)
    # sign rule: a1 > 0, or a1 == 0 and a0 > 0
    x = GroupElement.from_pair(T3, -7, 0)
    assert (x.a0, x.a1) == (1, 0)
    x = GroupElement.from_pair(T3, -3, -7)
    assert (x.a0, x.a1) == (3, 7)
    x = GroupElement.from_pair(T3, 1, -1)
    assert (x.a0, x.a1) == (-1, 1)


def test_from_pair_rejects():
    # at t = 3 the det form is anisotropic over Q, so only (0, 0) is singular
    with pytest.raises(SingularElementError):
        GroupElement.from_pair(T3, 0, 0)
    # over (5, 4) the discriminant 9 is a square and [1, 4] has det 0
    with pytest.raises(SingularElementError):
        GroupElement.from_pair(ParamPair(5, 4), 1, 4)


def test_excluded_parameter_rejected():
    for t in (0, 1, -1, 2, -2):
        if t == 0:
            continue
        with pytest.raises(DegenerateParameterError):
            GroupElement.from_pair(ParamPair.one_param(t), 1, 4)
    # two-parameter contexts whose split parameter is excluded fail too
    with pytest.raises(DegenerateParameterError):
        GroupElement.from_pair(ParamPair(2, 1), 1, 4)  # t = 2
    with pytest.raises(DegenerateParameterError):
        GroupElement.from_pair(ParamPair(1, 1), 1, 4)  # t = -1
    # while a generic two-parameter context works
    GroupElement.from_pair(ParamPair(5, 3), 1, 4)


@given(group_elements(), st.data())
def test_group_laws(x, data):
    ctx = x.ctx
    y = data.draw(group_elements(ts=st.just(ctx.T)))
    z = data.draw(group_elements(ts=st.just(ctx.T)))
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * identity_class(ctx) == x
    assert x * x.inverse() == identity_class(ctx)
    assert (x ** 3) == x * x * x
    assert (x ** -2) == (x.inverse()) ** 2
    assert x ** 0 == identity_class(ctx)


# integer and fractional t, negative Q, T or Q with a denominator, and
# (-5, 5), where the class of D**-2 is [-1, 1]
PRODUCT_CONTEXTS = [ParamPair.one_param(t) for t in (F(3), F(-3), F(7), F(19, 3), F(6, 5), F(11, 7))] + [
    ParamPair(3, -2), ParamPair(2, -5), ParamPair(F(7, 2), F(5, 3)), ParamPair(3, F(2, 7)),
    ParamPair(F(-1, 4), -3), ParamPair(-5, 5),
]


def _random_class(rng, ctx):
    while True:
        x0, x1 = F(rng.randint(-40, 40), rng.randint(1, 9)), F(rng.randint(-40, 40), rng.randint(1, 9))
        x = make_element(ctx, x0, x1)
        if x.det != 0:
            return reduce_element(x)


def test_integer_product_matches_ring_arithmetic():
    """Class products and inverses agree with the ring product and conjugate."""
    rng = random.Random(20261019)
    for ctx in PRODUCT_CONTEXTS:
        for _ in range(150):
            x, y = _random_class(rng, ctx), _random_class(rng, ctx)
            assert x * y == reduce_element(x.ring_element() * y.ring_element())
            assert x.inverse() == reduce_element(x.ring_element().conjugate())
            # deep products leave the small pairs the draws cover
            z = x * y * x * y.inverse()
            assert z == reduce_element(x.ring_element() ** 2)


def test_product_across_contexts_rejected():
    x = GroupElement.from_pair(T3, 1, 4)
    for ctx in (ParamPair.one_param(F(19, 3)), ParamPair(3, 2)):
        with pytest.raises(ContextMismatchError):
            x * GroupElement.from_pair(ctx, 1, 4)


# Contexts (r + s, r*s) with rational roots r, s of x**2 - T*x + Q, where
# the classes [1, r] and [1, s] are singular; the first two have Q = 1.
ROOT_PAIRS = [(F(3, 2), F(2, 3)), (F(-5, 4), F(-4, 5)), (F(2, 5), F(-3, 7)), (F(7, 3), F(1, 6)), (F(-9, 2), F(1, 4))]


def test_integer_det_tests_match_the_fraction_det():
    """Over one- and two-parameter contexts with L > 1, the integer L*det
    is L times det, its squareness test is is_rational_square(det) and its
    zero test is det == 0, on seeded pairs, squares, the identity and the
    singular pairs [1, r]."""
    rng = random.Random(0xC1EA2ED)
    contexts = [ParamPair(r + s, r * s) for r, s in ROOT_PAIRS] + [
        ParamPair.one_param(t) for t in (F(19, 3), F(6, 5), F(-7, 4), F(11, 7), F(1, 3))
    ] + [ParamPair(F(5, 2), F(-3, 4)), ParamPair(F(1, 3), F(7, 5)), ParamPair(-5, F(2, 9))]
    seen = {"one_param": 0, "negative": 0, "square": 0, "singular": 0}
    for i, ctx in enumerate(contexts):
        L = ctx.cleared[0]
        assert L > 1 and ctx.cleared == (L, ctx.T * L, ctx.Q * L)
        cases = [GroupElement(ctx, 0, 1)]
        for _ in range(60):
            cases.append(_reduced(ctx, rng.randint(-30, 30), rng.randint(1, 30)))
        for _ in range(30):
            g = _reduced(ctx, rng.randint(-12, 12), rng.randint(1, 12))
            if g.det != 0:
                cases.append(g * g)
        if i < len(ROOT_PAIRS):
            for r in ROOT_PAIRS[i]:
                cases.append(_reduced(ctx, r.denominator, r.numerator))
                with pytest.raises(SingularElementError):
                    GroupElement.from_pair(ctx, 1, r)
        for g in cases:
            det = g.det
            assert _cleared_det(g) == det * L, (ctx, g)
            assert _has_square_det(g) == is_rational_square(det), (ctx, g)
            assert (_cleared_det(g) == 0) == (det == 0), (ctx, g)
            seen["one_param"] += ctx.is_one_param
            seen["negative"] += det < 0
            seen["square"] += det != 0 and is_rational_square(det)
            seen["singular"] += det == 0
    assert seen["one_param"] > 500 and seen["negative"] > 100
    assert seen["square"] > 300 and seen["singular"] >= 2 * len(ROOT_PAIRS)


def test_from_pair_rejects_t_zero_rings():
    """T = 0 rings exist, but their split parameter -2 (or t = 0) is excluded."""
    for ctx in (ParamPair(0, 3), ParamPair(0, F(-2, 5)), ParamPair.one_param(0)):
        with pytest.raises(DegenerateParameterError):
            GroupElement.from_pair(ctx, 1, 4)


@given(group_elements())
def test_reduce_element_consistent(x):
    assert reduce_element(x.ring_element()) == x
    assert reduce_element(F(7, 3) * x.ring_element()) == x


def test_det_is_class_invariant_up_to_squares():
    x = GroupElement.from_pair(T3, 1, 5)
    assert x.det == 25 - 15 + 1
    y = GroupElement.from_pair(T3, 2, 10)
    assert y == x


@given(group_elements())
@settings(max_examples=60)
def test_sqrt_of_square(x):
    roots = group_sqrt(x * x)
    c = class_c(x.ctx)
    assert set(roots) == {x, c * x}


@given(group_elements())
@settings(max_examples=60)
def test_sqrt_roots_square_back(x):
    for r in group_sqrt(x * x):
        assert r * r == x * x


def test_sqrt_nonsquare_det_empty():
    # det[1, 1] = 2 - t = -1 at t = 3: not a rational square
    assert group_sqrt(GroupElement.from_pair(T3, 1, 1)) == ()
    assert group_sqrt(GroupElement.from_pair(T3, 1, 2)) == ()


def test_sqrt_identity_and_dinverse():
    assert set(group_sqrt(identity_class(T3))) == {identity_class(T3), class_c(T3)}
    dinv = companion_class(T3).inverse()
    assert set(group_sqrt(dinv)) == {class_w(3), class_v(3)}


def test_sqrt_circular_c():
    """At circular t the order-2 class C gains the roots G, H = [2, t +- a]."""
    t = F(6, 5)
    ctx = ParamPair.one_param(t)
    roots = group_sqrt(class_c(ctx))
    expected = {GroupElement.from_pair(ctx, 2, t + F(8, 5)),
                GroupElement.from_pair(ctx, 2, t - F(8, 5))}
    assert set(roots) == expected
    for g in roots:
        assert g * g == class_c(ctx)
        assert g ** 4 == identity_class(ctx)
    assert group_sqrt(class_c(T3)) == ()  # generic t: C has no roots


def test_roots_differ_by_c():
    x = GroupElement.from_pair(T3, 3, 7)
    r1, r2 = group_sqrt(x * x)
    assert r1 == class_c(T3) * r2 or r2 == class_c(T3) * r1


def test_torsion_l_orders():
    iden3 = identity_class(T3)
    table = torsion_l(3)
    assert [(g.a0, g.a1, k) for g, k in table] == [(2, 3, 2)]
    for g, k in table:
        assert g ** k == iden3
        assert all(g ** j != iden3 for j in range(1, k))

    for t, orders in ((F(6, 5), [2, 4, 4]), (F(11, 7), [2, 3, 3, 6, 6])):
        ctx = ParamPair.one_param(t)
        iden = identity_class(ctx)
        table = torsion_l(t)
        assert [k for _, k in table] == orders
        for g, k in table:
            assert g ** k == iden
            assert all(g ** j != iden for j in range(1, k))


def test_cubic_torsion_relations():
    """S, R, Y, Z satisfy the multiplication table of the 6th roots of unity."""
    t = F(11, 7)
    f = F(5, 7)
    ctx = ParamPair.one_param(t)
    iden = identity_class(ctx)
    s = GroupElement.from_pair(ctx, 2, t + f)
    r = GroupElement.from_pair(ctx, 2, t - f)
    y = GroupElement.from_pair(ctx, 2, t + 3 * f)
    z = GroupElement.from_pair(ctx, 2, t - 3 * f)
    c = class_c(ctx)
    assert s * s == r and r * r == s   # S^2 = 2f*R, R^2 = -2f*S
    assert s * r == iden               # S*R = -4f^2*I
    assert y * y == s and z * z == r   # Y^2 = 6f*S, Z^2 = -6f*R
    assert y * z == iden               # Y*Z = -12f^2*I
    assert y * s == c                  # Y*S = 4f*C
    assert y == c * r and z == c * s   # CR ~ Y and CS ~ Z = Y^{-1}


def test_primitivity_frozen():
    for t in (F(3), F(6, 5), F(11, 7), F(19, 3), F(7, 2)):
        rep = primitivity(t)
        assert rep.is_primitive and rep.witnesses == ()
    rep = primitivity(F(7))
    assert not rep.is_primitive
    assert {(w.r, w.u, w.sign) for w in rep.witnesses} == {(2, F(3), 1), (2, F(-3), 1)}
    rep = primitivity(F(18))
    assert {(w.r, w.u, w.sign) for w in rep.witnesses} == {(3, F(3), 1), (3, F(-3), -1)}
    rep = primitivity(F(-18))
    assert {(w.r, w.u, w.sign) for w in rep.witnesses} == {(3, F(-3), 1), (3, F(3), -1)}
    rep = primitivity(F(123))
    assert {(w.r, w.u, w.sign) for w in rep.witnesses} == {(5, F(3), 1), (5, F(-3), -1)}


def test_primitivity_witnesses_check_out():
    """Every reported witness satisfies C_r(u) = sign * t on the nose."""
    for num in range(-50, 51):
        for den in (1, 2, 3):
            t = F(num, den)
            if t in (0, 1, -1, 2, -2):
                continue
            rep = primitivity(t)
            for w in rep.witnesses:
                assert chebyshev_c(w.u, w.r) == w.sign * t


def test_circular_primitivity():
    # 2*(2 + 6/5) = 32/5 is not a square: circular primitive
    rep = primitivity(F(6, 5))
    assert rep.circular_primitive is True
    # t = 48/25 is circular (a = 14/25) with 2*(2 + t) = (14/5)**2: not
    # circular primitive, though t itself has no Chebyshev preimage
    rep = primitivity(F(48, 25))
    assert rep.is_primitive is True
    assert rep.circular_primitive is False
    # and its associate decomposes as -a = C_2(6/5)
    assert maximal_decomposition(F(-14, 25)) == (2, F(6, 5), 1)


def test_maximal_decomposition_frozen():
    assert maximal_decomposition(F(7)) == (2, 3, 1)
    assert maximal_decomposition(F(18)) == (3, 3, 1)
    assert maximal_decomposition(F(-18)) == (3, -3, 1)
    assert maximal_decomposition(F(47)) == (4, 3, 1)
    assert maximal_decomposition(F(123)) == (5, 3, 1)
    assert maximal_decomposition(F(2207)) == (8, 3, 1)  # C_8(3)
    assert maximal_decomposition(F(3)) == (1, 3, 1)


def test_maximal_decomposition_reconstructs():
    for t in (F(7), F(18), F(-18), F(47), F(123), F(-47), F(322)):
        m, u, sign = maximal_decomposition(t)
        assert chebyshev_c(u, m) == sign * t
        assert primitivity(u).is_primitive


def _exhaustive_witnesses(t):
    """Reference search: every p/q with q | den(t) and p | d*C_r(0) -+ n."""
    n, d = t.numerator, t.denominator
    out = []
    for r in primes_below(max(3, max(abs(n), d).bit_length()) + 1):
        c0 = int(chebyshev_c(0, r))
        for sign in (1, -1):
            for q in divisors(d):
                for p in divisors(d * c0 - sign * n):
                    if math.gcd(p, q) != 1:
                        continue
                    for u in (F(p, q), F(-p, q)):
                        if chebyshev_c(u, r) == sign * t:
                            out.append((r, u, sign))
    return out


def _witness_grid():
    ts = {F(num, den) for den in (1, 2, 3, 4, 6, 9, 12, 27) for num in range(-30, 31)}
    for den in (2, 3, 4, 5):
        for num in range(-7, 8):
            u = F(num, den)
            for r in (2, 3, 5):
                if den ** r <= 243:
                    c = chebyshev_c(u, r)
                    ts.update((c, -c))
    return sorted(t for t in ts if t not in (0, 1, -1, 2, -2))


def test_witness_search_matches_exhaustive_reference():
    """Only q**r = den(t) is tried; no witness the q | den(t) search finds is lost."""
    found = 0
    for t in _witness_grid():
        rep = primitivity(t)
        got = [(w.r, w.u, w.sign) for w in rep.witnesses]
        assert got == _exhaustive_witnesses(t), t
        assert rep.decomposition == maximal_decomposition(t)
        found += bool(got)
    assert found > 100


def test_integer_lucas_ladder_matches_chebyshev_on_fractions():
    """q**r * C_r(p/q) = V_r(p, q**2), the identity the witness test rests on."""
    big = [10**33 + 1, -(10**33 + 57), 3 * 10**33 - 7, 2**111 + 1]
    for p in list(range(-60, 61)) + big:
        for q in range(1, 10):
            for r in range(14):
                assert _lucas_v(p, q * q, r) == q ** r * chebyshev_c(F(p, q), r), (p, q, r)


def test_witness_search_keeps_the_windows_sieve_table(monkeypatch):
    """The divisor rows of a sweep read p's primality and the factors of
    p +- 1 off the largest sieve's table, so a primitivity call between two
    sweeps of one window must not replace it."""
    monkeypatch.setattr(primes, "_table", (0, memoryview(b"").cast("H")))
    window = PrimeWindow("first", 500)
    gamma(class_v(F(19, 3)), window)
    table = primes._table
    assert table[0] > 3000
    primitivity(3)
    primitivity(F(1000001, 9))
    assert primes._table is table
