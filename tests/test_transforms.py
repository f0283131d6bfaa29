"""Transform layer: simple pairs, cyclotomic classification, the ring maps
and the sequence recombinations, each checked against direct recursion."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seqlab.errors import ContextMismatchError, DegenerateParameterError
from seqlab.lab import PrimeWindow, cubic_partition
from seqlab.ring import ParamPair, chebyshev_c, chebyshev_u, companion, elem_c, identity, make_element
from seqlab.transforms import (
    EXCLUDED_PARAMS,
    check_parameter,
    classify_cyclotomic,
    cubic_roots_of_unity,
    element_with_trace,
    is_simple,
    phi,
    phi_inverse,
    phi_r,
    phi_r_inverse,
    psi,
    recombine,
    recombine_circular,
    recombine_cubic,
    simple_reduce,
    simple_twin,
    theta_circular,
    theta_cubic,
    twin_pair,
)

F = Fraction

small_rationals = st.fractions(min_value=-8, max_value=8, max_denominator=5)


def satisfies(seq_fn, T, Q, window=range(-8, 9)):
    return all(seq_fn(n + 1) == T * seq_fn(n) - Q * seq_fn(n - 1) for n in window)


# ---------------------------------------------------------------------------
# parameters and pairs
# ---------------------------------------------------------------------------


def test_excluded_parameters():
    assert EXCLUDED_PARAMS == (0, 1, -1, 2, -2)
    for t in EXCLUDED_PARAMS:
        with pytest.raises(DegenerateParameterError):
            check_parameter(F(t))
    assert check_parameter(F(19, 3)) == F(19, 3)


def test_is_simple():
    assert is_simple(1, -1) and is_simple(5, 3) and is_simple(2, -5)
    assert not is_simple(2, 8)      # 2 | T with 2**2 | Q
    assert not is_simple(2, 4)
    assert not is_simple(F(1, 2), 1)  # non-integer
    assert not is_simple(3, 9)
    assert is_simple(6, 10)         # neither 4 nor 9 divides 10


def test_simple_reduce_examples():
    plus, minus = simple_reduce(2, 8)
    assert (plus.T, plus.Q) == (1, 2) and (minus.T, minus.Q) == (-1, 2)
    plus, _ = simple_reduce(10, 15)
    assert plus.t == ParamPair(10, 15).t and is_simple(int(plus.T), int(plus.Q))
    plus, minus = simple_reduce(5, -25)
    assert (plus.T, plus.Q) == (1, -1) and (minus.T, minus.Q) == (-1, -1)


@given(st.integers(min_value=-30, max_value=30).filter(lambda n: n != 0),
       st.integers(min_value=-30, max_value=30).filter(lambda n: n != 0))
def test_simple_reduce_properties(T, Q):
    plus, minus = simple_reduce(T, Q)
    for pair in (plus, minus):
        assert is_simple(int(pair.T), int(pair.Q))
        assert pair.t == ParamPair(T, Q).t
    assert plus.T > 0 and minus.T == -plus.T and minus.Q == plus.Q


def test_twin_pair():
    assert (twin_pair(1, -1).T, twin_pair(1, -1).Q) == (5, 5)
    assert (twin_pair(5, 5).T, twin_pair(5, 5).Q) == (5, -25)
    assert simple_twin(5, 5) == ParamPair(1, -1)
    assert simple_twin(1, -1) == ParamPair(5, 5)
    t = ParamPair(5, 3).t
    assert twin_pair(5, 3).t == -t
    with pytest.raises(DegenerateParameterError):
        twin_pair(2, 1)


@given(st.integers(min_value=-20, max_value=20).filter(lambda n: n != 0),
       st.integers(min_value=-20, max_value=20).filter(lambda n: n != 0))
def test_twin_negates_t(T, Q):
    if T * T == 4 * Q:
        return
    tw = twin_pair(T, Q)
    assert tw.t == -ParamPair(T, Q).t
    # twinning twice returns to a similar pair (same t)
    assert twin_pair(tw.T, tw.Q).t == ParamPair(T, Q).t


# ---------------------------------------------------------------------------
# cyclotomic classification
# ---------------------------------------------------------------------------


def test_classify_examples():
    c = classify_cyclotomic(F(6, 5))
    assert c.kind == "circular" and c.a == F(8, 5)
    c = classify_cyclotomic(F(-6, 5))
    assert c.kind == "circular" and c.a == F(8, 5)
    c = classify_cyclotomic(F(11, 7))
    assert c.kind == "cubic" and c.f == F(5, 7)
    assert c.associates == (F(2, 7), F(-13, 7))
    assert classify_cyclotomic(F(3)).kind == "generic"
    assert classify_cyclotomic(F(19, 3)).kind == "generic"
    assert classify_cyclotomic(F(-1, 2)).kind == "generic"  # 15/4 and 5/4: neither a square


def test_classify_consistency_sweep():
    for num in range(-60, 61):
        for den in (1, 2, 3, 5, 7):
            t = F(num, den)
            if t in EXCLUDED_PARAMS:
                continue
            c = classify_cyclotomic(t)
            if c.kind == "circular":
                assert c.a > 0 and t * t + c.a * c.a == 4
            if c.kind == "cubic":
                assert c.f > 0 and t * t - 4 == -3 * c.f * c.f
                for a in c.associates:
                    assert chebyshev_c(a, 3) == chebyshev_c(t, 3)


def test_element_with_trace():
    e = element_with_trace(F(11, 7), F(2, 7))
    assert e is not None and (e.x0, e.x1) == (F(8, 5), F(7, 5))
    assert e.det == 1 and e.trace == F(2, 7)
    assert element_with_trace(F(3), F(7)) is not None      # 45/5 = 9 square
    assert element_with_trace(F(3), F(4)) is None          # 12/5 not square


# ---------------------------------------------------------------------------
# ring maps
# ---------------------------------------------------------------------------


@st.composite
def two_param_elements(draw):
    T = draw(small_rationals.filter(lambda x: x != 0))
    Q = draw(small_rationals.filter(lambda x: x != 0))
    ctx = ParamPair(T, Q)
    return make_element(ctx, draw(small_rationals), draw(small_rationals))


@given(two_param_elements(), st.data())
@settings(max_examples=60)
def test_phi_is_ring_map(x, data):
    ctx = x.ctx
    y = make_element(ctx, data.draw(small_rationals), data.draw(small_rationals))
    assert phi(x * y) == phi(x) * phi(y)
    assert phi(x + y) == phi(x) + phi(y)
    assert phi_inverse(phi(x), ctx) == x


@given(two_param_elements())
@settings(max_examples=60)
def test_phi_interleaves_even_terms(x):
    """phi(X) carries the normalized even part: phi(X)_k = x_{2k} / (T * Q**(k-1))."""
    ctx = x.ctx
    y = phi(x)
    assert y.ctx.T == ctx.t and y.ctx.is_one_param
    for k in range(-3, 4):
        assert y.term(k) == x.term(2 * k) / (ctx.T * ctx.Q ** (k - 1))


def test_phi_sends_d_squared():
    ctx = ParamPair(1, -1)
    d = companion(ctx)
    assert phi(d * d) == F(-1) * companion(ParamPair.one_param(ctx.t))


def test_phi_split_to_t_zero():
    """T**2/Q = 2 splits to t = 0: R(0) is a ring, so phi is defined there."""
    ctx = ParamPair(2, 2)
    x = make_element(ctx, F(1, 3), F(-2))
    y = make_element(ctx, F(5), F(1, 2))
    assert phi(x).ctx == ParamPair.one_param(0)
    assert phi(x * y) == phi(x) * phi(y)
    assert phi_inverse(phi(x), ctx) == x
    for k in range(-3, 4):
        assert phi(x).term(k) == x.term(2 * k) / (ctx.T * ctx.Q ** (k - 1))


def test_phi_rejects_t_zero_source():
    ctx = ParamPair(0, 3)
    with pytest.raises(DegenerateParameterError):
        phi(make_element(ctx, 1, 2))
    with pytest.raises(DegenerateParameterError):
        phi_inverse(make_element(ParamPair.one_param(ctx.t), 1, 2), ctx)
    with pytest.raises(DegenerateParameterError):
        recombine(make_element(ParamPair.one_param(ctx.t), 1, 2), ctx)


@given(st.fractions(min_value=-7, max_value=7, max_denominator=4), st.data())
@settings(max_examples=60)
def test_psi_involution(t, data):
    if t == 0:
        return
    ctx = ParamPair.one_param(t)
    x = make_element(ctx, data.draw(small_rationals), data.draw(small_rationals))
    y = make_element(ctx, data.draw(small_rationals), data.draw(small_rationals))
    assert psi(x * y) == psi(x) * psi(y)
    assert psi(psi(x)) == x
    for n in range(-4, 5):
        sign = 1 if (n + 1) % 2 == 0 else -1
        assert psi(x).term(n) == sign * x.term(n)


def test_psi_swaps_w_and_v():
    from seqlab.ring import elem_v, elem_w
    ctx = ParamPair.one_param(F(19, 3))
    assert psi(elem_w(ctx)) == elem_v(ParamPair.one_param(-F(19, 3)))
    c = elem_c(ctx)
    assert psi(c) == F(-1) * elem_c(ParamPair.one_param(-F(19, 3)))


@pytest.mark.parametrize("r", [2, 3, 4, 5])
@given(data=st.data())
@settings(max_examples=40)
def test_phi_r(r, data):
    t = data.draw(st.fractions(min_value=-6, max_value=6, max_denominator=3)
                  .filter(lambda v: chebyshev_u(v, r) != 0 and v != 0))
    ctx = ParamPair.one_param(t)
    x = make_element(ctx, data.draw(small_rationals), data.draw(small_rationals))
    y = make_element(ctx, data.draw(small_rationals), data.draw(small_rationals))
    assert phi_r(x * y, r) == phi_r(x, r) * phi_r(y, r)
    assert phi_r_inverse(phi_r(x, r), t, r) == x
    tr = chebyshev_c(t, r)
    assert phi_r(companion(ctx) ** r, r) == companion(ParamPair.one_param(tr))
    ur = chebyshev_u(t, r)
    for k in range(-2, 3):
        assert phi_r(x, r).term(k) == x.term(r * k) / ur


def test_theta_circular_anchors():
    t = F(6, 5)
    a = F(8, 5)
    ctx = ParamPair.one_param(t)
    actx = ParamPair.one_param(a)
    d, c = companion(ctx), elem_c(ctx)
    assert theta_circular(d * d) == F(-1) * companion(actx) ** 2
    assert theta_circular(d * c) == -a * companion(actx)
    assert theta_circular(identity(ctx)) == identity(actx)


@given(st.data())
@settings(max_examples=50)
def test_theta_circular_multiplicative(data):
    t = F(6, 5)
    ctx = ParamPair.one_param(t)
    x = make_element(ctx, data.draw(small_rationals), data.draw(small_rationals))
    y = make_element(ctx, data.draw(small_rationals), data.draw(small_rationals))
    assert theta_circular(x * y) == theta_circular(x) * theta_circular(y)


def test_theta_circular_rejects_generic():
    with pytest.raises(DegenerateParameterError):
        theta_circular(make_element(ParamPair.one_param(3), 1, 2))


@given(st.data())
@settings(max_examples=50)
def test_theta_cubic_multiplicative(data):
    t = F(11, 7)
    ctx = ParamPair.one_param(t)
    x = make_element(ctx, data.draw(small_rationals), data.draw(small_rationals))
    y = make_element(ctx, data.draw(small_rationals), data.draw(small_rationals))
    assert theta_cubic(x * y) == theta_cubic(x) * theta_cubic(y)


def test_theta_cubic_anchor():
    t = F(11, 7)
    ctx = ParamPair.one_param(t)
    s, r = cubic_roots_of_unity(t)
    assert s ** 3 == identity(ctx) and r ** 3 == identity(ctx)
    assert s * r == identity(ctx)
    assert s.det == 1 and s.trace == -1
    a = classify_cyclotomic(t).associates[0]
    assert theta_cubic(companion(ctx) * s) == companion(ParamPair.one_param(a))


# ---------------------------------------------------------------------------
# recombination
# ---------------------------------------------------------------------------


def test_recombine_fibonacci_lucas():
    """The U-element over t = -3 recombines to Fibonacci over (1, -1); over
    t = 3 the twin side gives -Fibonacci and Lucas."""
    x = make_element(ParamPair.one_param(-3), 0, 1)
    rec = recombine(x, ParamPair(1, -1))
    assert [rec.y(n) for n in range(10)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
    x = make_element(ParamPair.one_param(3), 0, 1)
    rec = recombine(x, ParamPair(5, 5))
    assert rec.twin == ParamPair(1, -1)
    assert [rec.y_twin(n) for n in range(8)] == [0, -1, -1, -2, -3, -5, -8, -13]
    assert [rec.z_twin(n) for n in range(8)] == [2, 1, 3, 4, 7, 11, 18, 29]


def test_recombine_context_mismatch():
    x = make_element(ParamPair.one_param(3), 0, 1)
    with pytest.raises(ContextMismatchError):
        recombine(x, ParamPair(1, -1))  # (1,-1) splits to -3, not 3


@given(st.data())
@settings(max_examples=30)
def test_recombine_satisfies_recursions(data):
    target = data.draw(st.sampled_from([ParamPair(1, -1), ParamPair(5, 3),
                                        ParamPair(3, 7), ParamPair(2, -5), ParamPair(7, 11)]))
    x = make_element(ParamPair.one_param(target.t),
                     data.draw(small_rationals), data.draw(small_rationals))
    rec = recombine(x, target)
    tw = rec.twin
    assert satisfies(rec.y, target.T, target.Q)
    assert satisfies(rec.z, target.T, target.Q)
    assert satisfies(rec.y_twin, tw.T, tw.Q)
    assert satisfies(rec.z_twin, tw.T, tw.Q)


@given(st.data())
@settings(max_examples=30)
def test_recombine_circular_satisfies_recursion(data):
    t = F(6, 5)
    a = F(8, 5)
    x = make_element(ParamPair.one_param(t), data.draw(small_rationals), data.draw(small_rationals))
    xh = recombine_circular(x.term, t)
    assert satisfies(xh, a, 1)


@given(st.data())
@settings(max_examples=30)
def test_recombine_cubic_satisfies_recursion(data):
    t = F(11, 7)
    x = make_element(ParamPair.one_param(t), data.draw(small_rationals), data.draw(small_rationals))
    for a in classify_cyclotomic(t).associates:
        xh = recombine_cubic(x.term, t, a)
        assert satisfies(xh, a, 1)


CUBIC_ONLY = {
    "cubic_partition": lambda t: cubic_partition(t, PrimeWindow("first", 20)),
    "theta_cubic": lambda t: theta_cubic(make_element(ParamPair.one_param(t), 1, 2)),
    "recombine_cubic": lambda t: recombine_cubic(lambda n: F(0), t),
    "cubic_roots_of_unity": cubic_roots_of_unity,
}


@pytest.mark.parametrize("t, text", [(F(6, 5), "6/5"), (F(3), "3")], ids=["circular", "generic"])
@pytest.mark.parametrize("name", sorted(CUBIC_ONLY))
def test_one_cubic_rule(name, t, text):
    with pytest.raises(DegenerateParameterError, match=r"^t = %s is not cubic$" % text):
        CUBIC_ONLY[name](t)


def test_recombine_kind_guards():
    with pytest.raises(DegenerateParameterError):
        recombine_circular(lambda n: F(0), F(3))
    with pytest.raises(DegenerateParameterError):
        recombine_cubic(lambda n: F(0), F(6, 5))


# ---------------------------------------------------------------------------
# the per-index closed forms, as references for the compositions
# ---------------------------------------------------------------------------


def _sign(k):
    return 1 if k % 2 == 0 else -1


def closed_form_recombine(u, T, Q, Th, Qh):
    """The interleaving rules for y, z over (T, Q) and y_twin, z_twin over
    the twin (Th, Qh), written per index parity from u(k) = x_k."""

    def y(n):
        if n % 2 == 0:
            k = n // 2
            return Q ** (k - 1) * u(k)
        k = (n + 1) // 2
        return Q ** (k - 1) * (u(k) + u(k - 1)) / T

    def z(n):
        if n % 2 == 0:
            k = n // 2
            return Q ** (k - 1) * (u(k + 1) - u(k - 1))
        k = (n + 1) // 2
        return T * Q ** (k - 2) * (u(k) - u(k - 1))

    def y_twin(n):
        if n % 2 == 0:
            k = n // 2
            return _sign(k) * Qh ** (k - 1) * u(k)
        k = (n + 1) // 2
        return _sign(k) * Qh ** (k - 1) * (u(k) - u(k - 1)) / Th

    def z_twin(n):
        if n % 2 == 0:
            k = n // 2
            return _sign(k + 1) * Qh ** (k - 1) * (u(k + 1) - u(k - 1))
        k = (n + 1) // 2
        return _sign(k) * Th * Qh ** (k - 2) * (u(k) + u(k - 1))

    return y, z, y_twin, z_twin


def closed_form_circular(u, a):
    """xh_{2k} = (-1)**(k-1) x_{2k}, xh_{2k+1} = (-1)**k (x_{2k+2} - x_{2k}) / a."""

    def xh(n):
        if n % 2 == 0:
            return -_sign(n // 2) * u(n)
        return _sign((n - 1) // 2) * (u(n + 1) - u(n - 1)) / a

    return xh


def closed_form_cubic(u, a):
    """xh_{3k} = x_{3k}; the other residues mix x_{3k} and x_{3k+-3}."""
    denom = a * a - 1

    def xh(n):
        if n % 3 == 0:
            return u(n)
        if n % 3 == 1:
            return (a * u(n - 1) + u(n + 2)) / denom
        return (u(n - 2) + a * u(n + 1)) / denom

    return xh


def closed_form_theta_circular(x, t, a):
    return make_element(ParamPair.one_param(a), -a * x.x0 / t, (x.term(2) - x.x0) / t)


def closed_form_theta_cubic(x, t, a):
    return make_element(ParamPair.one_param(a), (a * a - 1) * x.x0 / (t * t - 1), (a * x.x0 + x.term(3)) / (t * t - 1))


def _rational(rng):
    return F(rng.randint(-9, 9), rng.randint(1, 4))


def _term_table(x, lo, hi):
    """x_n for lo <= n < hi, as a lookup."""
    return dict(zip(range(lo, hi), x.terms(lo, hi))).__getitem__


def _recombine_pairs():
    """Integer (T, Q) with 0 < |T|, |Q| <= 9 and T**2 != 4Q, Q < 0 included,
    and 21 seeded fractional pairs."""
    pairs = [ParamPair(T, Q) for T in range(-9, 10) for Q in range(-9, 10) if T and Q and T * T != 4 * Q]
    rng = random.Random(907)
    while len(pairs) < 339:
        T, Q = F(rng.randint(-9, 9), rng.randint(2, 5)), F(rng.randint(-9, 9), rng.randint(2, 5))
        if T and Q and T * T != 4 * Q:
            pairs.append(ParamPair(T, Q))
    return pairs


def test_recombine_matches_closed_forms():
    """339 (T, Q) x the 4 rebuilt sequences x n in [-15, 15]."""
    rng = random.Random(908)
    pairs = _recombine_pairs()
    assert len(pairs) == 339 and any(p.Q < 0 for p in pairs)
    for target in pairs:
        x = make_element(ParamPair.one_param(target.t), _rational(rng), _rational(rng))
        rec = recombine(x, target)
        refs = closed_form_recombine(_term_table(x, -9, 10), target.T, target.Q, rec.twin.T, rec.twin.Q)
        for got, ref in zip((rec.y, rec.z, rec.y_twin, rec.z_twin), refs):
            assert [got(n) for n in range(-15, 16)] == [ref(n) for n in range(-15, 16)]


# circular t = 2(1 - m**2)/(1 + m**2), with associate a = 4m/(1 + m**2)
CIRCULAR_TS = [2 * (1 - m * m) / (1 + m * m) for m in (F(1, 2), F(2, 3), F(3, 2), F(1, 4), F(-2, 5), F(5, 7), F(-3, 8))]
# cubic t = 2(1 - 3m**2)/(1 + 3m**2), a rational point of t**2 + 3f**2 = 4
CUBIC_TS = [2 * (1 - 3 * m * m) / (1 + 3 * m * m) for m in (F(1, 2), F(2, 3), F(1, 5), F(3, 4), F(-2, 7), F(4, 5))]


def _associate_grid():
    """(t, kind, a, a resolved) for every t above and a in (default, both
    associates); the default is a > 0, resp. (-t + 3f)/2."""
    grid = []
    for t in CIRCULAR_TS:
        cls = classify_cyclotomic(t)
        assert cls.kind == "circular"
        grid += [(t, "circular", a, cls.a if a is None else a) for a in (None, cls.a, -cls.a)]
    for t in CUBIC_TS:
        cls = classify_cyclotomic(t)
        assert cls.kind == "cubic"
        grid += [(t, "cubic", a, cls.associates[0] if a is None else a) for a in (None,) + cls.associates]
    return grid


def test_cyclotomic_recombinations_match_closed_forms():
    """195 circular and cubic recombinations, n in [-15, 15]."""
    rng = random.Random(909)
    count = 0
    for t, kind, a, a_used in _associate_grid():
        for _ in range(5):
            x = make_element(ParamPair.one_param(t), _rational(rng), _rational(rng))
            u = _term_table(x, -18, 19)
            if kind == "circular":
                got, ref = recombine_circular(x.term, t, a), closed_form_circular(u, a_used)
            else:
                got, ref = recombine_cubic(x.term, t, a), closed_form_cubic(u, a_used)
            assert [got(n) for n in range(-15, 16)] == [ref(n) for n in range(-15, 16)]
            count += 1
    assert count == 195


def test_recombinations_read_only_the_first_two_terms():
    t = F(6, 5)
    x = make_element(ParamPair.one_param(t), 3, -2)
    read = []
    xh = recombine_circular(lambda n: read.append(n) or x.term(n), t)
    assert [xh(n) for n in range(-6, 7)] == [closed_form_circular(x.term, F(8, 5))(n) for n in range(-6, 7)]
    assert sorted(read) == [0, 1]


def test_thetas_match_closed_forms():
    """1 404 theta images over both families and every associate."""
    rng = random.Random(910)
    count = 0
    for t, kind, a, a_used in _associate_grid():
        theta, ref = (theta_circular, closed_form_theta_circular) if kind == "circular" else (theta_cubic, closed_form_theta_cubic)
        for _ in range(36):
            x = make_element(ParamPair.one_param(t), _rational(rng), _rational(rng))
            assert theta(x, a) == ref(x, t, a_used)
            count += 1
    assert count == 1404


@pytest.mark.parametrize("fn, t, a, message", [
    (theta_circular, F(3), None, "t = 3 is not circular"),
    (theta_circular, F(6, 5), F(1, 2), "a = 1/2 does not satisfy t**2 + a**2 = 4"),
    (theta_cubic, F(3), None, "t = 3 is not cubic"),
    (theta_cubic, F(11, 7), F(1, 2), "a = 1/2 is not an associate of t = 11/7"),
])
def test_theta_error_messages(fn, t, a, message):
    with pytest.raises(DegenerateParameterError) as err:
        fn(make_element(ParamPair.one_param(t), 1, 2), a)
    assert str(err.value) == message
    recombine_fn = recombine_circular if fn is theta_circular else recombine_cubic
    with pytest.raises(DegenerateParameterError) as err:
        recombine_fn(lambda n: F(n), t, a)
    assert str(err.value) == message
