"""Ring layer against a brute-force recursion oracle.

The oracle below iterates x_{n+1} = T*x_n - Q*x_{n-1} (and its inverse
x_{n-1} = (T*x_n - x_{n+1})/Q) term by term; everything the ring computes
through powers of D must agree with it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seqlab.errors import InvalidContextError, SingularElementError
from seqlab.ring import (
    ParamPair,
    chebyshev_c,
    chebyshev_u,
    companion,
    elem_c,
    elem_v,
    elem_w,
    identity,
    make_element,
    u_pair,
)


def brute_terms(T, Q, x0, x1, lo, hi):
    """x_lo..x_hi by direct recursion from the seed (x_0, x_1)."""
    terms = {0: Fraction(x0), 1: Fraction(x1)}
    n = 1
    while n < hi:
        terms[n + 1] = T * terms[n] - Q * terms[n - 1]
        n += 1
    n = 0
    while n > lo:
        terms[n - 1] = (T * terms[n] - terms[n + 1]) / Q
        n -= 1
    return [terms[n] for n in range(lo, hi + 1)]


small_rationals = st.fractions(min_value=-8, max_value=8, max_denominator=5)
nonzero_rationals = small_rationals.filter(lambda x: x != 0)


@st.composite
def contexts(draw):
    return ParamPair(draw(nonzero_rationals), draw(nonzero_rationals))


@st.composite
def elements(draw):
    ctx = draw(contexts())
    return make_element(ctx, draw(small_rationals), draw(small_rationals))


def test_context_validation():
    # R(0) is a ring (det D = Q = 1); only Q = 0 is degenerate
    assert ParamPair.one_param(0).T == 0
    assert make_element(ParamPair(0, 1), 1, 2).terms(0, 5) == (1, 2, -1, -2, 1)
    with pytest.raises(InvalidContextError):
        ParamPair(3, 0)
    ctx = ParamPair.one_param(Fraction(19, 3))
    assert ctx.is_one_param and ctx.Q == 1
    assert ParamPair(5, 3).t == Fraction(19, 3)
    assert ParamPair(1, -1).t == -3
    assert ParamPair(1, -1).discriminant == 5


@given(elements(), st.integers(min_value=-10, max_value=12))
def test_terms_match_brute_recursion(x, n):
    expected = brute_terms(x.ctx.T, x.ctx.Q, x.x0, x.x1, min(n, 0), max(n, 1))
    assert x.term(n) == expected[n - min(n, 0)]


@given(elements())
def test_terms_window(x):
    assert list(x.terms(-6, 7)) == brute_terms(x.ctx.T, x.ctx.Q, x.x0, x.x1, -6, 6)


def test_fibonacci_terms():
    x = make_element(ParamPair(1, -1), 0, 1)
    assert list(x.terms(0, 11)) == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert x.term(-3) == 2  # F_{-3}
    lucas = make_element(ParamPair(1, -1), 2, 1)
    assert list(lucas.terms(0, 8)) == [2, 1, 3, 4, 7, 11, 18, 29]


@given(elements())
def test_matrix_shape(x):
    T, Q = x.ctx.T, x.ctx.Q
    xm1 = (T * x.x0 - x.x1) / Q
    assert x.matrix == ((-Q * xm1, -Q * x.x0), (x.x0, x.x1))
    assert x.x_minus1 == xm1


@given(elements())
def test_det_and_trace(x):
    T, Q = x.ctx.T, x.ctx.Q
    assert x.det == x.x1 ** 2 - T * x.x0 * x.x1 + Q * x.x0 ** 2
    assert x.trace == 2 * x.x1 - T * x.x0
    m = x.matrix
    assert x.det == m[0][0] * m[1][1] - m[0][1] * m[1][0]
    assert x.trace == m[0][0] + m[1][1]


@given(contexts(), st.data())
def test_ring_axioms(ctx, data):
    def elem():
        return make_element(ctx, data.draw(small_rationals), data.draw(small_rationals))

    x, y, z = elem(), elem(), elem()
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * identity(ctx) == x
    assert x + (-x) == make_element(ctx, 0, 0)
    assert (x * y).det == x.det * y.det


@given(contexts(), st.data())
def test_product_is_term_convolution(ctx, data):
    """(XY)_0 and (XY)_1 from the closed product formula match the matrix product."""
    x = make_element(ctx, data.draw(small_rationals), data.draw(small_rationals))
    y = make_element(ctx, data.draw(small_rationals), data.draw(small_rationals))
    z = x * y
    mat = tuple(
        tuple(sum(x.matrix[i][k] * y.matrix[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )
    assert (z.x0, z.x1) == mat[1]


@given(elements())
def test_inverse_and_conjugate(x):
    if x.det == 0:
        with pytest.raises(SingularElementError):
            x.inverse()
        return
    assert x * x.inverse() == identity(x.ctx)
    conj = x.conjugate()
    assert x * conj == x.det * identity(x.ctx)
    Q = x.ctx.Q
    for n in range(-4, 5):
        assert conj.term(n) == -(Q ** n) * x.term(-n)


@given(elements(), st.integers(min_value=-4, max_value=6))
def test_powers(x, n):
    if x.det == 0 and n < 0:
        return
    expected = identity(x.ctx)
    base = x if n >= 0 else x.inverse()
    for _ in range(abs(n)):
        expected = expected * base
    assert x ** n == expected


@given(elements(), st.integers(min_value=-5, max_value=5), st.integers(min_value=-5, max_value=5))
def test_shift(x, k, n):
    assert x.shift(k).term(n) == x.term(n + k)


@given(contexts(), st.integers(min_value=-8, max_value=8))
def test_companion_power_row(ctx, n):
    """Second row of D**n is (U_n, U_{n+1}); first row is -Q*(U_{n-1}, U_n)."""
    un, un1 = u_pair(ctx, n)
    u = brute_terms(ctx.T, ctx.Q, 0, 1, min(n - 1, 0), max(n + 1, 1))
    off = -min(n - 1, 0)
    assert (un, un1) == (u[off + n], u[off + n + 1])
    d = companion(ctx)
    assert (d ** n).x0 == un and (d ** n).x1 == un1
    assert (d ** n).matrix[0] == (-ctx.Q * u[off + n - 1], -ctx.Q * un)


@pytest.mark.parametrize("T, Q", [(3, 1), (5, 3), (1, -1), (Fraction(7, 2), Fraction(-2, 5)), (0, 2)])
def test_u_pair_against_the_recursion(T, Q):
    """Rows of D**n for |n| <= 300, both signs, at Q != 1 (D**-1 has row (-1/Q, 0))."""
    ctx = ParamPair(T, Q)
    u = brute_terms(ctx.T, ctx.Q, 0, 1, -301, 301)
    for n in range(-300, 301):
        assert u_pair(ctx, n) == (u[n + 301], u[n + 302]), n
    assert u_pair(ctx, -1) == (Fraction(-1) / ctx.Q, 0)


def test_negative_power_over_two_parameters():
    ctx = ParamPair(5, 3)
    x = make_element(ctx, Fraction(2, 3), -1)
    inv = x.inverse()
    expected = identity(ctx)
    for n in range(1, 8):
        expected = expected * inv
        assert x ** -n == expected
        assert (x ** -n) * (x ** n) == identity(ctx)
    d = companion(ctx)
    assert (d ** -7).x0 == u_pair(ctx, -7)[0] and (d ** -7).x1 == u_pair(ctx, -7)[1]


@given(elements(), st.integers(min_value=-6, max_value=6), st.integers(min_value=-6, max_value=6))
def test_addition_formula(x, m, n):
    """x_{m+n} = U_n * x_{m+1} - Q * U_{n-1} * x_m."""
    ctx = x.ctx
    un, _ = u_pair(ctx, n)
    unm1, _ = u_pair(ctx, n - 1)
    assert x.term(m + n) == un * x.term(m + 1) - ctx.Q * unm1 * x.term(m)


def test_chebyshev_frozen_values():
    assert [chebyshev_u(3, n) for n in range(8)] == [0, 1, 3, 8, 21, 55, 144, 377]
    assert [chebyshev_c(3, n) for n in range(6)] == [2, 3, 7, 18, 47, 123]
    assert chebyshev_u(3, -4) == -21
    assert chebyshev_c(3, -4) == 47
    # stays defined at ring-excluded parameters: U_n(2) = n, C_n(2) = 2
    assert [chebyshev_u(2, n) for n in range(6)] == [0, 1, 2, 3, 4, 5]
    assert all(chebyshev_c(2, n) == 2 for n in range(6))
    assert [chebyshev_u(0, n) for n in range(6)] == [0, 1, 0, -1, 0, 1]


@given(st.fractions(min_value=-6, max_value=6, max_denominator=4), st.integers(min_value=-8, max_value=8))
def test_chebyshev_pell_identity(t, n):
    """C_n**2 - (t**2 - 4) * U_n**2 = 4, plus the parity rules."""
    assert chebyshev_c(t, n) ** 2 - (t * t - 4) * chebyshev_u(t, n) ** 2 == 4
    assert chebyshev_u(t, -n) == -chebyshev_u(t, n)
    assert chebyshev_c(t, -n) == chebyshev_c(t, n)


@given(st.fractions(min_value=-5, max_value=5, max_denominator=3), st.integers(min_value=0, max_value=6))
def test_chebyshev_doubling_and_composition(t, r):
    assert chebyshev_u(t, 2 * r) == chebyshev_u(t, r) * chebyshev_c(t, r)
    for s in (2, 3):
        assert chebyshev_c(chebyshev_c(t, s), r) == chebyshev_c(t, r * s)


@given(st.fractions(min_value=-5, max_value=5, max_denominator=4))
@settings(max_examples=40)
def test_chebyshev_oddness(u):
    for r in (3, 5, 7):
        assert chebyshev_c(-u, r) == -chebyshev_c(u, r)
    assert chebyshev_c(-u, 2) == chebyshev_c(u, 2)


def test_distinguished_elements():
    t = Fraction(3)
    ctx = ParamPair.one_param(t)
    w, v, c, d = elem_w(ctx), elem_v(ctx), elem_c(ctx), companion(ctx)
    assert (w.x0, w.x1) == (-1, 1) and (v.x0, v.x1) == (1, 1) and (c.x0, c.x1) == (2, 3)
    assert w.det == 2 + t and v.det == 2 - t and c.det == 4 - t * t
    assert w * w == (t + 2) * d.inverse()
    assert w * c == (t + 2) * v
    assert c * c == (t * t - 4) * identity(ctx)
    x = make_element(ctx, Fraction(1, 2), Fraction(5, 3))
    for n in range(-4, 5):
        assert (c * x).term(n) == x.term(n + 1) - x.term(n - 1)
        assert (w * x).term(n) == x.term(n) + x.term(n - 1)
        assert (v * x).term(n) == x.term(n) - x.term(n - 1)


def test_w_v_require_one_param():
    with pytest.raises(InvalidContextError):
        elem_w(ParamPair(5, 3))
    with pytest.raises(InvalidContextError):
        elem_v(ParamPair(5, 3))


@given(contexts(), st.data())
def test_square_formula(ctx, data):
    x = make_element(ctx, data.draw(small_rationals), data.draw(small_rationals))
    sq = x * x
    T, Q = ctx.T, ctx.Q
    assert (sq.x0, sq.x1) == (x.x0 * (2 * x.x1 - T * x.x0), x.x1 ** 2 - Q * x.x0 ** 2)


# ---------------------------------------------------------------------------
# the integer row product against literal Fraction arithmetic
# ---------------------------------------------------------------------------


def _fraction_row_mul(T, Q, x, y):
    """The second row of X*Y over (T, Q), in Fractions."""
    p = x[0] * y[0]
    return x[1] * y[0] + x[0] * y[1] - T * p, x[1] * y[1] - Q * p


def _fraction_pow(T, Q, x, n):
    """x**n for n >= 0 by Fraction square and multiply (for |n| = 1000,
    where a term-by-term recursion over 30-digit denominators is slow)."""
    out = (Fraction(0), Fraction(1))
    for bit in bin(n)[2:]:
        out = _fraction_row_mul(T, Q, out, out)
        if bit == "1":
            out = _fraction_row_mul(T, Q, out, x)
    return out


def _fraction_inverse(T, Q, x):
    det = x[1] * x[1] - T * x[0] * x[1] + Q * x[0] * x[0]
    return -x[0] / det, (x[1] - T * x[0]) / det


DIFFERENTIAL_CONTEXTS = [
    ParamPair(3, 1),  # L = 1
    ParamPair.one_param(Fraction(19, 3)),
    ParamPair(Fraction(7, 5), Fraction(-3, 4)),
    ParamPair(Fraction(9, 2), Fraction(7, 3)),
    ParamPair(Fraction(3 * 10**29 + 1, 10**29 + 7), Fraction(-5, 7)),  # a 30-digit denominator
]
DIFFERENTIAL_N = list(range(-60, 61)) + [-1000, 1000]


def _u_reference(T, Q):
    """{n: (U_n, U_{n+1})} over DIFFERENTIAL_N: the recursion for |n| <= 60,
    Fraction powering of the rows [1, T] and [-1/Q, 0] at +-1000."""
    u = brute_terms(T, Q, 0, 1, -61, 62)
    ref = {n: (u[n + 61], u[n + 62]) for n in range(-60, 61)}
    ref[1000] = _fraction_pow(T, Q, (Fraction(1), T), 1000)
    ref[-1000] = _fraction_pow(T, Q, (-1 / Q, Fraction(0)), 1000)
    return ref


@pytest.mark.parametrize("ctx", DIFFERENTIAL_CONTEXTS)
def test_u_pair_and_chebyshev_match_fraction_recurrences(ctx):
    T, Q = ctx.T, ctx.Q
    ref = _u_reference(T, Q)
    for n in DIFFERENTIAL_N:
        assert u_pair(ctx, n) == ref[n], n
    # Chebyshev values are the (T, 1) rows: C_n = U_{n+1} - U_{n-1}
    one = _u_reference(T, Fraction(1))
    c = brute_terms(T, 1, 2, T, -60, 60)
    for n in DIFFERENTIAL_N:
        un, un1 = one[n]
        assert chebyshev_u(T, n) == un, n
        assert chebyshev_c(T, n) == (c[n + 60] if abs(n) <= 60 else 2 * un1 - T * un), n


@pytest.mark.parametrize("ctx", DIFFERENTIAL_CONTEXTS)
def test_terms_and_powers_match_fraction_recurrences(ctx):
    T, Q = ctx.T, ctx.Q
    ref = _u_reference(T, Q)
    for x in (make_element(ctx, 1, 2), make_element(ctx, Fraction(2, 3), Fraction(-5, 7))):
        row = (x.x0, x.x1)
        seq = brute_terms(T, Q, x.x0, x.x1, -60, 60)
        inv = _fraction_inverse(T, Q, row)
        assert (x.inverse().x0, x.inverse().x1) == inv
        up, down = (Fraction(0), Fraction(1)), (Fraction(0), Fraction(1))
        for n in range(61):
            assert x.term(n) == seq[n + 60] and x.term(-n) == seq[60 - n], n
            assert ((x ** n).x0, (x ** n).x1) == up, n
            assert ((x ** -n).x0, (x ** -n).x1) == down, -n
            up, down = _fraction_row_mul(T, Q, up, row), _fraction_row_mul(T, Q, down, inv)
        for n in (1000, -1000):
            assert x.term(n) == _fraction_row_mul(T, Q, row, ref[n])[0], n
            power = _fraction_pow(T, Q, row if n > 0 else inv, 1000)
            assert ((x ** n).x0, (x ** n).x1) == power, n
            shifted = x.shift(n)
            assert (shifted.x0, shifted.x1) == _fraction_row_mul(T, Q, row, ref[n]), n


@pytest.mark.parametrize("ctx", DIFFERENTIAL_CONTEXTS)
def test_products_and_inverses_match_fraction_arithmetic(ctx):
    """Products and inverses of small elements and of powers up to 37."""
    T, Q = ctx.T, ctx.Q
    base = [make_element(ctx, a, b) for a, b in ((1, 2), (Fraction(2, 3), Fraction(-5, 7)), (-3, Fraction(1, 4)), (0, 5))]
    pool = base + [x ** n for x in base[:3] for n in (5, 37, -11)]
    for x in pool:
        for y in pool:
            assert ((x * y).x0, (x * y).x1) == _fraction_row_mul(T, Q, (x.x0, x.x1), (y.x0, y.x1))
        assert (x.inverse().x0, x.inverse().x1) == _fraction_inverse(T, Q, (x.x0, x.x1))
    with pytest.raises(SingularElementError):
        make_element(ctx, 0, 0).inverse()
