"""The commutative matrix ring attached to a second-order linear recursion.

A context (T, Q) of rationals with Q != 0 fixes the recursion
x_{n+1} = T*x_n - Q*x_{n-1} and its companion matrix

    D = [[0, -Q],
         [1,  T]].

The 2x2 rational matrices commuting with D form a commutative ring whose
elements are determined by their second row [x0, x1]; the full matrix is

    X = [[-Q*x_{-1}, -Q*x0],
         [x0,        x1  ]],   x_{-1} = (T*x0 - x1)/Q.

Each element carries the doubly infinite solution {x_n} of the recursion via
[x_n, x_{n+1}] = [x0, x1] * D^n, so ring arithmetic is exact arithmetic on
whole sequences.  The one-parameter ring R(t) is the context (t, 1).

All arithmetic, powers included, is done on second rows: the row of X*Y
is a polynomial in the rows of X and Y, D^n is the element with row
[U_n, U_{n+1}], and every power, D^n and the Chebyshev values among them,
comes from the one square-and-multiply routine `binpow`.  The full matrix
is only ever built on request (`RingElement.matrix`).

Products run in integers.  A context clears once to (L, L*T, L*Q), L the
least common denominator of T and Q (`ParamPair.cleared`), and a row is
held as integers [a0, a1] over one tracked denominator d.  `_row_product`
is the one product of the package: ring products, inverses and powers
here, the class products of the group layer and the Laxton walk all
call it.  A power divides out the common content of its row after every
step, by gcds against the known denominators only (L and the base's d,
never factored), and a `Fraction` is built once per returned coordinate.
`RingElement` keeps its `Fraction` fields, and `terms` runs its recurrence
on them: per term, an integer loop saves little on short spans and loses
on long ones, where each term's `Fraction` takes a full-size gcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Callable, Tuple, TypeVar, Union

from .errors import ContextMismatchError, InvalidContextError, SingularElementError

RationalLike = Union[Fraction, int, str]

Matrix2 = Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]

_E = TypeVar("_E")

_ONE = Fraction(1)


def _frac(x: RationalLike) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


@dataclass(frozen=True)
class ParamPair:
    """A recursion context (T, Q) with Q nonzero (det D = Q).

    The derived quantity t = T**2/Q - 2 is the parameter of the one-parameter
    ring the even/odd split lands in; discriminant = T**2 - 4*Q.
    """

    T: Fraction
    Q: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "T", _frac(self.T))
        object.__setattr__(self, "Q", _frac(self.Q))
        if self.Q == 0:
            raise InvalidContextError("context requires Q != 0, got (%s, %s)" % (self.T, self.Q))

    @classmethod
    def one_param(cls, t: RationalLike) -> "ParamPair":
        """The context (t, 1) of the one-parameter ring R(t)."""
        return cls(_frac(t), Fraction(1))

    @property
    def is_one_param(self) -> bool:
        return self.Q == 1

    @property
    def t(self) -> Fraction:
        """Split parameter T**2/Q - 2 (the context (t,1) has .t == t**2 - 2)."""
        return self.T * self.T / self.Q - 2

    @property
    def discriminant(self) -> Fraction:
        return self.T * self.T - 4 * self.Q

    @cached_property
    def cleared(self) -> Tuple[int, int, int]:
        """(L, L*T, L*Q) for the least common denominator L > 0 of T and Q:
        the integers every product computes on, found once per context."""
        return _clear(self.T, self.Q)

    def to_dict(self) -> dict:
        if self.is_one_param:
            return {"t": str(self.T)}
        return {"T": str(self.T), "Q": str(self.Q)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ParamPair(%s, %s)" % (self.T, self.Q)


def binpow(mul: Callable[[_E, _E], _E], one: _E, x: _E, n: int) -> _E:
    """x**n for n >= 0 under the associative product mul with identity one.

    Left-to-right square and multiply: one squaring per bit of n after the
    leading one and one product by x per further set bit.
    """
    if n == 0:
        return one
    out = x
    for bit in bin(n)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, x)
    return out


Cleared = Tuple[int, int, int]

# An integer row (a0, a1, d), d > 0: the second row [a0/d, a1/d].
IntRow = Tuple[int, int, int]


def _clear(T: Fraction, Q: Fraction) -> Cleared:
    """(L, L*T, L*Q) for the least common denominator L > 0 of T and Q."""
    L = lcm(T.denominator, Q.denominator)
    return L, T.numerator * (L // T.denominator), Q.numerator * (L // Q.denominator)


def _row_product(c: Cleared, x0: int, x1: int, y0: int, y1: int) -> Tuple[int, int]:
    """L*dx*dy times the second row of X*Y, for the rows [x0, x1]/dx of X and
    [y0, y1]/dy of Y over the context cleared to c = (L, L*T, L*Q).

    A square (the same row objects twice, as in a power's squaring step)
    takes three multiplications, and each x*x stays a square for CPython.
    """
    L, LT, LQ = c
    p = x0 * y0
    s = 2 * (x0 * x1) if x0 is y0 and x1 is y1 else x1 * y0 + x0 * y1
    return L * s - LT * p, L * (x1 * y1) - LQ * p


def _row_pow(c: Cleared, base: IntRow, n: int) -> IntRow:
    """base**n for n >= 0, with the content of every step divided out.

    Every denominator met is a product of L and the base's d, so the content
    g of a product is the gcd of its row, its denominator and powers of
    known = L*d.  gcd(known, ...) takes g's part below known's multiplicity,
    and any rest is made of g's primes, hence gcd(g, ...) finds it: small
    gcds against big integers, linear in their size.
    """
    L = c[0]
    known = L * base[2]

    def mul(x: IntRow, y: IntRow) -> IntRow:
        a0, a1 = _row_product(c, x[0], x[1], y[0], y[1])
        d = L * x[2] * y[2]
        g = gcd(known, d, a0, a1)
        while g > 1:
            a0, a1, d = a0 // g, a1 // g, d // g
            g = gcd(g, d, a0, a1)
        return a0, a1, d

    return binpow(mul, (0, 1, 1), base, n)


def _d_power_row(c: Cleared, n: int) -> IntRow:
    """The integer row of D**n for any integer n: D has the row [L, L*T]/L
    and D**-1 the row [-1/Q, 0] = [-L, 0]/(L*Q)."""
    L, LT, LQ = c
    if n >= 0:
        g = gcd(L, LT)
        return _row_pow(c, (L // g, LT // g, L // g), n)
    g = gcd(L, LQ) if LQ > 0 else -gcd(L, LQ)
    return _row_pow(c, (-L // g, 0, LQ // g), -n)


def _fractions(a0: int, a1: int, d: int) -> Tuple[Fraction, Fraction]:
    return Fraction(a0, d), Fraction(a1, d)


def u_pair(ctx: ParamPair, n: int) -> Tuple[Fraction, Fraction]:
    """(U_n, U_{n+1}) for the fundamental solution U_0 = 0, U_1 = 1.

    D^n = [[-Q*U_{n-1}, -Q*U_n], [U_n, U_{n+1}]], so the pair is the second
    row of D^n.
    """
    return _fractions(*_d_power_row(ctx.cleared, n))


@dataclass(frozen=True)
class RingElement:
    """An element of the commuting ring over ctx, stored by its second row."""

    ctx: ParamPair
    x0: Fraction
    x1: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "x0", _frac(self.x0))
        object.__setattr__(self, "x1", _frac(self.x1))

    # -- basic invariants -------------------------------------------------

    @property
    def det(self) -> Fraction:
        x0, x1 = self.x0, self.x1
        return x1 * x1 - self.ctx.T * x1 * x0 + self.ctx.Q * x0 * x0

    @property
    def trace(self) -> Fraction:
        return 2 * self.x1 - self.ctx.T * self.x0

    @property
    def x_minus1(self) -> Fraction:
        return (self.ctx.T * self.x0 - self.x1) / self.ctx.Q

    @property
    def matrix(self) -> Matrix2:
        q = self.ctx.Q
        return ((-q * self.x_minus1, -q * self.x0), (self.x0, self.x1))

    # -- the carried sequence ---------------------------------------------

    @property
    def _row(self) -> IntRow:
        """The integer row (a0, a1, d) with d the least common denominator."""
        x0, x1 = self.x0, self.x1
        d = lcm(x0.denominator, x1.denominator)
        return x0.numerator * (d // x0.denominator), x1.numerator * (d // x1.denominator), d

    def _times(self, y: IntRow) -> IntRow:
        """The row of self*Y for Y's integer row y, over L*d*dy."""
        c = self.ctx.cleared
        a0, a1, d = self._row
        return (*_row_product(c, a0, a1, y[0], y[1]), c[0] * d * y[2])

    def term(self, n: int) -> Fraction:
        """x_n, exactly, for any integer n: the first entry of the row of
        X*D**n (binary powering of D)."""
        a0, _, d = self._times(_d_power_row(self.ctx.cleared, n))
        return Fraction(a0, d)

    def terms(self, start: int, stop: int) -> Tuple[Fraction, ...]:
        """x_n for start <= n < stop, via one powering then the recursion."""
        if stop <= start:
            return ()
        a, b = self.term(start), self.term(start + 1)
        out = [a]
        for _ in range(start + 1, stop):
            out.append(b)
            a, b = b, self.ctx.T * b - self.ctx.Q * a
        return tuple(out[: stop - start])

    def shift(self, k: int) -> "RingElement":
        """X*D^k, i.e. the carried sequence shifted by k."""
        return RingElement(self.ctx, *_fractions(*self._times(_d_power_row(self.ctx.cleared, k))))

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "RingElement") -> None:
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatchError("elements over %r and %r" % (self.ctx, other.ctx))

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.ctx, self.x0 + other.x0, self.x1 + other.x1)

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.ctx, self.x0 - other.x0, self.x1 - other.x1)

    def __neg__(self) -> "RingElement":
        return RingElement(self.ctx, -self.x0, -self.x1)

    def __mul__(self, other: Union["RingElement", RationalLike]) -> "RingElement":
        if isinstance(other, RingElement):
            self._check(other)
            return RingElement(self.ctx, *_fractions(*self._times(other._row)))
        return RingElement(self.ctx, _frac(other) * self.x0, _frac(other) * self.x1)

    def __rmul__(self, other: RationalLike) -> "RingElement":
        return self.__mul__(other)

    def inverse(self) -> "RingElement":
        return RingElement(self.ctx, *_fractions(*self._inverse_row()))

    def _inverse_row(self) -> IntRow:
        """The integer row of X**-1 = conj(X)/det X.  With X = [a0, a1]/d,
        conj(X) = [-L*a0, L*a1 - L*T*a0]/(L*d) and det X = Ldet/(L*d**2), so
        X**-1 = d*[-L*a0, L*a1 - L*T*a0]/Ldet."""
        L, LT, LQ = self.ctx.cleared
        a0, a1, d = self._row
        det = L * a1 * a1 - LT * a0 * a1 + LQ * a0 * a0
        if det == 0:
            raise SingularElementError("element [%s, %s] has det 0" % (self.x0, self.x1))
        if det < 0:
            det, d = -det, -d
        return -L * a0 * d, (L * a1 - LT * a0) * d, det

    def conjugate(self) -> "RingElement":
        """(det X) * X^{-1}; carries the sequence {-Q^n x_{-n}}."""
        if self.det == 0:
            raise SingularElementError("conjugate of a singular element")
        return RingElement(self.ctx, -self.x0, self.x1 - self.ctx.T * self.x0)

    def __pow__(self, n: int) -> "RingElement":
        base = self._row if n >= 0 else self._inverse_row()
        return RingElement(self.ctx, *_fractions(*_row_pow(self.ctx.cleared, base, abs(n))))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "[%s, %s] over (%s, %s)" % (self.x0, self.x1, self.ctx.T, self.ctx.Q)


def make_element(ctx: ParamPair, x0: RationalLike, x1: RationalLike) -> RingElement:
    return RingElement(ctx, _frac(x0), _frac(x1))


def identity(ctx: ParamPair) -> RingElement:
    return RingElement(ctx, Fraction(0), Fraction(1))


def companion(ctx: ParamPair) -> RingElement:
    """D itself; its carried sequence is {U_{n+1}}."""
    return RingElement(ctx, Fraction(1), ctx.T)


def elem_c(ctx: ParamPair) -> RingElement:
    """[2, T]: trace of D^n as a sequence; the unique order-2 class."""
    return RingElement(ctx, Fraction(2), ctx.T)


def _require_one_param(ctx: ParamPair, what: str) -> None:
    if not ctx.is_one_param:
        raise InvalidContextError("%s is defined in one-parameter contexts (Q = 1), got %r" % (what, ctx))


def elem_w(ctx: ParamPair) -> RingElement:
    """[-1, 1] in R(t): one square root of the D^{-1} class; det W = 2 + t."""
    _require_one_param(ctx, "W")
    return RingElement(ctx, Fraction(-1), Fraction(1))


def elem_v(ctx: ParamPair) -> RingElement:
    """[1, 1] in R(t): the other square root of the D^{-1} class; det V = 2 - t."""
    _require_one_param(ctx, "V")
    return RingElement(ctx, Fraction(1), Fraction(1))


def chebyshev_u(t: RationalLike, n: int) -> Fraction:
    """U_n(t): U_0 = 0, U_1 = 1, U_{n+1} = t*U_n - U_{n-1}; U_{-n} = -U_n.

    No ParamPair is built, so the value stays defined at every t, excluded
    ones included.
    """
    u0, _, d = _d_power_row(_clear(_frac(t), _ONE), n)
    return Fraction(u0, d)


def chebyshev_c(t: RationalLike, n: int) -> Fraction:
    """C_n(t) = trace of D_t^n: C_0 = 2, C_1 = t, same recursion; C_{-n} = C_n."""
    c = _clear(_frac(t), _ONE)
    u0, u1, d = _d_power_row(c, n)
    # C_n = U_{n+1} - U_{n-1} and U_{n-1} = t*U_n - U_{n+1}, with t = LT/L
    return Fraction(2 * c[0] * u1 - c[1] * u0, c[0] * d)
