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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from math import lcm
from typing import Callable, Tuple, TypeVar, Union

from .errors import ContextMismatchError, InvalidContextError, SingularElementError

RationalLike = Union[Fraction, int, str]

Matrix2 = Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]

_E = TypeVar("_E")


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
        the integers the group layer computes on, found once per context."""
        T, Q = self.T, self.Q
        L = lcm(T.denominator, Q.denominator)
        return L, T.numerator * (L // T.denominator), Q.numerator * (L // Q.denominator)

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


Row = Tuple[Fraction, Fraction]


def _row_mul(T: Fraction, Q: Fraction, x: Row, y: Row) -> Row:
    """The second row of X*Y from the second rows of X and Y over (T, Q)."""
    p = x[0] * y[0]
    return x[1] * y[0] + x[0] * y[1] - T * p, x[1] * y[1] - Q * p


def _u_row(T: Fraction, Q: Fraction, n: int) -> Row:
    """The second row (U_n, U_{n+1}) of D^n for any integer n.

    D has row (1, T) and D^-1 has row (-1/Q, 0).  No ParamPair is built,
    so Chebyshev values stay defined at every t, excluded ones included.
    """
    d = (Fraction(1), T) if n >= 0 else (Fraction(-1) / Q, Fraction(0))
    return binpow(partial(_row_mul, T, Q), (Fraction(0), Fraction(1)), d, abs(n))


def u_pair(ctx: ParamPair, n: int) -> Row:
    """(U_n, U_{n+1}) for the fundamental solution U_0 = 0, U_1 = 1.

    D^n = [[-Q*U_{n-1}, -Q*U_n], [U_n, U_{n+1}]], so the pair is the second
    row of D^n.
    """
    return _u_row(ctx.T, ctx.Q, n)


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

    def term(self, n: int) -> Fraction:
        """x_n, exactly, for any integer n (binary powering of D)."""
        un, un1 = u_pair(self.ctx, n)
        # x_n = U_n*x1 - Q*U_{n-1}*x0 and Q*U_{n-1} = T*U_n - U_{n+1}
        return un * self.x1 - (self.ctx.T * un - un1) * self.x0

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
        return RingElement(self.ctx, self.term(k), self.term(k + 1))

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
            x0, x1 = _row_mul(self.ctx.T, self.ctx.Q, (self.x0, self.x1), (other.x0, other.x1))
            return RingElement(self.ctx, x0, x1)
        return RingElement(self.ctx, _frac(other) * self.x0, _frac(other) * self.x1)

    def __rmul__(self, other: RationalLike) -> "RingElement":
        return self.__mul__(other)

    def inverse(self) -> "RingElement":
        d = self.det
        if d == 0:
            raise SingularElementError("element [%s, %s] has det 0" % (self.x0, self.x1))
        return RingElement(self.ctx, -self.x0 / d, (self.x1 - self.ctx.T * self.x0) / d)

    def conjugate(self) -> "RingElement":
        """(det X) * X^{-1}; carries the sequence {-Q^n x_{-n}}."""
        if self.det == 0:
            raise SingularElementError("conjugate of a singular element")
        return RingElement(self.ctx, -self.x0, self.x1 - self.ctx.T * self.x0)

    def __pow__(self, n: int) -> "RingElement":
        base = self if n >= 0 else self.inverse()
        mul = partial(_row_mul, self.ctx.T, self.ctx.Q)
        x0, x1 = binpow(mul, (Fraction(0), Fraction(1)), (base.x0, base.x1), abs(n))
        return RingElement(self.ctx, x0, x1)

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
    """U_n(t): U_0 = 0, U_1 = 1, U_{n+1} = t*U_n - U_{n-1}; U_{-n} = -U_n."""
    return _u_row(_frac(t), 1, n)[0]


def chebyshev_c(t: RationalLike, n: int) -> Fraction:
    """C_n(t) = trace of D_t^n: C_0 = 2, C_1 = t, same recursion; C_{-n} = C_n."""
    t = _frac(t)
    un, un1 = _u_row(t, 1, n)
    # C_n = U_{n+1} - U_{n-1} and U_{n-1} = t*U_n - U_{n+1}
    return 2 * un1 - t * un
