"""The group of recursive sequences up to rational scaling.

Nonsingular ring elements taken modulo nonzero scalars form an abelian group
(the projectivization of the invertible part of the ring).  Each class holds
exactly one reduced representative: a coprime integer pair [a0, a1] with
a1 > 0, or a1 = 0 and a0 > 0.  All group arithmetic happens on these
representatives, in the integers (L, L*T, L*Q) the context clears once
(`ParamPair.cleared`, L the least common denominator of T and Q): products,
through the ring's one integer product `ring._row_product`, inverses, and
the determinant tests through the integer L*det.  Only `from_pair`
validates (products of nonsingular classes are nonsingular).

The layer enforces the parameter exclusion t not in {0, +-1, +-2} (for a
two-parameter context the equivalent condition on T**2/Q - 2): at the
excluded parameters the companion class has finite order and the whole
divisor theory downstream collapses.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import List, Optional, Tuple

from . import primes as _primes
from .errors import ContextMismatchError, DegenerateParameterError, InvariantError, SingularElementError
from .rational import divisors, iroot, is_rational_square, rational_sqrt
from .ring import ParamPair, RationalLike, RingElement, binpow, _frac, _row_product
from .transforms import check_parameter, classify_cyclotomic


def check_group_context(ctx: ParamPair) -> ParamPair:
    """ctx, once its parameter is outside the exclusion set of the group layer.

    For a one-parameter context that parameter is t itself; in general it is
    the split parameter T**2/Q - 2 (for Q = 1 the two conditions agree:
    t**2 - 2 hits {0, +-1, +-2} exactly when t does).
    """
    check_parameter(ctx.T if ctx.is_one_param else ctx.t)
    return ctx


@dataclass(frozen=True)
class GroupElement:
    """A sequence class: reduced coprime integer pair over a validated context."""

    ctx: ParamPair
    a0: int
    a1: int

    @classmethod
    def from_pair(cls, ctx: ParamPair, x0: RationalLike, x1: RationalLike) -> "GroupElement":
        check_group_context(ctx)
        x0, x1 = _frac(x0), _frac(x1)
        if x0 == 0 and x1 == 0:
            raise SingularElementError("the zero pair has no class")
        L = lcm(x0.denominator, x1.denominator)
        el = _reduced(ctx, x0.numerator * (L // x0.denominator), x1.numerator * (L // x1.denominator))
        if _cleared_det(el) == 0:
            raise SingularElementError("pair [%s, %s] is singular over %r" % (x0, x1, ctx))
        return el

    @property
    def det(self) -> Fraction:
        a0, a1 = self.a0, self.a1
        return a1 * a1 - self.ctx.T * a1 * a0 + self.ctx.Q * a0 * a0

    @property
    def height(self) -> int:
        return max(abs(self.a0), abs(self.a1))

    def ring_element(self) -> RingElement:
        return RingElement(self.ctx, Fraction(self.a0), Fraction(self.a1))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatchError("elements over %r and %r" % (self.ctx, other.ctx))
        return _reduced(self.ctx, *_row_product(self.ctx.cleared, self.a0, self.a1, other.a0, other.a1))

    def inverse(self) -> "GroupElement":
        """The class of the conjugate (det X) * X**-1."""
        L, LT, _ = self.ctx.cleared
        return _reduced(self.ctx, -L * self.a0, L * self.a1 - LT * self.a0)

    def __pow__(self, n: int) -> "GroupElement":
        base = self if n >= 0 else self.inverse()
        return binpow(operator.mul, identity_class(self.ctx), base, abs(n))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<[%d, %d] over (%s, %s)>" % (self.a0, self.a1, self.ctx.T, self.ctx.Q)


def _reduced(ctx: ParamPair, a0: int, a1: int) -> GroupElement:
    """The class of the nonzero integer pair [a0, a1]."""
    return GroupElement(ctx, *_reduced_pair(a0, a1))


def _reduced_pair(a0: int, a1: int) -> Tuple[int, int]:
    """The reduced representative of the nonzero integer pair [a0, a1]:
    coprime, with the sign rule."""
    g = gcd(a0, a1)
    if a1 < 0 or (a1 == 0 and a0 < 0):
        g = -g
    return a0 // g, a1 // g


def _cleared_det(g: GroupElement) -> int:
    """L*det g, an integer: L*a1**2 - LT*a0*a1 + LQ*a0**2 for the context's
    cleared (L, LT, LQ)."""
    L, LT, LQ = g.ctx.cleared
    a0, a1 = g.a0, g.a1
    return L * a1 * a1 - LT * a0 * a1 + LQ * a0 * a0


def _has_square_det(g: GroupElement) -> bool:
    """Whether det g is a rational square, with no Fraction built: as L > 0,
    det = (L*det)*L / L**2 is a square iff the integer (L*det)*L is one."""
    n = _cleared_det(g) * g.ctx.cleared[0]
    return n >= 0 and isqrt(n) ** 2 == n


def reduce_element(x: RingElement) -> GroupElement:
    """The class of a nonsingular ring element."""
    return GroupElement.from_pair(x.ctx, x.x0, x.x1)


def identity_class(ctx: ParamPair) -> GroupElement:
    return GroupElement.from_pair(ctx, 0, 1)


def companion_class(ctx: ParamPair) -> GroupElement:
    return GroupElement.from_pair(ctx, 1, ctx.T)


def class_c(ctx: ParamPair) -> GroupElement:
    return GroupElement.from_pair(ctx, 2, ctx.T)


def class_w(t: RationalLike) -> GroupElement:
    return GroupElement.from_pair(ParamPair.one_param(t), -1, 1)


def class_v(t: RationalLike) -> GroupElement:
    return GroupElement.from_pair(ParamPair.one_param(t), 1, 1)


def group_sqrt(y: GroupElement) -> Tuple[GroupElement, ...]:
    """All square roots of a class; empty unless det is a rational square.

    Roots are the row eigenvectors of [[-y1, Q*y0 - T*y1], [y0, y1]] for the
    eigenvalues +-lambda (lambda**2 = det).  For y0 != 0 this collapses to
    the pair [y0, y1 +- lambda]; the degenerate y0 = 0 case (the identity
    class) falls back to the second eigen column and yields {I, C}.  A square
    always has exactly two roots, differing by the order-2 class C.
    """
    lam = rational_sqrt(y.det)
    if lam is None:
        return ()
    T, Q = y.ctx.T, y.ctx.Q
    y0, y1 = Fraction(y.a0), Fraction(y.a1)
    roots: List[GroupElement] = []
    for eps in (lam, -lam):
        cand = (y0, y1 + eps)
        if cand == (0, 0):
            cand = (y1 - eps, T * y1 - Q * y0)
        roots.append(GroupElement.from_pair(y.ctx, *cand))
    if roots[0] == roots[1]:
        raise InvariantError("square roots of %r must differ by the order-2 class" % (y,))
    return tuple(roots)


def torsion_l(t: RationalLike) -> Tuple[Tuple[GroupElement, int], ...]:
    """The nontrivial torsion of the sequence group over t, with orders.

    Always contains the order-2 class C = [2, t]; circular t adds the
    order-4 pair G, H = [2, t +- a]; cubic t adds the order-3 pair
    S, R = [2, t +- f] and the order-6 pair Y, Z = [2, t +- 3f].  Torsion is
    hence Z2, Z4 or Z6, and no other orders occur.
    """
    t = check_parameter(_frac(t))
    ctx = ParamPair.one_param(t)
    out = [(class_c(ctx), 2)]
    cls = classify_cyclotomic(t)
    if cls.kind == "circular":
        out.append((GroupElement.from_pair(ctx, 2, t + cls.a), 4))
        out.append((GroupElement.from_pair(ctx, 2, t - cls.a), 4))
    elif cls.kind == "cubic":
        out.append((GroupElement.from_pair(ctx, 2, t + cls.f), 3))
        out.append((GroupElement.from_pair(ctx, 2, t - cls.f), 3))
        out.append((GroupElement.from_pair(ctx, 2, t + 3 * cls.f), 6))
        out.append((GroupElement.from_pair(ctx, 2, t - 3 * cls.f), 6))
    return tuple(out)


# ---------------------------------------------------------------------------
# primitivity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChebyshevWitness:
    """A solution of C_r(u) = sign*t with rational u."""

    r: int
    u: Fraction
    sign: int


@dataclass(frozen=True)
class PrimitivityReport:
    t: Fraction
    kind: str
    is_primitive: bool
    witnesses: Tuple[ChebyshevWitness, ...]
    decomposition: Tuple[int, Fraction, int]
    circular_primitive: Optional[bool] = None


def _chebyshev_witnesses(t: Fraction) -> List[ChebyshevWitness]:
    """All rational u with C_r(u) = +-t for a prime r, by exact rational root search.

    C_r is monic with integer coefficients, so a root p/q in lowest terms has
    den(C_r(p/q)) = q**r: den(t) must be an exact r-th power, and its integer
    r-th root q is the only denominator to try (no factoring of den(t)).
    Clearing it, d*C_r(u) -+ n = 0 has constant term d*C_r(0) -+ n, so
    p | |constant|.  (C_r(0) is -2 for r = 2 and 0 for odd r, so the
    constant is nonzero whenever t is outside the excluded set.)

    Each candidate is tested in integers: q**r * C_r(p/q) = V_r(p, q**2), the
    Lucas sequence V_0 = 2, V_1 = p, V_k+1 = p*V_k - q**2*V_k-1, so with
    q**r = d the test C_r(p/q) = sign*n/d is V_r(p, q**2) = sign*n.  As
    V_r(-p, Q) = (-1)**r * V_r(p, Q), one ladder tests both p/q and -p/q.
    """
    n, d = t.numerator, t.denominator
    out: List[ChebyshevWitness] = []
    for r in filter(_primes.is_prime, range(2, _witness_prime_bound(t) + 1)):
        q = iroot(d, r)
        if q ** r != d:
            continue
        c0 = -2 if r == 2 else 0
        for sign in (1, -1):
            const = d * c0 - sign * n
            if const == 0:
                raise DegenerateParameterError("t = %s is excluded" % t)
            for p in divisors(const):
                if gcd(p, q) != 1:
                    continue
                v = _lucas_v(p, q * q, r)
                if v == sign * n:
                    out.append(ChebyshevWitness(r, Fraction(p, q), sign))
                if (v if r == 2 else -v) == sign * n:
                    out.append(ChebyshevWitness(r, Fraction(-p, q), sign))
    return out


def _lucas_v(P: int, Q: int, n: int) -> int:
    """V_n(P, Q) for n >= 0, by the ladder (V_k, V_k+1, Q**k) -> k = 2k or 2k + 1:
    V_2k = V_k**2 - 2*Q**k and V_2k+1 = V_k*V_k+1 - P*Q**k."""
    v, w, qk = 2, P, 1
    for bit in bin(n)[2:]:
        if bit == "1":
            v, w, qk = v * w - P * qk, w * w - 2 * qk * Q, qk * qk * Q
        else:
            v, w, qk = v * v - 2 * qk, v * w - P * qk, qk * qk
    return v


def _witness_prime_bound(t: Fraction) -> int:
    """Primes r beyond this bound admit no witness.

    A non-integer u needs den(u)**r = den(t); an integer witness u has
    |u| >= 3 (smaller u only produce excluded t), whence |t| = |C_r(u)| >=
    2.6**r - 1.  Either way r <= log2(max(|num t|, den t)) + 1.
    """
    h = max(abs(t.numerator), t.denominator)
    return max(3, h.bit_length())


def primitivity(t: RationalLike) -> PrimitivityReport:
    """Decide whether t is expressible as +-C_r(u) for any prime r.

    t is primitive iff no such witness exists; only primes matter since
    C_{rs} = C_r . C_s.  The report carries the maximal decomposition
    t = sign * C_m(u), u primitive, m maximal ((1, t, 1) for primitive t):
    each prime witness is stacked on the decomposition of its u, and for odd
    r the witness sign is absorbed into u, so the final sign only records an
    unabsorbed minus in front of an even-step composition.  For circular t
    the report also says whether t is circular primitive, i.e. whether
    2*(2 + t) is a rational non-square.
    """
    t = check_parameter(_frac(t))
    witnesses = _chebyshev_witnesses(t)
    best = (1, t, 1)
    for w in witnesses:
        m_inner, v, s_inner = maximal_decomposition(w.u)
        # t = w.sign * C_r(u), u = s_inner * C_{m_inner}(v)
        sign = w.sign * s_inner if w.r % 2 == 1 else w.sign
        cand = (w.r * m_inner, v, sign)
        key = (cand[0], cand[2], -abs(cand[1]), cand[1] > 0)
        best_key = (best[0], best[2], -abs(best[1]), best[1] > 0)
        if key > best_key:
            best = cand
    cls = classify_cyclotomic(t)
    circ: Optional[bool] = None
    if cls.kind == "circular":
        circ = not is_rational_square(2 * (2 + t))
    return PrimitivityReport(
        t=t,
        kind=cls.kind,
        is_primitive=not witnesses,
        witnesses=tuple(witnesses),
        decomposition=best,
        circular_primitive=circ,
    )


def maximal_decomposition(t: RationalLike) -> Tuple[int, Fraction, int]:
    """Write t = sign * C_m(u) with u primitive and m maximal: (m, u, sign)."""
    return primitivity(t).decomposition
