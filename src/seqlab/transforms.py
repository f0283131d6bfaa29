"""Isomorphisms and reparametrizations between recursion rings.

Five maps change ring, each an exact ring isomorphism (conjugation by an
explicit 2x2 matrix) written out on second rows:

* phi:    R(T, Q) -> R(t) with t = T**2/Q - 2, the even/odd split;
* phi_inverse: its inverse R(t) -> R(T, Q);
* psi:    R(t) -> R(-t), transposition, the twin involution;
* phi_r:  R(t) -> R(t_r) with t_r = C_r(t), the index-r decimation;
* phi_r_inverse: its inverse R(C_r(t)) -> R(t).

Every other change of ring is a composition of these, times an exact
scalar where a sequence is rescaled:

* theta_circular = phi_2^{-1}(., a) . psi . phi_2, for t**2 + a**2 = 4;
* theta_cubic = phi_3^{-1}(., a) . phi_3, for C_3-associates t and a
  (t**2 - 4 = -3*f**2, a = (-t +- 3f)/2);
* recombine: y = phi^{-1}(X)/T and z = phi^{-1}(X*C_t)/T over (T, Q), and
  -phi^{-1}(psi(X))/Th, -phi^{-1}(psi(X)*C_{-t})/Th over the simple twin
  (Th, Qh), with C_t = [2, t];
* recombine_circular = (t/a) * theta_circular and
  recombine_cubic = (t**2 - 1)/(a**2 - 1) * theta_cubic.

Alongside them live the parameter-level constructions: reduction of a pair
(T, Q) to its two simple integer pairs, twin pairs and the cyclotomic
classification of t.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Optional, Tuple

from .errors import ContextMismatchError, DegenerateParameterError, InvariantError
from .primes import factorize
from .rational import rational_sqrt, squarefree_decompose
from .ring import (
    ParamPair,
    RationalLike,
    RingElement,
    chebyshev_c,
    chebyshev_u,
    elem_c,
    _frac,
)

EXCLUDED_PARAMS = (0, 1, -1, 2, -2)


def check_parameter(t: Fraction) -> Fraction:
    """Reject the degenerate parameters t in {0, +-1, +-2}.

    At t = +-2 the discriminant vanishes; at t in {0, +-1} the companion
    matrix has finite projective order, so the groups built downstream
    collapse.  Plain ring arithmetic does not call this.
    """
    t = _frac(t)
    if t.denominator == 1 and t.numerator in EXCLUDED_PARAMS:
        raise DegenerateParameterError("t = %s is excluded (needs t outside {0, +-1, +-2})" % t)
    return t


# ---------------------------------------------------------------------------
# parameter-level constructions
# ---------------------------------------------------------------------------


def is_simple(T: int, Q: int) -> bool:
    """A pair of integers (T, Q) is simple when no prime of T has its square in Q."""
    if T != int(T) or Q != int(Q):
        return False
    T, Q = int(T), int(Q)
    if T == 0 or Q == 0:
        return False
    # such a prime divides gcd(T, Q): factor that, not a huge T
    return all(Q % (p * p) != 0 for p in factorize(gcd(T, Q)))


def simple_reduce(T: RationalLike, Q: RationalLike) -> Tuple[ParamPair, ParamPair]:
    """The two simple integer pairs similar to (T, Q).

    Fully reduce T**2/Q = a*P**2/R with a squarefree and gcd(P, R) =
    gcd(a, R) = 1; the simple pairs are (+-a*P, a*R).  Both are verified
    simple and similar before being returned.
    """
    ratio = _frac(T) ** 2 / _frac(Q)
    a, p_part = squarefree_decompose(ratio.numerator)
    r_part = ratio.denominator
    ts, qs = abs(a) * p_part, a * r_part
    plus, minus = ParamPair(Fraction(ts), Fraction(qs)), ParamPair(Fraction(-ts), Fraction(qs))
    for pair in (plus, minus):
        if not is_simple(int(pair.T), int(pair.Q)) or pair.t != ParamPair(_frac(T), _frac(Q)).t:
            raise InvariantError("simple reduction failed for (%s, %s)" % (T, Q))
    return plus, minus


def twin_pair(T: RationalLike, Q: RationalLike) -> ParamPair:
    """The twin (Delta, -Delta*Q) of (T, Q), where Delta = T**2 - 4Q.

    The twin's split parameter is -t; twinning is an involution up to
    similarity.
    """
    ctx = ParamPair(_frac(T), _frac(Q))
    delta = ctx.discriminant
    if delta == 0:
        raise DegenerateParameterError("(T, Q) with T**2 = 4Q has no twin")
    return ParamPair(delta, -delta * ctx.Q)


def simple_twin(T: RationalLike, Q: RationalLike) -> ParamPair:
    """The positive simple pair similar to the twin of (T, Q)."""
    tw = twin_pair(T, Q)
    return simple_reduce(tw.T, tw.Q)[0]


@dataclass(frozen=True)
class CyclotomicClass:
    """Result of classifying t: "generic", "circular" or "cubic".

    circular: t**2 + a**2 = 4 has a rational solution; a > 0 canonical.
    cubic:    t**2 - 4 = -3*f**2 has one; f > 0, associates are the two
              roots a = (-t +- 3f)/2 of C_3(a) = C_3(t), listed +f first.
    The two cases exclude each other (3 is not a rational square).
    """

    kind: str
    a: Optional[Fraction] = None
    f: Optional[Fraction] = None
    associates: Tuple[Fraction, ...] = ()


def classify_cyclotomic(t: RationalLike) -> CyclotomicClass:
    t = check_parameter(_frac(t))
    square = rational_sqrt(4 - t * t)
    if square is not None and square != 0:
        return CyclotomicClass(kind="circular", a=square)
    f = rational_sqrt((4 - t * t) / 3)
    if f is not None and f != 0:
        return CyclotomicClass(kind="cubic", f=f, associates=((-t + 3 * f) / 2, (-t - 3 * f) / 2))
    return CyclotomicClass(kind="generic")


def cubic_class(t: RationalLike) -> CyclotomicClass:
    """classify_cyclotomic(t) for cubic t; any other t is degenerate here."""
    t = _frac(t)
    cls = classify_cyclotomic(t)
    if cls.kind != "cubic":
        raise DegenerateParameterError("t = %s is not cubic" % t)
    return cls


def element_with_trace(t: RationalLike, a: RationalLike) -> Optional[RingElement]:
    """The det-1 element of R(t) with trace a, if one exists.

    It exists iff (a**2 - 4)/(t**2 - 4) is a rational square; then
    x0**2 = (a**2 - 4)/(t**2 - 4) and 2*x1 = t*x0 + a.  Unique up to
    inverse (the two sign choices of x0).
    """
    t, a = _frac(t), _frac(a)
    if t * t == 4:
        raise DegenerateParameterError("t = +-2 has vanishing discriminant")
    x0 = rational_sqrt((a * a - 4) / (t * t - 4))
    if x0 is None:
        return None
    return RingElement(ParamPair.one_param(t), x0, (t * x0 + a) / 2)


# ---------------------------------------------------------------------------
# ring isomorphisms
# ---------------------------------------------------------------------------


def phi(x: RingElement) -> RingElement:
    """The split R(T, Q) -> R(t), t = T**2/Q - 2: T*phi(X) = [Q*x0, x2].

    Exactly multiplicative (conjugation by [[Q, -Q], [0, T]]); sends D**2 to
    Q*D_t, so even/odd subsequences of X become one-parameter solutions.
    Undefined for T = 0, where that conjugator is singular.
    """
    ctx = _split_source(x.ctx, "phi")
    return RingElement(
        ParamPair.one_param(ctx.t),
        ctx.Q * x.x0 / ctx.T,
        (ctx.T * x.x1 - ctx.Q * x.x0) / ctx.T,
    )


def phi_inverse(y: RingElement, target: ParamPair) -> RingElement:
    """Inverse of the split: [y0, y1] over t = target.t maps to [T*y0/Q, y0 + y1]."""
    _split_source(target, "phi_inverse")
    if not y.ctx.is_one_param or y.ctx.T != target.t:
        raise ContextMismatchError("element over %r is not in the image ring of %r" % (y.ctx, target))
    return RingElement(target, target.T * y.x0 / target.Q, y.x0 + y.x1)


def _split_source(ctx: ParamPair, what: str) -> ParamPair:
    if ctx.T == 0:
        raise DegenerateParameterError("%s needs T != 0, got %r" % (what, ctx))
    return ctx


def _one_param_t(x: RingElement, what: str) -> Fraction:
    if not x.ctx.is_one_param:
        raise ContextMismatchError("%s needs a one-parameter context, got %r" % (what, x.ctx))
    return x.ctx.T


def psi(x: RingElement) -> RingElement:
    """Transposition R(t) -> R(-t): [x0, x1] -> [-x0, x1].

    Carries {x_n} to {(-1)**(n+1) x_n}; swaps W and V and sends C_t to -C_{-t}.
    """
    t = _one_param_t(x, "psi")
    return RingElement(ParamPair.one_param(-t), -x.x0, x.x1)


def phi_r(x: RingElement, r: int) -> RingElement:
    """Decimation R(t) -> R(t_r), t_r = C_r(t): U_r(t)*phi_r(X) = [x0, x_r].

    Conjugation by [[1, -U_{r-1}], [0, U_r]]; sends D**r to D_{t_r}.
    Needs U_r(t) != 0 (guaranteed for t outside the excluded set).
    """
    t = _one_param_t(x, "phi_r")
    if r < 1:
        raise DegenerateParameterError("phi_r needs r >= 1, got %d" % r)
    ur = chebyshev_u(t, r)
    if ur == 0:
        raise DegenerateParameterError("U_%d(%s) = 0; decimation undefined" % (r, t))
    return RingElement(ParamPair.one_param(chebyshev_c(t, r)), x.x0 / ur, x.term(r) / ur)


def phi_r_inverse(y: RingElement, t: RationalLike, r: int) -> RingElement:
    """Inverse decimation: [y0, y1] over C_r(t) maps to [U_r*y0, y1 + U_{r-1}*y0]."""
    t = _frac(t)
    if not y.ctx.is_one_param or y.ctx.T != chebyshev_c(t, r):
        raise ContextMismatchError("element over %r is not in the image ring of t = %s, r = %d" % (y.ctx, t, r))
    ur = chebyshev_u(t, r)
    if ur == 0:
        raise DegenerateParameterError("U_%d(%s) = 0; decimation undefined" % (r, t))
    return RingElement(ParamPair.one_param(t), ur * y.x0, y.x1 + chebyshev_u(t, r - 1) * y.x0)


def _circular_associate(t: RationalLike, a: Optional[RationalLike]) -> Fraction:
    """a itself, or the canonical a > 0, once t is circular and t**2 + a**2 = 4."""
    t = _frac(t)
    cls = classify_cyclotomic(t)
    if cls.kind != "circular":
        raise DegenerateParameterError("t = %s is not circular" % t)
    a = cls.a if a is None else _frac(a)
    if a * a + t * t != 4:
        raise DegenerateParameterError("a = %s does not satisfy t**2 + a**2 = 4" % a)
    return a


def _cubic_associate(t: RationalLike, a: Optional[RationalLike]) -> Fraction:
    """a itself, or the canonical associate (-t + 3f)/2, once t is cubic and
    a is one of its two C_3-associates."""
    t = _frac(t)
    cls = cubic_class(t)
    a = cls.associates[0] if a is None else _frac(a)
    if a not in cls.associates:
        raise DegenerateParameterError("a = %s is not an associate of t = %s" % (a, t))
    return a


def theta_circular(x: RingElement, a: Optional[RationalLike] = None) -> RingElement:
    """The circular isomorphism R(t) -> R(a), t**2 + a**2 = 4:

        theta = Phi_{2,a}^{-1} . Psi . Phi_{2,t},   theta(X) = (1/t) * [-a*x0, x2 - x0],

    since C_2(a) = 2 - t**2 = -C_2(t).  Exactly multiplicative; sends
    D_t**2 to -D_a**2 and D_t*C_t to -a*D_a.
    """
    # phi_r runs first, so a two-parameter x fails as a context mismatch
    return phi_r_inverse(psi(phi_r(x, 2)), _circular_associate(x.ctx.T, a), 2)


def theta_cubic(x: RingElement, a: Optional[RationalLike] = None) -> RingElement:
    """The cubic isomorphism R(t) -> R(a) for C_3-associates a of t:

        theta = Phi_{3,a}^{-1} . Phi_{3,t},   (t**2 - 1) * theta(X) = [(a**2 - 1)*x0, a*x0 + x3],

    as both decimations land in R(C_3(t)) = R(C_3(a)).  Exactly
    multiplicative; with the canonical associate a = (-t + 3f)/2 it sends
    D_t*S_t to D_a.
    """
    return phi_r_inverse(phi_r(x, 3), _cubic_associate(x.ctx.T, a), 3)


def cubic_roots_of_unity(t: RationalLike) -> Tuple[RingElement, RingElement]:
    """The two nontrivial cube roots of the identity in R(t), cubic t only:

        S = -(1/2f) * [2, t+f],    R = (1/2f) * [2, t-f],

    with det S = det R = 1, trace -1, S*R = 1 and S**3 = R**3 = 1.
    """
    t = _frac(t)
    f = cubic_class(t).f
    ctx = ParamPair.one_param(t)
    s = RingElement(ctx, Fraction(2), t + f) * (Fraction(-1, 2) / f)
    r = RingElement(ctx, Fraction(2), t - f) * (Fraction(1, 2) / f)
    return s, r


# ---------------------------------------------------------------------------
# sequence recombination
# ---------------------------------------------------------------------------

SequenceFn = Callable[[int], Fraction]


@dataclass(frozen=True)
class RecombinedSequences:
    """Solutions over (T, Q) and its simple twin rebuilt from a split solution.

    y and z are the two recombinations over `target`; y_twin and z_twin the
    ones over `twin`.  All four are index -> value functions, exact for any
    integer index, and satisfy w_{n+1} = T*w_n - Q*w_{n-1} of their context.
    """

    target: ParamPair
    twin: ParamPair
    y: SequenceFn
    z: SequenceFn
    y_twin: SequenceFn
    z_twin: SequenceFn


def recombine(x: RingElement, target: ParamPair) -> RecombinedSequences:
    """Interleave a one-parameter solution into two-parameter ones.

    x lives over (t, 1) with t = target.t = T**2/Q - 2.  With C_t = [2, t]
    and the simple twin (Th, Qh), which splits to -t, the four rebuilt
    sequences are carried by

        Y  = phi^{-1}(X) / T,             Z  = phi^{-1}(X*C_t) / T,
        Yh = -phi^{-1}(psi(X)) / Th,      Zh = -phi^{-1}(psi(X)*C_{-t}) / Th,

    so y_{2k} = Q**(k-1) * x_k and y_{2k-1} = Q**(k-1) * (x_k + x_{k-1}) / T.
    """
    _one_param_t(x, "recombine")
    y = phi_inverse(x, target) * (1 / target.T)
    z = phi_inverse(x * elem_c(x.ctx), target) * (1 / target.T)
    tw = simple_twin(target.T, target.Q)
    xh = psi(x)
    y_twin = phi_inverse(xh, tw) * (-1 / tw.T)
    z_twin = phi_inverse(xh * elem_c(xh.ctx), tw) * (-1 / tw.T)
    return RecombinedSequences(target=target, twin=tw, y=y.term, z=z.term, y_twin=y_twin.term, z_twin=z_twin.term)


def recombine_circular(x: SequenceFn, t: RationalLike, a: Optional[RationalLike] = None) -> SequenceFn:
    """Rewrite a solution over circular t as one over the associate a:
    (t/a) * theta_circular(X), so

        xh_{2k}   = (-1)**(k-1) * x_{2k}
        xh_{2k+1} = (-1)**k * (x_{2k+2} - x_{2k}) / a.

    Only x(0) and x(1) are read: x must be a solution over t.
    """
    t = _frac(t)
    a = _circular_associate(t, a)
    return (theta_circular(RingElement(ParamPair.one_param(t), x(0), x(1)), a) * (t / a)).term


def recombine_cubic(x: SequenceFn, t: RationalLike, a: Optional[RationalLike] = None) -> SequenceFn:
    """Rewrite a solution over cubic t as one over an associate a:
    (t**2 - 1)/(a**2 - 1) * theta_cubic(X), so

        xh_{3k}   = x_{3k}
        xh_{3k+1} = (a*x_{3k} + x_{3k+3}) / (a**2 - 1).

    Only x(0) and x(1) are read: x must be a solution over t.
    """
    t = _frac(t)
    a = _cubic_associate(t, a)
    return (theta_cubic(RingElement(ParamPair.one_param(t), x(0), x(1)), a) * ((t * t - 1) / (a * a - 1))).term
