"""Reduction of the sequence group modulo a prime.

For an admissible odd prime p (one dividing neither numerator nor
denominator of t or of delta = t**2 - 4) the reduced classes with
nonvanishing determinant form a cyclic group of order

    N = p - 1   if delta is a quadratic residue mod p,
        p + 1   otherwise.

Element orders in that group drive the whole divisor theory: p divides some
term of the sequence carried by X exactly when ord_p(X) divides ord_p(D),
that is, when X**m is a scalar mod p for m = ord_p(D).

Both tests run on one Lucas-chain ladder for V_n(s) = V_n(s, 1): two modular
products per bit and no inverses (Montgomery 1992, "Evaluating recurrences
of form X_{m+n} = f(X_m, X_n, X_{m-n}) via Lucas chains"; Joye and Quisquater
1996, "Efficient computation of full Lucas sequences").  For X = a1 + a0*e
(e**2 + t*e + 1 = 0) with eigenvalue ratio z, X**m is a scalar iff z**m = 1,
and z + 1/z = tr**2/det - 2 (tr = 2*a1 - t*a0, det = a1**2 - t*a0*a1 + a0**2);
as w + 1/w = 2 iff w = 1, the test is det != 0 and V_m(tr**2/det - 2) = 2.
A scalar (a0 = 0, the one case of equal eigenvalues, as tr**2 - 4*det =
a0**2 * (t**2 - 4)) gives V_m(2) = 2.  m is found once per (t, p) by a descent
over the factors of N: D**n is a scalar iff V_n(t) = +-2, and
V_q(V_n(t)) = V_qn(t) lets each step go on from the last value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Dict, Iterable, List, Sequence, Tuple

from . import primes as _primes
from .errors import ExcludedPrimeError, SingularElementError
from .group import GroupElement
from .rational import factorize
from .ring import RationalLike, _frac, binpow
from .transforms import check_parameter


def in_admissible_set(t: RationalLike, p: int) -> bool:
    """Whether p belongs to the admissible prime set of t."""
    t = _frac(t)
    return p != 2 and _primes.is_prime(p) and exclusion_modulus(t.numerator, t.denominator) % p != 0


def exclusion_modulus(n: int, d: int) -> int:
    """An odd prime is admissible for t = n/d in lowest terms iff it does
    not divide this integer.

    It is the product of the numerator and denominator of t and the
    numerator of t**2 - 4 (zero when t is 0 or +-2: then no prime is).
    """
    return n * d * (n * n - 4 * d * d)


@dataclass(frozen=True)
class ModpContext:
    """t reduced mod an admissible prime, with the group order prefactored
    and the order of the companion class D."""

    t: Fraction
    p: int
    t_p: int
    delta_p: int
    group_order: int
    order_factors: Tuple[Tuple[int, int], ...]
    companion_order: int


# Integer keys, so no Fraction is hashed; 1 << 14 rows hold a table3 window
# (6 x <= 1 232 rows) and an explore pass (about 8 900 rows) for a re-run.
@lru_cache(maxsize=1 << 14)
def _row(num: int, den: int, p: int) -> Tuple[int, int, int]:
    """(t_p, N, ord_p(D)) for t = num/den in lowest terms, after checking
    that p is admissible for t."""
    if p == 2 or exclusion_modulus(num, den) % p == 0 or not _primes.is_prime(p):
        raise ExcludedPrimeError("p = %d is not admissible for t = %s" % (p, Fraction(num, den)))
    t_p = num * pow(den, -1, p) % p
    n = p - 1 if pow(t_p * t_p - 4, (p - 1) // 2, p) == 1 else p + 1
    return t_p, n, _companion_order(t_p, p, n, factorize(n).items())


def _lucas_v(s: int, p: int, n: int) -> int:
    """V_n(s, 1) mod p, by the ladder (V_k, V_k+1) -> (V_2k, V_2k+1) or (V_2k+1, V_2k+2)."""
    v, w = 2, s
    for bit in bin(n)[2:]:
        if bit == "1":
            v, w = (v * w - s) % p, (w * w - 2) % p
        else:
            v, w = (v * v - 2) % p, (v * w - s) % p
    return v


def _companion_order(t_p: int, p: int, n: int, factors: Iterable[Tuple[int, int]]) -> int:
    """ord_p(D) in the group of order n: strip each prime power q**e off the
    order, then put back the factors q that D still needs to become scalar."""
    m = n
    for q, e in factors:
        m //= q ** e
        v = _lucas_v(t_p, p, m)
        while v != 2 and v != p - 2:
            v = _lucas_v(v, p, q)
            m *= q
    return m


def modp_context(t: RationalLike, p: int) -> ModpContext:
    t = check_parameter(_frac(t))
    t_p, n, m = _row(t.numerator, t.denominator, p)
    return ModpContext(
        t=t, p=p, t_p=t_p, delta_p=(t_p * t_p - 4) % p, group_order=n,
        order_factors=tuple(sorted(factorize(n).items())), companion_order=m,
    )


@dataclass(frozen=True)
class ModpElement:
    """A reduced class mod p, normalized to a1 = 1 (or [1, 0] when a1 = 0)."""

    ctx: ModpContext
    a0: int
    a1: int

    def __mul__(self, other: "ModpElement") -> "ModpElement":
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ExcludedPrimeError("elements over different mod-p contexts")
        pair = _mul(self.ctx.t_p, self.ctx.p, (self.a0, self.a1), (other.a0, other.a1))
        a0, a1 = _normalize(self.ctx.p, pair)
        return ModpElement(self.ctx, a0, a1)

    def __pow__(self, n: int) -> "ModpElement":
        a0, a1 = _pow(self.ctx.t_p, self.ctx.p, (self.a0, self.a1), n % self.ctx.group_order)
        return ModpElement(self.ctx, a0, a1)

    def is_identity(self) -> bool:
        return self.a0 == 0 and self.a1 == 1


def _det(t_p: int, p: int, x: Tuple[int, int]) -> int:
    return (x[1] * x[1] - t_p * x[0] * x[1] + x[0] * x[0]) % p


def _mul(t_p: int, p: int, x: Tuple[int, int], y: Tuple[int, int]) -> Tuple[int, int]:
    return (
        (x[1] * y[0] + x[0] * y[1] - t_p * x[0] * y[0]) % p,
        (x[1] * y[1] - x[0] * y[0]) % p,
    )


def _normalize(p: int, x: Tuple[int, int]) -> Tuple[int, int]:
    if x[1] % p:
        return (x[0] * pow(x[1], -1, p) % p, 1)
    if x[0] % p == 0:
        raise SingularElementError("zero pair mod %d" % p)
    return (1, 0)


def _pow(t_p: int, p: int, x: Tuple[int, int], n: int) -> Tuple[int, int]:
    return _normalize(p, binpow(partial(_mul, t_p, p), (0, 1), x, n))


def _ord(ctx: ModpContext, x: Tuple[int, int]) -> int:
    """Order of a class by descent through the factored group order."""
    order = ctx.group_order
    for q, _ in ctx.order_factors:
        while order % q == 0 and _pow(ctx.t_p, ctx.p, x, order // q) == (0, 1):
            order //= q
    return order


def modp_reduce(x: GroupElement, p: int) -> ModpElement:
    """The class of x in the mod-p group; fails if det vanishes there."""
    if not x.ctx.is_one_param:
        raise ExcludedPrimeError("mod-p reduction takes one-parameter classes")
    ctx = modp_context(x.ctx.T, p)
    if _det(ctx.t_p, p, (x.a0 % p, x.a1 % p)) == 0:
        raise SingularElementError("class %r is singular mod %d" % (x, p))
    a0, a1 = _normalize(p, (x.a0 % p, x.a1 % p))
    return ModpElement(ctx, a0, a1)


def ord_p(x: ModpElement) -> int:
    return _ord(x.ctx, (x.a0, x.a1))


def ord_companion(t: RationalLike, p: int) -> int:
    """ord_p of the companion class D."""
    return modp_context(t, p).companion_order


def xi(t: RationalLike, p: int) -> int:
    """ord_p of the class W = [-1, 1]; the invariant behind the trichotomy.

    ord_p(D) equals xi when xi is odd and xi/2 when xi is even (W**2 is the
    D**-1 class).
    """
    ctx = modp_context(t, p)
    return _ord(ctx, _normalize(p, (p - 1, 1)))


def _power_is_scalar(t_p: int, p: int, m: int, a0: int, a1: int) -> bool:
    """Whether the class (a0, a1) is nonsingular mod p and x**m is a scalar:
    det != 0 and V_m(tr**2/det - 2) = 2 (see the module docstring)."""
    a0, a1 = a0 % p, a1 % p
    det = _det(t_p, p, (a0, a1))
    if det == 0:
        return False
    tr = 2 * a1 - t_p * a0
    return _lucas_v((tr * tr * pow(det, -1, p) - 2) % p, p, m) == 2


def divisor_table(elements: Sequence[GroupElement], primes: Sequence[int]) -> List[Tuple[bool, ...]]:
    """is_divisor(x, p) for each element x, one row per prime p.

    Each row looks up (t_p, N, m) once per distinct t; each element then
    costs one ladder.
    """
    params: Dict[Fraction, int] = {}
    columns = []
    for x in elements:
        if not x.ctx.is_one_param:
            raise ExcludedPrimeError("divisor test takes one-parameter classes")
        columns.append((params.setdefault(x.ctx.T, len(params)), x.a0, x.a1))
    keys = [(t.numerator, t.denominator) for t in map(check_parameter, params)]
    table = []
    for p in primes:
        rows = [_row(num, den, p) for num, den in keys]
        table.append(tuple([
            _power_is_scalar(rows[i][0], p, rows[i][2], a0, a1) for i, a0, a1 in columns
        ]))
    return table


def is_divisor(x: GroupElement, p: int) -> bool:
    """Whether p divides some term of the sequence carried by x.

    False outright when det(x) vanishes mod p (a reduced sequence with a
    zero term would force all terms to zero); otherwise p divides a term
    iff ord_p(x) divides m = ord_p(D), that is, iff x**m is a scalar mod p.
    """
    return divisor_table((x,), (p,))[0][0]


def trichotomy_class(t: RationalLike, p: int) -> str:
    """Which of the three basis classes p divides: "W", "V" or "C".

    Every admissible p divides exactly one of them, according to
    xi mod 4: odd -> W, 2 mod 4 -> V, 0 mod 4 -> C.
    """
    x = xi(t, p)
    if x % 2 == 1:
        return "W"
    return "V" if x % 4 == 2 else "C"


def qr_filter(x: GroupElement, p: int) -> bool:
    """Euler-criterion test: is det(x) a nonzero quadratic residue mod p?

    Divisors of x all pass this filter, which caps the density of any
    divisor set at 1/2 when det(x) is not a rational square.
    """
    if not x.ctx.is_one_param:
        raise ExcludedPrimeError("QR filter takes one-parameter classes")
    ctx = modp_context(x.ctx.T, p)
    d = x.det
    d_p = d.numerator * pow(d.denominator, -1, p) % p
    return pow(d_p, (p - 1) // 2, p) == 1