"""Reduction of the sequence group modulo a prime.

For an admissible odd prime p (one dividing neither numerator nor
denominator of t or of delta = t**2 - 4) the reduced classes with
nonvanishing determinant form a cyclic group G of order

    N = p - 1   if delta is a quadratic residue mod p,
        p + 1   otherwise.

Element orders in that group drive the whole divisor theory: p divides some
term of the sequence carried by X exactly when ord_p(X) divides ord_p(D),
that is, when X**m is a scalar mod p for m = ord_p(D).

One residue fixes the order of a class.  For X = a1 + a0*e (e**2 + t*e +
1 = 0) with eigenvalue ratio z, X**m is a scalar iff z**m = 1, and

    s = z + 1/z = tr**2/det - 2   (tr = 2*a1 - t*a0, det = a1**2 - t*a0*a1 + a0**2),

so X**m is a scalar iff det != 0 and V_m(s) = 2, as w + 1/w = 2 iff w = 1.
A scalar (a0 = 0, the one case of equal eigenvalues, as tr**2 - 4*det =
a0**2 * (t**2 - 4)) has s = 2; the companion class D has s = t**2 - 2 and
W = [-1, 1] has s = t.  Every power is V_n(s) = V_n(s, 1) on one Lucas-chain
ladder: two modular products per bit and no inverses (Montgomery 1992,
"Evaluating recurrences of form X_{m+n} = f(X_m, X_n, X_{m-n}) via Lucas
chains"; Joye and Quisquater 1996, "Efficient computation of full Lucas
sequences").  Every order comes from one descent over the factors of N, the
least m | N with V_m(s) = 2.  It works top down (Cohen 1993, "A Course in
Computational Algebraic Number Theory", 1.4): for each prime q | N it
divides m by q while V_{m/q}(s) = 2, so a prime the order keeps whole costs
one ladder.  N's factors come from primes.factorize, which reads them off
the window's sieve.  m = ord_p(D) is found once per (t, p), the first
time a residue class on the row needs it, and its descent starts from N/2:
<D> lies in G**2 (below), a subgroup of order N/2 of the cyclic G, so m
divides N/2.  That drops the first ladder of a descent over N, the one on
N/2, whose answer is known.

The index k = N/m of <D> in G is always even, and Euler's criterion on det
decides membership in the squares G**2.  X -> z maps G onto a cyclic group
of order N: F_p* when N = p - 1, the norm-1 elements of F_p2* when
N = p + 1.  So X lies in G**2 iff z is a square there.

  * det D = 1, so D's eigenvalues are l and 1/l, with l in that same group,
    and z = l**2 is a square.  Hence <D> lies in G**2, of index 2, and k
    is even.
  * Split case (N = p - 1): z = mu1**2/det X for an eigenvalue mu1 in
    F_p, a square iff det X is a residue.
  * Non-split case (N = p + 1): the eigenvalues are mu1 and mu1**p, so
    z = mu1**(1 - p) and z**((p + 1)/2) = (mu1**(p + 1))**((1 - p)/2) =
    det**((1 - p)/2), which is 1 iff det X is a residue.

So the divisor test first rejects every class whose det is 0 or a
non-residue, with one builtin pow; no divisor is lost, as <D> lies in G**2.
On rows with k = 2, <D> = G**2 and a residue det settles the test.  Only a
residue class on a row with k >= 4 runs the ladder V_m(s) = 2, the one
test path besides Euler's criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from . import primes as _primes
from .errors import DegenerateParameterError, ExcludedPrimeError, SingularElementError
from .group import GroupElement
from .ring import RationalLike, _frac
from .transforms import check_parameter


def in_admissible_set(t: RationalLike, p: int) -> bool:
    """Whether p belongs to the admissible prime set of t."""
    t = _frac(t)
    return _admissible(t.numerator, t.denominator, p)


def _admissible(num: int, den: int, p: int) -> bool:
    """Whether p is an odd prime admissible for t = num/den in lowest terms."""
    return p != 2 and _primes.is_prime(p) and exclusion_modulus(num, den) % p != 0


def exclusion_modulus(n: int, d: int) -> int:
    """An odd prime is admissible for t = n/d in lowest terms iff it does
    not divide this integer.

    It is the product of the numerator and denominator of t and the
    numerator of t**2 - 4 (zero when t is 0 or +-2: then no prime is).
    """
    return n * d * (n * n - 4 * d * d)


@dataclass(frozen=True)
class ModpContext:
    """t reduced mod an admissible prime, with the group order and, on
    demand, the order of the companion class D."""

    t: Fraction
    p: int
    t_p: int
    group_order: int

    @property
    def companion_order(self) -> int:
        """ord_p(D), from the row's index k, which the first ask finds."""
        row = _row(self.t.numerator, self.t.denominator, self.p)
        return self.group_order // (row[2] or _index(row, self.p))


# Integer keys, so no Fraction is hashed; 1 << 14 rows hold a table3 window
# (6 x <= 1 232 rows) and an explore pass (about 8 900 rows) for a re-run.
@lru_cache(maxsize=1 << 14)
def _row(num: int, den: int, p: int) -> List[int]:
    """[t_p, N - p, k] for t = num/den in lowest terms, after checking that
    p is admissible for t.  The index k = N/ord_p(D) is 0 until `_index`
    finds it, which it stores in this cached list, so the descent runs at
    most once per cached row.  N - p = +-1 and, on almost every row, k are
    small ints that Python shares, so a cached row owns no int but t_p."""
    if not _admissible(num, den, p):
        raise ExcludedPrimeError("p = %d is not admissible for t = %s" % (p, Fraction(num, den)))
    t_p = num * pow(den, -1, p) % p
    return [t_p, -1 if _is_residue(t_p * t_p - 4, p) else 1, 0]


def _index(row: List[int], p: int) -> int:
    """Find the index k of <D> in G on the row by the order descent, and
    store it there; callers read row[2] first.  ord_p(D) divides N/2."""
    half = (p + row[1]) >> 1
    row[2] = k = 2 * half // _order((row[0] * row[0] - 2) % p, p, half)
    return k


def _is_residue(x: int, p: int) -> bool:
    """Euler's criterion: whether x is a nonzero square mod the odd prime p."""
    return pow(x, (p - 1) >> 1, p) == 1


def _lucas_v(s: int, p: int, n: int) -> int:
    """V_n(s, 1) mod p, by the ladder (V_k, V_k+1) -> (V_2k, V_2k+1) or (V_2k+1, V_2k+2)."""
    v, w = 2, s
    for bit in bin(n)[2:]:
        if bit == "1":
            v, w = (v * w - s) % p, (w * w - 2) % p
        else:
            v, w = (v * v - 2) % p, (v * w - s) % p
    return v


def _order(s: int, p: int, n: int) -> int:
    """The least m | n with V_m(s) = 2: the order of a class with that s in
    the group of order n.  For each prime power q**e of n, divide m by q
    while that leaves V_m(s) = 2, at most e times."""
    m = n
    for q, e in _primes.factorize(n).items():
        while e and _lucas_v(s, p, m // q) == 2:
            m //= q
            e -= 1
    return m


def _det(t_p: int, p: int, a0: int, a1: int) -> int:
    return (a1 * a1 - t_p * a0 * a1 + a0 * a0) % p


def _class_s(t_p: int, p: int, a0: int, a1: int, det: int) -> int:
    """s = tr**2/det - 2 mod p for the class (a0, a1) with det != 0."""
    tr = 2 * a1 - t_p * a0
    return (tr * tr * pow(det, -1, p) - 2) % p


def _checked_row(t: RationalLike, p: int) -> List[int]:
    """The row [t_p, N - p, k] of t at p, after rejecting a degenerate t;
    k may still be 0."""
    t = check_parameter(t)
    return _row(t.numerator, t.denominator, p)


def _one_param_t(x: GroupElement, message: str) -> Fraction:
    """The parameter t of a one-parameter class x; a class over two
    parameters raises with `message`."""
    if not x.ctx.is_one_param:
        raise DegenerateParameterError(message)
    return x.ctx.T


def modp_context(t: RationalLike, p: int) -> ModpContext:
    t = _frac(t)
    row = _checked_row(t, p)
    return ModpContext(t=t, p=p, t_p=row[0], group_order=p + row[1])


@dataclass(frozen=True)
class ModpElement:
    """A reduced class mod p, normalized to a1 = 1 (or [1, 0] when a1 = 0)."""

    ctx: ModpContext
    a0: int
    a1: int


def modp_reduce(x: GroupElement, p: int) -> ModpElement:
    """The class of x in the mod-p group; fails if det vanishes there."""
    ctx = modp_context(_one_param_t(x, "mod-p reduction takes one-parameter classes"), p)
    a0, a1 = x.a0 % p, x.a1 % p
    if _det(ctx.t_p, p, a0, a1) == 0:
        raise SingularElementError("class %r is singular mod %d" % (x, p))
    if a1 == 0:  # det = a0**2, so a0 != 0
        return ModpElement(ctx, 1, 0)
    return ModpElement(ctx, a0 * pow(a1, -1, p) % p, 1)


def ord_p(x: ModpElement) -> int:
    ctx = x.ctx
    s = _class_s(ctx.t_p, ctx.p, x.a0, x.a1, _det(ctx.t_p, ctx.p, x.a0, x.a1))
    return _order(s, ctx.p, ctx.group_order)


def ord_companion(t: RationalLike, p: int) -> int:
    """ord_p of the companion class D."""
    return modp_context(t, p).companion_order


def xi(t: RationalLike, p: int) -> int:
    """ord_p of the class W = [-1, 1], whose s is t; the invariant behind
    the trichotomy.

    ord_p(D) equals xi when xi is odd and xi/2 when xi is even (W**2 is the
    D**-1 class).
    """
    row = _checked_row(t, p)
    return _order(row[0], p, p + row[1])


def _divides(row: List[int], p: int, a0: int, a1: int) -> bool:
    """Whether the class (a0, a1) is nonsingular mod p and x**m is a scalar
    for m = ord_p(D), on the row [t_p, N - p, k]: Euler's criterion on det,
    then the index k, and the ladder only when k is 4 or more."""
    t_p = row[0]
    det = _det(t_p, p, a0, a1)
    if not _is_residue(det, p):
        return False
    k = row[2] or _index(row, p)
    return k == 2 or _lucas_v(_class_s(t_p, p, a0, a1, det), p, (p + row[1]) // k) == 2


def divisor_table(elements: Sequence[GroupElement], primes: Sequence[int]) -> List[Tuple[bool, ...]]:
    """is_divisor(x, p) for each element x, one row per prime p.

    Each row looks up [t_p, N - p, k] once per distinct t; each element then
    costs one builtin pow, and a ladder only when det is a residue and the
    index k is 4 or more.  A row finds k only when one of its classes has a
    residue det, so a row none of whose classes does runs no descent.
    """
    params: Dict[Fraction, int] = {}
    columns = []
    for x in elements:
        t = _one_param_t(x, "divisor test takes one-parameter classes")
        columns.append((params.setdefault(t, len(params)), x.a0, x.a1))
    keys = [(t.numerator, t.denominator) for t in map(check_parameter, params)]
    table = []
    for p in primes:
        rows = [_row(num, den, p) for num, den in keys]
        table.append(tuple([_divides(rows[i], p, a0, a1) for i, a0, a1 in columns]))
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
    t_p = _checked_row(_one_param_t(x, "QR filter takes one-parameter classes"), p)[0]
    return _is_residue(_det(t_p, p, x.a0, x.a1), p)
