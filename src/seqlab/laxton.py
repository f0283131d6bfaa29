"""The Laxton group: sequence classes modulo shifting.

Quotienting the sequence group by the cyclic subgroup generated by the
companion class D identifies a sequence with all of its shifts.  Each coset
gets a canonical representative, the shift of least (height, a0, a1), found
by one walk on the context's cleared integers: each step is the package's
one integer row product (`ring._row_product`) and the group's reduction on
the raw pair, only the result is built as a class, and each direction
stops on a height margin from (L, LT, LQ) past which no shift can come
back down (the Weil-height bound in `_canonical_shift`), so the walk
returns the exact minimum.  The representative makes coset objects
hashable and structurally comparable, and decides coset equality: X and Y
share a coset iff X*Y^{-1} is a D-power, which the walk of X*Y^{-1} alone
settles (see `_d_power_at`).  The identity is walked only where [-1, 1]
may be a D-power, over two parameters, and as a torsion table's own
identity entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from .errors import DegenerateParameterError, InvariantError
from .rational import format_rational, is_rational_square
from .ring import ParamPair, RationalLike, companion, u_pair, _frac, _row_product
from .transforms import classify_cyclotomic, phi_inverse, phi_r
from .group import (
    GroupElement,
    _has_square_det,
    _reduced,
    _reduced_pair,
    check_group_context,
    class_c,
    class_w,
    class_v,
    identity_class,
    maximal_decomposition,
    primitivity,
    reduce_element,
    torsion_l,
)

class LaxtonWitness(NamedTuple):
    """Certificate for X = scale * Y * D**k."""

    k: int
    scale: Fraction


def laxton_eq(x: GroupElement, y: GroupElement) -> Optional[LaxtonWitness]:
    """Decide X = Y * D**k in the Laxton group; return (k, scale) or None.

    Reduces to recognizing Z = X*Y^{-1} as a D-power class.  The scale is
    the exact scalar with rep(X)*rep(Y)^{-1} = scale * D**k in the ring.
    """
    k = _find_d_power(x * y.inverse())
    if k is None:
        return None
    zr = x.ring_element() * y.ring_element().inverse()
    uk, uk1 = u_pair(x.ctx, k)
    scale = zr.x0 / uk if uk != 0 else zr.x1 / uk1
    return LaxtonWitness(k=k, scale=scale)


def _find_d_power(z: GroupElement) -> Optional[int]:
    """The k with z = class(D**k), or None.

    The identity is D**0 and is not walked.  For one-parameter contexts
    det z must be a rational square (det D = 1), which filters most misses
    in integers (`group._has_square_det`).  Otherwise z's own canonical
    shift decides.
    """
    if _is_identity(z):
        return 0
    if z.ctx.is_one_param and not _has_square_det(z):
        return None
    return _d_power_at(*_canonical_shift(z))


def _d_power_at(rep: GroupElement, k: int) -> Optional[int]:
    """The j with z = class(D**j), or None, given z's canonical shift
    rep = z*D**k.

    rep = [0, 1] gives z = D**-k.  The "no" answers rest on the walk
    returning the exact minimum of the coset (`_canonical_shift` proves its
    stop): a D-power z has the canonical shift of <D>, which is [0, 1] or
    [-1, 1]: the reduced pairs of height 1 are [-1, 1], [0, 1], [1, 0] and
    [1, 1], and only [-1, 1] has a smaller (height, a0, a1) than the
    identity.
    Over one parameter [-1, 1] is W, and W**2 is the class of D**-1, so
    W = D**j would make D torsion, which t not in {0, +-1, +-2} rules out.
    Over two parameters [-1, 1] is a D-power in three families: D itself
    when T = -1, D**2 when Q = T**2 + T and D**-2 when Q = -T, as at
    (-1, 5), (2, 6) and (3, -3).  Only there is the identity walked: if
    its canonical shift D**k_1 is [-1, 1] too, z*D**k = D**k_1 gives
    z = D**(k_1 - k).
    """
    if _is_identity(rep):
        return -k
    if (rep.a0, rep.a1) != (-1, 1) or rep.ctx.is_one_param:
        return None
    rep_1, k_1 = _canonical_shift(identity_class(rep.ctx))
    return k_1 - k if rep_1 == rep else None


def _is_identity(g: GroupElement) -> bool:
    # [0, 1] is the one reduced pair with a0 = 0
    return g.a0 == 0


@dataclass(frozen=True)
class LaxtonElement:
    """A Laxton coset, stored by its canonical representative."""

    rep: GroupElement

    @classmethod
    def of(cls, g: GroupElement) -> "LaxtonElement":
        return cls(rep=canonical_coset_rep(g))

    @property
    def ctx(self) -> ParamPair:
        return self.rep.ctx

    def __mul__(self, other: "LaxtonElement") -> "LaxtonElement":
        return LaxtonElement.of(self.rep * other.rep)

    def inverse(self) -> "LaxtonElement":
        return LaxtonElement.of(self.rep.inverse())

    def __pow__(self, n: int) -> "LaxtonElement":
        return LaxtonElement.of(self.rep ** n)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<coset of [%d, %d] over (%s, %s)>" % (self.rep.a0, self.rep.a1, self.ctx.T, self.ctx.Q)


def canonical_coset_rep(g: GroupElement) -> GroupElement:
    """The shift g*D**k of least (height, a0, a1): a canonical coset choice."""
    return _canonical_shift(g)[0]


def _canonical_shift(g: GroupElement) -> Tuple[GroupElement, int]:
    """(g*D**k, k) for the shift of g of least (height, a0, a1).

    The walk goes one product per step each way and stops a direction at
    the first height above M times the best height so far, for
    M = (2L + |LT| + |LQ|)**2 from the context's cleared (L, LT, LQ).  The
    step D = [1, T] is the cleared pair [L, LT]; g's context was validated
    when g was built.  Each step is the class product (`ring._row_product`,
    then `group._reduced_pair`) on the raw pair; a GroupElement is built
    for the result only.

    Why the stop is exact (Weil heights; Bombieri and Gubler 2006,
    "Heights in Diophantine Geometry", 1.5-1.6).  g*D**k has the second
    row [x_k, x_{k+1}] of g's sequence, so its height H_k, the height of
    its reduced pair, is the Weil height of [x_k : x_{k+1}].  Over
    K = Q(lambda), lambda and mu the roots of z**2 - T*z + Q,
    x_k = alpha*lambda**k + beta*mu**k (alpha*beta != 0 as g is
    nonsingular) and (x_k, x_{k+1}) = (alpha*lambda**k, beta*mu**k) * A
    with A = [[1, lambda], [1, mu]], det A = mu - lambda != 0.  At each
    place w, log max(|alpha*lambda**k|_w, |beta*mu**k|_w) is a maximum of
    two affine functions of k, so their weighted sum F(k) is convex.  The
    norms of A and A**-1 at each w give F - a <= log H_k <= F + b.  At a
    finite place both are at most max(1, |lambda|_w) * max(1, |mu|_w),
    which is 1/|L|_w by Gauss's lemma on L*z**2 - LT*z + LQ (content 1, as
    L is the least common denominator), times 1/|lambda - mu|_w for
    A**-1; at the infinite places the column sums give
    max(2, |lambda| + |mu|) for A and (1 + rho)/|lambda - mu| for A**-1,
    rho = max(|lambda|, |mu|).  The |lambda - mu| factors cancel by the
    product formula, leaving
    e**(a + b) <= L**2 * max(2, |lambda| + |mu|) * (1 + rho).  As
    |lambda| + |mu| <= |T| + 2*sqrt|Q| and rho <= |T| + sqrt|Q|, both
    factors are at most 2 + |T| + |Q|, so e**(a + b) <= M.  Now let
    H_j > M*H_i for a shift i visited before j.  Then
    F(j) >= log H_j - b > log H_i + a >= F(i), so by convexity
    F(j') >= F(j) for every j' past j, and
    log H_j' >= F(j') - a > log H_i: no shift past j reaches H_i, nor ties
    it.  The best shift so far is such an i, so the stop is exact.  Each
    direction ends: F grows like |k| * h(lambda/mu), and lambda/mu is no
    root of unity (Kronecker) for a split parameter outside
    {0, +-1, +-2}, which `group.check_group_context` enforces.
    """
    L, LT, LQ = c = g.ctx.cleared
    margin = (2 * L + abs(LT) + abs(LQ)) ** 2
    d = _reduced(g.ctx, L, LT)
    best = (g.height, g.a0, g.a1)
    best_k, limit = 0, margin * best[0]
    for step, direction in ((d, 1), (d.inverse(), -1)):
        s0, s1 = step.a0, step.a1
        a0, a1, k = g.a0, g.a1, 0
        while True:
            a0, a1 = _reduced_pair(*_row_product(c, a0, a1, s0, s1))
            k += direction
            cur = (max(a1, abs(a0)), a0, a1)
            if cur < best:
                best, best_k, limit = cur, k, margin * cur[0]
            elif cur[0] > limit:
                break
    return GroupElement(g.ctx, best[1], best[2]), best_k


def laxton_order(g: GroupElement, bound: int = 24) -> Optional[int]:
    """The order of g's coset in the Laxton group, if it is <= bound."""
    if bound >= 1 and _find_d_power(g) is not None:
        return 1
    return _order_above_one(g, bound)


def _order_above_one(g: GroupElement, bound: int) -> Optional[int]:
    """The least 2 <= k <= bound with g**k a D-power, or None: the order of
    g's coset once g itself is known not to be a D-power."""
    acc = g
    for k in range(2, bound + 1):
        acc = acc * g
        if _find_d_power(acc) is not None:
            return k
    return None


# ---------------------------------------------------------------------------
# torsion tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorsionEntry:
    element: LaxtonElement
    order: int
    coset_witness_k: int

    def to_dict(self) -> dict:
        return {
            "element": [self.element.rep.a0, self.element.rep.a1],
            "order": self.order,
            "coset_witness_k": self.coset_witness_k,
        }


@dataclass(frozen=True)
class TorsionTable:
    t: Fraction
    kind: str
    group_type: Tuple[int, ...]
    entries: Tuple[TorsionEntry, ...]
    enumerated: bool
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "t": format_rational(self.t),
            "kind": self.kind,
            "group_type": list(self.group_type),
            "entries": [e.to_dict() for e in self.entries],
            "enumerated": self.enumerated,
            "note": self.note,
        }


def _entry(g: GroupElement, order_bound: int = 24) -> TorsionEntry:
    """g's torsion entry.  The one walk of g gives its coset and settles
    the k = 1 step of the order search."""
    rep, k = _canonical_shift(g)
    order = 1 if _d_power_at(rep, k) is not None else _order_above_one(g, order_bound)
    if order is None:
        raise InvariantError("element %r is not torsion within bound %d" % (g, order_bound))
    # rep = g*D**k, so g = rep*D**-k
    return TorsionEntry(element=LaxtonElement(rep), order=order, coset_witness_k=-k)


def laxton_torsion(t: RationalLike) -> TorsionTable:
    """The torsion subgroup of the Laxton group over t.

    Primitive t: the classes {I, C, W, V} and, in the cyclotomic cases, the
    order 3/4/6 classes and their W-translates, giving Z2xZ2, Z2xZ4 (circular
    primitive) or Z2xZ6 (cubic).  A circular primitive-but-not-circular-
    primitive t has torsion Z_{2**(l+2)} x Z2 where the circular associate is
    a = C_{2**l}(v), reported structurally.  Non-primitive t = +-C_m(u) with
    u primitive has torsion m times larger, type Z_{2m} x (Z2|Z4|Z6); the
    cyclic kernel cosets Phi_m(D_u**k) are enumerated for the + sign.
    """
    t = _frac(t)
    ctx = ParamPair.one_param(t)
    check_group_context(ctx)
    report = primitivity(t)
    cls = classify_cyclotomic(t)

    if report.is_primitive:
        base = [identity_class(ctx), class_c(ctx), class_w(t), class_v(t)]
        if cls.kind == "cubic" or report.circular_primitive:
            extra = [g for g, _ in torsion_l(t)[1:]]
            elements = base + extra + [class_w(t) * g for g in extra]
            if cls.kind == "cubic":
                return _enumerated_table(t, "primitive cubic", (2, 6), elements)
            return _enumerated_table(t, "primitive circular (circular primitive)", (2, 4), elements)
        if cls.kind == "circular":
            # t fails circular primitivity, so one of the associates +-a is a
            # 2-power Chebyshev value C_{2**l}(v) with v primitive.
            chain = None
            for cand in (cls.a, -cls.a):
                m, v, sign = maximal_decomposition(cand)
                if sign == 1 and m >= 2 and m & (m - 1) == 0:
                    if chain is None or m > chain[0]:
                        chain = (m, v)
            if chain is None:
                return TorsionTable(
                    t=t, kind="primitive circular (degenerate chain)", group_type=(),
                    entries=(), enumerated=False,
                    note="no associate decomposed as a 2-power Chebyshev value",
                )
            level = chain[0].bit_length() - 1
            return TorsionTable(
                t=t,
                kind="primitive circular (not circular primitive)",
                group_type=(2 ** (level + 2), 2),
                entries=(),
                enumerated=False,
                note="structural only: associate a = C_{2^%d}(%s)" % (level, format_rational(chain[1])),
            )
        return _enumerated_table(t, "primitive noncyclotomic", (2, 2), base)

    # non-primitive: t = sign * C_m(u), u primitive, m maximal
    m, u, sign = report.decomposition
    sub_cls = classify_cyclotomic(u)
    if sub_cls.kind == "cubic":
        group_type: Tuple[int, ...] = (2 * m, 6)
        kind = "non-primitive over cubic base"
    elif sub_cls.kind == "circular" and not is_rational_square(2 * (2 + u)):
        group_type = (2 * m, 4)
        kind = "non-primitive over circular primitive base"
    elif sub_cls.kind == "circular":
        group_type = ()
        kind = "non-primitive over degenerate circular base"
    else:
        group_type = (2 * m, 2)
        kind = "non-primitive over noncyclotomic base"
    if sign != 1:
        return TorsionTable(
            t=t, kind=kind + " (twin side)", group_type=group_type, entries=(),
            enumerated=False,
            note="t = -C_%d(%s); kernel cosets enumerated only for the + sign" % (m, format_rational(u)),
        )
    entries = tuple(_entry(g, 2 * m) for g in xi_n_kernel(u, m))
    return TorsionTable(
        t=t, kind=kind, group_type=group_type, entries=entries, enumerated=True,
        note="kernel cosets of the degree-%d quotient onto the group over %s" % (m, format_rational(u)),
    )


def _enumerated_table(t: Fraction, kind: str, group_type: Tuple[int, ...], elements: List[GroupElement]) -> TorsionTable:
    """The table of the cosets of `elements`, one entry per coset."""
    entries: Dict[LaxtonElement, TorsionEntry] = {}
    for g in elements:
        e = _entry(g)
        entries.setdefault(e.element, e)
    expected = 1
    for n in group_type:
        expected *= n
    if len(entries) != expected:
        raise InvariantError(
            "torsion enumeration over t = %s found %d distinct cosets, expected %d" % (t, len(entries), expected)
        )
    ordered = sorted(entries.values(), key=lambda e: (e.order, e.element.rep.a0, e.element.rep.a1))
    return TorsionTable(t=t, kind=kind, group_type=group_type, entries=tuple(ordered), enumerated=True)


# ---------------------------------------------------------------------------
# the quotient homomorphisms
# ---------------------------------------------------------------------------


def xi_hom(x: GroupElement, target: ParamPair) -> LaxtonElement:
    """The 2-to-1 homomorphism from the Laxton group over t = T**2/Q - 2
    onto the one over (T, Q); kernel {I, W}.

    On representatives it is the inverse split phi^{-1}: [x0, x1] maps to
    the coset of [T*x0, Q*(x0 + x1)].
    """
    check_group_context(target)
    return LaxtonElement.of(reduce_element(phi_inverse(x.ring_element(), target)))


def xi_n_kernel(t: RationalLike, n: int) -> Tuple[GroupElement, ...]:
    """Kernel representatives of the degree-n quotient G(C_n(t)) -> G(t).

    The kernel is cyclic of order n, generated by the image of D_t under
    the decimation phi_n; coset k is the class of phi_n(D_t**k) =
    [U_k(t), U_{n+k}(t)] / U_n(t) over t_n = C_n(t).
    """
    if n < 1:
        raise DegenerateParameterError("kernel needs n >= 1, got %d" % n)
    d = companion(ParamPair.one_param(t))
    return tuple(reduce_element(phi_r(d ** k, n)) for k in range(n))
