"""Laxton quotient: shift-equivalence with exact witnesses, canonical coset
representatives, torsion tables, and the quotient homomorphisms."""

import fractions
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import seqlab.group
import seqlab.laxton
from seqlab.errors import DegenerateParameterError
from seqlab.ring import ParamPair, chebyshev_c, chebyshev_u, make_element, u_pair
from seqlab.group import (
    GroupElement,
    class_c,
    class_v,
    class_w,
    companion_class,
    identity_class,
    torsion_l,
)
from seqlab.laxton import (
    LaxtonElement,
    _entry,
    _find_d_power,
    canonical_coset_rep,
    laxton_eq,
    laxton_order,
    laxton_torsion,
    xi_hom,
    xi_n_kernel,
)

F = Fraction

T3 = ParamPair.one_param(3)

small_rationals = st.fractions(min_value=-8, max_value=8, max_denominator=5)


@st.composite
def classes_at(draw, t):
    ctx = ParamPair.one_param(t)
    a0 = draw(small_rationals)
    a1 = draw(small_rationals)
    det = a1 * a1 - ctx.T * a0 * a1 + a0 * a0
    if det == 0:
        a0, a1 = 0, 1
    return GroupElement.from_pair(ctx, a0, a1)


@given(classes_at(F(3)), st.integers(min_value=-6, max_value=6))
@settings(max_examples=60)
def test_shift_equivalence_witness(x, k):
    """x ~ x * D**k with witness exactly -k (and symmetric the other way)."""
    shifted = x * companion_class(x.ctx) ** k
    wit = laxton_eq(x, shifted)
    assert wit is not None and wit.k == -k
    wit = laxton_eq(shifted, x)
    assert wit is not None and wit.k == k
    # the witness scale is exact: rep(x) * rep(y)^{-1} = scale * D**k
    from seqlab.ring import u_pair
    zr = shifted.ring_element() * x.ring_element().inverse()
    un, un1 = u_pair(x.ctx, wit.k)
    assert (zr.x0, zr.x1) == (wit.scale * un, wit.scale * un1)


def test_non_equivalence():
    x = GroupElement.from_pair(T3, 1, 5)     # det 11, not a square
    assert laxton_eq(x, identity_class(T3)) is None
    assert laxton_eq(class_w(3), identity_class(T3)) is None  # det 5
    # same square-class dets but distinct cosets
    y = GroupElement.from_pair(T3, 2, 9)     # det 81 - 54 + 4 = 31
    assert laxton_eq(x, y) is None


def test_w_squared_is_shifted_identity():
    w = class_w(3)
    wit = laxton_eq(w * w, identity_class(T3))
    assert wit is not None and wit.k == -1 and wit.scale == -1
    assert LaxtonElement.of(w * w) == LaxtonElement.of(identity_class(T3))


@given(classes_at(F(19, 3)), st.integers(min_value=-5, max_value=5))
@settings(max_examples=40)
def test_canonical_rep_shift_invariant(x, k):
    shifted = x * companion_class(x.ctx) ** k
    assert canonical_coset_rep(shifted) == canonical_coset_rep(x)
    assert LaxtonElement.of(shifted) == LaxtonElement.of(x)


def test_canonical_rep_identity_coset():
    assert canonical_coset_rep(identity_class(T3)) == identity_class(T3)
    assert canonical_coset_rep(companion_class(T3) ** 4) == identity_class(T3)
    assert canonical_coset_rep(companion_class(T3).inverse()) == identity_class(T3)


@given(classes_at(F(3)), classes_at(F(3)))
@settings(max_examples=40)
def test_laxton_multiplication_well_defined(x, y):
    d = companion_class(T3)
    a = LaxtonElement.of(x * d ** 2) * LaxtonElement.of(y * d.inverse())
    b = LaxtonElement.of(x * y)
    assert a == b
    assert LaxtonElement.of(x).inverse() == LaxtonElement.of(x.inverse() * d ** 3)


def test_laxton_orders():
    assert laxton_order(identity_class(T3)) == 1
    assert laxton_order(class_c(T3)) == 2
    assert laxton_order(class_w(3)) == 2
    assert laxton_order(class_v(3)) == 2
    assert laxton_order(GroupElement.from_pair(T3, 1, 5)) is None  # free element
    # W*D is a shifted W: still order 2
    assert laxton_order(class_w(3) * companion_class(T3)) == 2


def test_torsion_table_generic():
    tab = laxton_torsion(3)
    assert tab.group_type == (2, 2) and tab.enumerated
    assert [(tuple(e.to_dict()["element"]), e.order) for e in tab.entries] == [
        ((0, 1), 1), ((-1, 1), 2), ((1, 1), 2), ((2, 3), 2),
    ]


def test_torsion_table_circular():
    tab = laxton_torsion(F(6, 5))
    assert tab.group_type == (2, 4) and tab.enumerated
    assert len(tab.entries) == 8
    assert sorted(e.order for e in tab.entries) == [1, 2, 2, 2, 4, 4, 4, 4]


def test_torsion_table_cubic():
    tab = laxton_torsion(F(11, 7))
    assert tab.group_type == (2, 6) and tab.enumerated
    assert len(tab.entries) == 12
    assert sorted(e.order for e in tab.entries) == [1, 2, 2, 2, 3, 3, 6, 6, 6, 6, 6, 6]


def test_torsion_table_structural_circular():
    # 48/25 is circular, primitive, but not circular primitive: the associate
    # decomposes through C_2, giving torsion Z8 x Z2 reported structurally.
    tab = laxton_torsion(F(48, 25))
    assert tab.group_type == (8, 2)
    assert not tab.enumerated


def test_torsion_table_nonprimitive():
    tab = laxton_torsion(7)
    assert tab.group_type == (4, 2) and tab.enumerated
    assert sorted(e.order for e in tab.entries) == [1, 2]
    tab = laxton_torsion(18)
    assert tab.group_type == (6, 2)
    assert sorted(e.order for e in tab.entries) == [1, 3, 3]
    tab = laxton_torsion(47)
    assert tab.group_type == (8, 2)
    assert sorted(e.order for e in tab.entries) == [1, 2, 4, 4]
    tab = laxton_torsion(123)
    assert tab.group_type == (10, 2)
    assert sorted(e.order for e in tab.entries) == [1, 5, 5, 5, 5]
    # over circular bases: 6/5 is circular primitive, 48/25 is not
    tab = laxton_torsion(F(-14, 25))  # C_2(6/5)
    assert tab.kind == "non-primitive over circular primitive base" and tab.group_type == (4, 4)
    tab = laxton_torsion(F(20592, 15625))  # C_3(48/25)
    assert tab.kind == "non-primitive over degenerate circular base" and tab.group_type == ()


def test_xi_kernel_classes():
    """Kernel of the degree-n quotient: classes [U_k, U_{n+k}] over C_n(t)."""
    kern = xi_n_kernel(3, 4)
    assert len(kern) == 4
    ctx47 = ParamPair.one_param(47)
    assert kern[0] == identity_class(ctx47)
    assert kern[1] == GroupElement.from_pair(ctx47, chebyshev_u(3, 1), chebyshev_u(3, 5))
    orders = [laxton_order(g, bound=8) for g in kern]
    assert orders == [1, 4, 2, 4]


def test_xi_hom_two_to_one():
    target = ParamPair(1, -1)
    t = target.t
    ctx = ParamPair.one_param(t)
    iden = LaxtonElement.of(identity_class(target))
    assert xi_hom(identity_class(ctx), target) == iden
    assert xi_hom(class_w(t), target) == iden
    assert xi_hom(class_v(t), target) != iden
    # V ~ W*C, and W dies, so V lands in the coset of C
    v_img = xi_hom(class_v(t), target)
    assert v_img == LaxtonElement.of(class_c(target))


@given(st.data())
@settings(max_examples=40)
def test_xi_hom_multiplicative(data):
    target = ParamPair(5, 3)
    t = target.t
    x = data.draw(classes_at(t))
    y = data.draw(classes_at(t))
    assert xi_hom(x, target) * xi_hom(y, target) == xi_hom(x * y, target)
    assert xi_hom(class_w(t) * x, target) == xi_hom(x, target)


def test_xi_hom_context_guard():
    from seqlab.errors import ContextMismatchError
    with pytest.raises(ContextMismatchError):
        xi_hom(GroupElement.from_pair(T3, 1, 4), ParamPair(1, -1))


@pytest.mark.parametrize("ctx", [T3, ParamPair(3, 2)])
@pytest.mark.parametrize("k", [150, -150])
def test_deep_shift_witness(ctx, k):
    """The D-power walk reaches shifts far past the hypothesis range."""
    x = GroupElement.from_pair(ctx, 1, 5)
    wit = laxton_eq(x, x * companion_class(ctx) ** k)
    assert wit is not None and wit.k == -k


def _margin(ctx):
    """(2L + |LT| + |LQ|)**2 from the context's cleared (L, LT, LQ): the
    height ratio past which, by the bound in `laxton._canonical_shift`, no
    further shift comes back down."""
    L, LT, LQ = ctx.cleared
    return (2 * L + abs(LT) + abs(LQ)) ** 2


def _shifts(g, K):
    """{k: g*D**k} for |k| <= K, one product per step each way."""
    d = companion_class(g.ctx)
    out = {0: g}
    for step, direction in ((d, 1), (d.inverse(), -1)):
        cur = g
        for k in range(direction, direction * (K + 1), direction):
            cur = cur * step
            out[k] = cur
    return out


def _ends_certified(shifts, K, floor=1):
    """Whether both ends of the window |k| <= K have heights above M times
    max(floor, the window's least height).  By the bound in
    `laxton._canonical_shift`, each shift past such an end then has a height
    of at least the end's height over M, so above max(floor, that least
    height)."""
    bar = _margin(shifts[0].ctx) * max(floor, min(g.height for g in shifts.values()))
    return shifts[K].height > bar and shifts[-K].height > bar


def _reference_d_power(z):
    """The exhaustive search: the k with D**k = z among the shifts of the
    identity over a window whose ends are certified against height(z)."""
    K = 8
    while not _ends_certified(shifts := _shifts(identity_class(z.ctx), K), K, z.height):
        K *= 2
    return next((k for k, g in shifts.items() if g == z), None)


# two-parameter contexts where a stop after three steps above the best
# height missed the minimum: their split parameters are -1/2, -1/2, -8/3
# and -5/2, so heights grow slowly and wobble
LATE_DIP_CONTEXTS = [ParamPair(-3, 6), ParamPair(F(3, 2), F(3, 2)), ParamPair(F(4, 3), F(-8, 3)), ParamPair(2, -8)]

WALK_CONTEXTS = [ParamPair.one_param(t) for t in (F(3), F(-3), F(7), F(19, 3), F(6, 5), F(11, 7))] + [
    ParamPair(3, -2), ParamPair(2, -5), ParamPair(F(7, 2), F(5, 3)), ParamPair(3, F(2, 7)),
    # [-1, 1] is D at (-1, 5), D**2 at (2, 6) and D**-2 at (3, -3) and (-5, 5)
    ParamPair(-1, 5), ParamPair(2, 6), ParamPair(3, -3), ParamPair(-5, 5),
] + LATE_DIP_CONTEXTS


def _small_class(rng, ctx):
    while True:
        a0, a1 = F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(-9, 9), rng.randint(1, 4))
        if a1 * a1 - ctx.T * a0 * a1 + ctx.Q * a0 * a0 != 0:
            return GroupElement.from_pair(ctx, a0, a1)


def test_canonical_walk_matches_reference_search():
    """laxton_eq and laxton_order agree with the walk from the identity."""
    rng = random.Random(611)
    hits = 0
    for ctx in WALK_CONTEXTS:
        d = companion_class(ctx)
        for _ in range(40):
            x = _small_class(rng, ctx)
            y = x * d ** rng.randint(-12, 12) if rng.random() < 0.5 else _small_class(rng, ctx)
            wit = laxton_eq(x, y)
            ref = _reference_d_power(x * y.inverse())
            assert (None if wit is None else wit.k) == ref
            hits += ref is not None
            order = next((n for n in range(1, 9) if _reference_d_power(x ** n) is not None), None)
            assert laxton_order(x, bound=8) == order
    assert hits > 150


def test_identity_coset_rep_below_the_identity():
    """At (-5, 5) the class of D**-2 is [-1, 1], which beats the identity's key."""
    ctx = ParamPair(-5, 5)
    d2 = companion_class(ctx) ** -2
    assert (d2.a0, d2.a1) == (-1, 1)
    assert canonical_coset_rep(identity_class(ctx)) == d2
    wit = laxton_eq(identity_class(ctx), identity_class(ctx))
    assert wit is not None and wit.k == 0 and wit.scale == 1
    assert laxton_eq(d2, identity_class(ctx)).k == -2


@pytest.mark.parametrize("ctx, j", [(ParamPair(-1, 5), 1), (ParamPair(2, 6), 2),
                                    (ParamPair(3, -3), -2), (ParamPair(-5, 5), -2)])
def test_minus_one_one_as_a_power_of_d(ctx, j):
    """[-1, 1] = D**j in the three two-parameter families where it is a
    D-power (T = -1, Q = T**2 + T, Q = -T): it is then the canonical
    representative of <D>, of order 1, and each entry's witness holds."""
    d, w = companion_class(ctx), GroupElement.from_pair(ctx, -1, 1)
    assert d ** j == w
    assert canonical_coset_rep(identity_class(ctx)) == w
    assert laxton_order(w) == 1
    for g, k in ((identity_class(ctx), 0), (w, j), (d ** 5, 5), (d ** -7, -7)):
        e = _entry(g)
        # g = D**k = rep * D**(k - j)
        assert (e.element.rep, e.order, e.coset_witness_k) == (w, 1, k - j)
        assert _find_d_power(g) == k


def _two_walk_d_power(z):
    """The rule a class's own walk replaced, as a reference: z = D**(k_1 - k)
    when its canonical shift z*D**k equals the identity's, D**k_1."""
    rep, k = seqlab.laxton._canonical_shift(z)
    rep_1, k_1 = seqlab.laxton._canonical_shift(identity_class(z.ctx))
    return k_1 - k if rep == rep_1 else None


def _group_element_walk(g):
    """The walk on GroupElement products, as a reference for the walk on
    raw pairs: the same steps and order, and each direction stops at the
    first height above M times the best height."""
    d, margin = companion_class(g.ctx), _margin(g.ctx)
    best, best_k = g, 0
    for step, direction in ((d, 1), (d.inverse(), -1)):
        cur, k = g, 0
        while True:
            cur, k = cur * step, k + direction
            if (cur.height, cur.a0, cur.a1) < (best.height, best.a0, best.a1):
                best, best_k = cur, k
            elif cur.height > margin * best.height:
                break
    return best, best_k


def test_integer_walk_matches_the_group_element_walk():
    """On seeded classes, D-powers, their W-translates and shifts over every
    walk context, the walk on raw pairs returns the reference's (rep, k)."""
    rng = random.Random(2110)
    for ctx in WALK_CONTEXTS:
        d, w = companion_class(ctx), GroupElement.from_pair(ctx, -1, 1)
        for _ in range(30):
            x = _small_class(rng, ctx)
            j = rng.randint(-40, 40)
            for z in (x, d ** j, w * d ** j, x * d ** j, x.inverse()):
                assert seqlab.laxton._canonical_shift(z) == _group_element_walk(z), (ctx, z)


def _exhaustive_contexts():
    """t close to +-2 from both sides, inside (-2, 2) and with a 30-digit
    denominator; seeded small (T, Q), half of them with Q < 0."""
    n30 = 10 ** 29
    ts = [F(2 * n + e, n) for n in range(1, 61) for e in (1, -1)] + [F(n + e, n) for n in range(1, 61) for e in (1, -1)]
    ts += [F(6, 5), F(11, 7), F(1, 2), F(-5, 7), F(2 * n30 + 1, n30), F(n30 + 1, n30), F(-7 * n30 - 3, 3 * n30 + 1)]
    pairs = []
    rng = random.Random(2622)
    while len(pairs) < 240:
        sign = -1 if len(pairs) % 2 else 1
        pairs.append(ParamPair(F(rng.randint(-9, 9), rng.randint(1, 4)), F(sign * rng.randint(1, 9), rng.randint(1, 4))))
    out = []
    for ctx in [ParamPair.one_param(t) for t in ts] + pairs:
        try:
            out.append(seqlab.group.check_group_context(ctx))
        except DegenerateParameterError:
            pass
    return out


EXHAUSTIVE_CONTEXTS = _exhaustive_contexts()


def test_walk_returns_the_exhaustive_minimum():
    """On seeded classes and D-powers shifted by up to +-25, the walk gives
    the least (height, a0, a1) over |k| <= 70, and both ends of that window
    are above M times its least height, so the window holds the minimum.
    The late-dip contexts get 40 classes each, the others 3."""
    assert len(EXHAUSTIVE_CONTEXTS) > 450
    assert sum(ctx.Q < 0 for ctx in EXHAUSTIVE_CONTEXTS) > 100
    rng = random.Random(3021)
    K = 70
    for ctx in EXHAUSTIVE_CONTEXTS + LATE_DIP_CONTEXTS:
        d = companion_class(ctx)
        n = 40 if ctx in LATE_DIP_CONTEXTS else 3
        for z in [_small_class(rng, ctx) * d ** rng.randint(-25, 25) for _ in range(n)] + [d ** rng.randint(-25, 25)]:
            shifts = _shifts(z, K)
            assert _ends_certified(shifts, K), (ctx, z)
            k, rep = min(shifts.items(), key=lambda kg: (kg[1].height, kg[1].a0, kg[1].a1))
            assert seqlab.laxton._canonical_shift(z) == (rep, k), (ctx, z)


@pytest.mark.parametrize("ctx, pair, rep, k", [
    # heights from k = -27 to -20: 15, 52, 39, 80, 30, 172, 129, 656
    (ParamPair(F(4, 3), F(-8, 3)), (36738511143, 89292991760), (-14, 15), -27),
    (ParamPair(2, -8), (1389, 5414), (-12, 23), -12),
])
def test_walk_passes_heights_that_dip_late(ctx, pair, rep, k):
    """The minimum lies past more than three shifts above an earlier best."""
    g = GroupElement.from_pair(ctx, *pair)
    assert seqlab.laxton._canonical_shift(g) == (GroupElement(ctx, *rep), k)


def test_a_deep_shift_keeps_its_coset_over_two_parameters():
    """[6, 7] and [6, 7]*D**19 = [-2902, 5241] over (3/2, 3/2) are one coset."""
    ctx = ParamPair(F(3, 2), F(3, 2))
    x = GroupElement.from_pair(ctx, 6, 7)
    y = x * companion_class(ctx) ** 19
    assert (y.a0, y.a1) == (-2902, 5241)
    assert LaxtonElement.of(x) == LaxtonElement.of(y)
    assert canonical_coset_rep(y) == GroupElement(ctx, -2, 1)
    assert laxton_eq(x, y).k == -19


def _fraction_arithmetic(fn):
    """The Fraction arithmetic methods (_mul, _add, _sub, _div) fn() calls."""
    calls = []

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == fractions.__file__ and code.co_name in ("_mul", "_add", "_sub", "_div"):
            calls.append(code.co_name)

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_powers_and_the_walk_do_no_fraction_arithmetic():
    """u_pair, ring powers and the Laxton walk run on the integer row
    product and build a Fraction only for what they return."""
    assert _fraction_arithmetic(lambda: F(1, 2) * F(1, 3) + F(1, 5)) == ["_mul", "_add"]
    for ctx in (T3, ParamPair.one_param(F(19, 3)), ParamPair(F(7, 5), F(-3, 4))):
        x = make_element(ctx, F(2, 3), F(-5, 7))
        g = GroupElement.from_pair(ctx, F(2, 3), F(-5, 7)) * companion_class(ctx) ** 25
        for fn in (lambda: u_pair(ctx, 500), lambda: u_pair(ctx, -500), lambda: x ** 200, lambda: x ** -200,
                   lambda: seqlab.laxton._canonical_shift(g)):
            assert _fraction_arithmetic(fn) == [], ctx


def test_d_power_from_one_walk_matches_the_two_walk_rule():
    """On seeded classes, D-powers, their W-translates and the products of
    both over every walk context, z's own walk gives the two-walk answer."""
    rng = random.Random(2024)
    hits = 0
    for ctx in WALK_CONTEXTS:
        d, w = companion_class(ctx), GroupElement.from_pair(ctx, -1, 1)
        for _ in range(30):
            x = _small_class(rng, ctx)
            j = rng.randint(-9, 9)
            for z in (x, d ** j, w * d ** j, x * d ** j, x * x.inverse()):
                ref = _two_walk_d_power(z)
                assert _find_d_power(z) == ref, (ctx, z)
                hits += ref is not None
    assert hits > 2 * 30 * len(WALK_CONTEXTS)


@pytest.mark.parametrize("t, u, m", [(F(3), None, 1), (F(6, 5), None, 1), (F(11, 7), None, 1),
                                      (F(7), F(3), 2), (F(18), F(3), 3), (F(47), F(3), 4)])
def test_torsion_witness_k_is_the_laxton_witness(t, u, m):
    """Each enumerated entry's coset_witness_k is laxton_eq(g, rep).k."""
    ctx = ParamPair.one_param(t)
    if u is None:
        extra = [g for g, _ in torsion_l(t)[1:]]
        elements = [identity_class(ctx), class_c(ctx), class_w(t), class_v(t)]
        elements += extra + [class_w(t) * g for g in extra]
    else:
        elements = list(xi_n_kernel(u, m))
    entries = set()
    for g in elements:
        e = _entry(g, order_bound=max(24, 2 * m))
        assert e.coset_witness_k == laxton_eq(g, e.element.rep).k
        entries.add(e)
    assert set(laxton_torsion(t).entries) <= entries


def test_torsion_searches_the_base_once(monkeypatch):
    """torsion at t = 7 = C_2(3) runs the witness search for 3 once."""
    calls = []
    search = seqlab.group._chebyshev_witnesses
    monkeypatch.setattr(seqlab.group, "_chebyshev_witnesses", lambda t: calls.append(t) or search(t))
    assert laxton_torsion(7).group_type == (4, 2)
    assert calls.count(F(3)) == 1


# ---------------------------------------------------------------------------
# the closed forms xi_hom and xi_n_kernel replaced, as references
# ---------------------------------------------------------------------------


def closed_form_xi_hom(x, target):
    """The coset of [T*x0, Q*(x0 + x1)] over target."""
    return LaxtonElement.of(GroupElement.from_pair(target, target.T * x.a0, target.Q * (x.a0 + x.a1)))


def closed_form_kernel(t, n):
    """Coset k is [U_k(t), U_{n+k}(t)] over C_n(t)."""
    ctx = ParamPair.one_param(chebyshev_c(t, n))
    return tuple(GroupElement.from_pair(ctx, chebyshev_u(t, k), chebyshev_u(t, n + k)) for k in range(n))


def _xi_targets():
    """Integer (T, Q), Q < 0 included, whose split parameter is allowed."""
    out = []
    for T in range(-7, 8):
        for Q in range(-7, 8):
            if T and Q and T * T != 4 * Q:
                t = F(T * T, Q) - 2
                if not (t.denominator == 1 and t.numerator in (0, 1, -1, 2, -2)):
                    out.append(ParamPair(T, Q))
    return out


def test_xi_hom_matches_closed_form():
    rng = random.Random(912)
    targets = _xi_targets()
    assert any(p.Q < 0 for p in targets)
    count = 0
    for target in targets:
        ctx = ParamPair.one_param(target.t)
        for _ in range(7):
            x = _small_class(rng, ctx)
            assert xi_hom(x, target) == closed_form_xi_hom(x, target)
            count += 1
    assert count >= 1200


@pytest.mark.parametrize("t", [F(3), F(-3), F(5, 2), F(-7, 3), F(19, 3), F(6, 5), F(11, 7), F(-9, 4)])
def test_xi_n_kernel_matches_closed_form(t):
    for n in range(1, 7):
        assert xi_n_kernel(t, n) == closed_form_kernel(t, n)


@pytest.mark.parametrize("n", [0, -1, -4])
def test_xi_n_kernel_rejects_small_degree(n):
    with pytest.raises(DegenerateParameterError) as err:
        xi_n_kernel(3, n)
    assert str(err.value) == "kernel needs n >= 1, got %d" % n


def test_laxton_order_walks_no_identity_over_one_parameter(monkeypatch):
    """Over one parameter [-1, 1] is no D-power, so laxton_order decides
    each power from that power's walk and never walks the identity."""
    walk = seqlab.laxton._canonical_shift
    calls = []

    def counted(g):
        calls.append(g == identity_class(g.ctx))
        return walk(g)

    monkeypatch.setattr(seqlab.laxton, "_canonical_shift", counted)
    g = GroupElement.from_pair(T3, 1, 5)  # free: no power up to the bound is a D-power
    assert laxton_order(g, bound=24) is None
    # one walk per even power, whose det 11**k is a square, and none other
    assert calls == [False] * 12


@pytest.mark.parametrize("t, walks", [(F(11, 7), 32), (F(6, 5), 16), (F(47), 11)])
def test_torsion_walks_the_identity_once_per_table(monkeypatch, t, walks):
    """A cubic, a circular primitive and a non-primitive (47 = C_4(3)) table
    walk the identity's coset once, as the identity's own entry, and each
    entry walks its g at most once, for its coset and its k = 1 step
    together."""
    walk, entry = seqlab.laxton._canonical_shift, seqlab.laxton._entry
    log, spans = [], []

    def logged_entry(g, *args, **kwargs):
        start = len(log)
        e = entry(g, *args, **kwargs)
        spans.append((g, log[start:]))
        return e

    monkeypatch.setattr(seqlab.laxton, "_canonical_shift", lambda g: log.append(g) or walk(g))
    monkeypatch.setattr(seqlab.laxton, "_entry", logged_entry)
    table = laxton_torsion(t)
    assert table.enumerated and spans
    identity = identity_class(ParamPair.one_param(t))
    assert log.count(identity) == 1
    for g, walked in spans:
        assert walked.count(g) <= 1 and walked.count(identity) == (g == identity), (g, walked)
    assert len(log) == walks
