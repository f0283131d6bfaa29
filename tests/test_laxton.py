"""Laxton quotient: shift-equivalence with exact witnesses, canonical coset
representatives, torsion tables, and the quotient homomorphisms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seqlab.ring import ParamPair, chebyshev_u
from seqlab.group import (
    GroupElement,
    class_c,
    class_v,
    class_w,
    companion_class,
    identity_class,
)
from seqlab.laxton import (
    LaxtonElement,
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
