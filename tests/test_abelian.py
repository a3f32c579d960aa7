"""Grading groups: canonical forms, Smith normal form, epimorphism checks,
and the degree keys of graded objects."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedmod.abelian import (GroupEpi, GroupError, NotSurjective,
                               NotWellDefined, kernel_elements,
                               kernel_is_finite, make_epi, make_group,
                               smith_normal_form)
from gradedmod.graded import GradedMorphism, GradedRing, ring_as_module
from gradedmod.znlinalg import FpZnModule


def test_group_canonical_arithmetic():
    g = make_group([4, 0])
    assert g.canon((5, -3)) == (1, -3)
    assert g.add((3, 2), (2, -2)) == (1, 0)
    assert g.neg((1, 5)) == (3, -5)
    assert g.sub((0, 0), (1, 1)) == (3, -1)
    assert g.zero() == (0, 0)
    assert not g.is_finite and g.rank == 1


def test_group_enumeration_and_cardinality():
    g = make_group([2, 3])
    elems = sorted(g.elements())
    assert len(elems) == 6 == g.cardinality()
    assert elems[0] == (0, 0) and elems[-1] == (1, 2)
    with pytest.raises(GroupError):
        list(make_group([0]).elements())


def test_invalid_moduli():
    with pytest.raises(GroupError):
        make_group([1])
    with pytest.raises(GroupError):
        make_group([-2])


def test_smith_normal_form_known_values():
    # diag(2,6) with a unit row mixed in
    assert smith_normal_form([[2, 0], [0, 6]]) == [2, 6]
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[2, 4], [4, 8]]) == [2, 0]
    # [[4, 6], [6, 4]]: det = -20, gcd of entries 2 -> divisors 2, 10
    assert smith_normal_form([[4, 6], [6, 4]]) == [2, 10]


def test_epi_construction_and_apply():
    g = make_group([4])
    h = make_group([2])
    psi = make_epi(g, h, [[1]])
    assert psi.apply((3,)) == (1,)
    assert kernel_is_finite(psi)
    assert sorted(kernel_elements(psi)) == [(0,), (2,)]


def test_epi_not_well_defined():
    # a generator of order 2 cannot map to a generator of Z/4
    with pytest.raises(NotWellDefined):
        make_epi(make_group([2]), make_group([4]), [[1]])


def test_epi_not_surjective():
    with pytest.raises(NotSurjective):
        make_epi(make_group([4]), make_group([4]), [[2]])
    with pytest.raises(NotSurjective):
        make_epi(make_group([0]), make_group([0]), [[2]])


def test_epi_to_trivial_group():
    psi = make_epi(make_group([0]), make_group([]), [[]])
    assert psi.apply((7,)) == ()
    assert not kernel_is_finite(psi)


def test_identity_epi():
    g = make_group([2, 0])
    psi = GroupEpi.identity(g)
    assert psi.is_identity
    assert psi.apply((1, -4)) == (1, -4)


# ---------------------------------------------------------------------------
# degree keys: stored canonical once, non-canonical input still canonicalized

MIXED = make_group([3, 0])


def _mixed_ring():
    """F_2[X]/(X^3) graded by Z/3 x Z with deg X = (1, 1)."""
    degs = [(0, 0), (1, 1), (2, 2)]
    comps = {d: FpZnModule(2, 1) for d in degs}
    mult = {(degs[a], degs[b]): (((1,),),)
            for a in range(3) for b in range(3) if a + b <= 2}
    return GradedRing(MIXED, 2, comps, mult, (1,))


RING = _mixed_ring()
MODULE = ring_as_module(RING)
IDENTITY = GradedMorphism.identity(MODULE)

_coord = st.integers(-20, 20)
_degree = st.tuples(_coord, _coord)
# a degree as callers may pass it: tuple or list, any representative
_raw_degree = st.one_of(_degree, _degree.map(list))


@settings(max_examples=80, deadline=None)
@given(_raw_degree, _raw_degree)
def test_group_arithmetic_is_canonical(a, b):
    g = MIXED
    assert g.add(a, b) == g.canon([x + y for x, y in zip(a, b)])
    assert g.sub(a, b) == g.canon([x - y for x, y in zip(a, b)])
    assert g.neg(a) == g.canon([-x for x in a])
    for op in (g.add, g.sub):
        with pytest.raises(GroupError):
            op(a, tuple(b) + (0,))
        with pytest.raises(GroupError):
            op(list(a)[:1], b)
    with pytest.raises(GroupError):
        g.neg(tuple(a) + (1,))


@settings(max_examples=80, deadline=None)
@given(_raw_degree, _raw_degree)
def test_degree_lookups_canonicalize(a, b):
    ca, cb = MIXED.canon(a), MIXED.canon(b)
    assert RING.component(a) is RING.component(ca)
    assert MODULE.component(a) is MODULE.component(ca)
    assert IDENTITY.matrix(a) == IDENTITY.matrix(ca)
    x, y = (1,) * RING.component(ca).ngens, (1,) * RING.component(cb).ngens
    assert RING.multiply((a, x), (b, y)) == RING.multiply((ca, x), (cb, y))
    assert MODULE.act((a, x), (b, y)) == MODULE.act((ca, x), (cb, y))


def test_degree_lookups_reject_wrong_length():
    for lookup in (RING.component, MODULE.component, IDENTITY.matrix):
        with pytest.raises(GroupError):
            lookup((0,))
        with pytest.raises(GroupError):
            lookup([0, 0, 0])
    with pytest.raises(GroupError):
        RING.multiply(((1,), (1,)), ((0, 0), (1,)))
