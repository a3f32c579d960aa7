"""Graded rings, modules and morphisms: validation, constructions, coarsening."""

import pytest

from gradedmod.abelian import make_epi, make_group
from gradedmod.graded import (GradedError, GradedModule, GradedMorphism,
                              GradedRing, GradedRingHom, RingMismatch,
                              coarsen_module, coarsen_morphism, coarsen_ring,
                              coarsen_ring_hom, direct_sum, free_module,
                              graded_cokernel, graded_image, graded_kernel,
                              graded_submodule, ring_as_module, shift,
                              shift_morphism)
from gradedmod.znlinalg import FpZnModule

G0 = make_group([])
D0 = ()


def _ungraded_ring(n, extra_rels=None):
    comp = FpZnModule(n, 1, extra_rels or [])
    return GradedRing(G0, n, {D0: comp}, {(D0, D0): (((1,),),)}, (1,))


def _truncated_poly_ring():
    """F_2[t]/(t^2) graded by Z with deg t = 1."""
    gz = make_group([0])
    c1 = FpZnModule(2, 1, [])
    return GradedRing(gz, 2, {(0,): c1, (1,): c1},
                      {((0,), (0,)): (((1,),),),
                       ((0,), (1,)): (((1,),),),
                       ((1,), (0,)): (((1,),),)},
                      (1,))


def _dual_numbers():
    """F_2[a]/(a^2), ungraded, on the basis 1, a."""
    return GradedRing(G0, 2, {D0: FpZnModule(2, 2, [])},
                      {(D0, D0): (((1, 0), (0, 1)), ((0, 1), (0, 0)))},
                      (1, 0))


def test_ring_validation_messages():
    # unit must be nonzero
    with pytest.raises(GradedError, match="unit"):
        GradedRing(G0, 4, {D0: FpZnModule(4, 1, [(1,)])},
                   {(D0, D0): (((1,),),)}, (1,))
    # unitality: 1 * x = 0 instead of x
    with pytest.raises(GradedError, match="unitality"):
        GradedRing(G0, 4, {D0: FpZnModule(4, 2, [])},
                   {(D0, D0): (((1, 0), (0, 0)), ((0, 0), (0, 0)))}, (1, 0))
    # multiplication landing outside the declared support: t * t nonzero
    # while no degree-2 component is declared
    gz = make_group([0])
    c1 = FpZnModule(2, 1, [])
    with pytest.raises(GradedError, match="support"):
        GradedRing(gz, 2, {(0,): c1, (1,): c1},
                   {((0,), (0,)): (((1,),),),
                    ((0,), (1,)): (((1,),),),
                    ((1,), (0,)): (((1,),),),
                    ((1,), (1,)): (((1,),),)},
                   (1,))
    # a Z/2 component in a ring over Z/4
    with pytest.raises(GradedError, match="modulus"):
        GradedRing(G0, 4, {D0: FpZnModule(2, 1)}, {(D0, D0): (((1,),),)},
                   (1,))
    # basis 1, a, b with a * b = a but b * a = 0
    with pytest.raises(GradedError, match="commutativity fails"):
        GradedRing(G0, 2, {D0: FpZnModule(2, 3)},
                   {(D0, D0): (((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                               ((0, 1, 0), (0, 0, 0), (0, 1, 0)),
                               ((0, 0, 1), (0, 0, 0), (0, 0, 0)))},
                   (1, 0, 0))
    # commutative and unital, but a * a = b and a * b = a, so that
    # (a * a) * b = 0 while a * (a * b) = b
    with pytest.raises(GradedError, match="^associativity fails"):
        GradedRing(G0, 2, {D0: FpZnModule(2, 3)},
                   {(D0, D0): (((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                               ((0, 1, 0), (0, 0, 1), (0, 1, 0)),
                               ((0, 0, 1), (0, 1, 0), (0, 0, 0)))},
                   (1, 0, 0))
    # Z/4 + Z/2 e with e * e = 1: 2e = 0 but (2e) * e = 2
    with pytest.raises(GradedError, match="multiplication not well defined"):
        GradedRing(G0, 4, {D0: FpZnModule(4, 2, [(0, 2)])},
                   {(D0, D0): (((1, 0), (0, 1)), ((0, 1), (1, 0)))}, (1, 0))


def test_module_validation_messages():
    r = _ungraded_ring(4)
    with pytest.raises(GradedError, match="modulus"):
        GradedModule(r, {D0: FpZnModule(2, 1, [])}, {(D0, D0): (((1,),),)})
    with pytest.raises(GradedError, match="unit action"):
        GradedModule(r, {D0: FpZnModule(4, 1, [])}, {(D0, D0): (((0,),),)})
    # Z/2 acting on Z/4: 2 = 0 in the ring but 2 * m != 0
    with pytest.raises(GradedError, match="action not well defined"):
        GradedModule(_ungraded_ring(4, [(2,)]), {D0: FpZnModule(4, 1)},
                     {(D0, D0): (((1,),),)})
    # a acting as the identity on F_2: (a * a) m = 0 but a (a m) = m
    with pytest.raises(GradedError, match="associativity of the action"):
        GradedModule(_dual_numbers(), {D0: FpZnModule(2, 1)},
                     {(D0, D0): (((1,),), ((1,),))})
    # t * m lands in degree 1, where the module has no component
    s = _truncated_poly_ring()
    with pytest.raises(GradedError,
                       match="action leaves the declared support"):
        GradedModule(s, {(0,): FpZnModule(2, 1)},
                     {((0,), (0,)): (((1,),),), ((1,), (0,)): (((1,),),)})


def test_morphism_validation():
    r = _ungraded_ring(4)
    m = ring_as_module(r)
    s2 = GradedModule(r, {D0: FpZnModule(4, 1, [(2,)])},
                      {(D0, D0): (((1,),),)})
    with pytest.raises(GradedError, match="well defined"):
        # Z/2 -> Z/4 sending the generator to 1 is not additive
        GradedMorphism(s2, m, {D0: ((1,),)})
    with pytest.raises(GradedError, match="row count"):
        GradedMorphism(m, m, {D0: ((1,), (0,))})
    with pytest.raises(RingMismatch):
        other = ring_as_module(_ungraded_ring(4, [(2,)]))
        GradedMorphism(m, other, {D0: ((1,),)}).compose  # construction raises
    # 1 -> 1, a -> 0 on F_2[a]/(a^2): u(a * 1) = 0 but a * u(1) = a
    d = ring_as_module(_dual_numbers())
    with pytest.raises(GradedError, match="not linear"):
        GradedMorphism(d, d, {D0: ((1, 0), (0, 0))})


def test_ring_hom_validation():
    r4 = _ungraded_ring(4)
    s2 = _ungraded_ring(4, [(2,)])
    with pytest.raises(GradedError, match="unit"):
        GradedRingHom(r4, s2, {D0: ((0,),)})
    # Z/2 -> Z/4 sending 1 to 1 sends the relation 2 to 2
    with pytest.raises(GradedError, match="ring morphism not well defined"):
        GradedRingHom(s2, r4, {D0: ((1,),)})
    # 1 -> 1, a -> 1 on F_2[a]/(a^2): h(a * a) = 0 but h(a) * h(a) = 1
    d = _dual_numbers()
    with pytest.raises(GradedError, match="not multiplicative"):
        GradedRingHom(d, d, {D0: ((1, 0), (1, 0))})
    h = GradedRingHom(r4, s2, {D0: ((1,),)})
    assert h.compose(GradedRingHom.identity(r4)) == h
    assert GradedRingHom.identity(s2).compose(h) == h


def test_shift_and_shift_morphism():
    s = _truncated_poly_ring()
    m = ring_as_module(s)
    m1 = shift(m, (1,))
    assert sorted(m1.components) == [(-1,), (0,)]
    assert m1.cardinality() == m.cardinality() == 4
    u = shift_morphism(GradedMorphism.identity(m), (1,))
    assert u == GradedMorphism.identity(m1)
    # shifting by zero is the identity on objects
    assert shift(m, (0,)) == m


def test_direct_sum_and_free_module():
    s = _truncated_poly_ring()
    m = ring_as_module(s)
    total, injs, projs = direct_sum([m, shift(m, (1,))])
    assert total.cardinality() == 16
    for inj, proj in zip(injs, projs):
        assert proj.compose(inj) == GradedMorphism.identity(inj.source)
    f = free_module(s, [(0,), (1,)])
    assert f.cardinality() == 16
    assert sorted(f.components) == [(-1,), (0,), (1,)]


def test_kernel_image_cokernel_exactness():
    r = _ungraded_ring(4)
    m = ring_as_module(r)
    times2 = GradedMorphism(m, m, {D0: ((2,),)})
    ker, incl = graded_kernel(times2)
    img, _ = graded_image(times2)
    coker, proj = graded_cokernel(times2)
    assert ker.cardinality() == 2 and img.cardinality() == 2
    assert coker.cardinality() == 2
    assert ker.cardinality() * img.cardinality() == m.cardinality()
    # the inclusion followed by the map is zero, as is the map then proj
    assert times2.compose(incl).is_zero
    assert proj.compose(times2).is_zero


def test_graded_submodule_action_stability():
    s = _truncated_poly_ring()
    m = ring_as_module(s)
    # (t) = span of t in degree 1 is a submodule
    sub, incl = graded_submodule(m, {(1,): [(1,)]})
    assert sub.cardinality() == 2
    assert sorted(sub.components) == [(1,)]
    # degree-0 span of 1 is not stable: t * 1 leaves it
    with pytest.raises(GradedError, match="stable"):
        graded_submodule(m, {(0,): [(1,)]})


def test_coarsening_basics():
    s = _truncated_poly_ring()
    psi = make_epi(s.group, make_group([]), [[]])
    cs = coarsen_ring(s, psi)
    assert cs.group.is_trivial
    assert cs.component(()).ngens == 2
    m = ring_as_module(s)
    cm = coarsen_module(m, psi, cs)
    assert cm.cardinality() == m.cardinality()
    # coarsening is functorial on morphisms
    u = GradedMorphism.identity(m)
    assert coarsen_morphism(u, psi, cs) == GradedMorphism.identity(cm)
    # and on ring maps
    r = GradedRing(s.group, 2, {(0,): FpZnModule(2, 1, [])},
                   {((0,), (0,)): (((1,),),)}, (1,))
    h = GradedRingHom(r, s, {(0,): ((1,),)})
    ch = coarsen_ring_hom(h, psi)
    assert ch.target == cs
    assert ch.source == coarsen_ring(r, psi)


def test_coarsen_preserves_composition(instances):
    inst = instances["zgraded"]
    h, psi = inst["h"], inst["psi"]
    m = ring_as_module(inst["ring_s"])
    u = GradedMorphism.identity(m)
    cu = coarsen_morphism(u, psi)
    assert cu.compose(cu) == cu
    chh = coarsen_ring_hom(h, psi)
    assert chh.source.n == h.source.n
