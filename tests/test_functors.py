"""Change-of-ring functors: adjunction triangles, naturality, functoriality.

The two adjunctions (extension -| restriction) and (restriction -|
coextension) are verified through their triangle identities on every
corpus instance and on a population of seeded random modules; the unit
and counit one-sided properties (sigma epi, rho-tilde mono) are checked
on the same population.  Tensor products and extensions are checked to be
pruned, with a bilinear, well-defined and balanced pure-tensor locator.
"""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedmod import analyze
from gradedmod import canonical as C
from gradedmod import corpus, functors, graded
from gradedmod.abelian import make_group
from gradedmod.functors import (coextend, coextend_morphism, extend,
                                extend_morphism, hom_degree, hom_graded,
                                hom_map, mixed_hom, mixed_tensor, restrict,
                                restrict_morphism, restrict_witness, tensor,
                                tensor_map)
from gradedmod.graded import (GradedModule, GradedMorphism, GradedRingHom,
                              direct_sum, monomial_quotient, monomial_ring,
                              ring_as_module, shift)
from gradedmod.znlinalg import FpZnModule
from util import reference_homs, reference_mixed_tensor

ALL = ["z4_to_z2", "frobenius", "frobenius_ungraded", "d25e", "d25e_z3",
       "zgraded"]


@pytest.fixture(params=ALL)
def inst(request, instances):
    return instances[request.param]


def _triangle_restrict_side(h, n_mod):
    """h_*(sigma_N) . rho_{h_* N} = id and sigma~_{h_* N} . h_*(rho~_N) = id."""
    hn = restrict(h, n_mod)
    sig = C.sigma(h, n_mod)
    tri1 = restrict_morphism(h, sig.morphism).compose(C.rho(h, hn).morphism)
    assert tri1 == GradedMorphism.identity(hn)
    rt = C.rho_tilde(h, n_mod)
    tri2 = C.sigma_tilde(h, hn).morphism.compose(
        restrict_morphism(h, rt.morphism))
    assert tri2 == GradedMorphism.identity(hn)
    # one-sided properties of the (co)units
    assert analyze.is_epi(sig.morphism)[0]
    assert analyze.is_mono(rt.morphism)[0]


def _triangle_extend_side(h, m_mod):
    """sigma_{h^* M} . h^*(rho_M) = id on h^*(M)."""
    ext = extend(h, m_mod)
    rho = C.rho(h, m_mod)
    lifted = extend_morphism(h, rho.morphism, source=ext)
    tri = C.sigma(h, ext.module).morphism.compose(lifted)
    assert tri == GradedMorphism.identity(ext.module)


def _triangle_coextend_side(h, m_mod):
    """h~(sigma~_M) . rho~_{h~ M} = id on h~(M)."""
    coe = coextend(h, m_mod)
    st = C.sigma_tilde(h, m_mod)
    lowered = coextend_morphism(h, st.morphism, target=coe)
    tri = lowered.compose(C.rho_tilde(h, coe.module).morphism)
    assert tri == GradedMorphism.identity(coe.module)


def test_adjunction_triangles_on_corpus(inst):
    h = inst["h"]
    m_r = ring_as_module(inst["ring_r"])
    n_s = ring_as_module(inst["ring_s"])
    mods_s = [n_s]
    nonzero = [d for d in n_s.support if any(d)]
    if nonzero:
        mods_s.append(shift(n_s, nonzero[0]))
    for n_mod in mods_s:
        _triangle_restrict_side(h, n_mod)
    _triangle_extend_side(h, m_r)
    _triangle_coextend_side(h, m_r)


def test_adjunction_triangles_on_random_modules(instances):
    total = 0
    for name in ALL:
        inst = instances[name]
        h = inst["h"]
        rng = random.Random(f"triangles-{name}")
        for _ in range(5):
            n_mod = corpus.random_module(inst["ring_s"], rng)
            _triangle_restrict_side(h, n_mod)
            total += 1
            m_mod = corpus.random_module(inst["ring_r"], rng)
            _triangle_extend_side(h, m_mod)
            _triangle_coextend_side(h, m_mod)
            total += 1
    assert total >= 50


def test_unit_counit_naturality(inst):
    h = inst["h"]
    rng = random.Random("naturality")
    m, n, u = corpus.random_endo_pair(inst["ring_r"], rng)
    # rho is natural: h_* h^*(u) . rho_M = rho_N . u
    rho_m = C.rho(h, m).morphism
    rho_n = C.rho(h, n).morphism
    lifted = restrict_morphism(h, extend_morphism(h, u))
    assert lifted.compose(rho_m) == rho_n.compose(u)
    # sigma~ is natural: u . sigma~_M = sigma~_N . h_* h~(u)
    st_m = C.sigma_tilde(h, m).morphism
    st_n = C.sigma_tilde(h, n).morphism
    lowered = restrict_morphism(h, coextend_morphism(h, u))
    assert u.compose(st_m) == st_n.compose(lowered)


def test_tensor_hom_functoriality(inst):
    ring = inst["ring_s"]
    rng = random.Random("functoriality")
    m, n, u = corpus.random_endo_pair(ring, rng)
    p = corpus.random_module(ring, rng)
    v = corpus.random_morphism(n, p, rng)
    idp = GradedMorphism.identity(p)
    h_id = inst["h"].identity(ring)
    # tensor with a fixed module is a functor
    tw_m = tensor(m, p)
    tw_n = tensor(n, p)
    tw_p = tensor(p, p)
    t_u = tensor_map(h_id, u, idp, source=tw_m, target=tw_n)
    t_v = tensor_map(h_id, v, idp, source=tw_n, target=tw_p)
    t_vu = tensor_map(h_id, v.compose(u), idp, source=tw_m, target=tw_p)
    assert t_v.compose(t_u) == t_vu
    # Hom(-, P) is contravariant
    hw_m = hom_graded(m, p)
    hw_n = hom_graded(n, p)
    hw_p = hom_graded(p, p)
    h_u = hom_map(h_id, u, idp, source=hw_n, target=hw_m)
    h_v = hom_map(h_id, v, idp, source=hw_p, target=hw_n)
    h_vu = hom_map(h_id, v.compose(u), idp, source=hw_p, target=hw_m)
    assert h_u.compose(h_v) == h_vu


def test_restrict_preserves_composition(inst):
    h = inst["h"]
    rng = random.Random("restrict")
    m, n, u = corpus.random_endo_pair(inst["ring_s"], rng)
    p = corpus.random_module(inst["ring_s"], rng)
    v = corpus.random_morphism(n, p, rng)
    assert restrict_morphism(h, v).compose(restrict_morphism(h, u)) == \
        restrict_morphism(h, v.compose(u))
    assert restrict_morphism(h, GradedMorphism.identity(m)) == \
        GradedMorphism.identity(restrict(h, m))


# ---------------------------------------------------------------------------
# pruned tensor presentations


def _random_element(module, deg, rng):
    comp = module.component(deg)
    return deg, tuple(rng.randrange(module.ring.n) for _ in range(comp.ngens))


def _check_pruned_tensor(tw, rng):
    """No unit-pivot relation; `pure` is bilinear, well defined, balanced."""
    h, left, right = tw.h, tw.left, tw.right
    n = tw.module.ring.n
    for comp in tw.module.components.values():
        assert all(row[j] != 1 for row, j in zip(comp.rels, comp.pivots))
    for a in left.support:
        for b in right.support:
            x1, x2 = (_random_element(left, a, rng) for _ in range(2))
            y1, y2 = (_random_element(right, b, rng) for _ in range(2))
            c = rng.randrange(n)
            x12 = (a, left.component(a).add(x1[1], x2[1]))
            y12 = (b, right.component(b).add(y1[1], y2[1]))
            d, t12 = tw.pure(x12, y1)
            comp = tw.module.component(d)
            assert t12 == comp.add(tw.pure(x1, y1)[1], tw.pure(x2, y1)[1])
            assert tw.pure(x1, y12)[1] == comp.add(tw.pure(x1, y1)[1],
                                                   tw.pure(x1, y2)[1])
            assert tw.pure((a, left.component(a).scale(c, x1[1])), y1)[1] \
                == comp.scale(c, tw.pure(x1, y1)[1])
            # well defined: a relation of either factor goes to 0
            for rel in left.component(a).rels:
                assert not any(tw.pure((a, rel), y1)[1])
            for rel in right.component(b).rels:
                assert not any(tw.pure(x1, (b, rel))[1])
            # balanced: (x . h(r)) (x) y == x (x) (r . y)
            for e in h.source.support:
                r = _random_element(ring_as_module(h.source), e, rng)
                assert tw.pure(left.act(h.apply(r), x1), y1) == \
                    tw.pure(x1, right.act(r, y1))


def test_tensor_and_extend_are_pruned_bilinear_and_balanced(instances):
    for name in ALL:
        inst = instances[name]
        h = inst["h"]
        rng = random.Random(f"pruned-{name}")
        mods_r = [ring_as_module(inst["ring_r"])]
        mods_s = [ring_as_module(inst["ring_s"])]
        for _ in range(3):
            mods_r.append(corpus.random_module(inst["ring_r"], rng))
            mods_s.append(corpus.random_module(inst["ring_s"], rng))
        for m in mods_r:
            _check_pruned_tensor(extend(h, m), rng)
        for m, n_mod in zip(mods_s, reversed(mods_s)):
            _check_pruned_tensor(tensor(m, n_mod), rng)


def test_pruned_tensor_with_a_sign_sensitive_relation(instances):
    # over Z/4 the relation e0 + e1 = 0 prunes e0 to -e1 = 3 e1, not e1
    inst = instances["z4_to_z2"]
    m = GradedModule(inst["ring_r"], {(): FpZnModule(4, 2, [(1, 1)])},
                     {((), ()): (((1, 0), (0, 1)),)})
    rng = random.Random("pruned-z4")
    _check_pruned_tensor(extend(inst["h"], m), rng)
    _check_pruned_tensor(tensor(m, m), rng)


def _two_generator_quotients():
    """The R-modules R/I of F_2[X,Y]/(X^2, XY, Y^2), for I = 0, (X), (Y)
    and (X, Y), each with the relations spanning I.

    R on the basis 1, X, Y needs both X and Y as algebra generators, so a
    linearity or balance condition written for one of them only misses
    the other.
    """
    ring = monomial_ring(make_group([]), 2, [(), ()],
                         [(2, 0), (1, 1), (0, 2)])
    assert len(ring.algebra_generators) == 2
    mult = ring.mult[((), ())]
    e = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return [(GradedModule(ring, {(): FpZnModule(2, 3, rels)},
                          {((), ()): mult}), rels)
            for rels in ([], [e[1]], [e[2]], [e[1], e[2]])]


def test_hom_degree_matches_brute_force_over_two_algebra_generators():
    # R-linearity written for one generator only would admit maps that
    # are not R-linear
    mods = [m for m, _ in _two_generator_quotients()]
    ident = GradedRingHom.identity(mods[0].ring)
    for m in mods:
        for n_mod in mods:
            deg = hom_degree(ident, m, n_mod, ())
            found = {GradedMorphism(m, n_mod, deg.matrices(c))
                     for c in deg.sq.module.elements()}
            assert len(found) == deg.sq.module.cardinality()
            assert found == set(reference_homs(m, n_mod))


# reference_homs tries every degreewise linear map; cases with more
# candidates than this are left out
MAX_CANDIDATES = 256


def _candidates(m, n_mod):
    """The number of maps `reference_homs(m, n_mod)` tries."""
    count = 1
    for d in set(m.components) | set(n_mod.components):
        count *= n_mod.component(d).cardinality() ** m.component(d).ngens
    return count


def _check_hom_degree(h, m, n_mod, g):
    """hom_degree(h, m, n_mod, g) holds exactly the morphisms
    h_*(m) -> n_mod(g) found by brute force, when that is cheap."""
    src, tgt = restrict(h, m), shift(n_mod, g)
    if _candidates(src, tgt) > MAX_CANDIDATES:
        return
    deg = hom_degree(h, m, n_mod, g)
    found = {GradedMorphism(src, tgt, deg.matrices(c))
             for c in deg.sq.module.elements()}
    assert len(found) == deg.sq.module.cardinality()
    assert found == set(reference_homs(src, tgt))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ALL), st.integers(0, 2**32 - 1), st.integers(0, 63))
def test_hom_degree_matches_brute_force_on_random_modules(instances, name,
                                                          seed, pick):
    # degree 0 and a nonzero degree over R, and the mixed Hom from an
    # S-module restricted along h, element by element
    h = instances[name]["h"]
    grp = h.source.group
    ident = GradedRingHom.identity(h.source)
    rng = random.Random(seed)
    m, n_mod = (corpus.random_module(h.source, rng) for _ in range(2))
    m_s = corpus.random_module(h.target, rng)
    _check_hom_degree(ident, m, n_mod, grp.zero())
    degs = sorted({grp.sub(b, a) for a in m.components
                   for b in n_mod.components} - {grp.zero()})
    if degs:
        _check_hom_degree(ident, m, n_mod, degs[pick % len(degs)])
    degs = sorted({grp.sub(b, a) for a in m_s.components
                   for b in n_mod.components})
    _check_hom_degree(h, m_s, n_mod, degs[pick % len(degs)])


def test_tensor_order_over_two_algebra_generators():
    # R/I (x)_R R/J = R/(I + J); balancing over one generator only leaves
    # the tensor too large
    quotients = _two_generator_quotients()
    for m, rels_i in quotients:
        for n_mod, rels_j in quotients:
            expected = FpZnModule(2, 3, rels_i + rels_j).cardinality()
            assert tensor(m, n_mod).module.cardinality() == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mixed_tensor_matches_balance_over_every_basis_element(instances,
                                                               seed):
    # balance over the algebra generators presents the same tensor as
    # balance over a Z/n-basis: equal module, pair index and pair images
    rng = random.Random(seed)
    for name in ALL:
        h = instances[name]["h"]
        left = corpus.random_module(h.target, rng)
        right = corpus.random_module(h.source, rng)
        other = corpus.random_module(h.source, rng)
        for tw in (mixed_tensor(h, left, right), tensor(right, other)):
            assert (tw.module, tw.index, tw.pos) == \
                reference_mixed_tensor(tw.h, tw.left, tw.right), name


def _hom_systems(witness):
    """Per Hom degree, the layout and the solved system: blocks,
    relations, the ambient module, generators and the presented module."""
    return {g: (deg.blocks, deg.dim, deg.rels, deg.sq.ambient, deg.sq.gens,
                deg.sq.module) for g, deg in witness.degrees.items()}


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(ALL), st.integers(0, 2**32 - 1))
def test_restriction_commutes_with_the_mixed_functors(instances, name, seed):
    # for L over S and N' over R, h_* of the mixed Hom and tensor is the
    # Hom and tensor over R from h_*(L): the same module, the same Hom
    # systems, and the same pair index and pair images; N' is a random
    # R-module and, as in the battery, the restriction of an S-module
    h = instances[name]["h"]
    ident = GradedRingHom.identity(h.source)
    rng = random.Random(seed)
    left = corpus.random_module(h.target, rng)
    rl = restrict(h, left)
    for right in (corpus.random_module(h.source, rng),
                  restrict(h, corpus.random_module(h.target, rng))):
        got = restrict_witness(mixed_hom(h, left, right), rl)
        want = mixed_hom(ident, rl, right)
        assert got.module == want.module, name
        assert _hom_systems(got) == _hom_systems(want), name
        got = restrict_witness(mixed_tensor(h, left, right), rl)
        want = tensor(rl, right)
        assert (got.module, got.index, got.pos) == \
            (want.module, want.index, want.pos), name


# ---------------------------------------------------------------------------
# functor outputs are trusted derivations, fully valid all the same

# h: R -> S on monomial rings in two variables X and Y: quotients by a
# monomial ideal, Z-graded with deg X = deg Y = 1 over F_2 and ungraded
# over Z/4, and the identity of a Z/2-graded ring with deg X = 1
TWO_VARIABLES = {
    "xy_quotient_z": lambda: monomial_quotient(
        make_group([0]), 2, [(1,), (1,)], [(2, 0), (1, 1), (0, 2)],
        [(1, 0)]),
    "xy_quotient_z4": lambda: monomial_quotient(
        make_group([]), 4, [(), ()], [(2, 0), (0, 2)], [(0, 1)]),
    "xy_identity_z2": lambda: GradedRingHom.identity(monomial_ring(
        make_group([2]), 2, [(1,), (0,)], [(2, 0), (0, 2)])),
}


def _functor_outputs(h, rng):
    """Every module and morphism that the functors and the one-sided
    inverse solver build without validating, on random modules over both
    ends of h."""
    m_s, n_s = (corpus.random_module(h.target, rng) for _ in range(2))
    m_r, n_r = (corpus.random_module(h.source, rng) for _ in range(2))
    u_s = corpus.random_morphism(m_s, n_s, rng)
    v_r = corpus.random_morphism(m_r, n_r, rng)
    morphisms = [restrict_morphism(h, u_s), tensor_map(h, u_s, v_r),
                 hom_map(h, u_s, v_r), extend_morphism(h, v_r),
                 coextend_morphism(h, v_r)]
    modules = [restrict(h, n_s), mixed_tensor(h, m_s, n_r).module,
               mixed_hom(h, m_s, n_r).module, extend(h, m_r).module,
               coextend(h, m_r).module, tensor(m_r, n_r).module,
               hom_graded(m_r, n_r).module]
    _, (inj, _), (proj, _) = direct_sum([m_s, n_s])
    for found, v in (analyze.is_section(inj), analyze.is_retraction(proj)):
        assert found
        morphisms.append(v)
    for u in morphisms:
        modules += [u.source, u.target]
    return modules, morphisms


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(ALL + sorted(TWO_VARIABLES)), st.integers(0, 2**32 - 1))
def test_functor_outputs_pass_full_validation(instances, name, seed):
    # the functors skip the axiom checks of their outputs; every output
    # passes them in full
    h = instances[name]["h"] if name in ALL else TWO_VARIABLES[name]()
    modules, morphisms = _functor_outputs(h, random.Random(seed))
    for obj in modules + morphisms:
        obj._validate()


def test_battery_validates_no_functor_output(instances, monkeypatch):
    # the program's own policy, without the validating stand-ins of
    # conftest.py: no functor output is validated during a battery run
    def stack_has_functors():
        frame = sys._getframe(2)
        while frame is not None:
            if frame.f_globals.get("__name__") == functors.__name__:
                return True
            frame = frame.f_back
        return False

    seen = []
    for cls in (graded.GradedModule, graded.GradedMorphism):
        def spy(self, _check=cls._validate):
            seen.append(stack_has_functors())
            _check(self)
        monkeypatch.setattr(cls, "_validate", spy)
    inst = instances["zgraded"]
    h, s_mod = inst["h"], ring_as_module(inst["ring_s"])
    # the stand-ins are in place: a restriction is validated, and seen
    restrict(h, s_mod)
    assert seen == [True]
    for name in ("GradedModule", "GradedMorphism"):
        monkeypatch.setattr(functors, name, getattr(graded, name))
    monkeypatch.setattr(analyze, "GradedMorphism", graded.GradedMorphism)
    seen.clear()
    grp = h.target.group
    rep = analyze.d70_battery(h, [shift(s_mod, grp.neg(g))
                                  for g in s_mod.support])
    assert rep.decisive and all(rep.verdicts.values())
    assert seen and not any(seen)
