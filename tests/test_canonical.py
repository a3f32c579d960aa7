"""Canonical natural transformations: constructions and decision values."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedmod import analyze
from gradedmod import canonical as C
from gradedmod import corpus
from gradedmod.abelian import make_epi, make_group
from gradedmod.functors import (_lift_generators, coextend, extend,
                               hom_graded, mixed_tensor, restrict, tensor)
from gradedmod.graded import (GradedError, GradedMorphism, GradedRing,
                              GradedRingHom, _unit_vec, graded_kernel,
                              monomial_quotient, ring_as_module, shift)
from gradedmod.znlinalg import FpZnModule

from util import inverse_of, is_component_epi, is_component_iso, \
    is_component_mono, reference_beta_h, reference_tensor_coarsen_iso

G0 = make_group([])
D0 = ()


def _ungraded_ring(n, extra_rels=None):
    comp = FpZnModule(n, 1, extra_rels or [])
    return GradedRing(G0, n, {D0: comp}, {(D0, D0): (((1,),),)}, (1,))


@pytest.fixture(scope="module")
def quot():
    """The quotient Z/4 -> Z/2 with the ring modules it acts on."""
    r4 = _ungraded_ring(4)
    s2 = _ungraded_ring(4, [(2,)])
    h = GradedRingHom(r4, s2, {D0: ((1,),)})
    return {"h": h, "mr": ring_as_module(r4), "ms": ring_as_module(s2),
            "mh": restrict(h, ring_as_module(s2))}


@pytest.fixture(scope="module")
def frob(instances):
    inst = instances["frobenius"]
    return {"h": inst["h"], "psi": inst["psi"],
            "mr": ring_as_module(inst["ring_r"]),
            "ms": ring_as_module(inst["ring_s"])}


def test_hom_coords_rejects_a_formula_that_is_not_linear(instances):
    # on R = F_2[X]/(X^3), deg X = 1, the additive map fixing 1 and
    # killing X and X^2 is no R-linear endomorphism: U(X.1) = 0 != X.U(1)
    r = ring_as_module(instances["zgraded"]["ring_r"])
    hw = hom_graded(r, r)
    with pytest.raises(C.CanonicalMapError,
                       match="^frobnicate: image is not a graded "
                             "homomorphism$"):
        C._hom_coords(hw, (0,), lambda a, i: (int(a == (0,)),),
                      "frobnicate")


def test_maps_that_need_h_onto_name_the_missed_degree(frob):
    h, mr, ms = frob["h"], frob["mr"], frob["ms"]
    onto = "the formula needs h to be a ring epimorphism \\(onto\\)"
    with pytest.raises(C.CanonicalMapError,
                       match=f"^pi: {onto}, and h misses degree \\(1,\\)$"):
        C.pi(h, ms, mr, ms)
    with pytest.raises(C.CanonicalMapError,
                       match=f"^epsilon: {onto}, and h misses degree "
                             "\\(1,\\)$"):
        C.epsilon(h, mr, mr)


def test_onto_is_tested_only_when_the_build_fails(quot, monkeypatch):
    # a build that succeeds never asks whether h is onto, and a failure on
    # an onto h stands as raised
    h = quot["h"]
    with monkeypatch.context() as patch:
        patch.setattr(GradedRingHom, "first_missed",
                      lambda h: pytest.fail("h was tested"))
        C.pi(h, quot["ms"], quot["mr"], quot["ms"])
        C.epsilon(h, quot["mr"], quot["mr"])
    with pytest.raises(GradedError, match="^frobnicate$"):
        with C._needs_onto(h, "pi"):
            raise GradedError("frobnicate")


def test_hom_coords_reads_back_every_lifted_generator(instances):
    # the formula x -> u(x) gives back the coordinates of u, for every
    # generator u of a plain and of a mixed Hom module
    inst = instances["d25e_z3"]
    h, rr = inst["h"], ring_as_module(inst["ring_r"])
    for hw in (hom_graded(rr, rr), coextend(h, rr)):
        lifted = _lift_generators(hw, hw.module.components)
        assert lifted
        for g, family in lifted.items():
            for mats in family:
                coords = C._hom_coords(
                    hw, g, lambda a, i: hw.apply(g, mats, (a, _unit_vec(
                        hw.source.component(a).ngens, i)))[1], "u")
                assert coords == hw.coords_of(g, mats)


def test_sigma_iso_exactly_for_ring_epi(quot, frob):
    # [DERIVED] sigma_S is bijective for the ring epi Z/4 -> Z/2 ...
    assert is_component_iso(C.sigma(quot["h"], quot["ms"]).morphism)
    # ... and not for the (non-epi) Frobenius inclusion
    assert not is_component_iso(C.sigma(frob["h"], frob["ms"]).morphism)


def test_theta_vanishes_on_counterexample(quot):
    # [DERIVED] both sides have two elements, yet the comparison map is zero
    th = C.theta(quot["h"], quot["mh"], quot["mr"])
    assert th.morphism.is_zero
    assert th.morphism.source.cardinality() == 2
    assert th.morphism.target.cardinality() == 2


def test_theta_on_graded_instance(frob):
    mh = restrict(frob["h"], frob["ms"])
    # [DERIVED] h^*(Hom_R(h_* S, R)) and Hom_S(h^*(h_* S), h^*(R)) both
    # have 16 elements here and theta does not vanish
    th = C.theta(frob["h"], mh, frob["mr"])
    assert th.morphism.source.cardinality() == 16
    assert th.morphism.target.cardinality() == 16
    assert not th.morphism.is_zero


def test_delta_and_alpha_are_isomorphisms(quot):
    dl = C.delta(quot["h"], quot["mr"], quot["mh"])
    inv = inverse_of(dl.morphism)
    assert dl.inverse == inv or \
        dl.inverse.compose(dl.morphism) == GradedMorphism.identity(
            dl.morphism.source)
    al = C.alpha(quot["h"], quot["ms"], quot["ms"], quot["mr"])
    assert al.inverse.compose(al.morphism) == GradedMorphism.identity(
        al.morphism.source)
    assert al.morphism.compose(al.inverse) == GradedMorphism.identity(
        al.morphism.target)


def test_gamma_epi_eta_mono(quot, frob):
    assert is_component_epi(C.gamma(quot["h"], quot["ms"], quot["ms"]).morphism)
    assert is_component_mono(C.eta(quot["h"], quot["ms"], quot["ms"]).morphism)
    et = C.eta(frob["h"], frob["ms"], frob["ms"])
    assert is_component_mono(et.morphism)
    # [DERIVED] graded sizes: S (x)_R S has 16 elements, Hom side as well
    assert et.morphism.source.cardinality() == 4
    assert et.morphism.target.cardinality() == 16


def test_mu_nu_pi_tau(quot):
    h, mr, ms = quot["h"], quot["mr"], quot["ms"]
    assert C.mu(h, ms, mr).morphism is not None
    assert C.nu(h, ms, mr, mr).morphism is not None
    assert C.pi(h, ms, mr, ms).morphism is not None
    assert C.tau3(mr, mr, mr).morphism is not None
    # [TRIVIAL] tau_R: R (x) M -> M is an iso for M = R
    assert is_component_iso(C.tau(mr).morphism)


def test_kappa_lambda_iso(quot):
    mr, mh = quot["mr"], quot["mh"]
    assert is_component_iso(C.kappa(mr, [mr, mh]).morphism)
    assert is_component_iso(C.lambda_big(mr, [mr, mh]).morphism)


def test_epsilon_rejects_non_surjective_h(frob):
    with pytest.raises(GradedError):
        C.epsilon(frob["h"], frob["mr"], frob["mr"])


def test_epsilon_iso_for_identity(quot):
    h_id = GradedRingHom.identity(quot["mr"].ring)
    ep = C.epsilon(h_id, quot["mr"], quot["mr"])
    assert is_component_iso(ep.morphism)


def test_epsilon_not_mono_on_truncated_polynomials(instances):
    # [DERIVED] for R = F_2[X]/(X^3) and S = R/(X) the comparison map
    # has a four-element source and a nonzero kernel
    inst = instances["d25e"]
    h = inst["h"]
    ep = C.epsilon(h, ring_as_module(inst["ring_r"]),
                   restrict(h, ring_as_module(inst["ring_s"])))
    ker, _ = graded_kernel(ep.morphism)
    assert not ker.is_zero
    assert ep.morphism.source.cardinality() == 4


def test_epsilon_defined_on_all_surjective_instances(instances):
    for name in ("d25e", "d25e_z3", "z4_to_z2"):
        inst = instances[name]
        h = inst["h"]
        m = ring_as_module(inst["ring_r"])
        n = restrict(h, ring_as_module(inst["ring_s"]))
        ep = C.epsilon(h, m, n)
        assert ep.morphism.source.ring == h.target


def test_beta_and_tensor_coarsen_iso(frob):
    psi = frob["psi"]
    ms, mr, h = frob["ms"], frob["mr"], frob["h"]
    assert is_component_iso(C.beta(psi, ms, ms).morphism)
    assert is_component_iso(
        C.beta_h(psi, h, ms, restrict(h, ms)).morphism)
    assert is_component_iso(C.tensor_coarsen_iso(psi, tensor(ms, ms)).morphism)
    assert is_component_iso(
        C.tensor_coarsen_iso(psi, extend(h, mr)).morphism)


def test_beta_under_z_to_trivial(instances):
    inst = instances["zgraded"]
    psi = inst["psi"]
    ms = ring_as_module(inst["ring_s"])
    assert is_component_iso(C.beta(psi, ms, ms).morphism)
    assert is_component_iso(
        C.tensor_coarsen_iso(psi, tensor(ms, ms)).morphism)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(corpus.INSTANCE_BUILDERS)),
       st.integers(0, 2**32 - 1))
def test_coarsening_maps_match_the_block_references(instances, name, seed):
    # the element formulas of beta_h, beta and tensor_coarsen_iso build
    # the same morphisms as the block-matrix references, on random
    # modules over both rings of each named instance, along its psi
    inst = instances[name]
    h, psi = inst["h"], inst["psi"]
    rng = random.Random(seed)
    l_s, m_s = (corpus.random_module(h.target, rng) for _ in range(2))
    m_r, n_r = (corpus.random_module(h.source, rng) for _ in range(2))
    assert C.beta_h(psi, h, m_s, n_r).morphism == \
        reference_beta_h(psi, h, m_s, n_r)
    assert C.beta(psi, m_r, n_r).morphism == reference_beta_h(
        psi, GradedRingHom.identity(h.source), m_r, n_r)
    for tw in (mixed_tensor(h, l_s, m_r), tensor(l_s, m_s)):
        assert C.tensor_coarsen_iso(psi, tw).morphism == \
            reference_tensor_coarsen_iso(psi, tw)


def test_hstar_ring_iso_and_underline(frob):
    assert is_component_iso(C.hstar_ring_iso(frob["h"]).morphism)
    ul = C.underline(frob["h"])
    assert isinstance(ul, GradedMorphism)
    assert analyze.is_mono(ul)[0]


def test_rho_mono_on_free_restriction(frob):
    # h_*(S) is free over R for the Frobenius inclusion, so rho is mono
    rho = C.rho(frob["h"], frob["mr"])
    assert analyze.is_mono(rho.morphism)[0]


@pytest.mark.parametrize("moduli", [[], [0]], ids=["ungraded", "Z"])
def test_delta_stays_small_on_the_truncated_family(moduli):
    # unpruned, the source of delta(h, R, h_*S) is presented on k^4
    # generator pairs; at k = 6 that took minutes
    start = time.perf_counter()
    # (Z/2)[X]/(X^6) ->> (Z/2)[X]/(X^2), ungraded or with deg X = 1 in Z
    h = monomial_quotient(make_group(moduli), 2, [[1] * len(moduli)], [(6,)],
                          [(2,)])
    cm = C.delta(h, ring_as_module(h.source),
                 restrict(h, ring_as_module(h.target)))
    src, tgt = cm.morphism.source, cm.morphism.target
    assert sum(c.ngens for c in src.components.values()) <= 2
    assert src.cardinality() == 4
    assert cm.inverse.compose(cm.morphism) == GradedMorphism.identity(src)
    assert cm.morphism.compose(cm.inverse) == GradedMorphism.identity(tgt)
    assert time.perf_counter() - start < 1.0
