"""Decision procedures: morphism/module analysis, ring epis, batteries.

The c50-style trichotomies tie the behaviour of the unit rho and the
counit sigma-tilde to properties of the underlying degree-zero map of h,
exercised across instances where that map is pure-but-not-iso, epi-but-
not-iso, and iso.
"""

import pytest

from gradedmod import analyze as A
from gradedmod import canonical as C
from gradedmod.abelian import make_epi, make_group
from gradedmod.functors import coextend, restrict
from gradedmod.graded import (GradedMorphism, GradedRing, GradedRingHom,
                              ring_as_module, shift)
from gradedmod.znlinalg import FpZnModule

G0 = make_group([])
D0 = ()


def _ungraded_ring(n, extra_rels=None):
    comp = FpZnModule(n, 1, extra_rels or [])
    return GradedRing(G0, n, {D0: comp}, {(D0, D0): (((1,),),)}, (1,))


@pytest.fixture(scope="module")
def quot():
    r4 = _ungraded_ring(4)
    s2 = _ungraded_ring(4, [(2,)])
    h = GradedRingHom(r4, s2, {D0: ((1,),)})
    return {"h": h, "r4": r4, "s2": s2, "mr": ring_as_module(r4),
            "ms2": restrict(h, ring_as_module(s2))}


def test_morphism_flags_and_witnesses(quot):
    mr = quot["mr"]
    times2 = GradedMorphism(mr, mr, {D0: ((2,),)})
    rep = A.analyze_morphism(times2)
    assert rep.flags == {"is_epi": False, "is_iso": False, "is_mono": False,
                         "is_pure": False, "is_retraction": False,
                         "is_section": False}
    assert rep.witnesses["kernel_element"] == (D0, (2,))
    assert rep.witnesses["missed_element"] == (D0, (1,))

    rep = A.analyze_morphism(GradedMorphism.identity(mr))
    assert all(rep.flags.values())
    assert isinstance(rep.witnesses["section_witness"], GradedMorphism)


def test_quotient_is_epi_without_splitting(quot):
    qmap = GradedMorphism(quot["mr"], quot["ms2"], {D0: ((1,),)})
    rep = A.analyze_morphism(qmap)
    assert rep.flags["is_epi"] and not rep.flags["is_mono"]
    assert not rep.flags["is_section"] and not rep.flags["is_retraction"]


def test_module_flags(quot):
    rep = A.analyze_module(quot["mr"])
    assert rep.flags["is_free"] and rep.flags["is_projective"]
    assert rep.witnesses["free_shifts"] == [()]
    rep = A.analyze_module(quot["ms2"])
    assert not rep.flags["is_free"] and not rep.flags["is_projective"]
    assert rep.flags["is_finite_type"] and rep.flags["is_small"]


def test_ring_epimorphism_decision(quot, instances):
    assert A.is_ring_epimorphism(quot["h"])
    assert A.is_ring_epimorphism(GradedRingHom.identity(quot["r4"]))
    assert not A.is_ring_epimorphism(instances["frobenius"]["h"])
    assert A.is_ring_epimorphism(instances["d25e"]["h"])


def test_free_shifts_of_restricted_frobenius(instances):
    inst = instances["frobenius"]
    hs = restrict(inst["h"], ring_as_module(inst["ring_s"]))
    free = A.is_free(hs)
    assert free is not None and sorted(free) == [(0,), (1,)]


def test_free_despite_a_presented_but_zero_component(instances):
    # d25e_z3: R = F_2[X]/(X^3) ->> S = F_2[X]/(X^2), graded by Z/3 with
    # deg X = 1.  S keeps X^2 as a degree-2 component killed by a relation.
    # Hom_R(S, R) is the ideal X R = span{X, X^2}, one F_2 in degrees 1 and
    # 2, which is S(-1): S_0 moved to degree 1, S_1 to degree 2.
    inst = instances["d25e_z3"]
    s_comps = inst["ring_s"].components
    assert (2,) in s_comps and s_comps[(2,)].is_zero
    coext = coextend(inst["h"], ring_as_module(inst["ring_r"])).module
    orders = {d: c.cardinality() for d, c in coext.components.items()
              if not c.is_zero}
    assert orders == {(1,): 2, (2,): 2}
    assert A.is_free(coext) == [(2,)]
    rep = A.analyze_module(coext)
    assert rep.flags["is_free"] and rep.flags["is_projective"]


def test_battery_epi_instance(quot):
    s_mod = ring_as_module(quot["s2"])
    rep = A.d70_battery(quot["h"], [s_mod])
    assert rep.decisive
    assert all(rep.verdicts.values())
    assert sorted(rep.verdicts) == ["i", "ii", "iii", "iv", "v", "vi", "vii"]


def test_battery_non_epi_instance(instances):
    inst = instances["frobenius"]
    sf_mod = ring_as_module(inst["ring_s"])
    rep = A.d70_battery(inst["h"], [sf_mod, shift(sf_mod, (1,))])
    assert not rep.decisive
    assert not any(rep.verdicts.values())


def test_battery_family_precondition(instances):
    inst = instances["frobenius"]
    with pytest.raises(A.AnalyzeError):
        A.d70_battery(inst["h"], [ring_as_module(inst["ring_s"])])


def test_d80_coarsening_stability(instances):
    inst = instances["frobenius"]
    psi = make_epi(inst["ring_s"].group, make_group([]), [[]])
    assert A.d80_check(inst["h"], psi) == (False, False)
    assert A.d80_check(GradedRingHom.identity(inst["ring_s"]), psi) == \
        (True, True)
    zg = instances["zgraded"]
    assert A.d80_check(zg["h"], zg["psi"]) == (True, True)


def test_morita(quot, instances):
    # [DERIVED] the ungraded Frobenius extension is Morita-trivializing,
    # the quotient Z/4 -> Z/2 is not, and neither is the graded Frobenius
    # variant (coextension lands in a shifted copy of S)
    assert A.morita_check(instances["frobenius_ungraded"]["h"]) is True
    assert A.morita_check(quot["h"]) is False
    assert A.morita_check(instances["frobenius"]["h"]) is False


# ---------------------------------------------------------------------------
# trichotomies tying rho / sigma-tilde to the underlying map of h


def _underlying_cases(instances):
    frob = instances["frobenius"]["h"]        # pure, not iso
    quot = instances["z4_to_z2"]["h"]          # epi, not iso
    iso = GradedRingHom.identity(frob.target)  # iso
    return [("pure", frob), ("epi", quot), ("iso", iso)]


def test_underlying_map_classification(instances):
    cases = dict(_underlying_cases(instances))
    ul_pure = C.underline(cases["pure"])
    assert A.is_pure(ul_pure) and not A.is_iso(ul_pure)[0]
    ul_epi = C.underline(cases["epi"])
    assert A.is_epi(ul_epi)[0] and not A.is_iso(ul_epi)[0]
    assert not A.is_section(ul_epi)[0]
    ul_iso = C.underline(cases["iso"])
    assert A.is_iso(ul_iso)[0]


def test_rho_trichotomy(instances):
    # rho_R mono <=> underline(h) pure; epi <=> underline(h) epi;
    # iso <=> underline(h) iso
    for _, h in _underlying_cases(instances):
        ul = C.underline(h)
        rho = C.rho(h, ring_as_module(h.source)).morphism
        assert A.is_mono(rho)[0] == A.is_pure(ul)
        assert A.is_epi(rho)[0] == A.is_epi(ul)[0]
        assert A.is_iso(rho)[0] == A.is_iso(ul)[0]


def test_sigma_tilde_trichotomy(instances):
    # sigma~_R mono <=> underline(h) epi; epi <=> underline(h) section;
    # iso <=> underline(h) iso
    for _, h in _underlying_cases(instances):
        ul = C.underline(h)
        st = C.sigma_tilde(h, ring_as_module(h.source)).morphism
        assert A.is_mono(st)[0] == A.is_epi(ul)[0]
        assert A.is_epi(st)[0] == A.is_section(ul)[0]
        assert A.is_iso(st)[0] == A.is_iso(ul)[0]
