"""Decision procedures: morphism/module analysis, ring epis, batteries.

The c50-style trichotomies tie the behaviour of the unit rho and the
counit sigma-tilde to properties of the underlying degree-zero map of h,
exercised across instances where that map is pure-but-not-iso, epi-but-
not-iso, and iso.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedmod import analyze as A
from gradedmod import canonical as C
from gradedmod import corpus
from gradedmod import functors as F
from gradedmod.abelian import make_epi, make_group
from gradedmod.functors import coextend, extend, restrict
from gradedmod.graded import (GradedModule, GradedMorphism, GradedRing,
                              GradedRingHom, RingMismatch, direct_sum,
                              monomial_ring, ring_as_module, shift)
from gradedmod.znlinalg import FpZnModule
from util import (IsoSearchExhausted, adjoin_truncated, diagonal,
                  group_ring, iso_search, product_ring, reference_d70_battery,
                  reference_is_free, reference_is_iso, reference_is_mono,
                  reference_is_projective, reference_is_ring_epimorphism,
                  reference_morita_check)
from util import reference_homs as _reference_homs

G0 = make_group([])
D0 = ()
Z = make_group([0])


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


# ---------------------------------------------------------------------------
# is_mono against the kernel module and against enumeration


def _mono_draws(instances, seed):
    """Seeded `corpus.random_morphism` draws between random modules, over
    R and over S of every named instance."""
    rng = random.Random(seed)
    for name in sorted(instances):
        h = instances[name]["h"]
        for ring in (h.source, h.target):
            m = corpus.random_module(ring, rng)
            n_mod = corpus.random_module(ring, rng)
            yield corpus.random_morphism(m, n_mod, rng)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_is_mono_matches_the_kernel_module(instances, seed):
    for u in _mono_draws(instances, seed):
        assert A.is_mono(u) == reference_is_mono(u), u


def _iso_draws(instances, seed):
    """`_mono_draws`, then a random endomorphism of a random module over R
    and over S of every named instance: equal orders, iso or not."""
    yield from _mono_draws(instances, seed)
    rng = random.Random(seed)
    for name in sorted(instances):
        h = instances[name]["h"]
        for ring in (h.source, h.target):
            m = corpus.random_module(ring, rng)
            yield corpus.random_morphism(m, m, rng)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_is_iso_matches_the_reference(instances, seed):
    # the verdict and the witness: at equal orders an epi is decided
    # without a kernel, and a non-iso keeps the kernel element of is_mono
    for u in _iso_draws(instances, seed):
        assert A.is_iso(u) == reference_is_iso(u), u


def test_is_iso_decides_both_ways_at_equal_orders(instances):
    verdicts = [A.is_iso(u)[0] for seed in range(3)
                for u in _iso_draws(instances, seed)
                if u.source.cardinality() == u.target.cardinality()]
    assert 0 < sum(verdicts) < len(verdicts)


def test_is_mono_by_enumerating_the_source(instances):
    # a degree-zero morphism is injective iff it is injective in every
    # degree, so homogeneous elements decide; both verdicts occur
    verdicts = []
    for seed in range(4):
        for u in _mono_draws(instances, seed):
            if u.source.cardinality() > 256:
                continue
            killed = [(d, x) for d, c in sorted(u.source.components.items())
                      for x in c.elements()
                      if any(x) and not any(u.apply((d, x))[1])]
            mono, witness = A.is_mono(u)
            assert mono == (not killed), u
            assert (mono, witness) == reference_is_mono(u), u
            if not mono:
                d, x = witness
                assert any(u.source.component(d).reduce(x))
                assert not any(u.apply(witness)[1])
            verdicts.append(mono)
    assert 0 < sum(verdicts) < len(verdicts)


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


@st.composite
def non_surjective_ring_maps(draw):
    """A diagonal R -> R x R, or an inclusion R -> R[t]/(t^e) with e >= 2
    and R not a field, so no Frobenius inclusion: R is (Z/n)[X]/(X^k)
    under the trivial, Z or Z/m grading, or (Z/n)[Z/m]."""
    n = draw(st.sampled_from([2, 3, 4]))
    kind = draw(st.sampled_from(["diagonal", "truncated", "group ring"]))
    if kind == "group ring":
        ring = group_ring(n, draw(st.integers(2, 3)))
    else:
        moduli = draw(st.sampled_from([[], [0], [2], [3]]))
        k = draw(st.integers(1 if kind == "diagonal" else 2, 3))
        ring = monomial_ring(make_group(moduli), n, [[1] * len(moduli)],
                             [(k,)])
    if kind == "diagonal":
        return diagonal(ring)
    deg_t = ring.group.canon([draw(st.integers(0, 2))
                              for _ in ring.group.moduli])
    return adjoin_truncated(ring, draw(st.integers(2, 3)), deg_t)


@settings(max_examples=12, deadline=None)
@given(non_surjective_ring_maps())
def test_ring_epimorphism_matches_sigma_off_surjections(h):
    # the theorem's content: a map that misses a degree is no epimorphism
    assert h.first_missed() is not None
    assert A.is_ring_epimorphism(h) == reference_is_ring_epimorphism(h)


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


def _shift_family(inst):
    """S and its shifts by the negated support degrees, S first."""
    return _support_shifts(inst["ring_s"])


def _support_shifts(ring):
    """S = `ring` and its shifts S(-g) by its support degrees g, S first."""
    s_mod = ring_as_module(ring)
    return [s_mod] + [shift(s_mod, ring.group.neg(g))
                      for g in sorted(ring.components) if any(g)]


def _log_battery_calls(monkeypatch, family):
    """Patch the builders of the four canonical maps of the battery to log
    each call as (map name, positions of its modules in `family`).  A
    builder takes the family members, then the build it shares."""
    log = []
    for name in ("sigma", "rho_tilde", "gamma", "eta"):
        def logged(h, *args, _fn=getattr(C, "_" + name), _name=name):
            log.append((_name, tuple(
                next(i for i, m in enumerate(family) if m == mod)
                for mod in args[:-1])))
            return _fn(h, *args)
        monkeypatch.setattr(C, "_" + name, logged)
    return log


ONCE_AT_S = [("sigma", (0,)), ("rho_tilde", (0,)), ("gamma", (0, 0)),
             ("eta", (0, 0))]


def _epi_battery_log(inst, monkeypatch):
    """The builder log of the battery of an epimorphism on S and its
    support shifts, three members with S first."""
    family = _shift_family(inst)
    assert len(family) == 3
    log = _log_battery_calls(monkeypatch, family)
    rep = A.d70_battery(inst["h"], family)
    assert rep.decisive and all(rep.verdicts.values())
    return log


def test_battery_decides_each_instance_once(instances, monkeypatch):
    # every member is a support shift of S, so each map is built once, at
    # S: sigma at S serves (ii) and (iii), and (vii) reads row S of (vi)
    assert _epi_battery_log(instances["zgraded"], monkeypatch) == ONCE_AT_S


def test_battery_decides_a_z3_orbit_once(instances, monkeypatch):
    # d25e_z3 has S, S(-1) and S(-2), the last one on a zero component
    assert _epi_battery_log(instances["d25e_z3"], monkeypatch) == ONCE_AT_S


def test_battery_keeps_the_pairs_of_a_member_off_the_orbit(instances,
                                                           monkeypatch):
    # S + S is no shift of S: its instances are built at its own index,
    # and the shifts of S, S among them, at the index of S
    inst = instances["zgraded"]
    s_mod, s_1, s_2 = _shift_family(inst)
    family = [s_1, direct_sum([s_mod, s_mod])[0], s_mod, s_2]
    log = _log_battery_calls(monkeypatch, family)
    rep = A.d70_battery(inst["h"], family)
    assert rep.decisive and all(rep.verdicts.values())
    at = (2, 1)
    assert sorted(log) == sorted(
        [(name, (i,)) for name in ("sigma", "rho_tilde") for i in at]
        + [(name, pair) for name in ("gamma", "eta")
           for pair in itertools.product(at, repeat=2)])


@pytest.mark.parametrize("name, other", [("zgraded", "frobenius"),
                                         ("frobenius", "zgraded")])
def test_battery_refuses_a_member_over_another_ring(instances, name, other):
    # every member's ring is checked up front, also when h is no
    # epimorphism and the battery stops at its first instance, on S
    inst = instances[name]
    family = _shift_family(inst) + [ring_as_module(instances[other]["ring_s"])]
    with pytest.raises(RingMismatch, match="^restriction expects a module "
                       "over the target ring$"):
        A.d70_battery(inst["h"], family)


def test_battery_restricts_each_member_once(instances, monkeypatch):
    # every instance is built on the one h_*(N) of each member N, and a
    # member is restricted only when an instance needs it: on the pure
    # shift family every instance stands at S, and off it S + S stands
    # at its own index
    inst = instances["zgraded"]
    s_mod, s_1, s_2 = _shift_family(inst)
    restricted = []
    for mod in (A, C, F):
        def logged(h, module, _fn=mod.restrict):
            restricted.append(module)
            return _fn(h, module)
        monkeypatch.setattr(mod, "restrict", logged)
    for family, expected in (
            ([s_mod, s_1, s_2], [1, 0, 0]),
            ([s_1, direct_sum([s_mod, s_mod])[0], s_mod, s_2], [0, 1, 1, 0])):
        restricted.clear()
        rep = A.d70_battery(inst["h"], family)
        assert rep.decisive and all(rep.verdicts.values())
        assert [sum(m is member for m in restricted)
                for member in family] == expected


def test_battery_stops_at_the_first_false_instance(instances, monkeypatch):
    # every statement fails at its first instance, which is on S
    inst = instances["frobenius"]
    family = _shift_family(inst)
    assert len(family) == 2
    log = _log_battery_calls(monkeypatch, family)
    rep = A.d70_battery(inst["h"], family)
    assert not rep.decisive and not any(rep.verdicts.values())
    assert log == [("sigma", (0,)), ("rho_tilde", (0,)), ("gamma", (0, 0)),
                   ("eta", (0, 0))]


# a surjective ring map is an epimorphism; F_2 -> F_2[t]/(t^2) is not
EXPECTED_EPI = {"z4_to_z2": True, "frobenius": False,
                "frobenius_ungraded": False, "d25e": True, "d25e_z3": True,
                "zgraded": True}


@pytest.mark.parametrize("name", sorted(corpus.named_instances()))
def test_battery_verdicts_on_every_instance(instances, name):
    inst = instances[name]
    family = _shift_family(inst)
    for fam in (family, family[::-1], family + family[:1],
                family[1:] + family):
        rep = A.d70_battery(inst["h"], fam)
        assert rep.decisive is EXPECTED_EPI[name]
        assert set(rep.verdicts.values()) == {EXPECTED_EPI[name]}


def _battery_morphism(instances, data):
    """A named instance, or the identity, the diagonal or the inclusion
    R -> R[t]/(t^2), deg t = 1, of a truncated ring (Z/n)[X]/(X^k) under
    the trivial, Z, Z/2 or Z/3 grading."""
    kind = data.draw(st.sampled_from(
        ["named", "identity", "diagonal", "adjoin"]))
    if kind == "named":
        return instances[data.draw(st.sampled_from(sorted(instances)))]["h"]
    n = data.draw(st.sampled_from([2, 3, 4]))
    k = data.draw(st.integers(1, 3))
    moduli = data.draw(st.sampled_from([[], [0], [2], [3]]))
    ring = monomial_ring(make_group(moduli), n, [[1] * len(moduli)], [(k,)])
    if kind == "identity":
        return GradedRingHom.identity(ring)
    if kind == "diagonal":
        return diagonal(ring)
    return adjoin_truncated(ring, 2, ring.group.canon(
        [1] * len(ring.group.moduli)))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_battery_matches_the_pairwise_reference(instances, data):
    # the support shifts of S, reordered and repeated, with other members
    # put in anywhere: S + S, S(g) for g with every coordinate 1, a
    # support shift iff S has a component of degree -g (never under Z),
    # and a random S-module, rarely a shift of S; gamma and eta at (S, N)
    # are built on the restricted extension and coextension of N, the
    # reference's on N alone
    h = _battery_morphism(instances, data)
    shifts = _support_shifts(h.target)
    family = data.draw(st.permutations(shifts))
    family += data.draw(st.lists(st.sampled_from(shifts), max_size=2))
    s_mod, grp = shifts[0], h.target.group
    for other in data.draw(st.lists(st.sampled_from(
            ["sum", "shift", "random"]), max_size=2)):
        if other == "random":
            member = corpus.random_module(
                h.target, random.Random(data.draw(st.integers(0, 2**32 - 1))),
                1)
        else:
            member = (direct_sum([s_mod, s_mod])[0] if other == "sum" else
                      shift(s_mod, grp.canon([1] * len(grp.moduli))))
        family.insert(data.draw(st.integers(0, len(family))), member)
    assert A.d70_battery(h, family).verdicts == \
        reference_d70_battery(h, family).verdicts


@pytest.mark.parametrize("name", sorted(corpus.named_instances()))
def test_shared_battery_builds_give_the_public_maps(instances, name):
    # each builder on the build the battery shares is the public map: sigma
    # and rho_tilde on the extension and coextension of h_*(N), gamma and
    # eta at (S, N) on their restrictions
    h = instances[name]["h"]
    s_mod = ring_as_module(h.target)
    rs = restrict(h, s_mod)
    rng = random.Random(7)
    for n_mod in [s_mod] + [corpus.random_module(h.target, rng)
                            for _ in range(2)]:
        rn = restrict(h, n_mod)
        ext, coext = extend(h, rn), coextend(h, rn)
        assert C._sigma(h, n_mod, ext) == C.sigma(h, n_mod)
        assert C._rho_tilde(h, n_mod, coext) == C.rho_tilde(h, n_mod)
        assert C._gamma(h, s_mod, n_mod, F.restrict_witness(ext, rs)) == \
            C.gamma(h, s_mod, n_mod)
        assert C._eta(h, s_mod, n_mod, F.restrict_witness(coext, rs)) == \
            C.eta(h, s_mod, n_mod)


def _orbit_morphisms(instances):
    """The named instances, then the identity and the inclusion
    R -> R[t]/(t^2) of F_2[X]/(X^2) graded by Z, Z/3 and Z/2."""
    named = [instances[name]["h"] for name in sorted(instances)]
    rings = [monomial_ring(make_group([m]), 2, [(1,)], [(2,)])
             for m in (0, 3, 2)]
    return named + [h for ring in rings for h in (
        GradedRingHom.identity(ring),
        adjoin_truncated(ring, 2, ring.group.canon([1])))]


@pytest.mark.parametrize("at", range(12))
def test_battery_maps_agree_along_the_shift_orbit_of_s(instances, at):
    # the argument of `d70_battery`, with no short-circuit: each of the
    # four maps is an isomorphism at every support shift of S, or at none
    h = _orbit_morphisms(instances)[at]
    family = _support_shifts(h.target)
    for fn, arity in ((C.sigma, 1), (C.rho_tilde, 1), (C.gamma, 2),
                      (C.eta, 2)):
        verdicts = {A.is_iso(fn(h, *[family[i] for i in pos]).morphism)[0]
                    for pos in itertools.product(range(len(family)),
                                                 repeat=arity)}
        assert len(verdicts) == 1, fn.__name__


@pytest.mark.parametrize("name", sorted(corpus.named_instances()))
def test_ring_epimorphism_matches_sigma_on_named_instances(instances, name):
    inst = instances[name]
    identity = GradedRingHom.identity(inst["ring_s"])
    for h, expected in ((inst["h"], EXPECTED_EPI[name]), (identity, True)):
        assert A.is_ring_epimorphism(h) is expected
        assert reference_is_ring_epimorphism(h) is expected


@pytest.mark.parametrize("name", ["z4_to_z2", "frobenius"])
def test_battery_cross_checks_surjectivity_with_sigma(instances, monkeypatch,
                                                      name):
    # statement (i) comes from surjectivity and (ii) from sigma at S, so a
    # surjectivity test that lies makes the battery disagree with itself
    inst = instances[name]
    honest = GradedRingHom.first_missed
    monkeypatch.setattr(GradedRingHom, "first_missed",
                        lambda h: None if honest(h) is not None
                        else ((), ()))
    assert A.is_ring_epimorphism(inst["h"]) is not EXPECTED_EPI[name]
    with pytest.raises(A.InconsistentBattery):
        A.d70_battery(inst["h"], _shift_family(inst))


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


# ---------------------------------------------------------------------------
# the reference iso_search and one-sided inverses against an exhaustive
# reference


@pytest.fixture(scope="module")
def reference_homs():
    """`util.reference_homs`, enumerating each pair of modules once: the
    brute-force tests below ask for the same pairs."""
    cache = {}

    def homs(m, n_mod):
        if (m, n_mod) not in cache:
            cache[(m, n_mod)] = _reference_homs(m, n_mod)
        return cache[(m, n_mod)]
    return homs


def _reference_size(m, n_mod):
    """How many degreewise linear maps the reference tries."""
    size = 1
    for d in set(m.components) | set(n_mod.components):
        size *= n_mod.component(d).cardinality() ** m.component(d).ngens
    return size


# the reference enumerates every degreewise linear map; pairs beyond this
# many maps are left out for time
REFERENCE_CAP = 5000


def _oracle_modules(inst, seed):
    """Modules over R and over S of one named instance: the rings, their
    support shifts, the change-of-ring images of R, and seeded random
    modules from the corpus generator."""
    h = inst["h"]
    by_ring = {}
    for ring in (h.source, h.target):
        base = ring_as_module(ring)
        mods = [base] + [shift(base, ring.group.neg(g))
                         for g in sorted(ring.components) if any(g)]
        rng = random.Random(seed)
        mods += [corpus.random_module(ring, rng) for _ in range(3)]
        by_ring[ring] = mods
    by_ring[h.source].append(restrict(h, ring_as_module(h.target)))
    rr = ring_as_module(h.source)
    by_ring[h.target] += [coextend(h, rr).module, extend(h, rr).module]
    return list(by_ring.values())


@pytest.mark.parametrize("name", sorted(corpus.named_instances()))
def test_iso_search_matches_exhaustive_reference(instances, reference_homs,
                                                 name):
    found_iso = compared = 0
    for mods in _oracle_modules(instances[name], 11):
        for m, n_mod in itertools.product(mods, repeat=2):
            if _reference_size(m, n_mod) > REFERENCE_CAP:
                continue
            homs = reference_homs(m, n_mod)
            ref = next((u for u in homs if A.is_iso(u)[0]), None)
            # the budget counts Hom elements: |Hom(m, n_mod)_0| suffices
            u = iso_search(m, n_mod, budget=len(homs))
            assert (u is None) == (ref is None), (name, m, n_mod)
            compared += 1
            if u is not None:
                found_iso += 1
                assert u.source == m and u.target == n_mod
                assert A.is_iso(u)[0]
    assert 0 < found_iso < compared


def _one_sided_inverse_verdicts(u, homs_back):
    """(is_section, is_retraction) of u: M -> N, each asserted equal to
    the brute-force answer over `homs_back`, the elements of Hom(N, M)_0."""
    section = A.is_section(u)[0]
    retraction = A.is_retraction(u)[0]
    id_m = GradedMorphism.identity(u.source)
    id_n = GradedMorphism.identity(u.target)
    assert section == any(v.compose(u) == id_m for v in homs_back), u
    assert retraction == any(u.compose(v) == id_n for v in homs_back), u
    return section, retraction


@pytest.mark.parametrize("name", sorted(corpus.named_instances()))
def test_one_sided_inverses_match_exhaustive_reference(instances,
                                                       reference_homs, name):
    # on every pair within the cap both ways: the zero map, the reference
    # isomorphism (if any) and three seeded elements of Hom(M, N)_0
    rng = random.Random(5)
    seen = set()
    verdicts = []
    for mods in _oracle_modules(instances[name], 11):
        for m, n_mod in itertools.product(mods, repeat=2):
            if (m, n_mod) in seen or max(_reference_size(m, n_mod),
                                         _reference_size(n_mod, m)) \
                    > REFERENCE_CAP:
                continue
            seen.add((m, n_mod))
            homs = reference_homs(m, n_mod)
            back = reference_homs(n_mod, m)
            iso = next((u for u in homs if A.is_iso(u)[0]), None)
            candidates = ([GradedMorphism.zero(m, n_mod)]
                          + ([iso] if iso is not None else [])
                          + rng.sample(homs, min(3, len(homs))))
            verdicts += [_one_sided_inverse_verdicts(u, back)
                         for u in candidates]
    for side in (0, 1):
        assert 0 < sum(v[side] for v in verdicts) < len(verdicts)
    h = instances[name]["h"]
    for u in (C.underline(h),
              C.rho(h, ring_as_module(h.source)).morphism,
              C.sigma(h, ring_as_module(h.target)).morphism):
        _one_sided_inverse_verdicts(u, reference_homs(u.target, u.source))


def _frobenius_truncated(p, e, rng):
    """F_p -> F_p[t]/(t^e), ungraded, with S on a seeded monomial basis.

    Generator a of S is u_a t^(perm[a]) for a random permutation `perm`
    and random units u_a, so the same ring is presented with its
    generators reordered and rescaled.
    """
    perm = list(range(e))
    rng.shuffle(perm)
    units = [rng.randrange(1, p) for _ in range(e)]
    where = {i: a for a, i in enumerate(perm)}

    def coords(i):
        # t^i = u_a^(-1) * generator a, and t^i = 0 for i >= e
        vec = [0] * e
        if i < e:
            a = where[i]
            vec[a] = pow(units[a], -1, p)
        return tuple(vec)

    mult = tuple(tuple(tuple(units[a] * units[b] * x % p
                             for x in coords(perm[a] + perm[b]))
                       for b in range(e))
                 for a in range(e))
    s = GradedRing(G0, p, {D0: FpZnModule(p, e, [])}, {(D0, D0): mult},
                   coords(0))
    r = _ungraded_ring(p)
    return GradedRingHom(r, s, {D0: (coords(0),)})


@pytest.mark.parametrize("p,e", [(2, 4), (3, 2)])
@pytest.mark.parametrize("seed", range(5))
def test_iso_search_cost_does_not_depend_on_generator_order(p, e, seed):
    # coextend(h, R) is isomorphic to S (F_p[t]/(t^e) is self-dual), and
    # Hom_S(coextend(h, R), S)_0 has |S| = p^e elements: a search over them
    # decides within that budget, however S's generators are ordered
    h = _frobenius_truncated(p, e, random.Random(seed))
    coext = coextend(h, ring_as_module(h.source)).module
    s_mod = ring_as_module(h.target)
    u = iso_search(coext, s_mod, budget=p ** e)
    assert u is not None and u.source == coext and u.target == s_mod
    assert A.is_iso(u)[0]
    assert A.morita_check(h) is True


# ---------------------------------------------------------------------------
# freeness, projectivity and Morita by graded Nakayama on the *local
# factors, against the search over candidates and the free-cover retraction

F2 = GradedRing(G0, 2, {D0: FpZnModule(2, 2)},
                {(D0, D0): (((1, 0), (0, 0)), ((0, 0), (0, 1)))},
                (1, 1))  # F_2 x F_2


# F_3[Z/2] x F_3 graded by Z/2 (F_3 in degree 0): its factors have the
# unit degrees Z/2 and {0}
SPLIT_UNITS = product_ring(group_ring(3, 2),
                           monomial_ring(make_group([2]), 3, [], []))


def _nakayama_rings():
    """The rings of every named instance, (Z/4)[X]/(X^3) and
    (Z/9)[X]/(X^2) graded trivially, by Z and by Z/2, and group rings
    (Z/n)[Z/m], whose homogeneous units lie in every degree; then rings
    that are not *local: (Z/6)[X]/(X^2) and the Z-graded (Z/12)[X]/(X^2),
    split by the Chinese remainder theorem, F_2 x F_2, split by its
    Frobenius fixed space, and `SPLIT_UNITS`."""
    rings = []
    for inst in corpus.named_instances().values():
        rings += [inst["ring_r"], inst["ring_s"]]
    rings += [monomial_ring(make_group(moduli), n, [[1] * len(moduli)],
                            [(k,)])
              for n, k in ((4, 3), (9, 2)) for moduli in ([], [0], [2])]
    rings += [group_ring(n, m) for n, m in ((2, 2), (3, 2), (2, 3))]
    rings += [monomial_ring(G0, 6, [()], [(2,)]),
              monomial_ring(Z, 12, [(1,)], [(2,)]), F2, SPLIT_UNITS]
    return rings


NAKAYAMA_RINGS = _nakayama_rings()

# the reference search gives up after this many Hom elements per
# candidate; the few modules it cannot decide within it are skipped
REFERENCE_BUDGET = 2000


def _assert_matches_reference(module):
    try:
        ref = reference_is_free(module, REFERENCE_BUDGET)
    except IsoSearchExhausted:
        return False
    assert A.is_free(module) == ref
    ok, v = A.is_projective(module)
    assert ok == reference_is_projective(module)[0]
    # free implies projective; on a *local ring the converse holds too
    assert ok or ref is None
    assert ok == (ref is not None) or not module.ring.is_local
    if ok and v is not None:
        # the section is R-linear, and splits the minimal cover; on a
        # *local ring it is the cover's inverse
        v = GradedMorphism(v.source, v.target, v.maps)
        cover = A._minimal_cover(module)
        assert cover.compose(v) == GradedMorphism.identity(module)
        if module.ring.is_local:
            assert v.compose(cover) == GradedMorphism.identity(cover.source)
    return True


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(NAKAYAMA_RINGS), st.integers(0, 2**32 - 1),
       st.integers(1, 3))
def test_local_freeness_matches_the_search_over_candidates(ring, seed, ops):
    module = corpus.random_module(ring, random.Random(seed), ops)
    _assert_matches_reference(module)


NON_LOCAL_RINGS = NAKAYAMA_RINGS[-4:]


@pytest.mark.parametrize("seed", range(4))
def test_non_local_ring_splits_into_local_factors(seed):
    # every ring that is not *local, whatever the random draws give
    assert [len(r.factors) for r in NON_LOCAL_RINGS] == [2, 2, 2, 2]
    for ring in NON_LOCAL_RINGS:
        for ops in (1, 2, 3):
            module = corpus.random_module(ring, random.Random(seed), ops)
            assert _assert_matches_reference(module)


def test_locality_and_nilpotents():
    zg = monomial_ring(Z, 9, [(1,)], [(2,)])
    assert zg.factors == (((1,), 3),)
    # m = (3, X): 3 in degree 0, all of degree 1
    assert zg.nilpotent_ideals == ({(0,): ((3,),), (1,): ((1,),)},)
    assert group_ring(3, 2).is_local
    assert group_ring(3, 2).nilpotent_ideals == ({(0,): (), (1,): ()},)
    # the Frobenius fixed space of F_2 x F_2 splits it into two fields
    assert F2.factors == (((0, 1), 2), ((1, 0), 2))
    assert F2.nilpotent_ideals == ({D0: ((1, 0),)}, {D0: ((0, 1),)})
    # CRT: 9 = 1 mod 4, 0 mod 3 and 4 = 0 mod 4, 1 mod 3 in (Z/12)[X]/(X^2);
    # J_e holds (1 - e)R: 2 and X for the first factor, 3 and X for the
    # second
    z12 = monomial_ring(Z, 12, [(1,)], [(2,)])
    assert z12.factors == (((9,), 2), ((4,), 3))
    assert z12.nilpotent_ideals == ({(0,): ((2,),), (1,): ((1,),)},
                                    {(0,): ((3,),), (1,): ((1,),)})
    assert not monomial_ring(G0, 6, [()], [(2,)]).is_local


def test_locality_is_judged_on_the_order_of_one():
    # Z/6 modulo 2 is F_2: 1 has order 2, so the ring is *local although
    # its modulus has two prime factors, and is_free counts
    ring = GradedRing(G0, 6, {D0: FpZnModule(6, 1, [(2,)])},
                      {(D0, D0): (((1,),),)}, (1,))
    assert ring.factors == (((1,), 2),)
    r = ring_as_module(ring)
    assert A.is_free(r) == [()] == reference_is_free(r)
    two = A.analyze_module(direct_sum([r, r])[0])
    assert two.witnesses["free_shifts"] == [(), ()]


def test_free_shifts_up_to_unit_degrees():
    # over F_3[Z/2], R(-1) ~ R: the shift found is the least support degree
    ring = group_ring(3, 2)
    r = ring_as_module(ring)
    assert A.is_free(shift(r, (1,))) == [(0,)]
    assert reference_is_free(shift(r, (1,))) == [(0,)]


def test_free_shifts_agree_across_factors():
    # on F_3[Z/2] x F_3, R(-1) has its generator of the first factor in
    # degree 0 (x, a unit) and that of the second in degree 1; the least
    # degree of each factor would give the inconsistent pair 0 and 1, but
    # only the shift 1 works for both
    r = ring_as_module(SPLIT_UNITS)
    module = shift(r, (1,))
    gens = module.minimal_generators
    assert sorted([d for d, _ in g] for g in gens) == [[(0,)], [(1,)]]
    assert A.is_free(module) == [(1,)] == reference_is_free(module)


def test_free_shift_walk_stops_at_an_unmatched_degree():
    # over the Z-graded (Z/6)[X]/(X^2), whose two factors have the unit
    # degrees {0}, the sum of the factors (R/2)(-i) and (R/3)(-i) for
    # i < 30 is free, and with (R/2)(-35) and (R/3)(-39) added it is
    # projective with 31 generators per factor but not free; a walk that
    # went on past an unmatched degree would try 2^30 multisets
    ring = monomial_ring(Z, 6, [(1,)], [(2,)])
    factor = {m: GradedModule(ring, {d: FpZnModule(6, 1, [(m,)])
                                     for d in ring.components}, ring.mult)
              for m in (2, 3)}
    # each factor alone is projective, not free
    for m in (2, 3):
        assert A.is_free(factor[m]) is None
        assert A.is_projective(factor[m])[0]
        assert _assert_matches_reference(factor[m])
    parts = [shift(factor[m], (-i,)) for i in range(30) for m in (2, 3)]
    free = direct_sum(parts)[0]
    assert A.is_free(free) == [(-i,) for i in range(30)]
    module = direct_sum(parts + [shift(factor[2], (-35,)),
                                 shift(factor[3], (-39,))])[0]
    assert A.is_projective(module)[0]
    assert A.is_free(module) is None


@pytest.mark.parametrize("moduli", [[0], [2]])
def test_order_9_to_the_6_modules_are_free_of_rank_3(moduli):
    # the search over candidates gave up on these at its default budget
    ring = monomial_ring(make_group(moduli), 9, [(1,)], [(2,)])
    module = corpus.random_module(ring, random.Random(11))
    assert module.cardinality() == 9 ** 6
    free = A.is_free(module)
    assert free is not None and len(free) == 3
    ok, v = A.is_projective(module)
    assert ok and A.is_iso(v)[0]


def _projection(product, first):
    """The ring morphism product -> first onto the first factor of a
    `product_ring`."""
    maps = {}
    for d, c in product.components.items():
        k = first.component(d).ngens
        maps[d] = [tuple(int(i == j) for j in range(k)) if i < k
                   else (0,) * k for i in range(c.ngens)]
    return GradedRingHom(product, first, maps)


def test_morita_matches_the_reference(instances):
    homs = [inst["h"] for inst in instances.values()]
    for p, e in ((2, 4), (3, 2)):
        homs.append(_frobenius_truncated(p, e, random.Random(0)))
    ring = group_ring(3, 2)
    homs.append(GradedRingHom.identity(ring))
    # rings that are not *local: identities, the quotient
    # (Z/6)[X]/(X^2) ->> Z/6, the diagonal F_2 -> F_2 x F_2 and the
    # projection of SPLIT_UNITS onto F_3[Z/2], which make h_*S projective
    # and coextend(h, R) ~ S on each factor
    z6 = monomial_ring(G0, 6, [()], [(2,)])
    homs += [GradedRingHom.identity(r) for r in (z6, F2, SPLIT_UNITS)]
    homs.append(GradedRingHom(z6, monomial_ring(G0, 6, [], []),
                              {D0: ((1,), (0,))}))
    homs.append(GradedRingHom(_ungraded_ring(2), F2, {D0: ((1, 1),)}))
    homs.append(_projection(SPLIT_UNITS, group_ring(3, 2)))
    verdicts = []
    for h in homs:
        verdicts.append(A.morita_check(h))
        assert verdicts[-1] == reference_morita_check(h), h
    assert verdicts[-3:] == [False, True, True]
