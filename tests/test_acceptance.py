"""Acceptance battery: ten end-to-end criteria, one verdict line each.

Each test prints a single "criterion N PASS/FAIL" line (visible with
pytest -s or in captured output) and asserts every fact it reports.
"""

import functools
import itertools
import json
import random

import pytest

from gradedmod import analyze as A
from gradedmod import canonical as C
from gradedmod import cli, corpus, scenarios
from gradedmod.abelian import make_epi, make_group
from gradedmod.functors import (coextend, extend, h_plus, h_sharp,
                                hom_graded, restrict)
from gradedmod.graded import (GradedMorphism, GradedRingHom, graded_kernel,
                              ring_as_module, shift)
from gradedmod.znlinalg import howell, row_kernel, solve_row, vec_mat

import test_functors
import test_squares
from util import inverse_of, is_component_epi, is_component_iso, \
    is_component_mono, iso_search

ALL = ["z4_to_z2", "frobenius", "frobenius_ungraded", "d25e", "d25e_z3",
       "zgraded"]


def verdict(n, summary):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {n} FAIL: {summary}")
                raise
            print(f"criterion {n} PASS: {summary}")
        return wrapper
    return deco


@verdict(1, "theta vanishes between two-element modules (d40C scenario)")
def test_criterion_1_theta_counterexample(instances):
    assert scenarios.run_scenario("d40C").ok
    inst = instances["z4_to_z2"]
    h = inst["h"]
    mh = restrict(h, ring_as_module(inst["ring_s"]))
    th = C.theta(h, mh, ring_as_module(inst["ring_r"]))
    assert th.morphism.is_zero
    assert th.morphism.source.cardinality() == 2
    assert th.morphism.target.cardinality() == 2


@verdict(2, "epsilon fails to be mono, ungraded and Z/3-graded (d25E)")
def test_criterion_2_epsilon_not_mono(instances):
    assert scenarios.run_scenario("d25E").ok
    for name in ("d25e", "d25e_z3"):
        inst = instances[name]
        h = inst["h"]
        ep = C.epsilon(h, ring_as_module(inst["ring_r"]),
                       restrict(h, ring_as_module(inst["ring_s"])))
        ker, _ = graded_kernel(ep.morphism)
        assert not ker.is_zero
        assert ep.morphism.source.cardinality() == 4
    # epsilon's coarsening square commutes on the same instance
    test_squares.test_d25b_epsilon_square(
        test_squares.make_setup("d25e", instances))


@verdict(3, "seven-statement battery uniform on both epi test instances")
def test_criterion_3_battery(instances):
    quot = instances["z4_to_z2"]
    s_mod = ring_as_module(quot["ring_s"])
    rep = A.d70_battery(quot["h"], [s_mod])
    assert rep.decisive and all(rep.verdicts.values())
    assert sorted(rep.verdicts) == ["i", "ii", "iii", "iv", "v", "vi", "vii"]

    frob = instances["frobenius"]
    sf = ring_as_module(frob["ring_s"])
    rep = A.d70_battery(frob["h"], [sf, shift(sf, (1,))])
    assert not rep.decisive and not any(rep.verdicts.values())

    assert scenarios.run_scenario("d70-battery-epi").ok
    assert scenarios.run_scenario("d70-battery-nonepi").ok


@verdict(4, "ring-epimorphism verdict is coarsening-invariant (d80)")
def test_criterion_4_d80(instances):
    for name in ALL:
        inst = instances[name]
        before, after = A.d80_check(inst["h"], inst["psi"])
        assert before == after
    # including psi: Z ->> 0
    zg = instances["zgraded"]
    assert zg["psi"].target.moduli == ()
    assert A.d80_check(zg["h"], zg["psi"]) == (True, True)
    assert scenarios.run_scenario("d80-coarsen").ok


@verdict(5, "adjunction triangles hold on the corpus and 60 random modules")
def test_criterion_5_adjunction_triangles(instances):
    total = 0
    for name in ALL:
        inst = instances[name]
        h = inst["h"]
        n_s = ring_as_module(inst["ring_s"])
        m_r = ring_as_module(inst["ring_r"])
        test_functors._triangle_restrict_side(h, n_s)
        test_functors._triangle_extend_side(h, m_r)
        test_functors._triangle_coextend_side(h, m_r)
        rng = random.Random(f"acceptance-5-{name}")
        for _ in range(5):
            n_mod = corpus.random_module(inst["ring_s"], rng)
            test_functors._triangle_restrict_side(h, n_mod)
            total += 1
            m_mod = corpus.random_module(inst["ring_r"], rng)
            test_functors._triangle_extend_side(h, m_mod)
            test_functors._triangle_coextend_side(h, m_mod)
            total += 1
    assert total >= 50


@verdict(6, "rho and sigma-tilde trichotomies match the underlying map")
def test_criterion_6_trichotomies(instances):
    cases = [instances["frobenius"]["h"],            # pure, not iso
             instances["z4_to_z2"]["h"],              # epi, not iso
             GradedRingHom.identity(instances["frobenius"]["ring_s"])]
    ul0 = C.underline(cases[0])
    assert A.is_pure(ul0) and not A.is_iso(ul0)[0]
    ul1 = C.underline(cases[1])
    assert A.is_epi(ul1)[0] and not A.is_iso(ul1)[0]
    assert A.is_iso(C.underline(cases[2]))[0]
    for h in cases:
        ul = C.underline(h)
        rho = C.rho(h, ring_as_module(h.source)).morphism
        assert A.is_mono(rho)[0] == A.is_pure(ul)
        assert A.is_epi(rho)[0] == A.is_epi(ul)[0]
        assert A.is_iso(rho)[0] == A.is_iso(ul)[0]
        st = C.sigma_tilde(h, ring_as_module(h.source)).morphism
        assert A.is_mono(st)[0] == A.is_epi(ul)[0]
        assert A.is_epi(st)[0] == A.is_section(ul)[0]
        assert A.is_iso(st)[0] == A.is_iso(ul)[0]


@verdict(7, "Morita verdicts with explicit extension/coextension isos")
def test_criterion_7_morita(instances):
    frob = instances["frobenius_ungraded"]
    h = frob["h"]
    assert A.morita_check(h) is True
    assert A.morita_check(instances["z4_to_z2"]["h"]) is False
    # explicit isomorphism h^*(M) -> h~(M) for the corpus R-modules
    corpus_m = [ring_as_module(frob["ring_r"]),
                restrict(h, ring_as_module(frob["ring_s"]))]
    for m in corpus_m:
        ext = extend(h, m).module
        coe = coextend(h, m).module
        iso = iso_search(ext, coe, 10 ** 6)
        assert iso is not None
        inverse_of(iso)  # verified two-sided inverse
    assert scenarios.run_scenario("c150-frobenius").ok
    # the isomorphisms carrying the extra adjunctions: for projective
    # finite-type h_*(S), mu over Id_R at (h_*(S), M) and nu at (S, R, M)
    # are isomorphisms, on both Frobenius variants
    for name in ("frobenius_ungraded", "frobenius"):
        inst = instances[name]
        hh = inst["h"]
        hs = restrict(hh, ring_as_module(inst["ring_s"]))
        assert A.is_projective(hs)[0]
        m = ring_as_module(inst["ring_r"])
        id_r = GradedRingHom.identity(inst["ring_r"])
        assert is_component_iso(C.mu(id_r, hs, m).morphism)
        assert is_component_iso(
            C.nu(hh, ring_as_module(inst["ring_s"]), m, m).morphism)
        # adjunction consequence: graded hom sets match in cardinality
        n_mod = ring_as_module(inst["ring_s"])
        zero = inst["ring_s"].group.zero()
        lhs = hom_graded(h_plus(hh, n_mod), m).module.component(zero)
        rhs = hom_graded(n_mod, extend(hh, m).module).module.component(zero)
        assert lhs.cardinality() == rhs.cardinality()
        lhs2 = hom_graded(coextend(hh, m).module, n_mod).module.component(zero)
        rhs2 = hom_graded(m, h_sharp(hh, n_mod)).module.component(zero)
        assert lhs2.cardinality() == rhs2.cardinality()


@verdict(8, "canonical map properties and all coarsening squares commute")
def test_criterion_8_canonical_maps_and_squares(instances):
    for name in ALL:
        su = test_squares.make_setup(name, instances)
        dl = C.delta(su.h, su.m_r, su.m_r2)
        assert dl.inverse.compose(dl.morphism) == GradedMorphism.identity(
            dl.morphism.source)
        assert dl.morphism.compose(dl.inverse) == GradedMorphism.identity(
            dl.morphism.target)
        assert is_component_epi(C.gamma(su.h, su.n_s, su.n_s2).morphism)
        assert is_component_mono(C.eta(su.h, su.n_s, su.n_s2).morphism)
        assert is_component_iso(
            C.beta_h(su.psi, su.h, su.n_s, su.m_r2).morphism)
        assert is_component_iso(C.kappa(su.m_r, [su.m_r, su.m_r2]).morphism)
        assert is_component_iso(
            C.lambda_big(su.m_r, [su.m_r, su.m_r2]).morphism)
    # the eight coarsening-compatibility squares, every corpus instance
    for name in ALL:
        su = test_squares.make_setup(name, instances)
        test_squares.test_c10b_sigma_square(su)
        test_squares.test_c10b_rho_square(su)
        test_squares.test_c10c_sigma_tilde_square(su)
        test_squares.test_c10c_rho_tilde_square(su)
        test_squares.test_d10b_delta_square(su)
        test_squares.test_d20b_gamma_square(su)
        test_squares.test_d30b_eta_square(su)
        test_squares.test_d40b_theta_square(su)
        test_squares.test_b60b_nu_square(su)
        test_squares.test_b60c_mu_square(su)
    for name in test_squares.SURJECTIVE:
        su = test_squares.make_setup(name, instances)
        test_squares.test_d25b_epsilon_square(su)
        test_squares.test_b60a_pi_square(su)


@verdict(9, "exact linear algebra over Z/n: canonicity and counting")
def test_criterion_9_linear_algebra():
    for n in (2, 3, 4, 6, 8):
        rng = random.Random(900 + n)
        for r, c in ((2, 3), (3, 2), (3, 3), (4, 4)):
            if n ** r > 1500:
                continue
            mat = tuple(tuple(rng.randrange(n) for _ in range(c))
                        for _ in range(r))
            images = set()
            kernel_count = 0
            for x in itertools.product(range(n), repeat=r):
                b = vec_mat(x, mat, n)
                images.add(b)
                if not any(b):
                    kernel_count += 1
                v = solve_row(mat, (), b, c, n)
                assert v is not None and vec_mat(v, mat, n) == b
            assert kernel_count * len(images) == n ** r
            ker = row_kernel(mat, c, n)
            assert all(not any(vec_mat(x, mat, n)) for x in ker)
            # canonicity under a random span-preserving shuffle + mix
            rows = [list(row) for row in mat]
            rng.shuffle(rows)
            i, j = rng.sample(range(len(rows)), 2)
            f = rng.randrange(n)
            rows[i] = [(a + f * b) % n for a, b in zip(rows[i], rows[j])]
            assert howell(mat, c, n) == howell(rows, c, n)
            # off-image vectors are rejected
            for _ in range(10):
                b = tuple(rng.randrange(n) for _ in range(c))
                v = solve_row(mat, (), b, c, n)
                assert (v is not None) == (b in images)


@verdict(10, "CLI reports are byte-identical across repeated runs")
def test_criterion_10_cli_determinism(capsys, tmp_path):
    ws = tmp_path / "ws.txt"
    ws.write_text("""modulus 4
group G moduli
ring R G
  component 1
  one 1
  mult 0 0 1
end
module M R
  component 1
  act 0 0 1
end
""")
    commands = [
        ["--input", str(ws), "validate"],
        ["--input", str(ws), "tensor", "M", "M", "--format", "json"],
        ["epitest", "--h", "z4_to_z2"],
        ["epitest", "--h", "frobenius", "--format", "json"],
        ["canon", "theta", "z4_to_z2", "z4_to_z2.RR", "z4_to_z2.RR"],
        ["battery", "--h", "z4_to_z2", "--family", "z4_to_z2.SS"],
        ["scenario", "run", "d40C", "--format", "json"],
    ]
    for argv in commands:
        code1 = cli.main(list(argv))
        out1 = capsys.readouterr().out
        code2 = cli.main(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2 and out1
        if "json" in argv:
            assert json.loads(out1)["format_version"] == "4"
