"""Tests of the benchmark itself: its checks reject wrong answers, its
inputs present the same modules for every seed, and tracing changes no
task output.

Run from the repository root with `python3 -m pytest perfbench/tests -q`.
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

from gradedmod import (analyze, canonical, functors, graded, scenarios,
                       znlinalg)

import inputs
import run
import tracer
import workloads
from workloads import CheckFailed


def small_quotient(seed=0):
    return inputs.quotient_instance(inputs.Grading("triv"), 2, 2, 1,
                                    random.Random(seed))


def delta_of(inst):
    rr = graded.ring_as_module(inst.ring_r)
    hs = functors.restrict(inst.h, graded.ring_as_module(inst.ring_s))
    return canonical.delta(inst.h, rr, hs)


# -- checks reject wrong answers ---------------------------------------------


def test_delta_check_accepts_the_true_answer():
    inst = small_quotient()
    workloads.check_delta(delta_of(inst), inst.card_s)


def test_delta_check_rejects_a_perturbed_cardinality():
    inst = small_quotient()
    with pytest.raises(CheckFailed, match="order"):
        workloads.check_delta(delta_of(inst), inst.card_s + 1)


def test_delta_check_rejects_a_non_identity_composition():
    inst = small_quotient()
    cm = delta_of(inst)
    zero = graded.GradedMorphism.zero(cm.morphism.target, cm.morphism.source)
    broken = canonical.CanonicalMap(cm.name, cm.morphism, cm.inputs, zero)
    with pytest.raises(CheckFailed, match="identity"):
        workloads.check_delta(broken, inst.card_s)


def test_theta_check_rejects_a_non_isomorphism():
    inst = small_quotient()
    rr = graded.ring_as_module(inst.ring_r)
    hs = functors.restrict(inst.h, graded.ring_as_module(inst.ring_s))
    cm = canonical.theta(inst.h, rr, hs)
    workloads.check_theta(cm, inst.card_s)
    zero = graded.GradedMorphism.zero(cm.morphism.source, cm.morphism.target)
    with pytest.raises(CheckFailed, match="isomorphism"):
        workloads.check_theta(canonical.CanonicalMap("theta", zero),
                              inst.card_s)


def test_free_check_rejects_wrong_shifts():
    inst = inputs.frobenius_instance(inputs.Grading("Z"), 2, 2,
                                     random.Random(0))
    hs = functors.restrict(inst.h, graded.ring_as_module(inst.ring_s))
    rep = analyze.analyze_module(hs)
    workloads.check_free(rep, [(0,), (-1,)], True, "h_*S")
    with pytest.raises(CheckFailed, match="shifts"):
        workloads.check_free(rep, [(0,), (1,)], True, "h_*S")
    with pytest.raises(CheckFailed, match="order"):
        workloads.check_free(rep, [(0,), (-1,)], False, "h_*S")


def test_epi_task_fails_when_the_library_answers_wrong(monkeypatch):
    tasks = {t.name: t for t in workloads.build_family(0, "")}
    monkeypatch.setattr(analyze, "is_ring_epimorphism", lambda h: False)
    with pytest.raises(CheckFailed):
        tasks["trunc-triv-n2-k2-j1:epi"].run()


# -- inputs --------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 4, 6])
def test_change_of_generators_is_invertible(n):
    p, pinv = inputs.random_invertible(4, n, random.Random(n))
    prod = [[sum(p[a][t] * pinv[t][b] for t in range(4)) % n
             for b in range(4)] for a in range(4)]
    assert prod == [[int(a == b) for b in range(4)] for a in range(4)]


@pytest.mark.parametrize("grading", [inputs.Grading("triv"),
                                     inputs.Grading("Z"),
                                     inputs.Grading("Z/m", 2)])
def test_seeds_present_the_same_modules(grading):
    a = inputs.quotient_instance(grading, 6, 3, 2, random.Random(1))
    b = inputs.quotient_instance(grading, 6, 3, 2, random.Random(2))
    for inst in (a, b):
        assert graded.ring_as_module(inst.ring_s).cardinality() == 6 ** 2
        assert graded.ring_as_module(inst.ring_r).cardinality() == 6 ** 3
        assert analyze.is_ring_epimorphism(inst.h)
    assert sorted(a.ring_s.components) == sorted(b.ring_s.components)


# -- tracing -------------------------------------------------------------------


# the small tasks of each workload, to keep the test short
SMALL = {"family": lambda t: "-k2-" in t.name,
         "decide": lambda t: "-e2" in t.name or "-k2-" in t.name,
         "workspace": lambda t: not t.name.startswith(("z_k16", "z4_k12"))}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_and_untraced_runs_give_identical_outputs(workload, tmp_path):
    tasks = [t for t in workloads.WORKLOADS[workload](3, str(tmp_path))
             if SMALL[workload](t)]
    plain = run.Outcomes()
    run.run_pass(tasks, plain)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = run.Outcomes()
        run.run_pass(tasks, traced, tr)
    finally:
        tr.uninstall()
    assert plain.digests == traced.digests
    assert plain.failures == traced.failures
    assert plain.correct and traced.correct
    assert tr.spans and all(s[2] >= 1 for s in tr.spans)


def test_tracer_reaches_names_bound_by_from_import_and_restores_them():
    original = znlinalg.howell
    tr = tracer.Tracer()
    tr.install()
    try:
        assert functors.howell is not original
        assert graded.howell is znlinalg.howell
        assert scenarios.CANON_SPECS["delta"][0] is canonical.delta
        delta_of(small_quotient())
    finally:
        tr.uninstall()
    assert znlinalg.howell is original and functors.howell is original
    assert tr.calls["znlinalg.howell"] > 0
    assert tr.calls["abelian.FgAbelianGroup.canon"] > 0
    table = tr.per_layer(1, 0.0)
    assert set(table) == set(tracer.PER_LAYER)
    assert table["canonical.calls"] == 1
    assert table["functors.out_ngens"] > 0


def test_known_faults_are_the_only_failures_on_malformed_input(tmp_path):
    tasks = [t for t in workloads.build_workspace(0, str(tmp_path))
             if t.name.startswith("malformed:")]
    outcomes = run.Outcomes()
    run.run_pass(tasks, outcomes)
    failed = set(outcomes.failures)
    assert failed == {t.name for t in tasks if t.known_fault}
    assert outcomes.correct


# -- the command ---------------------------------------------------------------


def test_command_prints_the_metrics_of_benchmark_json(capsys):
    root = os.path.dirname(os.path.dirname(os.path.abspath(run.__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in tracer.PER_LAYER.items()}
    run.main(["--workload", "family", "--seed", "1", "--seconds", "0",
              "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.build_family(1, ""))


def test_command_fails_without_the_program(tmp_path):
    bench = os.path.dirname(os.path.abspath(run.__file__))
    shutil.copytree(bench, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "family",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
