"""The benchmark's three workloads: task lists and their independent checks.

Each workload's `build(seed, outdir)` is the set-up: it constructs (and so
validates) the input objects and returns the fixed list of tasks one pass
runs.  A task returns a digest of its outputs and raises `CheckFailed` when
an output disagrees with closed-form mathematics or with a property the
method must have.  No check compares against a stored copy of earlier
output.  A task with `known_fault` set fails today because of the named
fault in gradedmod; it is counted as failed, not as a wrong answer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
from dataclasses import dataclass
from typing import Callable

# Calls go through the module attributes, so that a traced run, which
# replaces those attributes, sees the benchmark's own calls too.
from gradedmod import (analyze, canonical, cli, corpus, functors, graded,
                       scenarios, textio)

from inputs import Grading, Instance, frobenius_instance, quotient_instance


class CheckFailed(Exception):
    """A task's output contradicts what the mathematics says it must be."""


@dataclass
class Task:
    name: str
    run: Callable[[], str]
    known_fault: str = ""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def digest(*objs) -> str:
    """Short stable fingerprint of task outputs, for traced/untraced checks."""
    return hashlib.sha256(repr(objs).encode()).hexdigest()[:16]


def _morphism_key(u: graded.GradedMorphism):
    return (sorted(u.source.components.items()),
            sorted(u.target.components.items()), sorted(u.maps.items()))


# ---------------------------------------------------------------------------
# family: change-of-ring comparison maps on the truncated family

# (grading, n, k, j); sized so one pass takes a few seconds on one core.
# The k=3 ungraded and k=4 Z-graded members carry the presentation blow-up
# (81 and 256 generators for a module of order n^j); the rest cover the
# moduli 2, 3, 4, 6 and the Z/m gradings at sizes that finish in
# milliseconds to a few hundred milliseconds.
FAMILY_LADDER = (
    (Grading("triv"), 2, 2, 1),
    (Grading("triv"), 3, 3, 2),
    (Grading("triv"), 4, 2, 1),
    (Grading("triv"), 6, 2, 1),
    (Grading("Z"), 2, 3, 2),
    (Grading("Z"), 3, 4, 2),
    (Grading("Z"), 4, 3, 1),
    (Grading("Z"), 6, 3, 2),
    (Grading("Z/m", 2), 6, 3, 2),
    (Grading("Z/m", 3), 4, 3, 2),
    (Grading("Z/m", 2), 3, 2, 1),
)


def check_delta(cm, card: int) -> None:
    """delta with its inverse: both composites are identities, and both
    ends have order |S| = n^j."""
    f, g = cm.morphism, cm.inverse
    check(g is not None, "delta came without an inverse")
    check(g.compose(f) == graded.GradedMorphism.identity(f.source),
          "inverse o delta is not the identity")
    check(f.compose(g) == graded.GradedMorphism.identity(f.target),
          "delta o inverse is not the identity")
    for end, mod in (("source", f.source), ("target", f.target)):
        check(mod.cardinality() == card,
              f"delta {end} has order {mod.cardinality()}, expected {card}")


def check_theta(cm, card: int) -> None:
    """theta(h, R, -) is an isomorphism because R is free; both ends are
    isomorphic to S, of order n^j."""
    u = cm.morphism
    for end, mod in (("source", u.source), ("target", u.target)):
        check(mod.cardinality() == card,
              f"theta {end} has order {mod.cardinality()}, expected {card}")
    check(analyze.is_iso(u)[0], "theta(h, R, h_*S) is not an isomorphism")


def _family_tasks(inst: Instance) -> list[Task]:
    h = inst.h
    rr = graded.ring_as_module(inst.ring_r)
    ss = graded.ring_as_module(inst.ring_s)

    def delta():
        cm = canonical.delta(h, rr, functors.restrict(h, ss))
        check_delta(cm, inst.card_s)
        return digest(_morphism_key(cm.morphism), _morphism_key(cm.inverse))

    def theta():
        cm = canonical.theta(h, rr, functors.restrict(h, ss))
        check_theta(cm, inst.card_s)
        return digest(_morphism_key(cm.morphism))

    def epi():
        verdict = analyze.is_ring_epimorphism(h)
        check(verdict, "a surjection of rings was not found to be an epimorphism")
        return str(verdict)

    return [Task(f"{inst.name}:delta", delta), Task(f"{inst.name}:theta", theta),
            Task(f"{inst.name}:epi", epi)]


def build_family(seed: int, outdir: str) -> list[Task]:
    rng = random.Random(seed)
    tasks = []
    for grading, n, k, j in FAMILY_LADDER:
        tasks += _family_tasks(quotient_instance(grading, n, k, j, rng))
    return tasks


# ---------------------------------------------------------------------------
# decide: decision procedures on small rings

# Frobenius extensions F_p -> F_p[t]/(t^e), (grading, p, e).  Each task on
# them takes milliseconds, so each procedure's fixed per-call cost shows.
FROBENIUS_LADDER = (
    (Grading("triv"), 2, 2),
    (Grading("triv"), 2, 3),
    (Grading("triv"), 3, 2),
    (Grading("Z"), 2, 3),
    (Grading("Z"), 3, 3),
    (Grading("Z/m", 2), 2, 2),
    (Grading("Z/m", 2), 2, 3),
    (Grading("Z/m", 3), 3, 3),
)

# Ungraded F_2[t]/(t^4): the exhaustive iso_search in morita_check takes
# seconds here.  How long depends on the order of the generators (1.2 s to
# 3 s over four draws), so this one presentation is drawn from a fixed
# seed; the workload seed would move the pass time by more than any bound.
# Only its Morita check runs: is_free on its coextension repeats the same
# search and would double the pass.
FIXED_SEARCH = (Grading("triv"), 2, 4)
FIXED_SEARCH_SEED = 1

# Small quotient members (grading, n, k, j).
DECIDE_QUOTIENTS = (
    (Grading("triv"), 2, 2, 1),
    (Grading("triv"), 6, 2, 1),
    (Grading("Z"), 2, 3, 2),
    (Grading("Z/m", 2), 4, 2, 1),
)

# Named corpus instances and whether they are ring epimorphisms: the
# surjections and the identity are, the inclusions F_2 -> F_2[t]/(t^2) are
# not.
NAMED_EPI = {"z4_to_z2": True, "frobenius": False,
             "frobenius_ungraded": False, "d25e": True, "d25e_z3": True,
             "zgraded": True}


def shift_family(ring_s):
    """S and its shifts S(-g) for g in the support, as d70 requires."""
    ss = graded.ring_as_module(ring_s)
    grp = ring_s.group
    return [graded.shift(ss, grp.neg(g)) for g in sorted(ring_s.components)]


def check_flags(report, expected: dict, what: str) -> None:
    for flag, value in expected.items():
        check(report.flags[flag] == value,
              f"{what}: {flag} is {report.flags[flag]}, expected {value}")


def check_free(report, shifts, card_ok: bool, what: str) -> None:
    """Free with exactly these shifts (as a multiset), hence projective."""
    check(card_ok, f"{what}: wrong order")
    check(report.flags["is_free"], f"{what}: not found free")
    check(report.flags["is_projective"], f"{what}: not found projective")
    got = sorted(report.witnesses["free_shifts"])
    check(got == sorted(shifts), f"{what}: free shifts {got}, "
                                 f"expected {sorted(shifts)}")


def _battery_task(name, h, ring_s, psi, epi: bool) -> list[Task]:
    def battery():
        rep = analyze.d70_battery(h, shift_family(ring_s))
        check(set(rep.verdicts.values()) == {epi},
              f"battery verdicts {rep.verdicts}, expected all {epi}")
        return digest(sorted(rep.verdicts.items()))

    def d80():
        pair = analyze.d80_check(h, psi)
        check(pair == (epi, epi), f"d80 returned {pair}, expected "
                                  f"({epi}, {epi})")
        return str(pair)

    return [Task(f"{name}:battery", battery), Task(f"{name}:d80", d80)]


def _decide_tasks(inst: Instance) -> list[Task]:
    h, name = inst.h, inst.name
    grp = inst.ring_s.group
    rr = graded.ring_as_module(inst.ring_r)
    ss = graded.ring_as_module(inst.ring_s)
    frob = inst.kind == "frobenius"
    e = inst.j
    # Ungraded F_p[t]/(t^e) is a Frobenius algebra, self-dual with no shift;
    # with a grading the self-duality picks up the shift deg t^(e-1), so
    # Morita holds exactly when that degree is zero.  A proper quotient is
    # never Morita: h_*S is not projective.
    socle = inst.grading.degree(e - 1)
    morita_expected = frob and grp.canon(socle) == grp.zero()

    def morita():
        verdict = analyze.morita_check(h)
        check(verdict == morita_expected,
              f"morita {verdict}, expected {morita_expected}")
        return str(verdict)

    def epi():
        # inclusions with e >= 2 are not epimorphisms, surjections are
        verdict = analyze.is_ring_epimorphism(h)
        check(verdict == (not frob), f"ring epimorphism {verdict}")
        return str(verdict)

    def module_hs():
        hs = functors.restrict(h, ss)
        rep = analyze.analyze_module(hs)
        card_ok = hs.cardinality() == inst.card_s
        if frob:
            # F_p[t]/(t^e) = (+)_i F_p t^i: free with shifts -deg t^i
            shifts = [grp.neg(inst.grading.degree(i)) for i in range(e)]
            check_free(rep, shifts, card_ok, "h_*S")
        else:
            # |S| = n^j with 0 < j < k is not a power of |R| = n^k
            check(card_ok, "h_*S: wrong order")
            check(not rep.flags["is_free"], "h_*S of a proper quotient "
                                            "was found free")
        return digest(sorted(rep.flags.items()),
                      repr(rep.witnesses["free_shifts"]))

    def morphisms():
        # rho: R -> h_*S, x -> 1 (x) x;  sigma: S (x)_R S -> S multiplication
        rho = analyze.analyze_morphism(canonical.rho(h, rr).morphism, "rho")
        sig = analyze.analyze_morphism(canonical.sigma(h, ss).morphism,
                                       "sigma")
        if frob:
            # a field inclusion splits; multiplication splits by s -> s (x) 1
            # but has a kernel, |S (x)_R S| = p^(e^2) > p^e
            check_flags(rho, {"is_mono": True, "is_epi": False,
                              "is_section": True, "is_retraction": False},
                        "rho")
            check_flags(sig, {"is_mono": False, "is_epi": True,
                              "is_section": False, "is_retraction": True},
                        "sigma")
        else:
            # R -> S is onto with kernel X^j R; S is not projective over R,
            # so it does not split.  sigma is an iso for an epimorphism.
            check_flags(rho, {"is_mono": False, "is_epi": True,
                              "is_section": False, "is_retraction": False},
                        "rho")
            check_flags(sig, {"is_iso": True, "is_section": True,
                              "is_retraction": True}, "sigma")
        return digest(sorted(rho.flags.items()), sorted(sig.flags.items()))

    tasks = [Task(f"{name}:morita", morita), Task(f"{name}:epi", epi),
             Task(f"{name}:analyze_hS", module_hs),
             Task(f"{name}:analyze_maps", morphisms)]
    tasks += _battery_task(name, h, inst.ring_s, inst.psi, not frob)
    if frob:
        tasks.append(_coext_task(name, h, inst.ring_r, inst.ring_s,
                                 socle, inst.n ** e))
    return tasks


def _coext_task(name, h, ring_r, ring_s, free_shift, card,
                known_fault="") -> Task:
    """coextend(h, R) = Hom_R(S, R) is free of rank one over S."""

    def coext():
        hr = functors.coextend(h, graded.ring_as_module(ring_r)).module
        rep = analyze.analyze_module(hr)
        check_free(rep, [ring_s.group.canon(free_shift)],
                   hr.cardinality() == card, "coextend(h, R)")
        return digest(sorted(rep.flags.items()),
                      repr(rep.witnesses["free_shifts"]))

    return Task(f"{name}:analyze_coext", coext, known_fault)


def build_decide(seed: int, outdir: str) -> list[Task]:
    rng = random.Random(seed)
    tasks = []
    for grading, p, e in FROBENIUS_LADDER:
        tasks += _decide_tasks(frobenius_instance(grading, p, e, rng))
    fixed = frobenius_instance(*FIXED_SEARCH, random.Random(FIXED_SEARCH_SEED))
    tasks += [t for t in _decide_tasks(fixed) if t.name.endswith(":morita")]
    for grading, n, k, j in DECIDE_QUOTIENTS:
        tasks += _decide_tasks(quotient_instance(grading, n, k, j, rng))
    named = corpus.named_instances()
    for name, epi in NAMED_EPI.items():
        inst = named[name]
        tasks += _battery_task(name, inst["h"], inst["ring_s"], inst["psi"],
                               epi)
    # Hom_R(S, R) = ann_R(X^2) = X R, generated in degree deg X = 1, is
    # S(-1), free of rank one; is_free misses it because the candidate
    # S(-1) keeps S's zero component (X^2, killed by a relation) in its
    # support.
    d25e_z3 = named["d25e_z3"]
    tasks.append(_coext_task(
        "d25e_z3", d25e_z3["h"], d25e_z3["ring_r"], d25e_z3["ring_s"], (-1,),
        4, known_fault="is_free compares supports that include zero "
                       "components"))
    return tasks


# ---------------------------------------------------------------------------
# workspace: text ingest, validation at the trust boundary, and the CLI

# (name, grading, n, k, j): large family rings, declared in text.
WORKSPACE_RINGS = (
    ("z_k16", Grading("Z"), 2, 16, 8),
    ("triv_k8", Grading("triv"), 2, 8, 4),
    ("z4_k12", Grading("Z"), 4, 12, 6),
    ("z6_k6", Grading("Z/m", 3), 6, 6, 3),
)

_MALFORMED_RING = ("modulus 2\ngroup G moduli\nring R G\n  component  1\n"
                   "  one 1\n  mult 0 0 1\nend\n")

# name -> (text, known fault or "").  The expected outcome of every one is
# exit code 2 and a single "error: ..." line, without a traceback.
MALFORMED = {
    "tensor_of_rings": (_MALFORMED_RING + "derive T tensor R R\n",
                        "rings accepted where modules are expected"),
    "modulus_1": ("modulus 1\ngroup G moduli\n",
                  "modulus 1 validates"),
    "modulus_2_32": ("modulus 4294967296\ngroup G moduli\n",
                     "modulus above 2**31 validates"),
    "unknown_directive": ("modulus 2\nfrobnicate x\n", ""),
    "bad_integer": ("modulus 2\ngroup G moduli 3 x\n", ""),
    "unterminated": ("modulus 2\ngroup G moduli\nring R G\n  component  1\n",
                     ""),
    "duplicate_name": ("modulus 2\ngroup G moduli\ngroup G moduli 2\n", ""),
    "not_unital": ("modulus 2\ngroup G moduli\nring R G\n  component  2\n"
                   "  one 1 0\n  mult 0 0 0 1\nend\n", ""),
    "unknown_ring": ("modulus 2\ngroup G moduli\nmodule M R\nend\n", ""),
    "not_commutative": ("modulus 2\ngroup G moduli\nring R G\n"
                        "  component  3\n  one 1 0 0\n  mult 0 0 1 0 0\n"
                        "  mult 0 1 0 1 0\n  mult 0 2 0 0 1\n"
                        "  mult 1 0 0 1 0\n  mult 2 0 0 0 1\n"
                        "  mult 1 2 0 1 0\n  mult 2 1 0 0 1\nend\n", ""),
}


def family_workspace(grading, n, k, j, rng) -> textio.Workspace:
    """A workspace declaring R ->> S of the truncated family, R as a module
    over itself, and derivations of h_*S."""
    inst = quotient_instance(grading, n, k, j, rng)
    ws = textio.Workspace(n=n)
    ws.groups["G"] = inst.ring_r.group
    ws.rings["R"] = inst.ring_r
    ws.rings["S"] = inst.ring_s
    ws.ringhoms["h"] = inst.h
    ws.modules["M"] = graded.ring_as_module(inst.ring_r)
    ws.meta.update({"R": ("G",), "S": ("G",), "h": ("R", "S"), "M": ("R",)})
    ws.derivations += [(0, "SS", ["ringmod", "S"]),
                       (0, "hS", ["restrict", "h", "SS"])]
    return ws


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _first_report(store: dict, key: str, text: str) -> None:
    """Every pass must print byte-identical reports."""
    first = store.setdefault(key, text)
    check(first == text, f"{key}: report differs from the first pass")


def build_workspace(seed: int, outdir: str) -> list[Task]:
    rng = random.Random(seed)
    reports: dict = {}
    tasks = []
    for name, grading, n, k, j in WORKSPACE_RINGS:
        ws = family_workspace(grading, n, k, j, rng)
        text = textio.serialize_workspace(ws)
        path = os.path.join(outdir, f"ws-{name}.txt")
        with open(path, "w") as f:
            f.write(text)

        def roundtrip(ws=ws):
            text = textio.serialize_workspace(ws)
            back = textio.parse_workspace(text)
            check(back == ws, "parse(serialize(w)) != w")
            check(textio.serialize_workspace(back) == text,
                  "serialize(parse(text)) != text")
            return digest(text)

        def validate(path=path, key=name, ws=ws):
            code, report = run_cli(["--input", path, "validate"])
            check(code == 0, f"validate exited {code}")
            check(report.rstrip().endswith("status: ok"),
                  "validate did not report status ok")
            for obj in ("R", "S", "h", "M", "SS", "hS"):
                check(f"    - {obj}\n" in report,
                      f"validate report does not list {obj}")
            _first_report(reports, "validate " + key, report)
            return digest(report)

        tasks += [Task(f"{name}:roundtrip", roundtrip),
                  Task(f"{name}:validate", validate)]

    for name in scenarios.available_scenarios():
        def scenario(name=name):
            code, report = run_cli(["scenario", "run", name])
            check(code == 0, f"scenario {name} exited {code}")
            check("\nstatus: pass\n" in report,
                  f"scenario {name} did not pass")
            check("status: fail" not in report,
                  f"scenario {name} has a failing check")
            _first_report(reports, "scenario " + name, report)
            return digest(report)

        tasks.append(Task(f"scenario:{name}", scenario))

    for name, (text, fault) in MALFORMED.items():
        path = os.path.join(outdir, f"bad-{name}.txt")
        with open(path, "w") as f:
            f.write(text)

        def malformed(path=path, name=name):
            try:
                code, report = run_cli(["--input", path, "validate"])
            except Exception as exc:  # a traceback is the fault being counted
                raise CheckFailed(f"{name}: raised {type(exc).__name__}")
            check(code == 2, f"{name}: exit code {code}, expected 2")
            check(report.startswith("error: ") and report.count("\n") == 1,
                  f"{name}: output is not one 'error:' line")
            return digest(report)

        tasks.append(Task(f"malformed:{name}", malformed, fault))
    return tasks


WORKLOADS = {
    "family": build_family,
    "decide": build_decide,
    "workspace": build_workspace,
}
