"""Command-line interface: determinism, exit codes, formats."""

import argparse
import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedmod import cli, corpus, scenarios
from gradedmod.textio import (ParseError, ValidationError, parse_workspace,
                              serialize_workspace)
from util import reference_is_free, reference_is_projective

WORKSPACE = """modulus 4
group G moduli
ring R G
  component 1
  one 1
  mult 0 0 1
end
ring S G
  component 1
  rel 2
  one 1
  mult 0 0 1
end
ringhom h R S
  map 0 1
end
module M R
  component 1
  act 0 0 1
end
check ringepi h true
"""

FAILING = WORKSPACE.replace("check ringepi h true", "check ringepi h false")


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


@pytest.fixture()
def ws_file(tmp_path):
    p = tmp_path / "ws.txt"
    p.write_text(WORKSPACE)
    return str(p)


def test_validate_ok(capsys, ws_file):
    code, out = _run(capsys, ["--input", ws_file, "validate"])
    assert code == 0
    assert "ok" in out or "valid" in out


def test_deterministic_output(capsys, ws_file):
    for cmd in (["--input", ws_file, "epitest", "--h", "h"],
                ["--input", ws_file, "tensor", "M", "M", "--format", "json"],
                ["epitest", "--h", "z4_to_z2"],
                ["canon", "sigma", "frobenius", "frobenius.SS",
                 "--format", "json"],
                ["scenario", "run", "d40C"]):
        _, first = _run(capsys, list(cmd))
        _, second = _run(capsys, list(cmd))
        assert first == second, f"non-deterministic output for {cmd}"


def test_json_format_version(capsys, ws_file):
    code, out = _run(capsys, ["--input", ws_file, "analyze", "M",
                              "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["format_version"] == "4"
    assert payload["command"] == "analyze"


def test_text_and_json_agree_on_flags(capsys):
    _, text_out = _run(capsys, ["epitest", "--h", "z4_to_z2"])
    _, json_out = _run(capsys, ["epitest", "--h", "z4_to_z2",
                                "--format", "json"])
    assert "ring epimorphism: true" in text_out
    assert json.loads(json_out)["ring epimorphism"] is True


def test_exit_code_assertion_failure(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text(FAILING)
    code, out = _run(capsys, ["--input", str(p), "validate"])
    assert code == 1


def test_exit_code_input_error(capsys, tmp_path):
    p = tmp_path / "broken.txt"
    p.write_text("modulus x\n")
    code, out = _run(capsys, ["--input", str(p), "validate"])
    assert code == 2
    assert "error:" in out

    code, out = _run(capsys, ["analyze", "no_such_name"])
    assert code == 2


def test_global_flags_after_subcommand(capsys, ws_file):
    before, _ = cli.main(["--input", ws_file, "validate"]), None
    after = cli.main(["validate", "--input", ws_file])
    assert before == after == 0


def test_battery_command(capsys):
    code, out = _run(capsys, ["battery", "--h", "z4_to_z2",
                              "--family", "z4_to_z2.SS"])
    assert code == 0
    for verdict in ("i", "ii", "iii", "iv", "v", "vi", "vii"):
        assert f"{verdict}: true" in out


def test_battery_member_over_another_ring_is_an_input_error(capsys):
    # h is no epimorphism, yet the member over zgraded's S is still refused
    code, out = _run(capsys, ["battery", "--h", "frobenius", "--family",
                              "frobenius.SS", "frobenius.SS_1", "zgraded.SS"])
    assert (code, out) == (
        2, "error: restriction expects a module over the target ring\n")


def test_scenario_list(capsys):
    code, out = _run(capsys, ["scenario", "list"])
    assert code == 0
    for name in ("d40C", "d25E", "c150-frobenius", "d70-battery-epi",
                 "d70-battery-nonepi", "d80-coarsen"):
        assert name in out


def test_workspace_round_trip(ws_file):
    ws = parse_workspace(WORKSPACE)
    assert parse_workspace(serialize_workspace(ws)) == ws


def test_change_of_ring_commands(capsys, ws_file):
    for cmd in ("restrict", "extend", "coextend"):
        argv = ["--input", ws_file, cmd, "--h", "h", "M"]
        if cmd == "restrict":
            # restriction goes the other way: S-module along h
            argv = ["restrict", "--h", "z4_to_z2", "z4_to_z2.SS"]
        code, out = _run(capsys, argv)
        assert code == 0, (cmd, out)
        assert "cardinality" in out


RING_ONLY = """modulus 2
group G moduli
ring R G
  component 1
  one 1
  mult 0 0 1
end
"""
EPI_HEAD = "modulus 4\ngroup G moduli 0\ngroup H moduli 0\nepi p G H\n"


@pytest.mark.parametrize("text", [
    RING_ONLY + "derive T tensor R R\n",      # rings where modules belong
    RING_ONLY + "derive T frobnicate R\n",    # unknown derivation
    "modulus 1\ngroup G moduli\n",            # below the range, no component
    "modulus 4294967296\ngroup G moduli\n",   # above 2**31, no component
    RING_ONLY.replace("one 1", "one"),        # a unit too short
    RING_ONLY.replace("one 1", "one 1 0"),    # and too long
    RING_ONLY.replace("component 1", "component -1"),  # a negative count
    # an epi row one coordinate too long, and an epi with no rows
    EPI_HEAD + "  row 1 0\nend\n",
    EPI_HEAD + "end\n",
    # a relation of the wrong length and a group modulus of 1
    RING_ONLY.replace("one 1", "rel 1 0\n  one 1"),
    "modulus 2\ngroup G moduli 1\n",
    # map rows: too long, out of range, negative, at an empty degree
    RING_ONLY + "ringhom h R R\n  map 0 1 1\nend\n",
    RING_ONLY + "module M R\n  component 1\n  act 0 0 1\nend\n"
    "morphism u M M\n  map 5 1\nend\n",
    RING_ONLY + "module M R\n  component 1\n  act 0 0 1\nend\n"
    "morphism u M M\n  map -1 1\nend\n",
    "modulus 2\ngroup G moduli 2\nring R G\n  component 0 1\n  one 1\n"
    "  mult 0 0 0 0 1\nend\nringhom h R R\n  map 1 0 1\nend\n",
])
def test_malformed_workspace_is_an_input_error(capsys, tmp_path, text):
    p = tmp_path / "malformed.txt"
    p.write_text(text)
    code, out = _run(capsys, ["--input", str(p), "validate"])
    assert code == 2
    assert out.startswith("error: ") and out.count("\n") == 1


# a one-ring workspace: h is the identity of R, and G has rank 0
ONE_RING = RING_ONLY + """ringhom h R R
  map 0 1
end
module M R
  component 1
  act 0 0 1
end
"""


# scenario lines with an operand missing, one too many or a malformed
# literal, each appended to ONE_RING as its line 15
@pytest.mark.parametrize("line, message", [
    ("check ringepi h", "usage: check ringepi <ringhom> true|false"),
    ("check morita h", "usage: check morita <ringhom> true|false"),
    ("check battery h", "usage: check battery <ringhom> true|false "
                        "<family module names...>"),
    ("check d80 h", "usage: check d80 <ringhom> <epi> true|false"),
    ("check canon", "usage: check canon <map> <args...> <property> "
                    "<expected>"),
    ("check canon sigma h", "canonical map 'sigma': missing arguments"),
    ("check canon sigma h M is_iso", "usage: check canon <map> <args...> "
                                     "<property> <expected>"),
    ("derive N ringmod", "usage: derive <name> ringmod <ring>"),
    ("derive N tensor M", "usage: derive <name> tensor <module> <module>"),
    ("derive N shift M x", "expected an integer, got 'x'"),
    ("derive N shift M 1 2", "shift of 'M' needs 0 degree integers, got 2"),
    ("check ringepi h true extra",
     "usage: check ringepi <ringhom> true|false"),
    ("check canon sigma h M is_iso true extra",
     "usage: check canon <map> <args...> <property> <expected>"),
    ("derive N ringmod R R", "usage: derive <name> ringmod <ring>"),
    ("check canon sigma h M source_card abc", "expected an integer, "
                                              "got 'abc'"),
    ("check tag:x", "usage: check <kind> <operands...> [tag:<word>]"),
])
def test_malformed_scenario_line_is_an_input_error(capsys, tmp_path, line,
                                                   message):
    p = tmp_path / "malformed.txt"
    p.write_text(ONE_RING + line + "\n")
    code, out = _run(capsys, ["--input", str(p), "validate"])
    assert (code, out) == (2, f"error: line 15: {message}\n")


def test_canon_operand_count_is_checked_before_construction(
        capsys, tmp_path, monkeypatch):
    # one token too many is a usage error, found before theta is built
    def boom(*args):
        raise AssertionError("theta was constructed")
    _, takes_h, nmods = scenarios.CANON_SPECS["theta"]
    monkeypatch.setitem(scenarios.CANON_SPECS, "theta",
                        (boom, takes_h, nmods))
    p = tmp_path / "extra.txt"
    p.write_text(ONE_RING + "check canon theta h M M is_zero false extra\n")
    assert _run(capsys, ["--input", str(p), "validate"]) == (
        2, "error: line 15: usage: check canon <map> <args...> <property> "
           "<expected>\n")
    assert _run(capsys, ["canon", "theta", "zgraded", "zgraded.RR",
                         "zgraded.SS", "extra"]) == (
        2, "error: canonical map 'theta': too many arguments\n")


def _counting(monkeypatch, name):
    """Wrap the constructor of the canonical map `name` so that each call
    is recorded; the list of calls is returned."""
    calls = []
    ctor, takes_h, nmods = scenarios.CANON_SPECS[name]

    def counted(*args):
        calls.append(args)
        return ctor(*args)
    monkeypatch.setitem(scenarios.CANON_SPECS, name,
                        (counted, takes_h, nmods))
    return calls


@pytest.mark.parametrize("scenario, name, lines, builds", [
    ("d25E", "epsilon", 4, 2),
    ("d40C", "theta", 3, 1),
])
def test_check_lines_share_a_canonical_map(capsys, monkeypatch, scenario,
                                           name, lines, builds):
    # one construction per map and operands, however many lines check it
    expected = _run(capsys, ["scenario", "run", scenario])
    calls = _counting(monkeypatch, name)
    assert _run(capsys, ["scenario", "run", scenario]) == expected
    assert expected[1].count(f"check: canon {name} ") == lines
    assert len(calls) == builds


def test_a_shared_map_that_fails_reports_its_first_line(capsys, tmp_path,
                                                        monkeypatch):
    # sigma needs a module over S, and M is over R: the first of the two
    # lines that name sigma h M stops the run with its own error
    p = tmp_path / "shared.txt"
    p.write_text(WORKSPACE + "check canon sigma h M is_zero true\n"
                 "check canon sigma h M is_iso true\n")
    calls = _counting(monkeypatch, "sigma")
    first = len(WORKSPACE.splitlines()) + 1
    assert _run(capsys, ["--input", str(p), "validate"]) == (
        2, f"error: line {first}: sigma: restriction expects a module over "
           "the target ring\n")
    assert len(calls) == 1


# Z/6 presented on two generators a, b with a = b: R itself, presented
# differently, over a ring that is not *local
NON_LOCAL = """modulus 6
group G moduli
ring R G
  component 1
  one 1
  mult 0 0 1
end
module M R
  component 2
  rel 1 5
  act 0 0 1 0
  act 0 1 0 1
end
"""


def test_non_local_workspace_is_decided(capsys, tmp_path):
    # is_free splits M over the factors Z/2 and Z/3 of Z/6 and counts, so
    # the report exits 0 with the verdicts and shifts of the search over
    # candidates
    p = tmp_path / "non_local.txt"
    p.write_text(NON_LOCAL)
    module = parse_workspace(NON_LOCAL).modules["M"]
    shifts = reference_is_free(module)
    code, out = _run(capsys, ["--format", "json", "--input", str(p),
                              "analyze", "M"])
    assert code == 0
    payload = json.loads(out)
    assert payload["format_version"] == "4"
    analysis = payload["analysis"]
    assert analysis["flags"]["is_free"] == (shifts is not None)
    assert analysis["flags"]["is_projective"] == \
        reference_is_projective(module)[0]
    assert analysis["witnesses"]["free_shifts"] == \
        [cli._fmt_deg(g) for g in shifts]


def test_canon_delta_on_zgraded(capsys):
    # delta on the Z-graded truncated ring used to take seconds: the
    # one-sided inverse was solved over an unpruned tensor presentation
    code, out = _run(capsys, ["--format", "json", "canon", "delta",
                              "zgraded", "zgraded.RR", "zgraded.SS"])
    assert code == 0
    payload = json.loads(out)
    assert payload["has_inverse"] is True
    assert payload["analysis"]["flags"] == {
        "is_epi": True, "is_iso": True, "is_mono": True, "is_pure": True,
        "is_retraction": True, "is_section": True}
    assert payload["source"]["cardinality"] == 8


# module arguments of each canonical map on z4_to_z2: .RR is an R-module,
# .SS an S-module; the ring morphism z4_to_z2 goes first where one is taken
CANON_MODULES = {
    "rho": ["RR"], "sigma": ["SS"], "rho_tilde": ["SS"],
    "sigma_tilde": ["RR"], "delta": ["RR", "RR"], "gamma": ["SS", "SS"],
    "epsilon": ["RR", "RR"], "eta": ["SS", "SS"], "theta": ["RR", "RR"],
    "mu": ["SS", "RR"], "pi": ["SS", "RR", "SS"], "nu": ["SS", "RR", "RR"],
    "alpha": ["SS", "SS", "RR"], "tau": ["RR"], "tau3": ["RR", "RR", "RR"],
    "underline": [], "hstar_ring": [],
}


@pytest.mark.parametrize("name", sorted(scenarios.CANON_SPECS))
def test_every_canonical_map_reports(capsys, name):
    _, takes_h, nmods = scenarios.CANON_SPECS[name]
    modules = ["z4_to_z2." + m for m in CANON_MODULES[name]]
    assert len(modules) == nmods
    argv = ["--format", "json", "canon", name] \
        + (["z4_to_z2"] if takes_h else []) + modules
    code, out = _run(capsys, argv)
    assert code == 0, out
    assert json.loads(out)["canonical_map"] == name


# ---------------------------------------------------------------------------
# one environment per command: inputs parsed once, instances on demand


def _no_instances(monkeypatch):
    """Make every built-in instance builder raise."""
    def boom():
        raise AssertionError("a built-in instance was built")
    for name in corpus.INSTANCE_BUILDERS:
        monkeypatch.setitem(corpus.INSTANCE_BUILDERS, name, boom)


def test_validate_parses_each_input_once(capsys, monkeypatch, tmp_path):
    paths = []
    for i, text in enumerate((WORKSPACE, "modulus 4\ngroup H moduli 2\n")):
        p = tmp_path / f"ws{i}.txt"
        p.write_text(text)
        paths.append(str(p))
    calls = []
    parse = cli.parse_workspace

    def counting(text, ws=None):
        calls.append(text)
        return parse(text, ws)

    monkeypatch.setattr(cli, "parse_workspace", counting)
    code, out = _run(capsys, ["--input", paths[0], "--input", paths[1],
                              "validate"])
    assert code == 0, out
    assert len(calls) == 2
    assert "    - H\n" in out and "    - M\n" in out


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["scenario", "run", "d40C"],
    ["scenario", "list"],
    ["--format", "json", "scenario", "run", "d40C"],
])
def test_commands_naming_no_instance_build_none(capsys, monkeypatch, ws_file,
                                                argv):
    for args in (argv, ["--input", ws_file] + argv):
        expected = _run(capsys, args)
        with monkeypatch.context() as m:
            _no_instances(m)
            assert _run(capsys, args) == expected


def test_malformed_input_builds_no_instance(capsys, monkeypatch, tmp_path):
    p = tmp_path / "broken.txt"
    p.write_text("modulus 2\nfrobnicate x\n")
    argv = ["--input", str(p), "analyze", "zgraded.RR"]
    expected = _run(capsys, argv)
    assert expected[0] == 2
    _no_instances(monkeypatch)
    assert _run(capsys, argv) == expected


def test_only_the_named_instance_is_built(capsys, monkeypatch):
    built = []
    for name, build in corpus.INSTANCE_BUILDERS.items():
        monkeypatch.setitem(corpus.INSTANCE_BUILDERS, name,
                            lambda name=name, build=build:
                            built.append(name) or build())
    code, out = _run(capsys, ["analyze", "frobenius.SS_1"])
    assert code == 0, out
    assert built == ["frobenius"]


def test_workspace_names_shadow_built_in_names(capsys, monkeypatch,
                                               tmp_path):
    p = tmp_path / "shadow.txt"
    p.write_text(WORKSPACE + "derive zgraded.RR ringmod S\n")
    argv = ["--input", str(p), "--format", "json", "analyze", "zgraded.RR"]
    code, out = _run(capsys, argv)
    assert code == 0, out
    module = json.loads(out)["module"]
    assert (module["modulus"], module["cardinality"]) == (4, 2)
    # the built-in zgraded.RR is F_2[X]/(X^3): modulus 2, 8 elements
    code, out = _run(capsys, ["--format", "json", "analyze", "zgraded.RR"])
    module = json.loads(out)["module"]
    assert (module["modulus"], module["cardinality"]) == (2, 8)


def test_unknown_instance_member_is_an_input_error(capsys):
    code, out = _run(capsys, ["analyze", "nosuch.RR"])
    assert code == 2
    assert out == "error: unknown module or morphism 'nosuch.RR'\n"


def test_wrong_kind_of_object_is_an_input_error(capsys):
    # every named argument is checked to be of the kind its slot takes
    code, out = _run(capsys, ["restrict", "--h", "d25e", "d25e"])
    assert (code, out) == (2, "error: 'd25e' is not a module\n")
    code, out = _run(capsys, ["battery", "--h", "d25e.RR", "--family",
                              "d25e.SS"])
    assert (code, out) == (2, "error: 'd25e.RR' is not a ring morphism\n")


@pytest.mark.parametrize("argv, message", [
    (["canon", "nosuch", "zgraded"], "unknown canonical map 'nosuch'"),
    (["canon", "delta", "zgraded", "nosuch.RR", "zgraded.SS"],
     "unknown module 'nosuch.RR'"),
    (["canon", "delta", "zgraded", "zgraded", "zgraded.SS"],
     "'zgraded' is not a module"),
    (["canon", "delta", "frobenius", "zgraded.RR", "zgraded.RR"],
     "delta: extension expects a module over the source ring"),
    # pi and epsilon need h onto, and say so, naming the first missed degree
    (["canon", "pi", "frobenius", "frobenius.SS", "frobenius.RR",
      "frobenius.SS"],
     "pi: the formula needs h to be a ring epimorphism (onto), and h "
     "misses degree (1,)"),
    (["canon", "epsilon", "frobenius_ungraded", "frobenius_ungraded.RR",
      "frobenius_ungraded.RR"],
     "epsilon: the formula needs h to be a ring epimorphism (onto), and h "
     "misses degree ()"),
])
def test_canon_errors_name_no_scenario_line(capsys, argv, message):
    # a scenario's canon check reports its line; a command line has none
    assert _run(capsys, argv) == (2, f"error: {message}\n")
    code, out = _run(capsys, ["--format", "json"] + argv)
    assert (code, json.loads(out)["error"]) == (2, message)


def _exits_cleanly(argv):
    """`cli.main(argv)` raises nothing and exits 0, 1 after `status:
    failed`, or 2 with one error line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert out.getvalue().rstrip().endswith("status: failed")
    if code == 2:
        assert out.getvalue().startswith("error: ")
        assert out.getvalue().count("\n") == 1


# tokens for the name-resolution fuzz: built-in names and members, members
# that do not exist, malformed names, and the names WORKSPACE defines
_FUZZ_BASES = sorted(corpus.INSTANCE_BUILDERS) + ["", "nosuch"]
_FUZZ_MEMBERS = ["", ".", ".R", ".S", ".RR", ".SS", ".psi", ".SS_1",
                 ".SS_9", ".SS_", ".nosuch", ".RR.RR"]
_FUZZ_TOKENS = st.one_of(
    st.builds(str.__add__, st.sampled_from(_FUZZ_BASES),
              st.sampled_from(_FUZZ_MEMBERS)),
    st.sampled_from(["z4_to_z2.", ".SS", "d25e.SS_9", "R", "S", "h", "M",
                     "G"]),
)


@pytest.fixture(scope="module")
def ws_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("fuzz") / "ws.txt"
    p.write_text(WORKSPACE)
    return str(p)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["analyze", "restrict", "battery", "canon"]),
       st.one_of(st.sampled_from(sorted(scenarios.CANON_SPECS)),
                 _FUZZ_TOKENS),
       st.lists(_FUZZ_TOKENS, min_size=1, max_size=3),
       st.booleans())
def test_name_resolution_never_crashes(ws_path, cmd, canon_name, tokens,
                                       with_input):
    if cmd == "analyze":
        argv = ["analyze", tokens[0]]
    elif cmd == "restrict":
        argv = ["restrict", "--h", tokens[0], tokens[-1]]
    elif cmd == "battery":
        argv = ["battery", "--h", tokens[0], "--family"] + tokens[1:] \
            + tokens[:1]
    else:
        argv = ["canon", canon_name] + tokens
    if with_input:
        argv = ["--input", ws_path] + argv
    _exits_cleanly(argv)


# a small valid workspace for the scenario-line fuzz: R = F_2[X]/(X^2)
# graded by Z/2 with deg X = 1, its identity h, an epimorphism p onto the
# trivial group and the R-module M = F_2 in degree 0
FUZZ_WORKSPACE = """modulus 2
group G moduli 2
group G0 moduli
epi p G G0
  row
end
ring R G
  component 0 1
  component 1 1
  one 1
  mult 0 0 0 0 1
  mult 0 1 0 0 1
  mult 1 0 0 0 1
end
ringhom h R R
  map 0 0 1
  map 1 0 1
end
module M R
  component 0 1
  act 0 0 0 0 1
end
check ringepi h true
"""

# well-formed derive and check lines over FUZZ_WORKSPACE, then tokens to
# drop, insert or replace: keywords, the names it defines, unknown names,
# integers, true/false and a tag
_LINE_TEMPLATES = [
    "derive D0 ringmod R", "derive D0 restrict h M", "derive D0 extend h M",
    "derive D0 coextend h M", "derive D0 tensor M M", "derive D0 hom M M",
    "derive D0 shift M 1", "derive D0 coarsen M p", "check ringepi h true",
    "check morita h false", "check battery h true M", "check d80 h p true",
    "check canon rho h M is_iso true", "check canon tau M source_card 2"]
_LINE_TOKENS = st.sampled_from(
    ["derive", "check", "ringmod", "shift", "coarsen", "battery", "canon",
     "sigma", "is_mono", "target_card", "R", "h", "M", "G", "p", "D0",
     "nosuch", "-1", "0", "2", "x", "true", "false", "tag:x"])
_EDITS = st.lists(st.tuples(st.sampled_from(["drop", "insert", "replace"]),
                            st.integers(1, 6), _LINE_TOKENS), max_size=2)


def _edited(template, edits):
    tokens = template.split()
    for op, pos, token in edits:
        pos = min(pos, len(tokens) - 1)
        if op == "insert":
            tokens.insert(pos + 1, token)
        elif op == "drop" and len(tokens) > 1:
            del tokens[pos]
        elif op == "replace":
            tokens[pos] = token
    return " ".join(tokens)


_SCENARIO_LINES = st.builds(_edited, st.sampled_from(_LINE_TEMPLATES), _EDITS)
_SCENARIOS = st.lists(_SCENARIO_LINES, min_size=1, max_size=3).map(
    lambda lines: [line.replace("D0", f"D{i}", 1)
                   for i, line in enumerate(lines)])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("lines")


@settings(max_examples=100, deadline=None)
@given(_SCENARIOS)
def test_scenario_lines_never_crash(fuzz_dir, lines):
    p = fuzz_dir / "ws.txt"
    p.write_text(FUZZ_WORKSPACE + "\n".join(lines) + "\n")
    _exits_cleanly(["--input", str(p), "validate"])


# whole shipped scenario files, mutated line by line: dropped, duplicated
# and swapped lines, and tokens replaced by keywords, names, integers and
# junk
_SHIPPED = scenarios.available_scenarios()
_FILE_TOKENS = st.sampled_from(
    ["0", "1", "-1", "2", "3", "x", "1.5", "end", "ring", "module",
     "component", "rel", "one", "mult", "act", "map", "row", "derive",
     "check", "R", "S", "M", "h", "G", "nosuch", "#"])
_FILE_EDITS = st.lists(
    st.tuples(st.sampled_from(["drop", "duplicate", "swap", "replace"]),
              st.integers(0, 999), st.integers(0, 999), _FILE_TOKENS),
    min_size=1, max_size=4)


def _mutated(text, edits):
    lines = text.splitlines()
    for op, a, b, token in edits:
        if not lines:
            break
        i, j = a % len(lines), b % len(lines)
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif lines[i].split():
            tokens = lines[i].split()
            tokens[b % len(tokens)] = token
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_SHIPPED)), _FILE_EDITS)
def test_mutated_scenario_files_never_crash(fuzz_dir, name, edits):
    p = fuzz_dir / "mutated.scn"
    p.write_text(_mutated(_SHIPPED[name], edits))
    _exits_cleanly(["--input", str(p), "validate"])


# raw token streams: sections whose lines carry small integers, names and
# junk, after directive lines of such tokens.  Integers stay in [-2, 4]: a
# component declared with thousands of generators runs its associativity
# loop for minutes, as no work budget bounds it yet.
_STREAM_INTS = st.integers(-2, 4).map(str)
_STREAM_TOKENS = st.one_of(_STREAM_INTS, st.sampled_from(
    ["moduli", "G", "R", "M", "h", "ringmod", "true", "x", "1.5", "#", "end"]))
# header -> the keywords of its lines; "" stands for directive lines, and
# each section defines its name before a later one refers to it
_STREAM_SECTIONS = {
    "": ["modulus", "group", "derive", "check", "end", "nosuch", "mult"],
    "epi p G G": ["row"], "ring R G": ["component", "rel", "one", "mult"],
    "ring S G": ["component", "one", "mult"],
    "module M R": ["component", "rel", "act"], "ringhom h R S": ["map"],
    "morphism u M M": ["map"]}
# keyword -> (degrees on its line, integers after them): integer lines of
# about this length get past the parser to the checks behind it
_STREAM_SHAPES = {"component": (1, 1), "rel": (1, 1), "one": (0, 1),
                  "mult": (2, 3), "act": (2, 3), "map": (1, 2), "row": (1, 0)}


@st.composite
def _streams(draw):
    head, k = draw(st.sampled_from([
        ("", 0), ("modulus 4\ngroup G moduli\n", 0),
        ("modulus 6\ngroup G moduli 0\n", 1),
        ("modulus 2\ngroup G moduli 2\n", 1)]))
    headers = draw(st.lists(st.sampled_from(list(_STREAM_SECTIONS)),
                            max_size=4)) + ["ring R G"] * draw(st.booleans())
    lines = []
    for header in sorted(headers, key=list(_STREAM_SECTIONS).index):
        lines += [header] if header else []
        for _ in range(draw(st.integers(0, 6 if header else 1))):
            keyword = draw(st.sampled_from(_STREAM_SECTIONS[header]))
            shape = _STREAM_SHAPES.get(keyword)
            if shape and draw(st.integers(0, 3)):
                size = max(0, shape[0] * k + shape[1]
                           + draw(st.sampled_from([0, 0, -1, 1])))
                tokens = draw(st.lists(_STREAM_INTS, min_size=size,
                                       max_size=size))
            else:
                tokens = draw(st.lists(_STREAM_TOKENS, max_size=8))
            lines.append(" ".join([keyword] + tokens))
        lines += ["end"] if header and draw(st.integers(0, 9)) else []
    return head + "".join(line + "\n" for line in lines)


@settings(max_examples=200, deadline=None)
@given(_streams())
def test_token_streams_never_crash(fuzz_dir, text):
    try:
        parse_workspace(text)
    except (ParseError, ValidationError):
        pass
    p = fuzz_dir / "stream.txt"
    p.write_text(text)
    _exits_cleanly(["--input", str(p), "validate"])


# ---------------------------------------------------------------------------
# argument parsing: one subparser per call, read as the full parser reads


# the argv shapes of the CLI calls in the tests, the CI workflow and the
# README, then help, error and abbreviation cases
PARSER_ARGVS = [
    ["--input", "ws.txt", "validate"],
    ["--input", "ws.txt", "--input", "ws2.txt", "validate"],
    ["validate", "--input", "ws.txt"],
    ["validate"],
    ["--input", "ws.txt", "epitest", "--h", "h"],
    ["epitest", "--h", "z4_to_z2", "--format", "json"],
    ["--input", "ws.txt", "tensor", "M", "M", "--format", "json"],
    ["tensor", "d25e.SS", "d25e.SS"],
    ["--input", "ws.txt", "hom", "M", "N"],
    ["--input", "ws.txt", "coarsen", "M", "--psi", "p"],
    ["restrict", "--h", "z4_to_z2", "z4_to_z2.SS"],
    ["--input", "ws.txt", "extend", "--h", "h", "M"],
    ["--format", "json", "coextend", "--h", "frobenius_ungraded",
     "frobenius_ungraded.RR"],
    ["canon", "sigma", "frobenius", "frobenius.SS", "--format", "json"],
    ["--format", "json", "canon", "delta", "zgraded", "zgraded.RR",
     "zgraded.SS"],
    ["canon", "underline", "z4_to_z2"],
    ["canon", "nosuch", "zgraded"],
    ["--format", "json", "--input", "ws.txt", "analyze", "M"],
    ["--input", "ws.txt", "--format", "json", "analyze", "zgraded.RR"],
    ["analyze", "nosuch.RR"],
    ["battery", "--h", "zgraded", "--family", "zgraded.SS", "zgraded.SS_1",
     "zgraded.SS_2"],
    ["scenario", "list"],
    ["scenario", "run", "d40C"],
    ["--format", "json", "scenario", "run", "d40C"],
    # help before and after the command, and the abbreviation --h
    ["-h"], ["--help"], ["--h"], ["--input", "ws.txt", "-h", "validate"],
    ["validate", "-h"], ["validate", "--h"], ["restrict", "--h"],
    ["scenario", "-h"], ["scenario", "run", "-h"],
    # no command, an unknown one, or a flag's value where one should be
    [], ["nosuch"], ["nosuch", "validate"], ["--input", "ws.txt"],
    ["--format", "validate"], ["--input"], ["-", "validate"],
    ["--", "validate"], ["--input", "--", "validate"], ["scenario"],
    ["scenario", "nosuch"],
    # bad global values, before and after the command
    ["--seed", "x", "validate"], ["--format", "xml", "validate"],
    ["validate", "--seed", "x"], ["validate", "--format", "xml"],
    ["--seed", "-5", "validate"], ["--seed", "7", "validate"],
    # missing and extra arguments
    ["tensor", "zgraded.SS"], ["coarsen", "M"], ["battery", "--h", "h"],
    ["scenario", "run"], ["validate", "extra"],
    ["analyze", "a", "b"], ["scenario", "list", "x"],
    ["validate", "--bogus"],
    # flags the scan does not read: abbreviations and --flag=value
    ["--form", "json", "validate"], ["--input=ws.txt", "validate"],
    ["--inp", "ws.txt", "--se", "3", "analyze", "M"],
    # global flags after the command
    ["analyze", "M", "--input", "ws.txt", "--seed", "3", "--format", "json"],
]


def _parse_outcome(parse, argv, capsys):
    try:
        result = parse(list(argv))
    except SystemExit as exc:
        result = exc.code
    return result, capsys.readouterr()


@pytest.mark.parametrize("argv", PARSER_ARGVS)
def test_parse_args_reads_argv_as_the_full_parser(capsys, argv):
    # the parsers are built once per process, so each argv is parsed twice
    # in a row by the same cached parsers, with the same outcome
    expected = _parse_outcome(lambda a: cli.build_parser().parse_args(a),
                              argv, capsys)
    for _ in range(2):
        assert _parse_outcome(cli.parse_args, argv, capsys) == expected
    assert _parse_outcome(lambda a: cli.build_parser().parse_args(a),
                          argv, capsys) == expected


def test_a_command_builds_only_its_own_subparser(capsys, monkeypatch,
                                                 ws_file):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    cli.build_parser.cache_clear()
    for expected in (["validate"], []):
        built.clear()
        code, _ = _run(capsys, ["--input", ws_file, "validate"])
        assert code == 0
        assert built == expected
