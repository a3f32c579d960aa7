"""Command-line interface: determinism, exit codes, formats."""

import json

import pytest

from gradedmod import analyze, cli, scenarios
from gradedmod.textio import parse_workspace, serialize_workspace

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
    assert payload["format_version"] == "2"
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


@pytest.mark.parametrize("text", [
    RING_ONLY + "derive T tensor R R\n",      # rings where modules belong
    RING_ONLY + "derive T frobnicate R\n",    # unknown derivation
    "modulus 1\ngroup G moduli\n",            # below the range, no component
    "modulus 4294967296\ngroup G moduli\n",   # above 2**31, no component
])
def test_malformed_workspace_is_an_input_error(capsys, tmp_path, text):
    p = tmp_path / "malformed.txt"
    p.write_text(text)
    code, out = _run(capsys, ["--input", str(p), "validate"])
    assert code == 2
    assert out.startswith("error: ") and out.count("\n") == 1


def test_exhausted_search_is_undecided_not_an_input_error(capsys,
                                                          monkeypatch):
    # with a budget of one Hom element, is_free on the coextension (which
    # is S, presented differently) cannot decide: the first element of
    # Hom(S, coextend(h, R))_0 is the zero map
    search = analyze.iso_search
    monkeypatch.setattr(analyze, "iso_search",
                        lambda m, n, budget=None: search(m, n, 1))
    argv = ["coextend", "--h", "frobenius_ungraded", "frobenius_ungraded.RR"]
    code, out = _run(capsys, argv)
    assert code == 3
    assert out.startswith("error: undecided within budget 1")
    assert out.count("\n") == 1
    code, out = _run(capsys, argv + ["--format", "json"])
    assert code == 3
    payload = json.loads(out)
    assert payload["format_version"] == "2"
    assert payload["error"].startswith("undecided within budget 1")
    assert set(payload) == {"format_version", "error"}


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
