"""Shipped scenario files and the check DSL."""

import pytest

from gradedmod import scenarios
from gradedmod.textio import parse_workspace

EXPECTED = ["c150-frobenius", "d25E", "d40C", "d70-battery-epi",
            "d70-battery-nonepi", "d80-coarsen"]


def test_available_scenarios():
    names = sorted(scenarios.available_scenarios())
    assert names == EXPECTED


@pytest.mark.parametrize("name", EXPECTED)
def test_shipped_scenarios_pass(name):
    report = scenarios.run_scenario(name)
    assert report.checks, f"scenario {name} has no checks"
    for check in report.checks:
        assert check.ok, f"{name} line {check.line}: expected " \
            f"{check.expected}, got {check.actual}"
    assert report.ok


def test_unknown_scenario():
    with pytest.raises(scenarios.ScenarioError):
        scenarios.load_scenario("no-such-scenario")


def test_check_dsl_reports_failures():
    text = """modulus 4
group G moduli
ring R G
  component 1
  one 1
  mult 0 0 1
end
ringhom h R R
  map 0 1
end
check ringepi h false
"""
    ws = parse_workspace(text)
    report = scenarios.run_checks(ws)
    assert len(report) == 1
    assert not report[0].ok
    assert report[0].expected == "false" and report[0].actual == "true"


def test_check_tags_are_kept():
    text = """modulus 4
group G moduli
ring R G
  component 1
  one 1
  mult 0 0 1
end
ringhom h R R
  map 0 1
end
check ringepi h true tag:stated
"""
    ws = parse_workspace(text)
    report = scenarios.run_checks(ws)
    assert report[0].ok and report[0].tag == "stated"


@pytest.mark.parametrize("check, message", [
    ("check canon nosuch h is_iso true", "unknown canonical map 'nosuch'"),
    ("check canon rho h M is_iso true", "unknown module 'M'"),
    ("check canon rho h h is_iso true", "'h' is not a module"),
])
def test_canon_check_errors_name_their_line(check, message):
    text = """modulus 4
group G moduli
ring R G
  component 1
  one 1
  mult 0 0 1
end
ringhom h R R
  map 0 1
end
""" + check + "\n"
    with pytest.raises(scenarios.ScenarioError,
                       match=f"^line 11: {message}$"):
        scenarios.run_checks(parse_workspace(text))


def test_analysis_errors_name_their_line():
    # the battery rejects a family without S; the scenario names the line
    text = """modulus 4
group G moduli
ring R G
  component 1
  one 1
  mult 0 0 1
end
ringhom h R R
  map 0 1
end
check battery h true
"""
    with pytest.raises(scenarios.ScenarioError,
                       match="^line 11: battery family must contain S and "
                             "all its support shifts$"):
        scenarios.run_checks(parse_workspace(text))
