"""Workspace text format: round trips, parse errors, validation axioms."""

import pytest

from gradedmod import corpus, textio
from gradedmod.functors import restrict
from gradedmod.graded import GradedMorphism, ring_as_module


def _workspace_for(inst):
    ws = textio.Workspace()
    ws.n = inst["ring_r"].n
    grp = inst["ring_r"].group
    tgt = inst["psi"].target
    ws.groups["G"] = grp
    if tgt == grp:
        ws.meta["psi"] = ("G", "G")
    else:
        ws.groups["H"] = tgt
        ws.meta["psi"] = ("G", "H")
    ws.epis["psi"] = inst["psi"]
    ws.rings["R"] = inst["ring_r"]
    ws.meta["R"] = ("G",)
    ws.rings["S"] = inst["ring_s"]
    ws.meta["S"] = ("G",)
    ws.ringhoms["h"] = inst["h"]
    ws.meta["h"] = ("R", "S")
    ws.modules["M"] = ring_as_module(inst["ring_r"])
    ws.meta["M"] = ("R",)
    ws.modules["N"] = restrict(inst["h"], ring_as_module(inst["ring_s"]))
    ws.meta["N"] = ("R",)
    ws.morphisms["u"] = GradedMorphism(ws.modules["M"], ws.modules["N"],
                                       dict(inst["h"].maps))
    ws.meta["u"] = ("M", "N")
    return ws


def test_round_trip_all_corpus_instances(instances):
    for name, inst in instances.items():
        ws = _workspace_for(inst)
        text = textio.serialize_workspace(ws)
        ws2 = textio.parse_workspace(text)
        assert ws2 == ws, f"round trip failed for {name}"
        assert textio.serialize_workspace(ws2) == text, \
            f"serialize not idempotent for {name}"


def test_parse_error_line_and_col():
    with pytest.raises(textio.ParseError) as exc:
        textio.parse_workspace("modulus 4\nbogus 1 2\n")
    assert exc.value.line == 2
    assert "bogus" in str(exc.value)

    with pytest.raises(textio.ParseError) as exc:
        textio.parse_workspace("modulus x\n")
    assert exc.value.line == 1 and exc.value.col == 2


def test_validation_error_unit_preservation():
    bad = """modulus 4
group G moduli
ring R G
  component 1
  one 1
  mult 0 0 1
end
ringhom h R R
  map 0 2
end
"""
    with pytest.raises(textio.ValidationError) as exc:
        textio.parse_workspace(bad)
    assert exc.value.axiom == "unit-preservation"


def test_validation_error_ring_axiom():
    # 1 * e1 = 0 because the only declared products miss the unit column
    bad = """modulus 4
group G moduli
ring R G
  component 2
  rel 2 0
  one 1 0
  mult 0 0 1 0
  mult 0 1 0 1
end
"""
    with pytest.raises(textio.ValidationError) as exc:
        textio.parse_workspace(bad)
    assert exc.value.axiom in ("unitality", "commutativity", "associativity")


def test_single_modulus_per_workspace():
    with pytest.raises(textio.ValidationError) as exc:
        textio.parse_workspace("modulus 4\nmodulus 2\n")
    assert exc.value.axiom == "modulus"

    # merging two files with conflicting moduli fails the same way
    ws = textio.parse_workspace("modulus 4\n")
    with pytest.raises(textio.ValidationError) as exc:
        textio.parse_workspace("modulus 2\n", workspace=ws)
    assert exc.value.axiom == "modulus"


def test_merge_across_files():
    first = """modulus 4
group G moduli
ring R G
  component 1
  one 1
  mult 0 0 1
end
"""
    second = """modulus 4
module M R
  component 2
  rel 2 0
  act 0 0 1 0
  act 0 1 0 1
end
"""
    ws = textio.parse_workspace(first)
    ws = textio.parse_workspace(second, workspace=ws)
    assert "R" in ws.rings and "M" in ws.modules
    assert ws.modules["M"].component(()).ngens == 2


# ---------------------------------------------------------------------------
# errors on the integer lines of a section, by column: a bad token names its
# own column, and a short line names the column where the missing part
# would start

# degrees of G = Z x Z/2 take two integers; "{line}" is line 7
_SECTION = {
    "ring": """modulus 4
group G moduli 0 2
ring R G
  component 0 0 1
  one 1
  mult 0 0 0 0 0 0 1
  {line}
end
""",
    "module": """modulus 4
group G moduli 0 2
ring R G
  component 0 0 1
  one 1
  mult 0 0 0 0 0 0 1
end
module M R
  component 0 0 1
  {line}
end
""",
    "ringhom": """modulus 4
group G moduli 0 2
ring R G
  component 0 0 1
  one 1
  mult 0 0 0 0 0 0 1
end
ringhom h R R
  {line}
end
""",
}

# keyword -> (section, a well-formed line, degrees on it, the integers
# that must follow them and the error when they are missing)
_INTEGER_LINES = {
    "mult": ("ring", "mult 0 0 0 0 0 0 1", 2, 2, "mult needs indices i j"),
    "act": ("module", "act 0 0 0 0 0 0 1", 2, 2, "act needs indices p j"),
    "component": ("ring", "component 1 0 1", 1, 1,
                  "component needs one generator count"),
    "rel": ("ring", "rel 0 0 2", 1, 0, None),
    "map": ("ringhom", "map 0 0 0 1", 1, 1, "map needs a generator index"),
}


def _line_cases():
    for keyword, (section, good, ndegs, need, after) in \
            _INTEGER_LINES.items():
        tokens = good.split()
        for pos in range(1, len(tokens)):
            bad = tokens[:pos] + ["x"] + tokens[pos + 1:]
            yield (f"{keyword}-bad-{pos}", section, " ".join(bad), pos + 1,
                   "expected an integer, got 'x'")
        for count in range(1, len(tokens)):
            ints = count - 1  # integers left on the short line
            if ints < 2 * ndegs:
                # the column where the short degree starts
                yield (f"{keyword}-short-{count}", section,
                       " ".join(tokens[:count]), 2 + ints // 2 * 2,
                       "degree needs 2 integers")
            elif ints < 2 * ndegs + need:
                yield (f"{keyword}-short-{count}", section,
                       " ".join(tokens[:count]), 2 + 2 * ndegs, after)


_LINE_CASES = list(_line_cases())


@pytest.mark.parametrize("section,line,col,message",
                         [case[1:] for case in _LINE_CASES],
                         ids=[case[0] for case in _LINE_CASES])
def test_integer_line_errors_name_their_column(section, line, col, message):
    text = _SECTION[section].replace("{line}", line)
    lineno = text.splitlines().index("  " + line) + 1
    with pytest.raises(textio.ParseError) as exc:
        textio.parse_workspace(text)
    assert (exc.value.line, exc.value.col) == (lineno, col)
    assert str(exc.value) == f"line {lineno}, column {col}: {message}"


def test_well_formed_integer_lines_parse():
    for keyword, (section, good, *_) in _INTEGER_LINES.items():
        text = _SECTION[section].replace("{line}", good)
        try:
            textio.parse_workspace(text)
        except textio.ParseError as exc:
            raise AssertionError(f"{keyword}: {exc}")
        except textio.ValidationError:
            pass  # parsed; the axioms are another matter
