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

# degrees of G = Z x Z/2 take two integers; "{line}" is line 6 of a ring,
# which has a unit and no product (the line may give one), and of a unit
# section, a ring with a product and no unit; an epi G ->> H = Z needs two
# rows of one integer each
_SECTION = {
    "ring": """modulus 4
group G moduli 0 2
ring R G
  component 0 0 1
  one 1
  {line}
end
""",
    "unit": """modulus 4
group G moduli 0 2
ring R G
  component 0 0 1
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
    "morphism": """modulus 4
group G moduli 0 2
ring R G
  component 0 0 1
  one 1
  mult 0 0 0 0 0 0 1
end
module M R
  component 0 0 1
  act 0 0 0 0 0 0 1
end
morphism u M M
  {line}
end
""",
    "epi": """modulus 4
group G moduli 0 2
group H moduli 0
epi p G H
  row 1
  {line}
end
""",
    "group": """modulus 4
  {line}
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


# an entry of a mult or act line names its own line and the column of the
# offending token: an index out of range, too many or too few (the column
# where the missing one would start) coefficients, and an undeclared degree
# ((1, 0) + (-1, 0) is the declared degree 0); then a wrong-length unit,
# epi row, relation and map row, a rejected group modulus, and map entries
# out of range or at a degree without source generators ((0, 2) is (0, 0)),
# a relation at a degree without a component line, and a repeated
# component, unit or entry
_LINE_CASES = list(_line_cases()) + [
    (f"{keyword}-{name}", section, f"{keyword} {ints}", col, message)
    for keyword, section in (("mult", "ring"), ("act", "module"))
    for name, ints, col, message in (
        ("i", "0 0 0 0 1 0 1", 6, "index out of range at (0, 0),(0, 0)"),
        ("negative-i", "0 0 0 0 -1 0 1", 6,
         "index out of range at (0, 0),(0, 0)"),
        ("j", "0 0 0 0 0 1 1", 7, "index out of range at (0, 0),(0, 0)"),
        ("long", "0 0 0 0 0 0 1 1", 9,
         "coefficient count mismatch at (0, 0),(0, 0)"),
        ("short", "0 0 0 0 0 0", 8,
         "coefficient count mismatch at (0, 0),(0, 0)"),
        ("undeclared", "1 0 -1 0 0 0 1", 4,
         "entry at undeclared degree (-1, 0)"))] + [
    ("one-short", "unit", "one", 2, "one: coefficient count 0, expected 1"),
    ("one-long", "unit", "one 1 0", 3, "one: coefficient count 2, expected 1"),
    ("component-negative", "ring", "component 1 0 -1", 4,
     "negative generator count"),
    ("row-short", "epi", "row", 2, "coordinate length mismatch"),
    ("row-long", "epi", "row 0 1", 3, "coordinate length mismatch")] + [
    (f"rel-{name}-{section}", section, f"rel 0 0 {ints}".rstrip(), col,
     "row length mismatch")
    for section in ("ring", "module")
    for name, ints, col in (("long", "2 1", 5), ("short", "", 4))] + [
    (f"moduli-{name}", "group", f"group G moduli {ints}", col,
     "moduli must be 0 or >= 2")
    for name, ints, col in (("one", "1", 4), ("negative", "0 2 -3", 6))] + [
    (f"map-{name}-{section}", section, f"map {ints}", col, message)
    for section in ("ringhom", "morphism")
    for name, ints, col, message in (
        ("i", "0 0 1 1", 4, "index out of range at (0, 0)"),
        ("negative-i", "0 0 -1 1", 4, "index out of range at (0, 0)"),
        ("long", "0 0 0 1 1", 6, "map row at degree (0, 0) has 2 entries, "
                                 "target component has 1 generators"),
        ("undeclared", "1 0 0 1", 2, "entry at undeclared degree (1, 0)"),
        ("canonical", "0 2 1 1", 4, "index out of range at (0, 0)"))] + [
    (f"rel-undeclared-{section}", section, "rel 1 0 1", 2,
     "rel at undeclared degree (1, 0)") for section in ("ring", "module")] + [
    # a repeat, also under another name of its degree ((0, 2) is (0, 0)),
    # names its own line, the last one of the case
    (f"repeat-{name}", section, line, col, message)
    for name, section, line, col, message in (
        ("component-ring", "ring", "component 0 2 3", 2,
         "repeated component at degree (0, 0)"),
        ("component-module", "module", "component 0 0 1", 2,
         "repeated component at degree (0, 0)"),
        ("one", "ring", "one 3", 1, "repeated one line"),
        ("mult", "ring", "mult 0 0 0 0 0 0 1\n  mult 0 2 0 0 0 0 3", 2,
         "repeated mult entry 0 0 at (0, 0),(0, 0)"),
        ("act", "module", "act 0 0 0 0 0 0 1\n  act 0 2 0 0 0 0 3", 2,
         "repeated act entry 0 0 at (0, 0),(0, 0)"),
        ("map-ringhom", "ringhom", "map 0 0 0 1\n  map 0 2 0 0", 2,
         "repeated map entry 0 at degree (0, 0)"),
        ("map-morphism", "morphism", "map 0 0 0 1\n  map 0 0 0 0", 2,
         "repeated map entry 0 at degree (0, 0)"))]


@pytest.mark.parametrize("section,line,col,message",
                         [case[1:] for case in _LINE_CASES],
                         ids=[case[0] for case in _LINE_CASES])
def test_integer_line_errors_name_their_column(section, line, col, message):
    text = _SECTION[section].replace("{line}", line)
    # the last line of the case, found from the end of the text
    lines = text.splitlines()[::-1]
    lineno = len(lines) - lines.index("  " + line.split("\n  ")[-1])
    with pytest.raises(textio.ParseError) as exc:
        textio.parse_workspace(text)
    assert (exc.value.line, exc.value.col) == (lineno, col)
    assert str(exc.value) == f"line {lineno}, column {col}: {message}"


@pytest.mark.parametrize("rows", ["", "  row 0\n  row 0\n"],
                         ids=["one-row", "three-rows"])
def test_epi_row_count_names_the_header_line(rows):
    text = _SECTION["epi"].replace("  {line}\n", rows)
    with pytest.raises(textio.ParseError) as exc:
        textio.parse_workspace(text)
    assert str(exc.value) == ("line 4, column 1: matrix row count must "
                              "match source generator count")
    ws = textio.parse_workspace(_SECTION["epi"].replace("{line}", "row 0"))
    assert ws.epis["p"].matrix == ((1,), (0,))


def test_well_formed_integer_lines_parse():
    for keyword, (section, good, *_) in _INTEGER_LINES.items():
        text = _SECTION[section].replace("{line}", good)
        try:
            textio.parse_workspace(text)
        except textio.ParseError as exc:
            raise AssertionError(f"{keyword}: {exc}")
        except textio.ValidationError:
            pass  # parsed; the axioms are another matter
