"""Line-oriented text format for workspaces.

A workspace fixes one coefficient modulus and holds named groups, group
epimorphisms, rings, ring morphisms, modules and module morphisms.  The
format is strictly line-oriented with whitespace-separated integer tokens;
`#` starts a comment.  Multi-line sections (epi, ring, ringhom, module,
morphism) are closed by `end`.  `derive` lines build objects from functor
applications, and `check` lines carry scenario assertions; both are stored
verbatim and interpreted by the scenario layer.

Syntax summary (degrees are written as one integer per grading-group
generator, so the trivial group contributes no tokens):

    modulus <n>
    group <name> moduli [<m> ...]
    epi <name> <source group> <target group> / row <ints> / end
    ring <name> <group>
        component <deg> <ngens> | rel <deg> <coeffs> | one <coeffs>
        | mult <dg> <dh> <i> <j> <coeffs>
    ringhom <name> <ring> <ring> / map <deg> <i> <coeffs> / end
    module <name> <ring>
        component/rel as for rings | act <dc> <dh> <p> <j> <coeffs>
    morphism <name> <module> <module> / map <deg> <i> <coeffs> / end
    derive <name> <operation> <args...>
    check <tokens...>
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .abelian import FgAbelianGroup, GroupEpi, GroupError
from .graded import (GradedError, GradedModule, GradedMorphism, GradedRing,
                     GradedRingHom)
from .znlinalg import FpZnModule, LinAlgError, _check_modulus


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_AXIOM_KEYWORDS = (
    ("commutativity", "commutativity"),
    ("associativity", "associativity"),
    ("unitality", "unitality"),
    ("unit action", "unit-action"),
    ("unit", "unit-preservation"),
    ("well defined", "well-definedness"),
    ("linear", "linearity"),
    ("support", "support-closure"),
    ("multiplicative", "multiplicativity"),
    ("surjective", "surjectivity"),
    ("modulus", "modulus"),
)


class ValidationError(Exception):
    def __init__(self, message: str, axiom: str | None = None):
        if axiom is None:
            lowered = message.lower()
            axiom = "validation"
            for key, tag in _AXIOM_KEYWORDS:
                if key in lowered:
                    axiom = tag
                    break
        super().__init__(f"[{axiom}] {message}")
        self.axiom = axiom


@dataclass
class Workspace:
    n: int = 0
    groups: dict = field(default_factory=dict)
    epis: dict = field(default_factory=dict)
    rings: dict = field(default_factory=dict)
    ringhoms: dict = field(default_factory=dict)
    modules: dict = field(default_factory=dict)
    morphisms: dict = field(default_factory=dict)
    # names of the parents, for serialization and reporting
    meta: dict = field(default_factory=dict)
    derivations: list = field(default_factory=list)
    checks: list = field(default_factory=list)

    def __eq__(self, other):
        return (isinstance(other, Workspace) and self.n == other.n
                and self.groups == other.groups and self.epis == other.epis
                and self.rings == other.rings
                and self.ringhoms == other.ringhoms
                and self.modules == other.modules
                and self.morphisms == other.morphisms)

    def all_names(self):
        for d in (self.groups, self.epis, self.rings, self.ringhoms,
                  self.modules, self.morphisms):
            yield from d


class _Lines:
    def __init__(self, text: str):
        self.raw = text.splitlines()
        self.pos = 0

    def next_tokens(self):
        while self.pos < len(self.raw):
            lineno = self.pos + 1
            line = self.raw[self.pos]
            self.pos += 1
            body = line.split("#", 1)[0]
            tokens = body.split()
            if tokens:
                return lineno, tokens
        return None, None


def _ints(tokens, lineno, start=0):
    try:
        return list(map(int, tokens[start:]))
    except ValueError:
        pass
    # name the first token that is not an integer, by its column
    for i, t in enumerate(tokens[start:], start):
        try:
            int(t)
        except ValueError:
            raise ParseError(f"expected an integer, got {t!r}", lineno, i + 1)


def _need(tokens, k, lineno, what):
    if len(tokens) < k:
        raise ParseError(f"{what}: expected at least {k} tokens", lineno,
                         len(tokens) + 1)


def parse_workspace(text: str, workspace: Workspace | None = None) -> Workspace:
    ws = workspace or Workspace()
    lines = _Lines(text)
    while True:
        lineno, tokens = lines.next_tokens()
        if tokens is None:
            break
        head = tokens[0]
        if head == "modulus":
            _need(tokens, 2, lineno, "modulus")
            n = _ints(tokens, lineno, 1)[0]
            try:
                _check_modulus(n)
            except LinAlgError as exc:
                raise ValidationError(str(exc), "modulus")
            if ws.n and ws.n != n:
                raise ValidationError(
                    f"workspace modulus {ws.n} conflicts with {n}", "modulus")
            ws.n = n
        elif head == "group":
            _need(tokens, 3, lineno, "group")
            name = tokens[1]
            if tokens[2] != "moduli":
                raise ParseError("expected 'moduli'", lineno, 3)
            _check_fresh(ws, name, lineno)
            moduli = _ints(tokens, lineno, 3)
            for col, m in enumerate(moduli, 4):
                if m < 0 or m == 1:
                    raise ParseError("moduli must be 0 or >= 2", lineno, col)
            ws.groups[name] = FgAbelianGroup(moduli)
        elif head == "epi":
            _parse_epi(ws, tokens, lineno, lines)
        elif head == "ring":
            _parse_ring_like(ws, tokens, lineno, lines, is_module=False)
        elif head == "module":
            _parse_ring_like(ws, tokens, lineno, lines, is_module=True)
        elif head == "ringhom":
            _parse_maps_section(ws, tokens, lineno, lines, kind="ringhom")
        elif head == "morphism":
            _parse_maps_section(ws, tokens, lineno, lines, kind="morphism")
        elif head == "derive":
            _need(tokens, 3, lineno, "derive")
            ws.derivations.append((lineno, tokens[1], tokens[2:]))
        elif head == "check":
            _need(tokens, 2, lineno, "check")
            ws.checks.append((lineno, tokens[1:]))
        else:
            raise ParseError(f"unknown directive {head!r}", lineno, 1)
    return ws


def _check_fresh(ws: Workspace, name: str, lineno: int):
    if name in set(ws.all_names()):
        raise ParseError(f"duplicate name {name!r}", lineno, 2)


def _lookup(table, name, lineno, what):
    if name not in table:
        raise ParseError(f"unknown {what} {name!r}", lineno, 1)
    return table[name]


def _parse_epi(ws, tokens, lineno, lines):
    _need(tokens, 4, lineno, "epi")
    name = tokens[1]
    _check_fresh(ws, name, lineno)
    source = _lookup(ws.groups, tokens[2], lineno, "group")
    target = _lookup(ws.groups, tokens[3], lineno, "group")
    k = len(target.moduli)
    rows = []
    while True:
        ln, toks = lines.next_tokens()
        if toks is None:
            raise ParseError("unterminated epi section", lineno)
        if toks[0] == "end":
            break
        if toks[0] != "row":
            raise ParseError("expected 'row' or 'end'", ln, 1)
        row = _ints(toks, ln, 1)
        if len(row) != k:
            raise ParseError("coordinate length mismatch", ln,
                             2 + min(len(row), k))
        rows.append(row)
    if len(rows) != len(source.moduli):
        raise ParseError("matrix row count must match source generator "
                         "count", lineno)
    try:
        ws.epis[name] = GroupEpi(source, target, rows)
    except GroupError as exc:
        raise ValidationError(str(exc))
    ws.meta[name] = (tokens[2], tokens[3])


def _degrees(tokens, lineno, k, count):
    """The integers after a line's keyword, parsed once: `count` degrees of
    k integers each, the integers after them, and the column where those
    start."""
    vals = _ints(tokens, lineno, 1)
    if len(vals) < count * k:
        # the column where the short degree starts
        raise ParseError(f"degree needs {k} integers", lineno,
                         2 + len(vals) // k * k)
    degs = [tuple(vals[d * k:(d + 1) * k]) for d in range(count)]
    return degs, vals[count * k:], 2 + count * k


def _parse_ring_like(ws, tokens, lineno, lines, is_module: bool):
    kind = "module" if is_module else "ring"
    _need(tokens, 3, lineno, kind)
    name = tokens[1]
    _check_fresh(ws, name, lineno)
    if not ws.n:
        raise ParseError("modulus must be declared first", lineno, 1)
    if is_module:
        ring = _lookup(ws.rings, tokens[2], lineno, "ring")
        group = ring.group
    else:
        group = _lookup(ws.groups, tokens[2], lineno, "group")
        ring = None
    k = len(group.moduli)
    ngens = {}
    rels = {}
    one = None
    # (dc, dh, i, j) -> (coefficients, line, column of i)
    entries = {}
    while True:
        ln, toks = lines.next_tokens()
        if toks is None:
            raise ParseError(f"unterminated {kind} section", lineno)
        head = toks[0]
        if head == "end":
            break
        if head == "component":
            (deg,), vals, col = _degrees(toks, ln, k, 1)
            deg = group.canon(deg)
            if len(vals) != 1:
                raise ParseError("component needs one generator count", ln,
                                 col)
            if vals[0] < 0:
                raise ParseError("negative generator count", ln, col)
            ngens[deg] = vals[0]
        elif head == "rel":
            (deg,), vals, col = _degrees(toks, ln, k, 1)
            rels.setdefault(group.canon(deg), []).append((vals, ln, col))
        elif head == "one" and not is_module:
            one, one_ln = tuple(_ints(toks, ln, 1)), ln
        elif head == ("act" if is_module else "mult"):
            (dc, dh), vals, col = _degrees(toks, ln, k, 2)
            if len(vals) < 2:
                raise ParseError(f"{head} needs indices "
                                 f"{'p' if is_module else 'i'} j", ln, col)
            entries[(group.canon(dc), group.canon(dh), vals[0], vals[1])] = \
                (tuple(vals[2:]), ln, col)
        else:
            raise ParseError(f"unknown {kind} line {head!r}", ln, 1)
    comps = {}
    for d, g in ngens.items():
        rows = rels.get(d, ())
        for vals, ln, col in rows:
            if len(vals) != g:
                raise ParseError("row length mismatch", ln,
                                 col + min(len(vals), g))
        comps[d] = FpZnModule(ws.n, g, [vals for vals, _, _ in rows])
    if is_module:
        action = _assemble_tensors(entries, lambda dc: ring.component(dc),
                                   comps, group, k)
        try:
            ws.modules[name] = GradedModule(ring, comps, action)
        except GradedError as exc:
            raise ValidationError(str(exc))
    else:
        action = _assemble_tensors(entries, lambda dc: comps.get(
            dc, FpZnModule(ws.n, 0, [])), comps, group, k)
        if one is None:
            raise ParseError("ring lacks a 'one' line", lineno, 1)
        unit = comps.get(group.zero())
        if unit is not None and unit.ngens and len(one) != unit.ngens:
            raise ParseError(f"one: coefficient count {len(one)}, expected "
                             f"{unit.ngens}", one_ln,
                             2 + min(len(one), unit.ngens))
        try:
            ws.rings[name] = GradedRing(group, ws.n, comps, action, one)
        except GradedError as exc:
            raise ValidationError(str(exc))
    ws.meta[name] = (tokens[2],)


def _assemble_tensors(entries, left_comp, comps, group, k):
    """The structure tensors of a section's `mult` or `act` lines; an error
    names the line of its entry and the column of the offending token,
    whose degrees take k integers each."""
    tensors = {}
    for (dc, dh, i, j), (coeffs, ln, col) in entries.items():
        out_deg = group.add(dc, dh)
        out = comps.get(out_deg)
        if out is None or not out.ngens:
            if any(coeffs):
                raise ValidationError(
                    f"product at {dc},{dh} leaves the declared support",
                    "support-closure")
            continue
        lc = left_comp(dc)
        rc = comps.get(dh)
        if rc is None:
            raise ParseError(f"entry at undeclared degree {dh}", ln, col - k)
        t = tensors.setdefault(
            (dc, dh),
            [[[0] * out.ngens for _ in range(rc.ngens)]
             for _ in range(lc.ngens)])
        if not 0 <= i < lc.ngens:
            raise ParseError(f"index out of range at {dc},{dh}", ln, col)
        if not 0 <= j < rc.ngens:
            raise ParseError(f"index out of range at {dc},{dh}", ln, col + 1)
        if len(coeffs) != out.ngens:
            raise ParseError(f"coefficient count mismatch at {dc},{dh}", ln,
                             col + 2 + min(len(coeffs), out.ngens))
        t[i][j] = list(coeffs)
    return tensors


def _parse_maps_section(ws, tokens, lineno, lines, kind: str):
    _need(tokens, 4, lineno, kind)
    name = tokens[1]
    _check_fresh(ws, name, lineno)
    if kind == "ringhom":
        source = _lookup(ws.rings, tokens[2], lineno, "ring")
        target = _lookup(ws.rings, tokens[3], lineno, "ring")
        group = source.group
    else:
        source = _lookup(ws.modules, tokens[2], lineno, "module")
        target = _lookup(ws.modules, tokens[3], lineno, "module")
        group = source.ring.group
    k = len(group.moduli)
    rows = {}
    while True:
        ln, toks = lines.next_tokens()
        if toks is None:
            raise ParseError(f"unterminated {kind} section", lineno)
        if toks[0] == "end":
            break
        if toks[0] != "map":
            raise ParseError("expected 'map' or 'end'", ln, 1)
        (deg,), vals, col = _degrees(toks, ln, k, 1)
        if not vals:
            raise ParseError("map needs a generator index", ln, col)
        deg = group.canon(deg)
        ngens = source.component(deg).ngens
        if not ngens:
            raise ParseError(f"entry at undeclared degree {deg}", ln, col - k)
        i, row = vals[0], tuple(vals[1:])
        if not 0 <= i < ngens:
            raise ParseError(f"index out of range at {deg}", ln, col)
        width = target.component(deg).ngens
        if len(row) > width:
            raise ParseError(f"map row at degree {deg} has {len(row)} "
                             f"entries, target component has {width} "
                             "generators", ln, col + 1 + width)
        rows.setdefault(deg, [(0,) * width] * ngens)[i] = \
            row + (0,) * (width - len(row))
    maps = {deg: tuple(mat) for deg, mat in rows.items()}
    try:
        if kind == "ringhom":
            ws.ringhoms[name] = GradedRingHom(source, target, maps)
        else:
            ws.morphisms[name] = GradedMorphism(source, target, maps)
    except GradedError as exc:
        raise ValidationError(str(exc))
    ws.meta[name] = (tokens[2], tokens[3])


# ---------------------------------------------------------------------------
# serialization


def _fmt_deg(deg):
    return " ".join(str(x) for x in deg)


def _emit_component_lines(out, comps):
    for deg in sorted(comps):
        comp = comps[deg]
        out.append(f"  component {_fmt_deg(deg)} {comp.ngens}".rstrip())
        for r in comp.rels:
            out.append(f"  rel {_fmt_deg(deg)} {' '.join(map(str, r))}"
                       .replace("  rel  ", "  rel "))


def _emit_tensor_lines(out, keyword, tensors):
    for (dc, dh) in sorted(tensors):
        t = tensors[(dc, dh)]
        for i, block in enumerate(t):
            for j, row in enumerate(block):
                if any(row):
                    parts = [keyword, _fmt_deg(dc), _fmt_deg(dh),
                             str(i), str(j)] + [str(x) for x in row]
                    out.append("  " + " ".join(p for p in parts if p != ""))


def serialize_workspace(ws: Workspace) -> str:
    out = [f"modulus {ws.n}"]
    for name in ws.groups:
        moduli = " ".join(map(str, ws.groups[name].moduli))
        out.append(f"group {name} moduli {moduli}".rstrip())
    for name, epi in ws.epis.items():
        src, tgt = ws.meta[name]
        out.append(f"epi {name} {src} {tgt}")
        for row in epi.matrix:
            out.append(f"  row {' '.join(map(str, row))}".rstrip())
        out.append("end")
    for name, ring in ws.rings.items():
        out.append(f"ring {name} {ws.meta[name][0]}")
        _emit_component_lines(out, ring.components)
        out.append(f"  one {' '.join(map(str, ring.one))}")
        _emit_tensor_lines(out, "mult", ring.mult)
        out.append("end")
    for name, h in ws.ringhoms.items():
        src, tgt = ws.meta[name]
        out.append(f"ringhom {name} {src} {tgt}")
        _emit_map_lines(out, h.maps)
        out.append("end")
    for name, module in ws.modules.items():
        out.append(f"module {name} {ws.meta[name][0]}")
        _emit_component_lines(out, module.components)
        _emit_tensor_lines(out, "act", module.action)
        out.append("end")
    for name, u in ws.morphisms.items():
        src, tgt = ws.meta[name]
        out.append(f"morphism {name} {src} {tgt}")
        _emit_map_lines(out, u.maps)
        out.append("end")
    for _, name, args in ws.derivations:
        out.append("derive " + " ".join([name] + list(args)))
    for _, tokens in ws.checks:
        out.append("check " + " ".join(tokens))
    return "\n".join(out) + "\n"


def _emit_map_lines(out, maps):
    for deg in sorted(maps):
        for i, row in enumerate(maps[deg]):
            if any(row):
                parts = ["map", _fmt_deg(deg), str(i)] + [str(x) for x in row]
                out.append("  " + " ".join(p for p in parts if p))
