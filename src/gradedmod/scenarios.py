"""Scenario files: workspaces with derivations and checked assertions.

A scenario is a workspace file whose `derive` lines build further objects
by functor application and whose `check` lines assert decided facts about
them.  The shipped scenarios reproduce the worked counterexamples and the
epimorphism battery on the named corpus instances.

Derivations (first token is the new name):

    derive <name> ringmod <ring>
    derive <name> restrict|extend|coextend <ringhom> <module>
    derive <name> tensor|hom <module> <module>
    derive <name> shift <module> <degree ints>
    derive <name> coarsen <module> <epi>

Checks (an optional trailing `tag:<word>` records why the value is
expected and is echoed in reports):

    check ringepi <ringhom> true|false
    check morita <ringhom> true|false
    check battery <ringhom> true|false <family module names...>
    check d80 <ringhom> <epi> true|false
    check canon <map> <args...> <property> <expected>

where <property> is one of is_zero/is_mono/is_epi/is_iso (expected
true|false) or source_card/target_card (expected integer).

Operands are counted and each literal is checked where it is read: a
line with an operand missing or one too many, a non-integer degree or
cardinality, or a word other than true/false where one is expected is
an input error naming its line, never ignored and never a failed check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

from . import analyze, canonical
from .abelian import GroupEpi, GroupError
from .graded import (GradedError, GradedModule, GradedRing, GradedRingHom,
                     coarsen_module, ring_as_module, shift)
from .functors import coextend, extend, hom_graded, restrict, tensor
from .textio import Workspace, parse_workspace


class ScenarioError(Exception):
    pass


def _underline_map(h: GradedRingHom) -> canonical.CanonicalMap:
    """`canonical.underline` as a named canonical map."""
    return canonical.CanonicalMap("underline", canonical.underline(h),
                                  {"h": h})


# canonical map name -> (constructor, takes ring morphism, module count)
CANON_SPECS = {
    "rho": (canonical.rho, True, 1),
    "sigma": (canonical.sigma, True, 1),
    "rho_tilde": (canonical.rho_tilde, True, 1),
    "sigma_tilde": (canonical.sigma_tilde, True, 1),
    "delta": (canonical.delta, True, 2),
    "gamma": (canonical.gamma, True, 2),
    "epsilon": (canonical.epsilon, True, 2),
    "eta": (canonical.eta, True, 2),
    "theta": (canonical.theta, True, 2),
    "mu": (canonical.mu, True, 2),
    "pi": (canonical.pi, True, 3),
    "nu": (canonical.nu, True, 3),
    "alpha": (canonical.alpha, True, 3),
    "tau": (canonical.tau, False, 1),
    "tau3": (canonical.tau3, False, 3),
    "underline": (_underline_map, True, 0),
    "hstar_ring": (canonical.hstar_ring_iso, True, 0),
}


@dataclass
class CheckResult:
    line: int
    text: str
    expected: str
    actual: str
    ok: bool
    tag: str = ""


@dataclass
class ScenarioReport:
    name: str
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def build_env(ws: Workspace) -> dict:
    """Resolve all named and derived objects of a workspace."""
    env = {}
    for table in (ws.groups, ws.epis, ws.rings, ws.ringhoms,
                  ws.modules, ws.morphisms):
        env.update(table)
    for lineno, name, args in ws.derivations:
        if name in env:
            raise ScenarioError(f"line {lineno}: duplicate name {name!r}")
        try:
            env[name] = _derive(env, args, lineno)
        except (GradedError, GroupError) as exc:
            raise ScenarioError(f"line {lineno}: {exc}")
    return env


# what an operand is looked up as -> the type it must have
KINDS = {
    "ring": GradedRing,
    "module": GradedModule,
    "ring morphism": GradedRingHom,
    "group epimorphism": GroupEpi,
}


def _at(lineno):
    """The prefix that places an error at line `lineno` of a scenario;
    None (a command-line argument) has no line."""
    return "" if lineno is None else f"line {lineno}: "


def _get(env, name, lineno, what="object"):
    if name not in env:
        raise ScenarioError(f"{_at(lineno)}unknown {what} {name!r}")
    value = env[name]
    kind = KINDS.get(what)
    if kind is not None and not isinstance(value, kind):
        raise ScenarioError(f"{_at(lineno)}{name!r} is not a {what}")
    return value


def _usage(ok, lineno, usage):
    """Reject the line `lineno` unless `ok`, showing how it is written."""
    if not ok:
        raise ScenarioError(f"line {lineno}: usage: {usage}")


def _derive(env, args, lineno):
    op = args[0]
    rest = args[1:]
    if op == "ringmod":
        _usage(len(rest) == 1, lineno, "derive <name> ringmod <ring>")
        return ring_as_module(_get(env, rest[0], lineno, "ring"))
    if op in ("restrict", "extend", "coextend"):
        _usage(len(rest) == 2, lineno,
               f"derive <name> {op} <ringhom> <module>")
        h = _get(env, rest[0], lineno, "ring morphism")
        m = _get(env, rest[1], lineno, "module")
        if op == "restrict":
            return restrict(h, m)
        if op == "extend":
            return extend(h, m).module
        return coextend(h, m).module
    if op in ("tensor", "hom"):
        _usage(len(rest) == 2, lineno, f"derive <name> {op} <module> <module>")
        m, n = (_get(env, name, lineno, "module") for name in rest)
        return (tensor(m, n) if op == "tensor" else hom_graded(m, n)).module
    if op == "shift":
        _usage(len(rest) >= 1, lineno,
               "derive <name> shift <module> <degree ints>")
        m = _get(env, rest[0], lineno, "module")
        deg = tuple(_parse_int(x, lineno) for x in rest[1:])
        need = len(m.ring.group.moduli)
        if len(deg) != need:
            raise ScenarioError(f"line {lineno}: shift of {rest[0]!r} needs "
                                f"{need} degree integers, got {len(deg)}")
        return shift(m, deg)
    if op == "coarsen":
        _usage(len(rest) == 2, lineno, "derive <name> coarsen <module> <epi>")
        m = _get(env, rest[0], lineno, "module")
        psi = _get(env, rest[1], lineno, "group epimorphism")
        return coarsen_module(m, psi)
    raise ScenarioError(f"line {lineno}: unknown derivation {op!r}")


def _split_tag(tokens):
    if tokens and tokens[-1].startswith("tag:"):
        return tokens[:-1], tokens[-1][4:]
    return tokens, ""


def _parse_int(token, lineno):
    try:
        return int(token)
    except ValueError:
        raise ScenarioError(f"line {lineno}: expected an integer, "
                            f"got {token!r}")


def _parse_bool(token, lineno):
    if token not in ("true", "false"):
        raise ScenarioError(f"line {lineno}: expected true/false, "
                            f"got {token!r}")
    return token == "true"


def run_checks(ws: Workspace, env: dict | None = None) -> list[CheckResult]:
    env = env if env is not None else build_env(ws)
    results = []
    for lineno, tokens in ws.checks:
        tokens, tag = _split_tag(tokens)
        _usage(tokens, lineno, "check <kind> <operands...> [tag:<word>]")
        text = " ".join(tokens)
        try:
            expected, actual = _run_check(env, tokens, lineno)
        except (GradedError, GroupError) as exc:
            raise ScenarioError(f"line {lineno}: {exc}")
        results.append(CheckResult(lineno, text, expected, actual,
                                   expected == actual, tag))
    return results


def _run_check(env, tokens, lineno):
    kind = tokens[0]
    if kind in ("ringepi", "morita"):
        _usage(len(tokens) == 3, lineno, f"check {kind} <ringhom> true|false")
        expected = _parse_bool(tokens[2], lineno)
        h = _get(env, tokens[1], lineno, "ring morphism")
        decide = analyze.is_ring_epimorphism if kind == "ringepi" \
            else analyze.morita_check
        return str(expected).lower(), str(decide(h)).lower()
    if kind == "battery":
        _usage(len(tokens) >= 3, lineno,
               "check battery <ringhom> true|false <family module names...>")
        h = _get(env, tokens[1], lineno, "ring morphism")
        expected = _parse_bool(tokens[2], lineno)
        family = [_get(env, name, lineno, "module") for name in tokens[3:]]
        report = analyze.d70_battery(h, family)
        return str(expected).lower(), str(report.decisive).lower()
    if kind == "d80":
        _usage(len(tokens) == 4, lineno,
               "check d80 <ringhom> <epi> true|false")
        h = _get(env, tokens[1], lineno, "ring morphism")
        psi = _get(env, tokens[2], lineno, "group epimorphism")
        expected = _parse_bool(tokens[3], lineno)
        pair = analyze.d80_check(h, psi)
        return f"({str(expected).lower()}, {str(expected).lower()})", \
            f"({str(pair[0]).lower()}, {str(pair[1]).lower()})"
    if kind == "canon":
        return _run_canon_check(env, tokens, lineno)
    raise ScenarioError(f"line {lineno}: unknown check {kind!r}")


def canon_arity(tokens, lineno):
    """The number of tokens `<name> <args...>` of the canonical map named
    by `tokens[0]`, found at line `lineno` of a scenario, or on the
    command line for None: its name, ring morphism and modules, as
    `CANON_SPECS` counts them.  Tokens past those are left to the caller,
    which checks them before anything is built."""
    name = tokens[0]
    if name not in CANON_SPECS:
        raise ScenarioError(f"{_at(lineno)}unknown canonical map {name!r}")
    _, takes_h, nmods = CANON_SPECS[name]
    used = 1 + takes_h + nmods
    if len(tokens) < used:
        raise ScenarioError(f"{_at(lineno)}canonical map {name!r}: "
                            "missing arguments")
    return used


def build_canon(env, tokens, lineno):
    """Construct the canonical map of the tokens `<name> <args...>`,
    exactly `canon_arity` of them, placed as for `canon_arity`."""
    name = tokens[0]
    ctor, takes_h, _ = CANON_SPECS[name]
    args = [_get(env, tokens[1], lineno, "ring morphism")] if takes_h else []
    args += [_get(env, m, lineno, "module") for m in tokens[1 + takes_h:]]
    try:
        return ctor(*args)
    except canonical.CanonicalMapError as exc:  # it names the map itself
        raise ScenarioError(f"{_at(lineno)}{exc}")
    except GradedError as exc:
        raise ScenarioError(f"{_at(lineno)}{name}: {exc}")


def _run_canon_check(env, tokens, lineno):
    usage = "check canon <map> <args...> <property> <expected>"
    _usage(len(tokens) >= 2, lineno, usage)
    pos = canon_arity(tokens[1:], lineno)
    _usage(len(tokens) == pos + 3, lineno, usage)
    u = build_canon(env, tokens[1:pos + 1], lineno).morphism
    prop, expected = tokens[pos + 1:]
    if prop in ("source_card", "target_card"):
        module = u.source if prop == "source_card" else u.target
        return str(_parse_int(expected, lineno)), str(module.cardinality())
    if prop not in ("is_zero", "is_mono", "is_epi", "is_iso"):
        raise ScenarioError(f"line {lineno}: unknown property {prop!r}")
    _parse_bool(expected, lineno)
    actual = u.is_zero if prop == "is_zero" else getattr(analyze, prop)(u)[0]
    return expected, str(actual).lower()


# ---------------------------------------------------------------------------
# shipped scenarios


def available_scenarios() -> dict[str, str]:
    """Scenario name -> file text, for every shipped .scn file."""
    out = {}
    for entry in resources.files("gradedmod.data").iterdir():
        if entry.name.endswith(".scn"):
            out[entry.name[:-4]] = entry.read_text()
    return dict(sorted(out.items()))


def load_scenario(name: str) -> Workspace:
    scenarios = available_scenarios()
    if name not in scenarios:
        raise ScenarioError(f"unknown scenario {name!r}; available: "
                            + ", ".join(scenarios))
    return parse_workspace(scenarios[name])


def run_scenario(name: str) -> ScenarioReport:
    ws = load_scenario(name)
    return ScenarioReport(name, run_checks(ws))
