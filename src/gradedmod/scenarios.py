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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

from . import analyze, canonical
from .abelian import GroupEpi
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
        except GradedError as exc:
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


def _derive(env, args, lineno):
    op = args[0]
    rest = args[1:]
    if op == "ringmod":
        return ring_as_module(_get(env, rest[0], lineno, "ring"))
    if op in ("restrict", "extend", "coextend"):
        h = _get(env, rest[0], lineno, "ring morphism")
        m = _get(env, rest[1], lineno, "module")
        if op == "restrict":
            return restrict(h, m)
        if op == "extend":
            return extend(h, m).module
        return coextend(h, m).module
    if op == "tensor":
        return tensor(_get(env, rest[0], lineno, "module"),
                      _get(env, rest[1], lineno, "module")).module
    if op == "hom":
        return hom_graded(_get(env, rest[0], lineno, "module"),
                          _get(env, rest[1], lineno, "module")).module
    if op == "shift":
        m = _get(env, rest[0], lineno, "module")
        return shift(m, tuple(int(x) for x in rest[1:]))
    if op == "coarsen":
        m = _get(env, rest[0], lineno, "module")
        psi = _get(env, rest[1], lineno, "group epimorphism")
        return coarsen_module(m, psi)
    raise ScenarioError(f"line {lineno}: unknown derivation {op!r}")


def _split_tag(tokens):
    if tokens and tokens[-1].startswith("tag:"):
        return tokens[:-1], tokens[-1][4:]
    return tokens, ""


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
        text = " ".join(tokens)
        expected, actual = _run_check(env, tokens, lineno)
        results.append(CheckResult(lineno, text, expected, actual,
                                   expected == actual, tag))
    return results


def _run_check(env, tokens, lineno):
    kind = tokens[0]
    if kind == "ringepi":
        expected = _parse_bool(tokens[2], lineno)
        h = _get(env, tokens[1], lineno, "ring morphism")
        return str(expected).lower(), \
            str(analyze.is_ring_epimorphism(h)).lower()
    if kind == "morita":
        expected = _parse_bool(tokens[2], lineno)
        h = _get(env, tokens[1], lineno, "ring morphism")
        return str(expected).lower(), str(analyze.morita_check(h)).lower()
    if kind == "battery":
        h = _get(env, tokens[1], lineno, "ring morphism")
        expected = _parse_bool(tokens[2], lineno)
        family = [_get(env, name, lineno, "module") for name in tokens[3:]]
        report = analyze.d70_battery(h, family)
        return str(expected).lower(), str(report.decisive).lower()
    if kind == "d80":
        h = _get(env, tokens[1], lineno, "ring morphism")
        psi = _get(env, tokens[2], lineno, "group epimorphism")
        expected = _parse_bool(tokens[3], lineno)
        pair = analyze.d80_check(h, psi)
        return f"({str(expected).lower()}, {str(expected).lower()})", \
            f"({str(pair[0]).lower()}, {str(pair[1]).lower()})"
    if kind == "canon":
        return _run_canon_check(env, tokens, lineno)
    raise ScenarioError(f"line {lineno}: unknown check {kind!r}")


def build_canon(env, tokens, lineno):
    """Construct a canonical map from `<name> <args...>` tokens, found at
    line `lineno` of a scenario, or on the command line for None."""
    name = tokens[0]
    if name not in CANON_SPECS:
        raise ScenarioError(f"{_at(lineno)}unknown canonical map {name!r}")
    ctor, takes_h, nmods = CANON_SPECS[name]
    args = []
    pos = 1
    if takes_h:
        args.append(_get(env, tokens[pos], lineno, "ring morphism"))
        pos += 1
    for _ in range(nmods):
        args.append(_get(env, tokens[pos], lineno, "module"))
        pos += 1
    try:
        return ctor(*args), pos
    except GradedError as exc:
        raise ScenarioError(f"{_at(lineno)}{name}: {exc}")


def _run_canon_check(env, tokens, lineno):
    cmap, pos = build_canon(env, tokens[1:], lineno)
    pos += 1
    prop, expected = tokens[pos], tokens[pos + 1]
    u = cmap.morphism
    if prop == "is_zero":
        actual = u.is_zero
    elif prop == "is_mono":
        actual = analyze.is_mono(u)[0]
    elif prop == "is_epi":
        actual = analyze.is_epi(u)[0]
    elif prop == "is_iso":
        actual = analyze.is_iso(u)[0]
    elif prop in ("source_card", "target_card"):
        module = u.source if prop == "source_card" else u.target
        return expected, str(module.cardinality())
    else:
        raise ScenarioError(f"line {lineno}: unknown property {prop!r}")
    _parse_bool(expected, lineno)
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
