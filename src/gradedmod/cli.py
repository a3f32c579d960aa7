"""Command-line interface: workspace subcommands and the scenario runner.

Workspaces are loaded from repeatable ``--input`` files, which are parsed,
validated and derived once per command; names in subcommand arguments
resolve first in the loaded workspaces, then among the built-in named
instances (``z4_to_z2``, ``frobenius``, ``frobenius_ungraded``, ``d25e``,
``d25e_z3``, ``zgraded``; each instance also exposes ``<name>.R``,
``<name>.S``, ``<name>.RR``, ``<name>.SS``, ``<name>.psi`` and one shifted
copy ``<name>.SS_<g>`` of S per support degree g).  A built-in instance
is built only when an argument names it and no workspace defines that
name.  Reports are deterministic: degrees sorted lexicographically,
matrices row-major, flags alphabetical.  Exit codes: 0 success, 1 failed
assertion, 2 input error.  Every question is decided: `is_free` in module
reports and `check morita` count on the *local factors of the ring
(graded Nakayama), without a search.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import analyze, corpus, scenarios
from .graded import (GradedError, GradedModule, GradedMorphism, ring_as_module,
                     shift)
from .textio import ParseError, ValidationError, Workspace, parse_workspace

FORMAT_VERSION = "4"

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_INPUT = 2


class CliError(Exception):
    """Input error: unknown name, unreadable file, malformed arguments."""


# ---------------------------------------------------------------------------
# name resolution


def _instance_env(name) -> dict:
    """The names of one built-in instance: `name` and its members."""
    inst = corpus.INSTANCE_BUILDERS[name]()
    env = {name: inst["h"],
           name + ".R": inst["ring_r"],
           name + ".S": inst["ring_s"],
           name + ".RR": ring_as_module(inst["ring_r"])}
    s_mod = ring_as_module(inst["ring_s"])
    env[name + ".SS"] = s_mod
    env[name + ".psi"] = inst["psi"]
    grp = inst["ring_s"].group
    for g in sorted(inst["ring_s"].components):
        if any(g):
            label = "_".join(str(x) for x in g)
            env[f"{name}.SS_{label}"] = shift(s_mod, grp.neg(g))
    return env


# the parsed arguments that hold names to resolve
_NAME_ARGS = ("a", "b", "module", "h", "psi", "name", "args", "family")


def _named_tokens(args) -> list[str]:
    tokens = []
    for attr in _NAME_ARGS:
        value = getattr(args, attr, None)
        if isinstance(value, str):
            tokens.append(value)
        elif value:
            tokens.extend(value)
    return tokens


def build_environment(inputs, names) -> tuple[Workspace, dict]:
    """The merged workspace of the `inputs` files and the names in scope.

    The files are parsed, validated and derived once.  A built-in instance
    is built only when one of `names` is `<inst>` or `<inst>.<member>` and
    the workspace does not define that name: workspace names take
    precedence over built-in ones.
    """
    merged = Workspace()
    for path in inputs:
        try:
            with open(path) as f:
                text = f.read()
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc}")
        parse_workspace(text, merged)
    ws_env = scenarios.build_env(merged)
    env = {}
    for base in sorted({name.partition(".")[0] for name in names
                        if name not in ws_env}):
        if base in corpus.INSTANCE_BUILDERS:
            env.update(_instance_env(base))
    env.update(ws_env)
    return merged, env


def _get(env, name, what):
    return scenarios._get(env, name, None, what)


# ---------------------------------------------------------------------------
# report rendering


def _fmt_deg(deg) -> str:
    return "(" + ",".join(str(x) for x in deg) + ")"


def _fmt_vec(vec) -> str:
    return "[" + " ".join(str(x) for x in vec) + "]"


def _fmt_matrix(mat) -> str:
    if not mat:
        return "[]"
    return "[" + "; ".join(" ".join(str(x) for x in row) for row in mat) + "]"


def _module_summary(module: GradedModule) -> dict:
    comps = {}
    for d in sorted(module.components):
        c = module.components[d]
        comps[_fmt_deg(d)] = {"generators": c.ngens,
                              "relations": [list(r) for r in c.rels]}
    return {"cardinality": module.cardinality(),
            "components": comps,
            "modulus": module.ring.n,
            "support": [_fmt_deg(d) for d in sorted(module.components)]}


def _witness_value(value):
    if value is None:
        return None
    if isinstance(value, GradedMorphism):
        return {_fmt_deg(d): _fmt_matrix(value.maps[d])
                for d in sorted(value.maps)}
    if isinstance(value, tuple) and len(value) == 2 \
            and isinstance(value[0], tuple):
        deg, vec = value
        return {"degree": _fmt_deg(deg), "element": _fmt_vec(vec)}
    if isinstance(value, dict):
        return {_fmt_deg(d): list(v) if isinstance(v, tuple) else v
                for d, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_fmt_deg(d) for d in value]
    return value


def _analysis_payload(report) -> dict:
    return {"flags": {k: report.flags[k] for k in sorted(report.flags)},
            "witnesses": {k: _witness_value(report.witnesses[k])
                          for k in sorted(report.witnesses)}}


def _morphism_payload(u: GradedMorphism) -> dict:
    report = analyze.analyze_morphism(u)
    degs = sorted(set(u.source.components) | set(u.target.components))
    return {"analysis": _analysis_payload(report),
            "matrices": {_fmt_deg(d): _fmt_matrix(u.matrix(d))
                         for d in degs},
            "source": _module_summary(u.source),
            "target": _module_summary(u.target)}


def _render_text(payload, indent=0) -> list[str]:
    lines = []
    pad = "  " * indent
    if isinstance(payload, dict):
        for key in payload:
            value = payload[key]
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(value)}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}-")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(value)}")
    else:
        lines.append(f"{pad}{_scalar(payload)}")
    return lines


def _scalar(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "[]"
    if isinstance(value, dict):
        return "{}"
    return str(value)


def emit_report(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"
    return "\n".join(_render_text(payload)) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args, ws, env):
    results = scenarios.run_checks(ws, env)
    checks = []
    for res in results:
        entry = {"line": res.line, "check": res.text, "ok": res.ok}
        if not res.ok:
            entry["diff"] = f"expected {res.expected}, got {res.actual}"
        checks.append(entry)
    ok = all(res.ok for res in results)
    payload = {
        "modulus": ws.n,
        "objects": {
            "groups": sorted(ws.groups),
            "epimorphisms": sorted(ws.epis),
            "rings": sorted(ws.rings),
            "ring_morphisms": sorted(ws.ringhoms),
            "modules": sorted(ws.modules),
            "morphisms": sorted(ws.morphisms),
            "derived": sorted(name for _, name, _ in ws.derivations),
        },
        "checks": checks,
        "status": "ok" if ok else "failed",
    }
    return payload, EXIT_OK if ok else EXIT_ASSERTION


def _module_report(module, subject):
    return {"subject": subject,
            "module": _module_summary(module),
            "analysis": _analysis_payload(analyze.analyze_module(module))}


def _cmd_functor(args, ws, env):
    """tensor, hom, coarsen and restrict/extend/coextend, applied as a
    scenario `derive` line applies them."""
    if args.cmd in ("tensor", "hom"):
        operands, shown = [args.a, args.b], f"{args.a} {args.b}"
    elif args.cmd == "coarsen":
        operands = [args.module, args.psi]
        shown = f"{args.module} --psi {args.psi}"
    else:
        operands, shown = [args.h, args.module], f"--h {args.h} {args.module}"
    result = scenarios._derive(env, [args.cmd] + operands, None)
    return _module_report(result, f"{args.cmd} {shown}"), EXIT_OK


def _cmd_canon(args, ws, env):
    tokens = [args.name] + args.args
    try:
        if scenarios.canon_arity(tokens, None) != len(tokens):
            raise CliError(f"canonical map {args.name!r}: too many arguments")
        cmap = scenarios.build_canon(env, tokens, None)
    except scenarios.ScenarioError as exc:
        raise CliError(str(exc))
    payload = {"subject": "canon " + " ".join(tokens),
               "canonical_map": cmap.name,
               "has_inverse": cmap.inverse is not None}
    payload.update(_morphism_payload(cmap.morphism))
    return payload, EXIT_OK


def _cmd_analyze(args, ws, env):
    obj = _get(env, args.name, "module or morphism")
    if isinstance(obj, GradedModule):
        return _module_report(obj, f"analyze {args.name}"), EXIT_OK
    if isinstance(obj, GradedMorphism):
        payload = {"subject": f"analyze {args.name}"}
        payload.update(_morphism_payload(obj))
        return payload, EXIT_OK
    raise CliError(f"{args.name!r} is not a module or morphism")


def _cmd_epitest(args, ws, env):
    h = _get(env, args.h, "ring morphism")
    verdict = analyze.is_ring_epimorphism(h)
    return {"subject": f"epitest --h {args.h}",
            "ring epimorphism": verdict}, EXIT_OK


def _cmd_battery(args, ws, env):
    h = _get(env, args.h, "ring morphism")
    family = [_get(env, name, "module") for name in args.family]
    report = analyze.d70_battery(h, family)
    return {"subject": f"battery --h {args.h}",
            "decisive": report.decisive,
            "family": list(args.family),
            "verdicts": {k: report.verdicts[k]
                         for k in ("i", "ii", "iii", "iv", "v", "vi",
                                   "vii")}}, EXIT_OK


def _cmd_scenario(args, ws, env):
    if args.action == "list":
        return {"scenarios": sorted(scenarios.available_scenarios())}, EXIT_OK
    try:
        report = scenarios.run_scenario(args.name)
    except scenarios.ScenarioError as exc:
        raise CliError(str(exc))
    checks = []
    for c in report.checks:
        entry = {"check": c.text, "expected": c.expected,
                 "actual": c.actual,
                 "status": "pass" if c.ok else "fail"}
        if c.tag:
            entry["tag"] = c.tag
        if not c.ok:
            entry["diff"] = f"expected {c.expected}, got {c.actual}"
        checks.append(entry)
    payload = {"scenario": report.name,
               "status": "pass" if report.ok else "fail",
               "checks": checks}
    return payload, EXIT_OK if report.ok else EXIT_ASSERTION


# ---------------------------------------------------------------------------
# argument parsing and dispatch

_H = ("--h", {"required": True})
_H_MODULE = (_H, ("module", {}))

# name: (handler, help, arguments as (name, add_argument keywords)); a dict
# holds nested actions instead, parsed into `args.action`
COMMANDS = {
    "validate": (_cmd_validate, "parse and validate all inputs", ()),
    "tensor": (_cmd_functor, "graded tensor product of two modules",
               (("a", {}), ("b", {}))),
    "hom": (_cmd_functor, "graded Hom module", (("a", {}), ("b", {}))),
    "coarsen": (_cmd_functor, "coarsen a module along psi",
                (("module", {}), ("--psi", {"required": True}))),
    "restrict": (_cmd_functor, "scalar restriction h_*", _H_MODULE),
    "extend": (_cmd_functor, "scalar extension h^*", _H_MODULE),
    "coextend": (_cmd_functor, "scalar coextension", _H_MODULE),
    "canon": (_cmd_canon, "construct and analyze a canonical map",
              (("name", {"help": "one of: " + ", ".join(
                  sorted(scenarios.CANON_SPECS))}),
               ("args", {"nargs": "*"}))),
    "analyze": (_cmd_analyze, "analyze a named module or morphism",
                (("name", {}),)),
    "epitest": (_cmd_epitest, "decide ring epimorphism", (_H,)),
    "battery": (_cmd_battery, "the seven-statement battery",
                (_H, ("--family", {"nargs": "+", "required": True}))),
    "scenario": (_cmd_scenario, "run or list shipped scenarios",
                 {"list": (), "run": (("name", {}),)}),
}


def _add_command(sub, common, name, specs, **kwargs):
    p = sub.add_parser(name, parents=[common], **kwargs)
    if isinstance(specs, dict):
        actions = p.add_subparsers(dest="action", required=True)
        for action, action_specs in specs.items():
            _add_command(actions, common, action, action_specs)
    else:
        for arg, kw in specs:
            p.add_argument(arg, **kw)


def build_parser(cmd=None) -> argparse.ArgumentParser:
    """The parser with the subparser of `cmd` alone, or of every command."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", action="append",
                        default=argparse.SUPPRESS, metavar="FILE",
                        help="workspace file (repeatable)")
    common.add_argument("--format", choices=("text", "json"),
                        default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="echoed as the report's seed; no command "
                             "draws from it")
    parser = argparse.ArgumentParser(
        prog="gradedmod", parents=[common],
        description="Exact change-of-ring calculus for finitely supported "
                    "graded modules over Z/nZ.")
    # a one-command parser names every command in its usage and errors
    sub = parser.add_subparsers(
        dest="cmd", required=True,
        metavar=None if cmd is None else "{" + ",".join(COMMANDS) + "}")
    for name in COMMANDS if cmd is None else (cmd,):
        _add_command(sub, common, name, COMMANDS[name][2],
                     help=COMMANDS[name][1])
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """`argv` parsed as the full parser parses it.  Past the exact global
    flags and their values, a known command gets a parser with only its
    subparser; anything else (`-h`, `--form`, `--input=F`) the full one."""
    argv = sys.argv[1:] if argv is None else list(argv)
    tokens = iter(argv)
    cmd = next(tokens, None)
    while (cmd in ("--input", "--format", "--seed")
           and not next(tokens, "-").startswith("-")):
        cmd = next(tokens, None)
    return build_parser(cmd if cmd in COMMANDS else None).parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # the global flags are SUPPRESS-defaulted so that values given before
    # the subcommand survive subparser parsing; fill the defaults here
    args.input = getattr(args, "input", None) or []
    args.format = getattr(args, "format", "text")
    args.seed = getattr(args, "seed", 0)
    try:
        ws, env = build_environment(args.input, _named_tokens(args))
        payload, code = COMMANDS[args.cmd][0](args, ws, env)
    except (ParseError, ValidationError, CliError, GradedError,
            analyze.AnalyzeError, scenarios.ScenarioError) as exc:
        message = f"error: {exc}"
        if args.format == "json":
            sys.stdout.write(json.dumps(
                {"format_version": FORMAT_VERSION, "error": str(exc)},
                indent=2) + "\n")
        else:
            sys.stdout.write(message + "\n")
        return EXIT_INPUT
    report = {"format_version": FORMAT_VERSION, "command": args.cmd,
              "seed": args.seed}
    report.update(payload)
    sys.stdout.write(emit_report(report, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
