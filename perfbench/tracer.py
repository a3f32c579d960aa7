"""Call tracing for the benchmark, installed from outside gradedmod.

`Tracer.install()` replaces the public functions and methods of every
gradedmod module with wrappers, at every place the program can reach them:
the defining module, every module that bound the name with
`from .x import y`, class attributes, and module-level dicts of tuples
(the scenario layer's canonical-map table).  `uninstall()` puts the
originals back.  Nothing inside `src/gradedmod` is edited.

A timed wrapper records a span (name, task id, parent span, start, end) in
memory and adds its duration to the call's inclusive time; its self time is
that duration minus the time its child spans cover.  Hot small functions
get a light wrapper, which times them the same way but records no span, and
the hottest tiny ones a counted wrapper, which only counts calls: a timer
around them would distort the trace, so their time stays in the calling
span's self time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import time
from collections import defaultdict

# The traced modules of gradedmod; each is one layer.
LAYERS = ("abelian", "znlinalg", "graded", "functors", "canonical",
          "analyze", "textio", "scenarios", "corpus", "cli")

# Hot tiny functions: counted, not timed.
COUNT_ONLY = {
    "abelian.FgAbelianGroup.canon",
    "abelian.FgAbelianGroup.zero",
    "graded.GradedRing.component",
    "graded.GradedModule.component",
    "znlinalg.reduce_mod_span",
    "znlinalg.FpZnModule.reduce",
}

# Hot small functions: timed into their own self time, but recorded as no
# span, which makes each call several times cheaper to trace.
LIGHT = {
    "abelian.FgAbelianGroup.add",
    "abelian.FgAbelianGroup.sub",
    "abelian.FgAbelianGroup.neg",
    "abelian.GroupEpi.apply",
    "graded.zero_component",
    "graded.apply_tensor",
    "graded.GradedRing.multiply",
    "graded.GradedModule.act",
    "graded.GradedMorphism.matrix",
    "graded.GradedMorphism.apply",
    "graded.GradedRingHom.matrix",
    "graded.GradedRingHom.apply",
    "znlinalg.mat_mul",
    "znlinalg.vec_mat",
    "znlinalg.zero_matrix",
    "znlinalg.identity_matrix",
    "znlinalg.span_contains",
    "znlinalg.FpZnModule.zero",
    "znlinalg.FpZnModule.add",
    "znlinalg.FpZnModule.neg",
    "znlinalg.FpZnModule.scale",
    "textio._Lines.next_tokens",
}

# Private methods that are traced anyway: validation and construction.
GRADED_CLASSES = ("GradedRing", "GradedModule", "GradedMorphism",
                  "GradedRingHom")

# Functors whose returned module sizes are recorded.
SIZED_FUNCTORS = ("functors.restrict", "functors.mixed_tensor",
                  "functors.mixed_hom")

SPAN_CAP = 200_000

# metric name -> (unit, better); the per-layer table, in reporting order
PER_LAYER = {
    "abelian.canon.calls": ("count", "lower"),
    "abelian.self_s": ("s", "lower"),
    "znlinalg.howell.calls": ("count", "lower"),
    "znlinalg.howell.rows": ("count", "lower"),
    "znlinalg.howell.cells": ("count", "lower"),
    "znlinalg.howell.self_s": ("s", "lower"),
    "znlinalg.row_kernel.calls": ("count", "lower"),
    "znlinalg.self_s": ("s", "lower"),
    "znlinalg.solve_row.calls": ("count", "lower"),
    "znlinalg.solve_row.s": ("s", "lower"),
    "znlinalg.coords.calls": ("count", "lower"),
    "znlinalg.reduce_mod_span.calls": ("count", "lower"),
    "graded.construct.calls": ("count", "lower"),
    "graded.component.calls": ("count", "lower"),
    "graded.self_s": ("s", "lower"),
    "graded.validate.calls": ("count", "lower"),
    "graded.validate.s": ("s", "lower"),
    "functors.mixed_tensor.calls": ("count", "lower"),
    "functors.mixed_tensor.s": ("s", "lower"),
    "functors.mixed_hom.calls": ("count", "lower"),
    "functors.mixed_hom.s": ("s", "lower"),
    "functors.coords_of.calls": ("count", "lower"),
    "functors.self_s": ("s", "lower"),
    "functors.out_ngens": ("count", "lower"),
    "functors.out_rels": ("count", "lower"),
    "functors.out_log_card": ("log_n", "lower"),
    "functors.gens_per_log_card": ("ratio", "lower"),
    "canonical.calls": ("count", "lower"),
    "canonical.s": ("s", "lower"),
    "canonical.self_s": ("s", "lower"),
    "analyze.iso_search.calls": ("count", "lower"),
    "analyze.iso_search.s": ("s", "lower"),
    "analyze.iso_search.candidates": ("count", "lower"),
    "analyze.iso_search.accept_ratio": ("ratio", "higher"),
    "analyze.is_iso.calls": ("count", "lower"),
    "analyze.self_s": ("s", "lower"),
    "textio.parse_workspace.calls": ("count", "lower"),
    "textio.parse_workspace.s": ("s", "lower"),
    "textio.lines": ("count", "lower"),
    "textio.serialize_workspace.s": ("s", "lower"),
    "textio.self_s": ("s", "lower"),
    "scenarios.run_checks.s": ("s", "lower"),
    "scenarios.self_s": ("s", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _log_card(module) -> float:
    """Sum over components of log_n |M_d|."""
    n = module.ring.n
    return sum(math.log(c.cardinality(), n) for c in module.components.values())


class Tracer:
    """Wrappers, span store and counters for one traced run."""

    def __init__(self):
        self.calls = defaultdict(int)      # function label -> calls
        self.self_s = defaultdict(float)   # function label -> self time
        self.incl_s = defaultdict(float)   # label -> outermost inclusive time
        self.extra = defaultdict(float)    # named counters (rows, cells, ...)
        self.layer_incl = defaultdict(float)  # layer -> outermost time
        self.depth = defaultdict(int)      # label or layer -> open calls
        self.stack = []                    # [child time, span id, label]
        self.spans = []
        self.dropped = 0
        self.task = 0
        self._next_id = 0
        self._patches = []                 # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def _timed(self, label, fn):
        tracer = self
        clock = time.perf_counter
        calls, self_s, incl_s, depth = (self.calls, self.self_s, self.incl_s,
                                        self.depth)
        stack = self.stack
        layer = label.split(".", 1)[0]
        layer_incl = self.layer_incl
        hook = _HOOKS.get(label)

        def wrapper(*args, **kwargs):
            calls[label] += 1
            parent = stack[-1] if stack else None
            tracer._next_id += 1
            frame = [0.0, tracer._next_id, label]
            depth[label] += 1
            depth[layer] += 1
            stack.append(frame)
            start = clock()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(tracer, fn, parent, args, kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                depth[label] -= 1
                if not depth[label]:
                    incl_s[label] += dur
                depth[layer] -= 1
                if not depth[layer]:
                    layer_incl[layer] += dur
                self_s[label] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append(
                        (frame[1], parent[1] if parent else 0, tracer.task,
                         label, start, end))
                else:
                    tracer.dropped += 1

        return wrapper

    def _light(self, label, fn):
        clock = time.perf_counter
        calls, self_s, stack = self.calls, self.self_s, self.stack

        def wrapper(*args, **kwargs):
            calls[label] += 1
            # spans below this call name the nearest recorded span as parent
            frame = [0.0, stack[-1][1] if stack else 0, label]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                self_s[label] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur

        return wrapper

    def _counted(self, label, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, label, fn):
        if label in COUNT_ONLY:
            return self._counted(label, fn)
        if label in LIGHT:
            return self._light(label, fn)
        return self._timed(label, fn)

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every traced callable of the gradedmod modules in LAYERS."""
        modules = {layer: importlib.import_module(f"gradedmod.{layer}")
                   for layer in LAYERS}
        wrappers = {}  # id(original function) -> its wrapper
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, name, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    self._patch_table(obj, wrappers)

    def _install_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            label = f"{layer}.{cls.__name__}.{name}"
            traced = not name.startswith("_") or (
                cls.__name__ in GRADED_CLASSES and name in ("__init__",
                                                            "_validate"))
            if not traced:
                continue
            if isinstance(attr, staticmethod):
                self._patch(cls, name,
                            staticmethod(self._wrap(label, attr.__func__)))
            elif inspect.isfunction(attr):
                self._patch(cls, name, self._wrap(label, attr))

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _patch_table(self, table, wrappers):
        for key, value in list(table.items()):
            if isinstance(value, tuple) and any(id(v) in wrappers
                                                for v in value):
                new = tuple(wrappers.get(id(v), v) for v in value)
                self._patches.append((table, key, value))
                table[key] = new

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def layer_self_s(self, layer):
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def per_layer(self, passes: int, overhead_s: float) -> dict:
        """Per-layer metrics, per pass, keyed as in PER_LAYER."""
        c, s, i, x = self.calls, self.self_s, self.incl_s, self.extra
        canonical_labels = [k for k in c if k.startswith("canonical.")]
        raw = {
            "abelian.canon.calls": c["abelian.FgAbelianGroup.canon"],
            "abelian.self_s": self.layer_self_s("abelian"),
            "znlinalg.howell.calls": c["znlinalg.howell"],
            "znlinalg.howell.rows": x["howell.rows"],
            "znlinalg.howell.cells": x["howell.cells"],
            "znlinalg.howell.self_s": s["znlinalg.howell"],
            "znlinalg.row_kernel.calls": c["znlinalg.row_kernel"],
            "znlinalg.self_s": self.layer_self_s("znlinalg"),
            "znlinalg.solve_row.calls": c["znlinalg.solve_row"],
            "znlinalg.solve_row.s": i["znlinalg.solve_row"],
            "znlinalg.coords.calls": c["znlinalg.Subquotient.coords"],
            "znlinalg.reduce_mod_span.calls": c["znlinalg.reduce_mod_span"],
            "graded.construct.calls": sum(
                c[f"graded.{k}.__init__"] for k in GRADED_CLASSES),
            "graded.component.calls": (c["graded.GradedRing.component"]
                                       + c["graded.GradedModule.component"]),
            "graded.self_s": self.layer_self_s("graded"),
            "graded.validate.calls": sum(
                c[f"graded.{k}._validate"] for k in GRADED_CLASSES),
            "graded.validate.s": sum(
                i[f"graded.{k}._validate"] for k in GRADED_CLASSES),
            "functors.mixed_tensor.calls": c["functors.mixed_tensor"],
            "functors.mixed_tensor.s": i["functors.mixed_tensor"],
            "functors.mixed_hom.calls": c["functors.mixed_hom"],
            "functors.mixed_hom.s": i["functors.mixed_hom"],
            "functors.coords_of.calls": c["functors.HomWitness.coords_of"],
            "functors.self_s": self.layer_self_s("functors"),
            "functors.out_ngens": x["functors.out_ngens"],
            "functors.out_rels": x["functors.out_rels"],
            "functors.out_log_card": x["functors.out_log_card"],
            "canonical.calls": sum(c[k] for k in canonical_labels),
            "canonical.s": self.layer_incl["canonical"],
            "canonical.self_s": self.layer_self_s("canonical"),
            "analyze.iso_search.calls": c["analyze.iso_search"],
            "analyze.iso_search.s": i["analyze.iso_search"],
            "analyze.iso_search.candidates": x["iso_search.candidates"],
            "analyze.is_iso.calls": c["analyze.is_iso"],
            "analyze.self_s": self.layer_self_s("analyze"),
            "textio.parse_workspace.calls": c["textio.parse_workspace"],
            "textio.parse_workspace.s": i["textio.parse_workspace"],
            "textio.lines": x["textio.lines"],
            "textio.serialize_workspace.s": i["textio.serialize_workspace"],
            "textio.self_s": self.layer_self_s("textio"),
            "scenarios.run_checks.s": i["scenarios.run_checks"],
            "scenarios.self_s": self.layer_self_s("scenarios"),
            "cli.main.calls": c["cli.main"],
            "cli.main.s": i["cli.main"],
            "cli.self_s": self.layer_self_s("cli"),
        }
        out = {k: v / passes for k, v in raw.items()}
        # ratios keep their own base and are not divided by the pass count
        out["functors.gens_per_log_card"] = (
            x["functors.out_ngens"] / x["functors.out_log_card"]
            if x["functors.out_log_card"] else 0.0)
        out["analyze.iso_search.accept_ratio"] = (
            x["iso_search.accepted"] / x["iso_search.candidates"]
            if x["iso_search.candidates"] else 0.0)
        out["trace.overhead_s"] = overhead_s
        return {k: out[k] for k in PER_LAYER}

    def write(self, path, header: dict, table: dict):
        """Write the per-layer table, then one span per line."""
        with open(path, "w") as f:
            functions = {label: {"calls": self.calls[label],
                                 "self_s": self.self_s.get(label, 0.0)}
                         for label in sorted(self.calls)}
            layers = {layer: self.layer_self_s(layer) for layer in LAYERS}
            f.write(json.dumps({**header, "per_layer": table,
                                "layer_self_s": layers,
                                "functions": functions,
                                "spans": len(self.spans),
                                "spans_dropped": self.dropped}) + "\n")
            for span in self.spans:
                sid, parent, task, label, start, end = span
                f.write(json.dumps({"id": sid, "parent": parent,
                                    "task": task, "name": label,
                                    "start": start, "end": end}) + "\n")


# ---------------------------------------------------------------------------
# hooks: traced calls that record more than time and count


def _howell_hook(tracer, fn, parent, args, kwargs):
    rows, ncols, n = args
    rows = list(rows)
    tracer.extra["howell.rows"] += len(rows)
    tracer.extra["howell.cells"] += len(rows) * ncols
    return fn(rows, ncols, n, **kwargs)


def _sized_hook(tracer, fn, parent, args, kwargs):
    result = fn(*args, **kwargs)
    module = getattr(result, "module", result)
    x = tracer.extra
    x["functors.out_ngens"] += sum(c.ngens for c in module.components.values())
    x["functors.out_rels"] += sum(len(c.rels)
                                  for c in module.components.values())
    x["functors.out_log_card"] += _log_card(module)
    return result


def _morphism_init_hook(tracer, fn, parent, args, kwargs):
    # a morphism built directly by iso_search is one candidate it tried
    if parent is None or parent[2] != "analyze.iso_search":
        return fn(*args, **kwargs)
    tracer.extra["iso_search.candidates"] += 1
    result = fn(*args, **kwargs)
    tracer.extra["iso_search.accepted"] += 1
    return result


def _parse_hook(tracer, fn, parent, args, kwargs):
    tracer.extra["textio.lines"] += len(args[0].splitlines())
    return fn(*args, **kwargs)


_HOOKS = {
    "znlinalg.howell": _howell_hook,
    "graded.GradedMorphism.__init__": _morphism_init_hook,
    "textio.parse_workspace": _parse_hook,
    **{label: _sized_hook for label in SIZED_FUNCTORS},
}

