"""Every name a module of the package imports is used in that module.

An import of the form `from m import x as x` marks a deliberate re-export
(the convention type checkers follow) and is exempt.
"""

import ast
import pathlib

import pytest

import gradedmod

SOURCES = sorted(pathlib.Path(next(iter(gradedmod.__path__))).glob("*.py"))


def _imported(tree):
    """(bound name, line) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.asname != alias.name:
                    yield alias.asname or alias.name.split(".")[0], node.lineno


def _used(tree):
    """Names read anywhere, including inside quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used(ast.parse(ann.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree)
              if name not in used]
    assert not unused, f"{path.name} imports unused names: {unused}"


# private layout helpers that belong to one module each: the Hom-degree
# layout is `functors.HomDegree`, the coarse offsets `graded.coarse_layout`
PRIVATE_LAYOUT = {"_block_layout", "_block_matrices", "_flat_vector",
                  "_coarse_components", "_coords_or_fail"}
TEST_SOURCES = sorted(pathlib.Path(__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES + TEST_SOURCES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_private_layout_helper_crosses_a_module(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    crossing = [f"{alias.name} (line {node.lineno})"
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names if alias.name in PRIVATE_LAYOUT]
    crossing += [f"{node.attr} (line {node.lineno})"
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and node.attr in PRIVATE_LAYOUT]
    assert not crossing, f"{path.name} imports private helpers: {crossing}"


def _built_default(call):
    """The default of a `setdefault` call when Python must build it anew
    on every call: anything but a constant, a name or an empty display."""
    if not (isinstance(call.func, ast.Attribute)
            and call.func.attr == "setdefault" and len(call.args) == 2):
        return None
    default = call.args[1]
    if isinstance(default, (ast.Constant, ast.Name)):
        return None
    if isinstance(default, (ast.List, ast.Tuple, ast.Set)) and not default.elts:
        return None
    if isinstance(default, ast.Dict) and not default.keys:
        return None
    return default


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_setdefault_builds_its_default_on_every_call(path):
    # `d.setdefault(key, <block>)` builds the block even when the key is
    # there; per entry of a k x k table that made reading a declared
    # ring grow like k^5.  Build a block on a miss only.
    tree = ast.parse(path.read_text(), filename=str(path))
    built = [f"line {node.lineno}: {ast.unparse(default)}"
             for node in ast.walk(tree) if isinstance(node, ast.Call)
             for default in [_built_default(node)] if default is not None]
    assert not built, f"{path.name} builds setdefault defaults: {built}"
