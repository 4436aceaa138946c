"""Every public name of an ``akwinfer`` module is used by the package or by
perfbench, not only by its own tests.

A name in a module's ``__all__`` counts as used when code in
``src/akwinfer/`` or ``perfbench/`` refers to it other than at its own
definition: by name inside its module, by name after ``from <module> import
name``, as ``<module alias>.name``, or as ``hook(<module alias>, "name")``
(perfbench wraps functions by attribute name). Names that only tests call
must either be wired into a config and a recipe, or be removed; the scalar
reference the replay tests compare against lives in ``tests/reference.py``.
The one exception below is kept on purpose.

Every attribute that perfbench's sample wraps must exist, so a refactor
that moves a hooked name fails here as well as in the benchmark's
``hooks_missing``.
"""

import ast
import importlib.util
import pathlib

import pytest

import akwinfer

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "akwinfer"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

ALLOWED_UNUSED = {
    ("simharness", "read_replications"): "artifact reader; the summary round-trip test uses it",
}


def _module_aliases(tree: ast.Module) -> dict[str, str]:
    """Local names bound to an akwinfer module in one file: the module's own
    name, ``from . import m as alias``, and ``alias = pkg.m`` (also as a
    tuple assignment)."""
    aliases = {m: m for m in MODULES}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for a in node.names:
                if a.name in MODULES:
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            pairs = [(target, value)]
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs = list(zip(target.elts, value.elts))
            for t, v in pairs:
                if isinstance(t, ast.Name) and isinstance(v, ast.Attribute) and v.attr in MODULES:
                    aliases[t.id] = v.attr
    return aliases


def _owner(expr: ast.expr, aliases: dict[str, str]) -> str | None:
    """The akwinfer module ``expr`` names (``alias`` or ``pkg.module``)."""
    if isinstance(expr, ast.Name):
        return aliases.get(expr.id)
    if isinstance(expr, ast.Attribute) and expr.attr in MODULES:
        return expr.attr
    return None


def _uses() -> set[tuple[str, str, str, int]]:
    """(module, name, file, line) for every reference found in SOURCES."""
    found = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        aliases = _module_aliases(tree)
        own = path.stem if path.parent == PACKAGE else None
        names = {}  # local name -> (module, exported name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                module = node.module.rsplit(".", 1)[-1]
                if module in MODULES:
                    for a in node.names:
                        names[a.asname or a.name] = (module, a.name)
        for node in ast.walk(tree):
            ref = None
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                ref = names.get(node.id)
                if ref is None and own is not None:
                    ref = (own, node.id)
            elif isinstance(node, ast.Attribute):
                owner = _owner(node.value, aliases)
                ref = None if owner is None else (owner, node.attr)
            elif isinstance(node, ast.Call) and len(node.args) >= 2:
                owner, attr = _owner(node.args[0], aliases), node.args[1]
                if owner and isinstance(attr, ast.Constant) and isinstance(attr.value, str):
                    ref = (owner, attr.value)
            if ref is not None:
                found.add((*ref, str(path), node.lineno))
    return found


def _exports(module: str) -> dict[str, tuple[int, int]]:
    """``__all__`` of a module, each name with its definition's line span."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    exported, spans = [], {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            spans[node.name] = (node.lineno, node.end_lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    spans[t.id] = (node.lineno, node.end_lineno)
                    if t.id == "__all__":
                        exported = [e.value for e in node.value.elts]
    return {name: spans.get(name, (0, -1)) for name in exported}


def _unused_exports() -> set[tuple[str, str]]:
    uses = _uses()
    unused = set()
    for module in MODULES:
        own = str(PACKAGE / f"{module}.py")
        for name, (lo, hi) in _exports(module).items():
            if not any(
                m == module and n == name and not (f == own and lo <= line <= hi)
                for m, n, f, line in uses
            ):
                unused.add((module, name))
    return unused


def test_every_public_name_is_used_outside_the_tests():
    unused = _unused_exports() - set(ALLOWED_UNUSED)
    assert not unused, (
        "public names used only by tests (wire them into a config and a "
        f"recipe, or remove them): {sorted(unused)}"
    )


@pytest.mark.parametrize("module, name", sorted(ALLOWED_UNUSED))
def test_allowlist_names_exist_and_are_still_needed(module, name):
    assert name in _exports(module)
    assert (module, name) in _unused_exports(), "used now; drop it from the allowlist"


def test_guard_sees_module_aliases_and_hooks():
    uses = {(m, n, pathlib.Path(f).name) for m, n, f, _ in _uses()}
    # ``sh = akw.simharness`` then ``tracer.wrap(sh, "draw_block", ...)``
    assert ("simharness", "draw_block", "sample.py") in uses
    # ``from . import directions as dirs`` then ``dirs.draw_directions``
    assert ("directions", "draw_directions", "simharness.py") in uses
    # ``from .random_scaling import ONE_SIDED_QUANTILES``
    assert ("random_scaling", "ONE_SIDED_QUANTILES", "cli.py") in uses


class _RecordingTracer:
    """Stands in for perfbench's tracer and records what it is asked to wrap."""

    def __init__(self):
        self.wrapped = []

    def wrap(self, owner, attr, name, count=None):
        self.wrapped.append((owner, attr))


def test_perfbench_hooks_name_existing_attributes():
    path = ROOT / "perfbench" / "sample.py"
    spec = importlib.util.spec_from_file_location("perfbench_sample", path)
    sample = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sample)
    tracer = _RecordingTracer()
    sample._coarse_hooks(tracer, akwinfer)
    sample._fine_hooks(tracer, akwinfer)
    assert tracer.wrapped
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in tracer.wrapped
        if not hasattr(owner, attr)
    ]
    assert not missing, missing
