"""Every name a ``src/`` module imports is read there.

An import nobody reads costs load time and misleads a reader about what
a module depends on.  A name counts as read when the module's syntax
tree loads it anywhere — code, decorators, annotations, including
string annotations such as ``"Backend | None"`` — or lists it in a
literal ``__all__``.  ``from __future__`` imports are directives, not
names.  The imports kept for their effect alone are in :data:`EXEMPT`,
keyed by module path and the imported dotted name, each with its
reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

EXEMPT = {
    ("repro/engine/scenarios.py", "repro.engine.protocol"):
        "registers the protocol scenarios on import",
    ("repro/worker.py", "repro.engine.runner"):
        "loads the engine before the worker announces its port",
    ("repro/core/__init__.py", "repro.core.margin.margin"):
        "binds the function eagerly over its submodule's name",
}


def _imports(tree: ast.Module):
    """``(bound name, dotted name)`` of every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, f"{node.module}.{alias.name}"


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            for arg in (
                *arguments.posonlyargs,
                *arguments.args,
                *arguments.kwonlyargs,
                arguments.vararg,
                arguments.kwarg,
            ):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read(tree: ast.Module) -> set[str]:
    """Every name the module loads, string annotations included."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                read |= {
                    name.id
                    for name in ast.walk(parsed)
                    if isinstance(name, ast.Name)
                }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ) and isinstance(node.value, (ast.List, ast.Tuple)):
            read |= {
                element.value
                for element in node.value.elts
                if isinstance(element, ast.Constant)
            }
    return read


def unread_imports() -> dict[tuple[str, str], str]:
    """``(module path, dotted name)`` → bound name, for each import the
    module never reads."""
    unread = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = _read(tree)
        module = path.relative_to(SRC).as_posix()
        for bound, dotted in _imports(tree):
            if bound not in read:
                unread[(module, dotted)] = bound
    return unread


def test_every_import_is_read():
    unread = sorted(key for key in unread_imports() if key not in EXEMPT)
    assert not unread, f"imported and never read in src/: {unread}"


def test_exemptions_are_current():
    stale = sorted(key for key in EXEMPT if key not in unread_imports())
    assert not stale, f"EXEMPT lists imports that are read or gone: {stale}"


def test_the_scan_sees_string_annotations_and_dotted_imports():
    tree = ast.parse(
        "import os.path\n"
        "import json\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from x import Backend\n"
        "def f(b: 'Backend | None') -> None:\n"
        "    return TYPE_CHECKING\n"
    )
    read = _read(tree)
    unread = {dotted for bound, dotted in _imports(tree) if bound not in read}
    assert unread == {"os.path", "json"}
