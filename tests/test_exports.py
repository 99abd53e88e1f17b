"""Every public export of every curralg module resolves to a real name, and
is used by code that a command, a demo or the benchmark runs."""

from __future__ import annotations

import ast
import importlib.util
import pathlib
import pkgutil

import pytest

import curralg

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(info.name for info in pkgutil.iter_modules(curralg.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"curralg.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"curralg.{name}.__all__ names missing attributes: {missing}"


def _loaded_names(path: pathlib.Path) -> set:
    """Every name the file reads, as a bare name or an attribute, except
    where a definition of that name reads itself (a recursive call)."""
    names: set = set()

    def visit(node, enclosing: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in enclosing:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr not in enclosing:
            names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), frozenset())
    return names


def _traced_names() -> set:
    """(module, name) for every layer the benchmark's tracer wraps."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {tuple(name.split(".")[:2]) for name, _ in tracer.LAYERS}


def test_every_export_runs_outside_the_tests():
    """A name in an ``__all__`` must be read by the package outside its own
    definition, by a demo or by the benchmark (a traced layer counts):
    otherwise only tests reach it, and it supports no command's verdict."""
    live = set()
    for folder in (ROOT / "src" / "curralg", ROOT / "demos", ROOT / "perfbench"):
        for path in folder.glob("*.py"):
            live |= _loaded_names(path)
    traced = _traced_names()
    dead = []
    for name in MODULES:
        for attr in importlib.import_module(f"curralg.{name}").__all__:
            if attr not in live and (name, attr) not in traced:
                dead.append(f"{name}.{attr}")
    assert not dead, f"exported but used only by tests: {dead}"
