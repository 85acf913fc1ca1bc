"""The public names: every module declares an __all__ that resolves, the package root
re-exports only those names, and each is used by the package or the benchmark."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import wgclust

MODULES = sorted(m.name for m in pkgutil.iter_modules(wgclust.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"wgclust.{name}")
    assert "__all__" in vars(module), f"wgclust.{name} declares no __all__"
    exported = module.__all__
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"wgclust.{name}.__all__ names what it does not define: {missing}"


def test_package_root_names_are_public_module_names():
    public = {
        attr
        for name in MODULES
        for attr in importlib.import_module(f"wgclust.{name}").__all__
    }
    root = {
        attr for attr in vars(wgclust)
        if not attr.startswith("_") and attr not in MODULES
    }
    assert root <= public, f"root names no module exports: {sorted(root - public)}"


def _names_used(tree: ast.AST) -> set[str]:
    """Names read, attributes read and names imported in ``tree``.

    A use inside the def or class that binds the same name (recursion, a
    method naming its class) does not count; docstrings are not code.
    """
    used: set[str] = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        if name is not None and name not in inside:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return used


def test_every_public_name_is_used_or_documented():
    """No public API that only tests call: each __all__ name is used by the package or
    the benchmark. A README mention does not count as a use, and neither does the
    re-export in __init__.py."""
    root = Path(wgclust.__file__).resolve().parent.parent.parent
    package = [p for p in sorted(Path(wgclust.__file__).parent.glob("*.py"))
               if p.name != "__init__.py"]
    files = package + sorted((root / "benchmarks").rglob("*.py"))
    used = set().union(*(_names_used(ast.parse(p.read_text(encoding="utf-8"))) for p in files))
    unused = [
        f"wgclust.{name}.{attr}"
        for name in MODULES
        for attr in importlib.import_module(f"wgclust.{name}").__all__
        if attr not in used
    ]
    assert not unused, f"public names nothing but tests use: {unused}"


def _import_froms(directory: Path):
    """(file name, ImportFrom node) for every `from ... import ...` under ``directory``."""
    for path in sorted(directory.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                yield path.name, node


def test_sibling_imports_are_public():
    """Every `from .x import name` in the package names something in wgclust.x.__all__."""
    private = [
        f"{file}: from .{node.module} import {alias.name}"
        for file, node in _import_froms(Path(wgclust.__file__).parent)
        if node.level == 1 and node.module
        for alias in node.names
        if alias.name not in importlib.import_module(f"wgclust.{node.module}").__all__
    ]
    assert not private, f"sibling imports missing from their module's __all__: {private}"


def test_tests_import_no_private_trainer_name():
    private = [
        f"{file}: {alias.name}"
        for file, node in _import_froms(Path(__file__).resolve().parent)
        if node.module == "wgclust.trainer"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"tests import private names from wgclust.trainer: {private}"
