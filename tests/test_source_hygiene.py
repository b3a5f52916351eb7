"""Source hygiene of the milnork package, read with ast alone: every import
is used, every definition is referenced, and imports sit at module level."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "milnork"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(tree):
    """Names a module reads: bare names and the roots of dotted ones."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _references(tree):
    """Every identifier a file mentions: names, attributes, imported names,
    and each dotted part of a string constant (the bench names its call
    targets as 'Class.method' strings)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.split("."))
    return out


def _definitions(tree):
    """(name, line) of each top-level function and class and of each
    non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused


def test_every_definition_is_referenced():
    """A private top-level name counts as referenced only in its own module,
    or where another file reaches it by attribute or import, so a test's
    helper of the same name does not keep a dead one alive."""
    trees = {path: _tree(path)
             for top in ("src", "bench", "tests") for path in (ROOT / top).rglob("*.py")}
    everywhere = set().union(*(_references(tree) for tree in trees.values()))
    reached = {node.attr if isinstance(node, ast.Attribute) else node.name.split(".")[-1]
               for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (ast.Attribute, ast.alias))}
    unreferenced = []
    for path in MODULES:
        own = _references(trees[path])
        for name, line in _definitions(trees[path]):
            private = name.startswith("_") and "." not in name
            if name.split(".")[-1] not in ((own | reached) if private else everywhere):
                unreferenced.append(f"{path.name}:{line} {name}")
    assert not unreferenced


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    nested = [f"{path.name}:{inner.lineno}"
              for node in ast.walk(_tree(path))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              for inner in ast.walk(node)
              if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert not nested
