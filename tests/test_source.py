"""Rules on the package source itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "latmin"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips asserts; library invariants raise InternalError instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"


def _referenced_names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def test_no_dead_helpers():
    # every top-level function and class is loaded, called or imported from
    # outside its own body somewhere in the package
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            own = getattr(node, "name", None) if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
            if own is not None:
                defined.append(f"{path.name}:{own}")
            used.update(name for name in _referenced_names(node) if name != own)
    dead = [d for d in defined if d.split(":")[1] not in used]
    assert not dead, f"unreferenced top-level definitions: {dead}"
