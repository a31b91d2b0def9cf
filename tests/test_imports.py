"""Every module of the package uses each name it imports. `__init__.py` is
left out: its imports are the package's exports."""

import ast
from pathlib import Path

import pytest

import corrgap

MODULES = sorted(p for p in Path(corrgap.__file__).parent.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = [name for name in imported_names(tree) if name not in used_names(tree)]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def test_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Sequence, Callable\nx: Sequence = os.sep\n")
    assert [n for n in imported_names(tree) if n not in used_names(tree)] == ["Callable"]
