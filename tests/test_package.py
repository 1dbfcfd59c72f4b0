"""The package's own source: no dead imports, and exports that match."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import wfregions

PACKAGE = Path(wfregions.__file__).parent
SUBMODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(module: ast.Module) -> set[str]:
    """The names the module's import statements bind, ``__future__`` aside."""
    names = set()
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


@pytest.mark.parametrize("path", SUBMODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    module = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    assert _imported_names(module) - used == set()


def test_all_names_exactly_what_the_package_imports():
    module = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert sorted(wfregions.__all__) == sorted(_imported_names(module))
    assert len(set(wfregions.__all__)) == len(wfregions.__all__)
