"""The package's own source: no dead imports, exports that match, and no
dead exports."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import wfregions

PACKAGE = Path(wfregions.__file__).parent
SUBMODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PERFBENCH = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))


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


def _referenced_names(path: Path, strings: bool) -> set[str]:
    """The names and attribute names the module reads, and with ``strings``
    its string constants too (the benchmark's tracer names its targets)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_export_is_used_by_the_package_or_the_benchmark():
    assert PERFBENCH
    used = set().union(
        *(_referenced_names(path, strings=False) for path in SUBMODULES),
        *(_referenced_names(path, strings=True) for path in PERFBENCH),
    )
    assert sorted(set(wfregions.__all__) - used) == []
