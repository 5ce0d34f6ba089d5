"""The runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

import polysym

PACKAGE = Path(polysym.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = {p.stem for p in SOURCES}


def test_sources_found():
    assert {"cli", "oracle", "polygon_core"} <= MODULES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_package_local(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            tops = [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops = [node.module.partition(".")[0]]
        elif isinstance(node, ast.ImportFrom):
            # relative: one level up from a flat package is the package itself
            assert node.level == 1, f"{path.name}:{node.lineno} leaves polysym"
            names = [node.module] if node.module else [a.name for a in node.names]
            for name in names:
                assert name.partition(".")[0] in MODULES, f"{path.name}:{node.lineno}"
            continue
        else:
            continue
        for top in tops:
            assert top in sys.stdlib_module_names, f"{path.name}:{node.lineno} imports {top}"
