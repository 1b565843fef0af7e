"""Every name a module of the package imports is used in that module.

``__init__.py`` re-exports by importing, so it is skipped, and so are
``__future__`` imports.
"""

import ast
from pathlib import Path

import pytest

import crystal_lab

MODULES = sorted(p for p in Path(crystal_lab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_reported():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == \
        ["b (line 2)", "os (line 1)"]
