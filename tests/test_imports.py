"""Every name a module of the package imports is used in that module, and
the package exports what `__all__` names.

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


def test_every_exported_name_exists_once():
    names = crystal_lab.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(crystal_lab, name)] == []


@pytest.mark.parametrize("name", ["multiply_by_p_injectivity_probe",
                                  "ProbeReport", "group_law_check",
                                  "GroupLawReport"])
def test_the_sampling_verbs_and_their_reports_are_exported(name):
    from crystal_lab import moduli
    assert name in crystal_lab.__all__
    assert getattr(crystal_lab, name) is getattr(moduli, name)
