"""Records are checked once, where their data enters the program.

Results derived inside the package from checked records are built by
``extension_group._derived``, which skips ``__post_init__``; the autouse
fixture in conftest.py routes those calls through the validating
constructor, so the whole suite checks the invariants each call site claims.
This file checks the rules that keep that sound:

* ``_derived`` is the only code in the package that builds a record with
  ``object.__new__``, and every call of it gives its reason in a comment;
* the fixture is active;
* the number of full checks a seeded ``grouplaw`` and ``probe`` run makes
  stays pinned, so re-validating derived records again fails a test.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

import pytest

import crystal_lab
from crystal_lab import (DeformationPoint, ExtensionContext, ExtensionData,
                         PrecisionContext, TrivializationWitness)
from crystal_lab import extension_group
from crystal_lab.cli import run
from crystal_lab.errors import InvalidExtension
from crystal_lab.series_matrix import SeriesMatrix, zeros_array

SOURCES = sorted(Path(crystal_lab.__file__).parent.glob("*.py"))


def object_new_sites(source: str) -> list:
    """The qualified names of the functions that call object.__new__."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__new__"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "object"):
            sites.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), None)
    return sites


def unexplained_derived_calls(source: str) -> list:
    """Lines of _derived calls with no comment on the line or the one above."""
    comments = {tok.start[0] for tok in
                tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "_derived"
                  and not {node.lineno, node.lineno - 1} & comments)


def test_only_derived_builds_records_without_checks():
    sites = {(path.name, scope) for path in SOURCES
             for scope in object_new_sites(path.read_text())}
    # TruncatedSeries is a ring element, not a checked record: its fast
    # constructor takes a coefficient array that is already canonical
    assert sites == {("extension_group.py", "_derived"),
                     ("padic_series.py", "TruncatedSeries._from_array")}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_derived_call_gives_its_reason(path):
    assert unexplained_derived_calls(path.read_text()) == []


def test_the_source_rules_are_reported():
    source = ("class A:\n"
              "    def f():\n"
              "        return object.__new__(int)\n"
              "# the reason\n"
              "a = _derived(int, 1)\n"
              "b = _derived(int, 2)  # the reason\n"
              "\n"
              "c = _derived(int, 3)\n")
    assert object_new_sites(source) == ["A.f"]
    assert unexplained_derived_calls(source) == [8]


def test_derived_records_are_checked_under_the_suite():
    ectx = ExtensionContext(PrecisionContext(3, 8, 32), 2)
    z = SeriesMatrix.zeros(ectx.ctx, 2, 2)
    arr = zeros_array(ectx.ctx, 2, 2)
    arr[0, 1, 1] = 1
    with pytest.raises(InvalidExtension, match="m must be symmetric"):
        extension_group._derived(ExtensionData, ectx, z, z,
                                 SeriesMatrix(ectx.ctx, arr), False)


RECORDS = (ExtensionData, TrivializationWitness, DeformationPoint)


@pytest.mark.parametrize("argv, checks", [
    # drawn witnesses and their (noisy) images meet their conditions by
    # construction, so only the points are checked: the three samples make
    # one block of nine points (1); then the identity point (1), the two
    # stacks of tangent points (2), and the two points of the level pair (2)
    (["grouplaw", "--p", "3", "--h", "10", "--n", "6", "--samples", "3"], 6),
    # the five sample points, and p_torsion_check checks the witness of p*Y
    # once for the block of samples that reach it
    (["probe", "--p", "3", "--h", "10", "--n", "6", "--N", "8",
      "--samples", "5"], 6),
], ids=["grouplaw", "probe"])
def test_full_record_checks_per_run(monkeypatch, capsys, argv, checks):
    """Full checks are the __post_init__ runs not made on behalf of a
    _derived call (which the suite's fixture routes through the
    constructor)."""
    inside = [0]
    full = [0]

    def counted_check(check):
        def wrapper(self):
            full[0] += not inside[0]
            check(self)
        return wrapper

    def counted_derived(derived):
        def wrapper(cls, *values):
            inside[0] += 1
            try:
                return derived(cls, *values)
            finally:
                inside[0] -= 1
        return wrapper

    for cls in RECORDS:
        monkeypatch.setattr(cls, "__post_init__",
                            counted_check(cls.__post_init__))
    for name, module in list(sys.modules.items()):
        if name.startswith("crystal_lab.") and hasattr(module, "_derived"):
            monkeypatch.setattr(module, "_derived",
                                counted_derived(module._derived))
    assert run(argv + ["--seed", "0"]) == 0
    capsys.readouterr()
    assert full[0] == checks
