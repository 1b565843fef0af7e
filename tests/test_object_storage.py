"""One storage switch, and the recorded outputs on Python-integer storage.

``padic_series.storage_dtype`` is the only code that decides how
coefficients are stored: int64 residues when p^N < 2^62, Python integers in
object arrays otherwise.  This file checks two things.

* A source rule: no module of the package but ``padic_series.py`` names
  the storage limit ``_INT64_STORAGE_LIMIT`` or the flag ``int64_safe``.
* A replay: the end-to-end gates, namely the ten acceptance criteria, the
  CLI sweep, the five demos and the golden digests of the benchmark, run
  again with ``padic_series._INT64_STORAGE_LIMIT`` set to 0.  Every
  context then stores Python integers, and every recorded byte must stay
  the same.

The replay runs pytest in a fresh interpreter.  A ``sitecustomize``
module, put first on PYTHONPATH, sets the limit before any context
exists.  The patch also reaches each interpreter that the replay starts:
each demo, and the CLI that demo 05 runs.  Each of them records its
storage dtype at exit, and the replay checks those records.  The replay
never runs in the suite's own process.  Contexts compare equal whatever
their storage, so tables memoised there would be handed to the other
storage.

Run the replay alone with
``PYTHONPATH=src python -m pytest -q tests/test_object_storage.py``.
"""

import ast
import collections
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import crystal_lab

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = pathlib.Path(crystal_lab.__file__).resolve().parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
REPLAYED = ["tests/test_acceptance.py", "tests/test_cli_recordings.py",
            "tests/test_demos.py", "tests/test_perfbench_golden.py"]
STORAGE_NAMES = {"_INT64_STORAGE_LIMIT", "int64_safe"}

# the limit is set before anything can build a context; each interpreter
# records its storage dtype and its program next to this module
SITECUSTOMIZE = """\
import atexit
import json
import os
import pathlib
import sys

from crystal_lab import padic_series

padic_series._INT64_STORAGE_LIMIT = 0


@atexit.register
def _record():
    dtype = padic_series.storage_dtype(padic_series.PrecisionContext(3, 8, 4))
    record = {"dtype": dtype.__name__, "argv": sys.argv}
    path = pathlib.Path(__file__).parent / "interpreters" / str(os.getpid())
    path.write_text(json.dumps(record))
"""


def storage_names(source: str) -> list:
    """Where the source names the storage limit or the storage flag."""
    found = []
    for node in ast.walk(ast.parse(source)):
        names = ([node.id] if isinstance(node, ast.Name) else
                 [node.attr] if isinstance(node, ast.Attribute) else
                 [a.name for a in node.names]
                 if isinstance(node, ast.ImportFrom) else [])
        found += [f"{name} (line {node.lineno})" for name in names
                  if name in STORAGE_NAMES]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(
    p for p in PACKAGE.glob("*.py") if p.name != "padic_series.py"),
    ids=lambda p: p.name)
def test_only_padic_series_decides_storage(path):
    assert storage_names(path.read_text()) == []


def test_the_storage_rule_is_reported():
    source = ("from .padic_series import _INT64_STORAGE_LIMIT, storage_dtype\n"
              "def f(ctx):\n"
              "    return ctx.int64_safe or storage_dtype(ctx)\n")
    assert storage_names(source) == ["_INT64_STORAGE_LIMIT (line 1)",
                                     "int64_safe (line 3)"]


def program(argv: list) -> str:
    """The name of what an interpreter ran: a script, a module run with
    -m (pytest's ``__main__.py``), or the CLI with its verb."""
    name = pathlib.Path(argv[0]).name
    return f"{name} {argv[1]}" if name == "cli.py" else name


def test_recorded_outputs_replay_on_python_integer_storage(tmp_path):
    (tmp_path / "sitecustomize.py").write_text(SITECUSTOMIZE)
    (tmp_path / "interpreters").mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tmp_path), str(PACKAGE.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # the replayed modules use no hypothesis, whose plugin takes 0.6 s to load
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         "-p", "no:hypothesispytest", f"--basetemp={tmp_path / 'run'}",
         *REPLAYED],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    lines = re.findall(r"ACCEPTANCE +(\d+) .*: (PASS|FAIL)", done.stdout)
    assert lines == [(str(n), "PASS") for n in range(1, 11)], lines

    records = [json.loads(path.read_text())
               for path in (tmp_path / "interpreters").iterdir()]
    assert {r["dtype"] for r in records} == {"object"}
    started = collections.Counter(program(r["argv"]) for r in records)
    assert started == collections.Counter(
        ["__main__.py", "cli.py trivialize", "cli.py probe",
         *(demo.name for demo in DEMOS)])
