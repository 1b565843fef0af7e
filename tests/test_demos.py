"""The demos as a gate: each script's stdout must match its recorded copy.

A change that alters any printed value fails here.  When an output changes
on purpose, rerecord it with
``PYTHONPATH=src python demos/<name>.py > tests/data/demos/<name>.txt``.
Each demo runs in its own interpreter, with the package under test first on
the import path (demo 05 starts the CLI as a further subprocess).
"""

import os
import pathlib
import subprocess
import sys

import pytest

import crystal_lab

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RECORDED = pathlib.Path(__file__).resolve().parent / "data" / "demos"


def test_every_demo_has_a_recording():
    assert DEMOS
    assert sorted(p.stem for p in DEMOS) == \
        sorted(p.stem for p in RECORDED.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_unchanged(demo):
    src = str(pathlib.Path(crystal_lab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == (RECORDED / f"{demo.stem}.txt").read_text()
