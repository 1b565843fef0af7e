"""The benchmark's recorded outputs, guarded by the test suite.

perfbench/golden.json holds the SHA-256 prefix of every unit's canonical
output for seeds 0 to 15.  The first units of every workload (the N=8 and
N=24 Baer sums, and the in-process probe and grouplaw verbs) must reproduce
them byte for byte.  perfbench/workloads.py is read
and executed in memory, so nothing is written under perfbench/.
"""

import hashlib
import json
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """perfbench/<name>.py, executed in memory."""
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("name", ["baer_oracle", "wide_precision", "probe",
                                  "grouplaw"])
def test_first_units_match_golden_digests(name):
    golden = json.loads((BENCH / "golden.json").read_text())["seeds"]["0"]
    workload = load("workloads").WORKLOADS[name]
    pool = workload.setup(0)
    for slot, expected in enumerate(golden[name].split()[:2]):
        output = workload.unit(pool[slot])
        assert hashlib.sha256(output).hexdigest()[:16] == expected, slot
