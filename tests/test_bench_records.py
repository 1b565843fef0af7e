"""The committed benchmark records, BENCH_<n>.json at the root of the
repository: each holds one before/after measurement in one schema, and
names only workloads and end-to-end metrics that BENCHMARK.json declares.
The files are read and nothing is written."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = {"bench", "change", "parent_commit", "command", "method", "claimed",
        "machine", "results", "trace"}


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({w["name"] for w in spec["workloads"]},
            {m["name"] for m in spec["end_to_end"]})


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_schema(path):
    record = json.loads(path.read_text())
    workloads, metrics = declared()
    assert set(record) == KEYS
    assert record["bench"] == int(re.fullmatch(r"BENCH_(\d+)\.json",
                                               path.name).group(1))
    assert record["claimed"]["workload"] in workloads
    assert record["claimed"]["metric"] in metrics
    claimed = record["claimed"]
    assert {(r["workload"], r["seed"]) for r in record["results"]
            if claimed["metric"] in r["metrics"]} >= \
        {(claimed["workload"], seed) for seed in claimed["seeds"]}
    for result in record["results"]:
        assert result["workload"] in workloads
        for name, metric in result["metrics"].items():
            assert name in metrics
            parent, change = metric["parent"], metric["change"]
            assert metric["change_over_parent"] == pytest.approx(
                change["median"] / parent["median"], abs=1e-3), name
            for side in ("parent", "change"):
                assert len(metric["runs"][side]) == result["pairs"], name
