"""The benchmark's traced gate, run by the test suite.

A traced benchmark run fails when one of the layers that
``perfbench/workloads.py`` lists in DOMINANT for a workload records no
calls: the program no longer goes through the function the tracer wraps,
and the per-layer metrics of that workload would silently read zero.  This
test installs the tracer around the set-up and the first two units of every
workload and checks the same condition, plus that every traced target still
exists, and traces one stack whose samples lose different numbers of
digits.  perfbench/tracer.py and perfbench/workloads.py are read and
executed in memory, so nothing is written under perfbench/.
"""

import random

import pytest
from test_extension_group import stacked
from test_perfbench_golden import load

from crystal_lab import (ExtensionContext, PrecisionContext, extension_group,
                         from_alpha, trivialize)
from crystal_lab.sampling import random_witness, witness_support

# a target the tracer still lists that the program no longer has
STALE_TARGETS = {"series_matrix.SeriesMatrix.scale_series"}


@pytest.mark.parametrize("name", ["baer_oracle", "wide_precision", "probe",
                                  "grouplaw"])
def test_dominant_layers_record_calls(name):
    workloads = load("workloads")
    tracer = load("tracer").Tracer()
    workload = workloads.WORKLOADS[name]
    tracer.install()
    try:
        pool = workload.setup(0)
        for slot in range(2):
            workload.unit(pool[slot])
    finally:
        tracer.uninstall()
    assert set(tracer.missing) <= STALE_TARGETS
    dead = [layer for layer in workloads.DOMINANT[name]
            if not tracer.calls(layer)]
    assert dead == []


def test_a_traced_stack_with_mixed_losses():
    # integrate returns one matrix per call, whose precision the tracer
    # reads; the two samples lose 0 and 1 digit
    ectx = ExtensionContext(PrecisionContext(3, 8, 32), 3)
    rng = random.Random(0)
    es = [from_alpha(random_witness(rng, ectx, degrees))
          for degrees in (witness_support(ectx), [3])]
    tracer = load("tracer").Tracer()
    tracer.install()
    try:
        out = extension_group.trivialize(stacked(es))
    finally:
        tracer.uninstall()
    assert out == tuple(trivialize(e) for e in es)
    assert [w.context.N for w in out] == [8, 7]
    assert tracer.calls("padic_series.integrate") == 2
    assert tracer.extra["padic_series.integrate.digits_lost"] == 1
