"""The four workloads, each a seeded pool of inputs and a checked unit.

``setup(seed)`` builds the contexts and generates the pool; the program
sees only the generated inputs.  ``unit(item)`` runs one unit of work
through the public API of crystal_lab, raises ``WrongAnswer`` when an output
fails its check, and returns the canonical output bytes that the digest
covers.

Calls go through module attributes (``cl.baer_sum``, ``cli.run``) looked up
at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import crystal_lab as cl
from crystal_lab import cli, sampling, serialize

POOL = 60  # distinct units per run, a multiple of 6 for the k%2 / k%3 mix


class WrongAnswer(Exception):
    """A unit finished but its output failed the correctness check."""


def _context(p, h, N, M):
    ectx = cl.ExtensionContext(cl.PrecisionContext(p, N, M), h)
    ectx.sub1, ectx.super1, ectx.pair  # built lazily on first use
    return ectx


class Oracle:
    """One pair of classes; the Baer sum three ways, then the assembled
    crystal through both checkers."""

    def __init__(self, p, h, N, M):
        self.shape = (p, h, N, M)

    def setup(self, seed):
        ectx = _context(*self.shape)
        rng = random.Random(seed)
        # nontrivial on k%2 and k%3, as in acceptance criterion 03
        return [(sampling.random_extension(rng, ectx, nontrivial=bool(k % 2)),
                 sampling.random_extension(rng, ectx, nontrivial=bool(k % 3)))
                for k in range(POOL)]

    def unit(self, pair):
        e1, e2 = pair
        fast = cl.baer_sum(e1, e2, "fast")
        pp = cl.baer_sum(e1, e2, "pullback_pushout")
        pop = cl.baer_sum(e1, e2, "pushout_pullback")
        if not (pp == fast and pop == fast):
            raise WrongAnswer("the three Baer-sum routes disagree")
        crystal = cl.assemble_crystal(fast)
        if not cl.check_horizontality(crystal).passed:
            raise WrongAnswer("assembled sum fails horizontality")
        if not cl.check_pairing_compat(crystal).passed:
            raise WrongAnswer("assembled sum fails pairing compatibility")
        doc = serialize.extension_to_json(fast)
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


class CliVerb:
    """One in-process ``crystal-lab`` invocation with a derived seed."""

    def __init__(self, argv, check):
        self.argv = argv
        self.check = check

    def setup(self, seed):
        _context(3, 10, 8, 32)  # the context every invocation builds
        rng = random.Random(seed)
        return [rng.randrange(2**31) for _ in range(POOL)]

    def unit(self, seed):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(self.argv + ["--seed", str(seed)])
        text = out.getvalue()
        if code != 0:
            raise WrongAnswer(f"exit code {code}")
        self.check(json.loads(text))
        return text.encode()


def _check_probe(doc):
    if doc["counterexamples"]:
        raise WrongAnswer(f"counterexamples: {doc['counterexamples']}")
    if doc["nontrivial_pY"] + doc["torsion_certified"] != doc["samples"]:
        raise WrongAnswer("nontrivial_pY + torsion_certified != samples")


def _check_grouplaw(doc):
    if doc["passed"] is not True:
        raise WrongAnswer(f"failures: {doc['failures']}")


WORKLOADS = {
    "baer_oracle": Oracle(p=3, h=10, N=8, M=32),
    "wide_precision": Oracle(p=3, h=5, N=24, M=32),
    "probe": CliVerb(["probe", "--p", "3", "--h", "10", "--n", "6", "--N", "8",
                      "--samples", "5"], _check_probe),
    "grouplaw": CliVerb(["grouplaw", "--p", "3", "--h", "10", "--n", "6",
                         "--samples", "3"], _check_grouplaw),
}

# the layers each workload is chosen to exercise, in its set-up or its
# units; a traced run in which one of them records no calls has missed a
# patch and fails
DOMINANT = {
    "baer_oracle": ["series_matrix.matmul.const", "series_matrix.matmul.general",
                    "extension_group.baer_sum.pullback_pushout",
                    "extension_group.baer_sum.pushout_pullback",
                    "crystal.check_horizontality", "crystal.check_pairing_compat",
                    "sampling.random_extension"],
    "wide_precision": ["series_matrix.matmul.const",
                       "series_matrix.matmul.general",
                       "extension_group.baer_sum.pullback_pushout",
                       "extension_group.baer_sum.pushout_pullback",
                       "sampling.random_extension"],
    "probe": ["cli.run", "extension_group.trivialize", "padic_series.integrate",
              "series_matrix.entry", "extension_group.p_torsion_check"],
    "grouplaw": ["cli.run", "moduli.DeformationPoint.validate",
                 "moduli.random_geometric_point", "moduli.add_points",
                 "moduli.truncate_point", "extension_group.baer_sum.fast"],
}
