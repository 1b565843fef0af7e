"""crystal-lab benchmark: four seeded workloads against the public API.

    python3 perfbench/run.py --workload baer_oracle --seed 3 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.  It
is a closed loop: one process, one caller, and each unit starts after the
previous one has finished.  ``--trace 0`` times units with nothing wrapped
and reports the end-to-end metrics; ``--trace 1`` runs every unit twice,
untraced and traced in alternating order, and reports the per-layer
metrics, the tracer's coverage and its overhead.

Every unit checks its own answer and hashes its canonical output.  A unit
fails when it raises, gives a wrong answer, or its digest differs from the
one ``golden.json`` records for its seed (seeds 0 to 15), or else from the
first run of the same input.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

T_START = time.perf_counter()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
SPANS_DIR = BENCH / "out"

THREAD_CAP = 1   # one caller; a BLAS pool would only add scheduling noise
SETUP_REPS = 9   # set-ups per run, spread over it; the median is reported
MIN_UNITS = 100  # so that the p90 has ten samples beyond it
HARD_STOP_S = 150.0
WORKLOAD_NAMES = ("baer_oracle", "wide_precision", "probe", "grouplaw")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Cap the thread pools, then import crystal_lab from this checkout.

    Returns an error message when the checkout holds no program to run.
    """
    if not (SRC / "crystal_lab" / "__init__.py").is_file():
        return f"no crystal_lab sources under {SRC}; run from a full checkout"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = str(THREAD_CAP)  # read once, when numpy loads
    sys.path.insert(0, str(SRC))
    import crystal_lab
    if Path(crystal_lab.__file__).resolve().parent != SRC / "crystal_lab":
        return f"crystal_lab was imported from {crystal_lab.__file__}, not {SRC}"
    import workloads  # noqa: F401  (imports numpy and every program module)
    return None


def environment(seed):
    import numpy as np
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "thread_cap": THREAD_CAP, "nproc": len(os.sched_getaffinity(0)),
            "seed": seed}


def clear_program_caches():
    """Empty crystal_lab's memo tables so that each set-up pays in full."""
    for name, mod in list(sys.modules.items()):
        if name == "crystal_lab" or name.startswith("crystal_lab."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear") and \
                        getattr(obj, "__module__", "") == name:
                    obj.cache_clear()


def golden_digests(workload, seed):
    """The stored unit digests for this workload and seed, if recorded."""
    recorded = json.loads(GOLDEN.read_text())["seeds"].get(str(seed))
    return recorded[workload].split() if recorded else None


def unit_digest(output: bytes) -> str:
    return hashlib.sha256(output).hexdigest()[:16]


class Checker:
    """Runs units, times them, and keeps the failure and digest books."""

    def __init__(self, workload, pool, expected):
        from workloads import WrongAnswer
        self.wrong_answer = WrongAnswer
        self.workload = workload
        self.pool = pool
        self.expected = list(expected) if expected else [None] * len(pool)
        self.first = [None] * len(pool)
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, slot):
        """One unit on pool[slot]; returns (seconds, ok)."""
        t0 = time.perf_counter()
        try:
            digest, err = unit_digest(self.workload.unit(self.pool[slot])), None
        except self.wrong_answer as exc:
            digest, err = None, f"wrong answer: {exc}"
        except Exception:
            digest, err = None, traceback.format_exc()
        dt = time.perf_counter() - t0
        if digest is not None:
            if self.first[slot] is None:
                self.first[slot] = digest
            if self.expected[slot] is None:
                self.expected[slot] = digest
            elif digest != self.expected[slot]:
                err = f"output digest {digest} != {self.expected[slot]}"
        self.attempted += 1
        if err is not None:
            self.failed += 1
            if len(self.errors) < 3:
                self.errors.append(f"unit {slot}: {err}")
        return dt, err is None

    def run_digest(self) -> str:
        return hashlib.sha256(
            "".join(d for d in self.first if d).encode()).hexdigest()


def import_program_copy():
    """Execute every module of crystal_lab afresh, under another package
    name so that the modules in use stay as they are; then drop the copy."""
    name = "_crystal_lab_setup_copy"
    spec = importlib.util.spec_from_file_location(
        name, SRC / "crystal_lab" / "__init__.py",
        submodule_search_locations=[str(SRC / "crystal_lab")])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(sys.modules[name])
        for sub in ("cli", "sampling"):  # not imported by the package itself
            importlib.import_module(f"{name}.{sub}")
    finally:
        for key in [k for k in sys.modules
                    if k == name or k.startswith(name + ".")]:
            del sys.modules[key]


def set_up(workload, seed):
    """One full set-up: the program's import, its contexts with the memo
    tables emptied, and the input pool.  Returns (pool, seconds)."""
    t0 = time.perf_counter()
    import_program_copy()
    clear_program_caches()
    pool = workload.setup(seed)
    return pool, time.perf_counter() - t0


class Reference:
    """Fixed work that no change to the program can alter: a Python integer
    loop and an int64 tensordot of desk-scale shape, about 3 ms in all.

    A shared machine can switch between speeds; the 2-vCPU machine this was
    built on ran at speeds up to 1.5x apart, for seconds to minutes.  The
    switch slows this kernel and the program alike, so a unit's wall time
    divided by the reference time around it is a cost the switch mostly
    cancels out of.
    """

    def __init__(self):
        import numpy as np
        self.a = np.arange(40 * 40, dtype=np.int64).reshape(40, 40) % 3
        self.b = np.arange(40 * 40 * 33, dtype=np.int64).reshape(40, 40, 33) % 6561
        self.tensordot = np.tensordot

    def run(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(10000):
            acc += i * i % 7
        self.tensordot(self.a, self.b, axes=(1, 0))
        return time.perf_counter() - t0


def timed_run(checker, seconds, set_up_again):
    """Units back to back for `seconds`, and at least MIN_UNITS of them.

    The reference kernel runs between units, outside their timing, and so
    does `set_up_again`, at SETUP_REPS - 1 moments spread evenly over the
    run, so that the set-up times sample the machine's speeds as the units
    do.  Returns
    per-unit wall seconds, per-unit cost in reference times (the mean of the
    reference runs just before and just after the unit), the reference
    times, the verified count and the elapsed unit time.
    """
    reference = Reference()
    times, costs = [], []
    verified = 0
    before = reference.run()
    refs = [before]
    paused = 0.0
    t_begin = time.perf_counter()
    deadline = t_begin + seconds
    set_up_at = [t_begin + seconds * k / SETUP_REPS for k in range(1, SETUP_REPS)]
    while True:
        now = time.perf_counter()
        if now - T_START > HARD_STOP_S or (now >= deadline
                                            and len(times) >= MIN_UNITS):
            break
        if set_up_at and now >= set_up_at[0]:
            set_up_at.pop(0)
            set_up_again()
            paused += time.perf_counter() - now
        dt, ok = checker.run(len(times) % len(checker.pool))
        after = reference.run()
        refs.append(after)
        times.append(dt)
        costs.append(2.0 * dt / (before + after))
        before = after
        verified += ok
    elapsed = time.perf_counter() - t_begin - sum(refs[1:]) - paused
    return times, costs, refs, verified, elapsed


def end_to_end(args, workload, import_s):
    pool, first_s = set_up(workload, args.seed)
    setup_times = [first_s]
    checker = Checker(workload, pool, golden_digests(args.workload, args.seed))
    times, costs, refs, verified, elapsed = timed_run(
        checker, args.seconds,
        lambda: setup_times.append(set_up(workload, args.seed)[1]))
    setup_s = statistics.median(setup_times)
    n = len(times)
    ms = [t * 1000.0 for t in times]
    metrics = {
        "units_per_kref": (1000.0 * verified / sum(costs), "1/kref"),
        "unit_ref_p50": (statistics.median(costs), "ref"),
        "unit_ref_p90": (statistics.quantiles(costs, n=10)[8], "ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    # wall-clock figures, reported but not bounded: they move with the
    # machine's speed (see Reference)
    wall = {
        "units_per_s": (verified / elapsed, "1/s"),
        "unit_ms_p50": (statistics.median(ms), "ms"),
        "unit_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "failed_fraction": (checker.failed / n, "1"),
        "import_s": (import_s, "s"),
        "reference_ms_p50": (statistics.median(refs) * 1000.0, "ms"),
    }
    notes = {"units_per_kref": f"{verified} verified units per 1000 reference times",
             "unit_ref_p50": f"n={n}", "unit_ref_p90": f"n={n}",
             "setup_s": f"median of {len(setup_times)} set-ups over the run",
             "import_s": "first import, numpy included, once",
             "peak_rss_mb": "ru_maxrss",
             "units_per_s": f"{verified} verified units in {elapsed:.2f} s",
             "unit_ms_p50": f"n={n}", "unit_ms_p90": f"n={n}",
             "failed_fraction": f"{checker.failed}/{n} units failed",
             "reference_ms_p50": f"n={len(refs)}, the machine's current speed"}
    print(f"{args.workload}: closed loop, 1 caller, {n} units, seed {args.seed}")
    for name, (value, unit) in {**metrics, **wall}.items():
        print(f"  {name:<16} {value:12.4f} {unit:<6} ({notes[name]})")
    return checker, metrics


def traced(args, workload):
    from tracer import Tracer
    from workloads import DOMINANT
    tracer = Tracer()
    tracer.install()
    pool = workload.setup(args.seed)
    tracer.uninstall()
    setup_calls = {layer: rec[0] for layer, rec in tracer.agg.items()}
    setup_ms = tracer.self_s("sampling.random_extension") * 1000.0
    tracer.reset()

    checker = Checker(workload, pool, golden_digests(args.workload, args.seed))
    wall = {False: 0.0, True: 0.0}
    units = 0
    deadline = time.perf_counter() + args.seconds
    # whole passes over the pool, so that per-unit counts repeat exactly;
    # a pass starts only if one more is expected to end by the deadline
    pass_s = 0.0
    while units == 0 or time.perf_counter() + pass_s < deadline:
        t_pass = time.perf_counter()
        for slot in range(len(pool)):
            if time.perf_counter() - T_START > HARD_STOP_S:
                break
            for tracing in ((False, True) if slot % 2 == 0 else (True, False)):
                if tracing:
                    tracer.unit = units
                    tracer.install()
                try:
                    wall[tracing] += checker.run(slot)[0]
                finally:
                    tracer.uninstall()
            units += 1
        pass_s = time.perf_counter() - t_pass
        if time.perf_counter() - T_START > HARD_STOP_S:
            break
    plain_s, traced_s = wall[False], wall[True]

    if tracer.missing:
        print(f"tracer: targets not found: {', '.join(tracer.missing)}",
              file=sys.stderr)
    dead = [layer for layer in DOMINANT[args.workload]
            if not (tracer.calls(layer) or setup_calls.get(layer))]
    if dead:
        return checker, None, f"no calls recorded in dominant layers: {dead}"

    SPANS_DIR.mkdir(exist_ok=True)
    tracer.write_spans(SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return checker, layer_metrics(tracer, units, setup_ms, plain_s, traced_s), None


def layer_metrics(tracer, units, setup_ms, plain_s, traced_s):
    """Per-layer metrics, each per traced unit unless it is a ratio."""
    out = {}

    def per_unit(name, value, unit):
        out[name] = (value / units, unit)

    def calls_and_self(layer, calls=True, total=False):
        if calls:
            per_unit(f"{layer}.calls", tracer.calls(layer), "count")
        per_unit(f"{layer}.self_ms", tracer.self_s(layer) * 1000.0, "ms")
        if total:
            per_unit(f"{layer}.total_ms", tracer.total_s(layer) * 1000.0, "ms")

    def ratio(name, hits, layer):
        n = tracer.calls(layer)
        out[name] = (tracer.extra.get(hits, 0) / n if n else 0.0, "ratio")

    calls_and_self("padic_series.integrate")
    per_unit("padic_series.integrate.digits_lost",
             tracer.extra.get("padic_series.integrate.digits_lost", 0), "digits")
    calls_and_self("padic_series.series_ops")
    for kind in ("const", "general"):
        layer = f"series_matrix.matmul.{kind}"
        calls_and_self(layer)
        per_unit(f"{layer}.madds", tracer.extra.get(f"{layer}.madds", 0),
                 "madds_computed")
        per_unit(f"{layer}.bytes", tracer.extra.get(f"{layer}.bytes", 0),
                 "bytes_computed")
    per_unit("series_matrix.matmul.object_calls",
             tracer.extra.get("series_matrix.matmul.object_calls", 0), "count")
    for layer in ("entry", "calculus", "elementwise"):
        calls_and_self(f"series_matrix.{layer}")
    for layer in ("check_horizontality", "check_pairing_compat", "direct_sum"):
        calls_and_self(f"crystal.{layer}")
    for mode in ("fast", "pullback_pushout", "pushout_pullback"):
        calls_and_self(f"extension_group.baer_sum.{mode}", total=mode != "fast")
    calls_and_self("extension_group.assemble_crystal", calls=False)
    calls_and_self("extension_group.ExtensionData.validate")
    calls_and_self("extension_group.trivialize", total=True)
    ratio("extension_group.trivialize.split_ratio",
          "extension_group.trivialize.split", "extension_group.trivialize")
    calls_and_self("extension_group.p_torsion_check", total=True)
    ratio("extension_group.p_torsion_check.certified_ratio",
          "extension_group.p_torsion_check.certified",
          "extension_group.p_torsion_check")
    for layer in ("DeformationPoint.validate", "add_points", "truncate_point",
                  "random_geometric_point", "probe"):
        calls_and_self(f"moduli.{layer}", total=True)
    out["sampling.random_extension.self_ms"] = (setup_ms, "ms")
    calls_and_self("serialize.extension_to_json")
    calls_and_self("cli.run", calls=False)
    out["trace.coverage"] = (tracer.total_self_s() / traced_s, "ratio")
    out["trace.overhead"] = (traced_s / plain_s, "ratio")
    print(f"traced {units} units ({traced_s:.2f} s traced, {plain_s:.2f} s "
          f"untraced); self time per unit:")
    shares = sorted(((v, k) for k, (v, u) in out.items()
                     if k.endswith(".self_ms") and k != "sampling.random_extension.self_ms"),
                    reverse=True)
    per_unit_wall = traced_s * 1000.0 / units
    for value, name in shares:
        if value > 0:
            print(f"  {name:<48} {value:10.3f} ms  {100 * value / per_unit_wall:5.1f}%")
    return out


def main(argv=None):
    args = parse_args(argv)
    err = load_program()
    if err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]

    if args.trace:
        checker, metrics, err = traced(args, workload)
        if err:
            print(f"error: traced run: {err}", file=sys.stderr)
            return 1
    else:
        checker, metrics = end_to_end(args, workload, import_s)
    for msg in checker.errors:
        print(msg, file=sys.stderr)

    report = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "digest": checker.run_digest(),
              "environment": environment(args.seed)}
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
