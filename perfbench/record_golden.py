"""Record the unit digests of seeds 0 to 15 into golden.json.

    python3 perfbench/record_golden.py

Run it only when an output format changes on purpose: the benchmark counts
every unit whose output digest differs from the recorded one as failed.
"""

import json
import sys

import run

SEEDS = range(16)


def main():
    err = run.load_program()
    if err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    seeds = {}
    for seed in SEEDS:
        seeds[str(seed)] = {
            name: " ".join(run.unit_digest(workload.unit(item))
                           for item in workload.setup(seed))
            for name, workload in WORKLOADS.items()}
        print(f"seed {seed} recorded", file=sys.stderr)
    run.GOLDEN.write_text(json.dumps({"seeds": seeds}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
