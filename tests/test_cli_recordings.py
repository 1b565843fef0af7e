"""A seeded sweep of the CLI as a gate: for every case, the exit code and the
SHA-256 of stdout and of stderr must match ``tests/data/cli_sweep.json``.

The sweep covers ``gen`` (every kind), both ``check`` verbs, ``slopes``,
``baer-sum`` in all five ``--mode`` spellings, ``trivialize``, ``ptorsion``,
``probe`` and ``grouplaw`` at p in {3, 5}, N in {8, 40} (int64 and
Python-integer storage) and h in {3, 10}, plus a rank-0 crystal and inputs
that must exit 2.  The input files come from the package's seeded samplers
and are named relative to the working directory, so no path reaches the
output.  Every case runs in process.

When an output changes on purpose, rerecord the file with
``PYTHONPATH=src python tests/test_cli_recordings.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import tempfile

from crystal_lab import (ExtensionContext, ExtensionData, PrecisionContext,
                         assemble_crystal, from_alpha, int_scale,
                         make_standard_crystal, serialize, trivialize)
from crystal_lab.cli import run
from crystal_lab.sampling import (add_noise, random_extension, random_witness,
                                  witness_support)

RECORDING = pathlib.Path(__file__).resolve().parent / "data" / "cli_sweep.json"
M = 12  # p^2 <= M at p=3 (xi-perturbed classes), p^2 > M at p=5 (v-noise)
MODES = ("fast", "pp", "pop", "pullback_pushout", "pushout_pullback")


def _write(name, doc):
    pathlib.Path(name).write_text(json.dumps(doc))
    return name


def _grid_cases(p, N, h):
    """Cases at one (p, N, h); writes their input files into the cwd."""
    tag = f"p{p}-N{N}-h{h}"
    prec = ["--p", str(p), "--N", str(N), "--M", str(M)]
    ctx = PrecisionContext(p, N, M)
    ectx = ExtensionContext(ctx, h)
    rng = random.Random(p * 10000 + N * 100 + h)
    cases = {}
    for kind in ("sub1", "super1", "slope1", "pair"):
        argv = ["gen", *prec, "--h", str(h), "--kind", kind]
        if kind == "slope1":
            argv += ["--rho", str(h)]
        cases[f"{tag}/gen-{kind}"] = argv
        f = _write(f"{tag}-{kind}.json", serialize.crystal_to_json(
            make_standard_crystal(ctx, h, kind, rho=h)))
        for which in ("horizontality", "pairing"):
            cases[f"{tag}/check-{which}-{kind}"] = ["check", which, f]
        cases[f"{tag}/slopes-{kind}"] = ["slopes", f]

    trivial = random_extension(rng, ectx)
    nontrivial = random_extension(rng, ectx, nontrivial=True)
    geo = from_alpha(random_witness(rng, ectx, witness_support(ectx))
                     ).mark_geometric()
    noisy = add_noise(rng, geo, "m", p)
    files = {name: _write(f"{tag}-{name}.json", serialize.extension_to_json(e))
             for name, e in (("trivial", trivial), ("nontrivial", nontrivial),
                             ("geo", geo), ("noisy", noisy),
                             ("zero", ExtensionData.zero(ectx)))}
    for name in ("trivial", "nontrivial"):
        asm = serialize.crystal_to_json(assemble_crystal(
            trivial if name == "trivial" else nontrivial))
        f = _write(f"{tag}-asm-{name}.json", asm)
        for which in ("horizontality", "pairing"):
            cases[f"{tag}/check-{which}-asm-{name}"] = ["check", which, f]
        cases[f"{tag}/trivialize-{name}"] = ["trivialize", files[name]]
    asm["frobenius"][0][0][1] = "1"  # a t-term in a constant block
    f = _write(f"{tag}-asm-broken.json", asm)
    for which in ("horizontality", "pairing"):
        cases[f"{tag}/check-{which}-asm-broken"] = ["check", which, f]

    for mode in MODES:
        cases[f"{tag}/baer-sum-{mode}"] = [
            "baer-sum", files["trivial"], files["nontrivial"], "--mode", mode]
    cases[f"{tag}/baer-sum-zero"] = ["baer-sum", files["geo"], files["zero"]]

    for name, e in (("geo", geo), ("noisy", noisy), ("trivial", trivial)):
        w = _write(f"{tag}-witness-{name}.json",
                   serialize.witness_to_json(trivialize(int_scale(e, p))))
        cases[f"{tag}/ptorsion-{name}"] = ["ptorsion", files[name], w]
    # the witness for p * geo offered for geo changed in one equation each:
    # xi by 1 at (0,1), v by t at (0,0) (still geometric), m by t at (0,0)
    for name, (field, deg) in (("connection", ("xi", 0)),
                               ("frobenius", ("v", 1)),
                               ("pairing", ("m", 1))):
        doc = serialize.extension_to_json(geo)
        cell = doc[field][0][1 if field == "xi" else 0]
        cell[deg] = str((int(cell[deg]) + 1) % ctx.modulus)
        cases[f"{tag}/ptorsion-wrong-{name}"] = [
            "ptorsion", _write(f"{tag}-geo-{name}.json", doc),
            f"{tag}-witness-geo.json"]

    n = str(M // p + 1)  # the largest base degree with p (n - 1) <= M
    for verb, samples in (("probe", 3), ("grouplaw", 2)):
        cases[f"{tag}/{verb}"] = [verb, *prec, "--h", str(h), "--n", n,
                                  "--samples", str(samples), "--seed", str(h)]
    return cases


def _edge_cases():
    """The rank-0 crystal and inputs that must exit 2."""
    ctx = PrecisionContext(3, 8, 4)
    rank0 = _write("rank0.json", serialize.crystal_to_json(
        make_standard_crystal(ctx, 2, "slope1", rho=0)))
    e3 = _write("e-h3.json", serialize.extension_to_json(
        ExtensionData.zero(ExtensionContext(ctx, 3))))
    e2 = _write("e-h2.json", serialize.extension_to_json(
        ExtensionData.zero(ExtensionContext(ctx, 2))))
    pathlib.Path("not-json.json").write_text("{")
    cases = {
        "rank0/gen": ["gen", "--M", "4", "--h", "2", "--kind", "slope1",
                      "--rho", "0"],
        "rank0/check-horizontality": ["check", "horizontality", rank0],
        "rank0/check-pairing": ["check", "pairing", rank0],
        "rank0/slopes": ["slopes", rank0],
        "exit2/probe-N2": ["probe", "--N", "2", "--h", "3", "--n", "3",
                           "--samples", "1", "--seed", "0"],
        "exit2/probe-unfaithful": ["probe", "--p", "5", "--M", "12", "--h", "3",
                                   "--n", "4", "--samples", "1", "--seed", "0"],
        "exit2/grouplaw-h11": ["grouplaw", "--h", "11", "--n", "3",
                               "--samples", "1", "--seed", "0"],
        "exit2/gen-h1": ["gen", "--h", "1", "--kind", "sub1"],
        "exit2/gen-slope1-no-rho": ["gen", "--h", "2", "--kind", "slope1"],
        "exit2/gen-p4": ["gen", "--p", "4", "--h", "2", "--kind", "pair"],
        "exit2/baer-sum-heights": ["baer-sum", e3, e2, "--mode", "pp"],
        "exit2/ptorsion-not-geometric": ["ptorsion", e3, e3],
        "exit2/missing-file": ["slopes", "missing.json"],
        "exit2/not-json": ["trivialize", "not-json.json"],
        "exit2/unknown-mode": ["baer-sum", e3, e3, "--mode", "sideways"],
        "exit2/no-verb": [],
    }
    ctx2 = PrecisionContext(3, 2, 4)
    ectx2 = ExtensionContext(ctx2, 2)
    z = ExtensionData.zero(ectx2)
    cases["exit2/ptorsion-two-digits"] = [
        "ptorsion", _write("e-N2.json", serialize.extension_to_json(z)),
        _write("w-N2.json", serialize.witness_to_json(trivialize(z)))]
    return cases


def sweep_cases():
    """Every case as {id: argv}; writes the input files into the cwd."""
    cases = {}
    for p in (3, 5):
        for N in (8, 40):
            for h in (3, 10):
                cases.update(_grid_cases(p, N, h))
    cases.update(_edge_cases())
    return cases


def run_case(argv):
    """The exit code and the SHA-256 of stdout and of stderr of one
    invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"exit": code,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def test_cli_sweep_matches_recording(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    recorded = json.loads(RECORDING.read_text())
    cases = sweep_cases()
    assert sorted(cases) == sorted(recorded)
    changed = [(case, recorded[case], got) for case, argv in cases.items()
               if (got := run_case(argv)) != recorded[case]]
    assert not changed, changed[:5]


def test_sweep_reaches_every_exit_code():
    codes = [r["exit"] for r in json.loads(RECORDING.read_text()).values()]
    assert {0, 1, 2} <= set(codes)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        results = {case: run_case(argv) for case, argv in sweep_cases().items()}
    RECORDING.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(results)} cases to {RECORDING}")
