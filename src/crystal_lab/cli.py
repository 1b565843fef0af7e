"""Command-line driver: JSON files in, machine-readable JSON reports out.

Exit codes: 0 all checks pass, 1 a mathematical check failed (the report
still goes to stdout), 2 malformed input or usage.  Sampling verbs require
an explicit seed and repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import serialize
from .crystal import (check_horizontality, check_pairing_compat,
                      make_standard_crystal, newton_slopes)
from .errors import CrystalLabError, SchemaError
from .extension_group import (ExtensionContext, Refuted, TorsionCertificate,
                              Untrivializable, baer_sum, p_torsion_check,
                              trivialize)
from .moduli import (add_points, identity_point, multiply_by_p_injectivity_probe,
                     negate_point, point_from_tangent, random_geometric_point,
                     tangent_coordinates, truncate_point)
from .padic_series import PrecisionContext

_MODE_ALIASES = {"fast": "fast", "pp": "pullback_pushout", "pop": "pushout_pullback",
                 "pullback_pushout": "pullback_pushout",
                 "pushout_pullback": "pushout_pullback"}


def _emit(doc, out=None):
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None


def _cmd_gen(args):
    ctx = PrecisionContext(args.p, args.N, args.M)
    crystal = make_standard_crystal(ctx, args.h, args.kind, rho=args.rho)
    _emit(serialize.crystal_to_json(crystal), args.out)
    return 0


def _cmd_check(args):
    crystal = serialize.crystal_from_json(_load(args.file))
    doc = {**serialize.header(crystal.context), "check": args.which}
    if args.which == "horizontality":
        report = check_horizontality(crystal)
        doc["passed"] = report.passed
    else:
        report = check_pairing_compat(crystal)
        doc.update(passed=report.passed, symmetric=report.symmetric,
                   frobenius_compatible=report.frobenius_compatible,
                   flat=report.flat, perfect=report.perfect)
    _emit(doc, args.out)
    return 0 if doc["passed"] else 1


def _cmd_baer_sum(args):
    e1 = serialize.extension_from_json(_load(args.e1))
    e2 = serialize.extension_from_json(_load(args.e2))
    result = baer_sum(e1, e2, _MODE_ALIASES[args.mode])
    _emit(serialize.extension_to_json(result), args.out)
    return 0


def _cmd_trivialize(args):
    e = serialize.extension_from_json(_load(args.file))
    outcome = trivialize(e)
    if isinstance(outcome, Untrivializable):
        _emit({**serialize.header(e.context), "trivializable": False,
               "equation": outcome.equation,
               "index": list(outcome.index), "reason": outcome.reason}, args.out)
        return 1
    doc = serialize.witness_to_json(outcome)
    doc["trivializable"] = True
    _emit(doc, args.out)
    return 0


def _cmd_ptorsion(args):
    e = serialize.extension_from_json(_load(args.extension))
    w = serialize.witness_from_json(_load(args.witness))
    outcome = p_torsion_check(e, w)
    if isinstance(outcome, Refuted):
        _emit({**serialize.header(e.context), "certified": False,
               "step": outcome.step, "detail": outcome.detail}, args.out)
        return 1
    assert isinstance(outcome, TorsionCertificate)
    doc = {**serialize.header(e.context), "certified": True,
           "precision": outcome.precision,
           "beta": serialize.witness_to_json(outcome.beta),
           "trace": [{"step": s.label, "statement": s.statement, "ok": s.ok}
                     for s in outcome.trace]}
    _emit(doc, args.out)
    return 0


def _cmd_slopes(args):
    crystal = serialize.crystal_from_json(_load(args.file))
    slopes = newton_slopes(crystal)
    _emit({**serialize.header(crystal.context), "rank": crystal.rank,
           "slopes": slopes.to_json()}, args.out)
    return 0


def _samples(args) -> int:
    if args.samples < 0:
        raise ValueError(f"--samples must be non-negative, got {args.samples}")
    return args.samples


def _cmd_grouplaw(args):
    samples = _samples(args)
    ctx = PrecisionContext(args.p, args.N, args.M)
    ectx = ExtensionContext(ctx, args.h)
    rng = random.Random(args.seed)
    failures = []

    def tally(name, ok):
        if not ok:
            failures.append(name)

    ident = identity_point(ectx, args.n)
    for k in range(samples):
        y = random_geometric_point(rng, ectx, args.n, nontrivial=False)
        z = random_geometric_point(rng, ectx, args.n, nontrivial=False)
        w = random_geometric_point(rng, ectx, args.n, nontrivial=False)
        tally(f"commutative[{k}]", add_points(y, z) == add_points(z, y))
        tally(f"associative[{k}]",
              add_points(add_points(y, z), w) == add_points(y, add_points(z, w)))
        tally(f"identity[{k}]", add_points(y, ident) == y)
        tally(f"inverse[{k}]", add_points(y, negate_point(y)) == ident)
        tally(f"functorial[{k}]",
              truncate_point(add_points(y, z), 2)
              == add_points(truncate_point(y, 2), truncate_point(z, 2)))

    p = ctx.p
    tangent_ok = True
    for k in range(samples):
        a = [rng.randrange(p) for _ in range(args.h - 1)]
        b = [rng.randrange(p) for _ in range(args.h - 1)]
        ya, yb = point_from_tangent(ectx, a), point_from_tangent(ectx, b)
        lhs = tangent_coordinates(add_points(ya, yb))
        rhs = tuple((x + y) % p for x, y in zip(a, b))
        if lhs != rhs or tangent_coordinates(ya) != tuple(a):
            tangent_ok = False
    tally("tangent_additive", tangent_ok)

    # level-by-level view of one sum: the single-shot law agrees with the
    # successive lifts through every truncation of the base
    y = random_geometric_point(rng, ectx, args.n, nontrivial=True)
    z = random_geometric_point(rng, ectx, args.n, nontrivial=False)
    total = add_points(y, z)
    levels = []
    for i in range(2, args.n + 1):
        lhs = truncate_point(total, i) if i < args.n else total
        rhs = add_points(truncate_point(y, i) if i < args.n else y,
                         truncate_point(z, i) if i < args.n else z)
        levels.append({"level": i, "agrees": lhs == rhs})
        tally(f"level[{i}]", lhs == rhs)

    doc = {**serialize.header(ctx), "h": args.h, "n": args.n,
           "seed": args.seed, "samples": samples,
           "tangent_dimension": args.h - 1,
           "successive_levels": levels,
           "failures": failures, "passed": not failures}
    _emit(doc, args.out)
    return 0 if not failures else 1


def _cmd_probe(args):
    samples = _samples(args)
    ctx = PrecisionContext(args.p, args.N, args.M)
    ectx = ExtensionContext(ctx, args.h)
    report = multiply_by_p_injectivity_probe(ectx, args.n, samples,
                                             seed=args.seed)
    doc = {**serialize.header(ctx), "h": args.h, "n": args.n}
    doc.update(report.to_json())
    _emit(doc, args.out)
    return 0 if not report.counterexamples else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crystal-lab",
        description="Exact computations with extensions of truncated-ring "
                    "F-crystals: generation, checking, group law, torsion "
                    "certification, slopes.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common_precisions(sp):
        sp.add_argument("--p", type=int, default=3, help="odd prime (default 3)")
        sp.add_argument("--N", type=int, default=8, help="p-adic digits")
        sp.add_argument("--M", type=int, default=32, help="t-adic degree")
        sp.add_argument("--out", help="also write the JSON document here")

    sp = sub.add_parser("gen", help="emit a standard crystal file")
    common_precisions(sp)
    sp.add_argument("--h", type=int, required=True, help="height in [2, 10]")
    sp.add_argument("--kind", required=True,
                    choices=["sub1", "super1", "slope1", "pair"])
    sp.add_argument("--rho", type=int, default=None,
                    help="rank for kind=slope1")
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("check", help="run an invariant checker on a crystal file")
    sp.add_argument("which", choices=["horizontality", "pairing"])
    sp.add_argument("file")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("baer-sum", help="Baer sum of two extension files")
    sp.add_argument("e1")
    sp.add_argument("e2")
    sp.add_argument("--mode", default="fast", choices=sorted(_MODE_ALIASES))
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_baer_sum)

    sp = sub.add_parser("trivialize", help="find a splitting witness or report why not")
    sp.add_argument("file")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_trivialize)

    sp = sub.add_parser("ptorsion",
                        help="certify an extension with trivial p-multiple trivial")
    sp.add_argument("extension")
    sp.add_argument("witness", help="witness file for p times the extension")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_ptorsion)

    sp = sub.add_parser("slopes", help="Newton slopes of a constant crystal file")
    sp.add_argument("file")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_slopes)

    for verb, func, text in (
            ("grouplaw", _cmd_grouplaw, "seeded group-axiom and tangent checks"),
            ("probe", _cmd_probe, "seeded multiplication-by-p injectivity probe")):
        sp = sub.add_parser(verb, help=text)
        common_precisions(sp)
        sp.add_argument("--h", type=int, required=True)
        sp.add_argument("--n", type=int, required=True, help="base degree")
        sp.add_argument("--samples", type=int, required=True,
                        help="non-negative sample count")
        sp.add_argument("--seed", type=int, required=True)
        sp.set_defaults(func=func)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CrystalLabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(run())
