"""Command-line driver: JSON files in, machine-readable JSON reports out.

Exit codes: 0 all checks pass, 1 a mathematical check failed (the report
still goes to stdout), 2 malformed input or usage.  Sampling verbs require
an explicit seed and repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import serialize
from .crystal import (check_horizontality, check_pairing_compat,
                      make_standard_crystal, newton_slopes)
from .errors import CrystalLabError, SchemaError
from .extension_group import (ExtensionContext, Refuted, Untrivializable,
                              baer_sum, p_torsion_check, trivialize)
from .moduli import group_law_check, multiply_by_p_injectivity_probe
from .padic_series import PrecisionContext

_MODE_ALIASES = {"fast": "fast", "pp": "pullback_pushout", "pop": "pushout_pullback",
                 "pullback_pushout": "pullback_pushout",
                 "pushout_pullback": "pushout_pullback"}


def _emit(doc, out):
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise SchemaError(f"cannot write {out}: {exc}") from None
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


def _sampling_verb(args) -> int:
    # looked up per call, so the cached parser sees a rebound attribute
    verb = {"grouplaw": group_law_check,
            "probe": multiply_by_p_injectivity_probe}[args.verb]
    if args.samples < 0:
        raise ValueError(f"--samples must be non-negative, got {args.samples}")
    ctx = PrecisionContext(args.p, args.N, args.M)
    report = verb(ExtensionContext(ctx, args.h), args.n, args.samples,
                  seed=args.seed)
    doc = {**serialize.header(ctx), "h": args.h, "n": args.n}
    doc.update(report.to_json())
    _emit(doc, args.out)
    return 0 if report.passed else 1


@functools.cache
def build_parser():
    """The argument parser, built once: parsing leaves it unchanged."""
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

    for verb, text in (
            ("grouplaw", "seeded group-axiom and tangent checks"),
            ("probe", "seeded multiplication-by-p injectivity probe")):
        sp = sub.add_parser(verb, help=text)
        common_precisions(sp)
        sp.add_argument("--h", type=int, required=True)
        sp.add_argument("--n", type=int, required=True, help="base degree")
        sp.add_argument("--samples", type=int, required=True,
                        help="non-negative sample count")
        sp.add_argument("--seed", type=int, required=True)
        sp.set_defaults(func=_sampling_verb)

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
