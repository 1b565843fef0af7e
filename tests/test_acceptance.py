"""Acceptance suite: every criterion at the declared desk scale.

Scale: p in {3, 5}, h in {2, 3, 5, 10}, N = 8, M = 32, base degree n = 6.
Every comparison is exact (residue or rational equality); there are no
floating-point tolerances anywhere.  Each criterion prints one PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them).
"""

import itertools
import json
import random
from contextlib import contextmanager
from fractions import Fraction

from crystal_lab import (ExtensionContext, ExtensionData, PrecisionContext,
                         TorsionCertificate, TrivializationWitness,
                         Untrivializable, add_points, assemble_crystal,
                         baer_sum, check_horizontality, check_pairing_compat,
                         from_alpha, identity_point, int_scale,
                         make_standard_crystal,
                         multiply_by_p_injectivity_probe, negate_point,
                         newton_slopes, p_torsion_check, point_from_tangent,
                         random_geometric_point, slope_report,
                         tangent_coordinates, trivialize, truncate_point)
from crystal_lab.cli import run
from crystal_lab.sampling import random_extension, random_witness
from crystal_lab.extension_group import trivialize as _trivialize

PRIMES = (3, 5)
HEIGHTS = (2, 3, 5, 10)
N_DIGITS = 8
T_DEGREE = 32
BASE_DEGREE = 6


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:>2} {name}: PASS")


def contexts():
    for p, h in itertools.product(PRIMES, HEIGHTS):
        yield p, h, ExtensionContext(PrecisionContext(p, N_DIGITS, T_DEGREE), h)


def test_criterion_01_standard_crystal_slopes():
    with criterion(1, "standard-crystal slopes (h-1)/h and (h+1)/h"):
        for p, h, ectx in contexts():
            sub = newton_slopes(make_standard_crystal(ectx.ctx, h, "sub1"))
            sup = newton_slopes(make_standard_crystal(ectx.ctx, h, "super1"))
            assert sub.entries == ((Fraction(h - 1, h), h),), (p, h)
            assert sup.entries == ((Fraction(h + 1, h), h),), (p, h)


def test_criterion_02_formal_group_slope():
    with criterion(2, "formal-group slope 2/h"):
        for p, h, ectx in contexts():
            rep = slope_report(ectx)
            assert rep.slope == Fraction(2, h), (p, h)
            assert rep.detail.total_multiplicity() == h * h
            assert {s for s, _ in rep.detail.entries} == {2 - Fraction(2, h)}


def test_criterion_03_baer_sum_oracle_equivalence():
    with criterion(3, "Baer sum: componentwise = both diagram orders"):
        for p, h, ectx in contexts():
            rng = random.Random(1000 + 10 * p + h)
            for k in range(100):
                e1 = random_extension(rng, ectx, nontrivial=bool(k % 2))
                e2 = random_extension(rng, ectx, nontrivial=bool(k % 3))
                fast = baer_sum(e1, e2, "fast")
                assert baer_sum(e1, e2, "pullback_pushout") == fast, (p, h, k)
                assert baer_sum(e1, e2, "pushout_pullback") == fast, (p, h, k)


def test_criterion_04_group_axioms():
    with criterion(4, "group axioms for extensions and points"):
        for p, h, ectx in contexts():
            rng = random.Random(2000 + 10 * p + h)
            zero = ExtensionData.zero(ectx)
            for k in range(100):
                a = random_extension(rng, ectx, nontrivial=bool(k % 2))
                b = random_extension(rng, ectx)
                c = random_extension(rng, ectx)
                assert baer_sum(a, b) == baer_sum(b, a)
                assert baer_sum(baer_sum(a, b), c) == baer_sum(a, baer_sum(b, c))
                assert baer_sum(a, zero) == a
                assert baer_sum(a, int_scale(a, -1)) == zero
            ident = identity_point(ectx, BASE_DEGREE)
            for k in range(100):
                y = random_geometric_point(rng, ectx, BASE_DEGREE, bool(k % 2))
                z = random_geometric_point(rng, ectx, BASE_DEGREE)
                w = random_geometric_point(rng, ectx, BASE_DEGREE)
                assert add_points(y, z) == add_points(z, y)
                assert add_points(add_points(y, z), w) == \
                    add_points(y, add_points(z, w))
                assert add_points(y, ident) == y
                assert add_points(y, negate_point(y)) == ident


def test_criterion_05_crystal_axiom_closure():
    with criterion(5, "assembled outputs satisfy the crystal axioms"):
        for p, h, ectx in contexts():
            rng = random.Random(3000 + 10 * p + h)
            outputs = []
            for k in range(8):
                outputs.append(random_extension(rng, ectx, nontrivial=bool(k % 2)))
            for k in range(8):
                y = random_geometric_point(rng, ectx, BASE_DEGREE, bool(k % 2))
                z = random_geometric_point(rng, ectx, BASE_DEGREE, bool(k % 3))
                outputs.append(add_points(y, z).extension)
            for e in outputs:
                pres = assemble_crystal(e)
                horiz = check_horizontality(pres)
                assert horiz.passed and horiz.residual.is_zero_through(
                    ectx.ctx.M - 1), (p, h)
                rep = check_pairing_compat(pres)
                assert rep.passed and rep.perfect, (p, h)


def test_criterion_06_trivialization_round_trip():
    with criterion(6, "trivialization round trip at reduced precision"):
        for p, h, ectx in contexts():
            rng = random.Random(4000 + 10 * p + h)
            support = range(1, ectx.ctx.M // p + 1)
            for _ in range(100):
                w = random_witness(rng, ectx, support)
                out = trivialize(from_alpha(w))
                assert isinstance(out, TrivializationWitness), (p, h)
                assert out.context.N >= N_DIGITS - 2
                assert out.alpha == w.alpha.reduce_precision(out.context.N)


def test_criterion_07_p_divisibility():
    with criterion(7, "p-divisibility probe and certification chain"):
        for p, h, ectx in contexts():
            rep = multiply_by_p_injectivity_probe(ectx, BASE_DEGREE, 50,
                                                  seed=7000 + 10 * p + h)
            assert rep.samples == 50
            assert rep.counterexamples == (), (p, h)
            assert rep.nontrivial_py + rep.torsion_certified == 50
            # replay the congruence chain explicitly on fresh samples
            rng = random.Random(7500 + 10 * p + h)
            for k in range(3):
                y = random_geometric_point(rng, ectx, BASE_DEGREE, bool(k % 2))
                w = _trivialize(int_scale(y.extension, p))
                if isinstance(w, Untrivializable):
                    continue
                cert = p_torsion_check(y.extension, w)
                assert isinstance(cert, TorsionCertificate), (p, h)
                assert all(step.ok for step in cert.trace)
                labels = [step.label for step in cert.trace]
                assert labels[0] == "eq5-hypothesis"
                assert labels[-1] == "beta-verification"
                assert any(lbl.startswith("col-last") for lbl in labels)
                beta_e = from_alpha(cert.beta)
                target = y.extension.reduce_precision(cert.precision)
                assert beta_e.v == target.v and beta_e.m == target.m


def test_criterion_08_tangent_space():
    with criterion(8, "tangent space: additive, surjective, dimension h-1"):
        for p, h, ectx in contexts():
            rng = random.Random(5000 + 10 * p + h)
            assert len(tangent_coordinates(identity_point(ectx, 2))) == h - 1
            for _ in range(100):
                a = [rng.randrange(p) for _ in range(h - 1)]
                b = [rng.randrange(p) for _ in range(h - 1)]
                ya, yb = point_from_tangent(ectx, a), point_from_tangent(ectx, b)
                assert tangent_coordinates(add_points(ya, yb)) == \
                    tuple((x + y) % p for x, y in zip(a, b))
            # surjectivity: every unit direction and all of k^(h-1) when small
            for i in range(h - 1):
                for c in range(1, p):
                    target = [0] * (h - 1)
                    target[i] = c
                    assert tangent_coordinates(
                        point_from_tangent(ectx, target)) == tuple(target)
            if p ** (h - 1) <= 125:
                for target in itertools.product(range(p), repeat=h - 1):
                    assert tangent_coordinates(
                        point_from_tangent(ectx, list(target))) == target


def test_criterion_09_functoriality():
    with criterion(9, "base truncation commutes with addition"):
        for p, h, ectx in contexts():
            rng = random.Random(6000 + 10 * p + h)
            for k in range(50):
                y = random_geometric_point(rng, ectx, BASE_DEGREE, bool(k % 2))
                z = random_geometric_point(rng, ectx, BASE_DEGREE, bool(k % 3))
                n2 = rng.randrange(2, BASE_DEGREE)
                assert truncate_point(add_points(y, z), n2) == \
                    add_points(truncate_point(y, n2), truncate_point(z, n2)), \
                    (p, h, k)


def test_criterion_10_cli_determinism(capsys):
    with criterion(10, "CLI reports are byte-identical under a fixed seed"):
        probe_args = ["probe", "--p", "3", "--h", "2", "--n", "6", "--N", "8",
                      "--samples", "20", "--seed", "7"]
        law_args = ["grouplaw", "--p", "5", "--h", "3", "--n", "5",
                    "--samples", "10", "--seed", "21"]
        outputs = []
        for args in (probe_args, probe_args, law_args, law_args):
            code = run(list(args))
            assert code == 0
            outputs.append(capsys.readouterr().out.encode())
        assert outputs[0] == outputs[1]
        assert outputs[2] == outputs[3]
        doc = json.loads(outputs[0])
        assert doc["counterexamples"] == [] and doc["seed"] == 7
