import json
import random
from fractions import Fraction

import numpy as np
import pytest

from crystal_lab import extension_group, moduli, serialize
from crystal_lab import (DeformationPoint, ExtensionContext, ExtensionData,
                         GroupLawReport, PrecisionContext, TruncatedSeries,
                         add_points, assemble_crystal, group_law_check,
                         identity_point, int_scale,
                         multiply_by_p_injectivity_probe, negate_point,
                         point_from_tangent, random_geometric_point,
                         scale_point, slope_report, tangent_coordinates,
                         truncate_point)
from crystal_lab.cli import run
from crystal_lab.errors import (ContextMismatch, InvalidExtension,
                                PrecisionInsufficient, WrongBase)
from crystal_lab.extension_group import (TorsionCertificate,
                                         TrivializationWitness,
                                         Untrivializable, from_alpha)
from crystal_lab.extension_group import _derived as unchecked
from crystal_lab.moduli import (ProbeReport, ProbeSampleIssue, _build_points,
                                _check_base_degree, _draw_points,
                                _point_context, _point_differs)
from crystal_lab.sampling import (add_noise, random_series_matrix,
                                  random_witness, witness_support)
from crystal_lab.series_matrix import SeriesMatrix, zeros_array


@pytest.fixture
def ectx2(ctx3):
    return ExtensionContext(ctx3, 2)


@pytest.fixture
def ectx3(ctx3):
    return ExtensionContext(ctx3, 3)


def column(ctx, *entries):
    """An h x 1 SeriesMatrix from series or integer constants."""
    return SeriesMatrix.from_series_rows(ctx, [[s] for s in entries])


class TestIdentityPoint:
    def test_zero_data(self, ectx2):
        pt = identity_point(ectx2, 6)
        assert pt.extension.is_zero()
        assert pt.hodge == SeriesMatrix.zeros(ectx2.ctx, 2, 1)

    def test_neutral(self, ectx3):
        rng = random.Random(3)
        y = random_geometric_point(rng, ectx3, 6, nontrivial=True)
        assert add_points(y, identity_point(ectx3, 6)) == y

    def test_assembles_to_standard_pair(self, ectx2):
        from crystal_lab import make_standard_crystal
        c = assemble_crystal(identity_point(ectx2, 6).extension)
        assert c == make_standard_crystal(ectx2.ctx, 2, "pair")

    def test_tangent_zero(self, ectx3):
        assert tangent_coordinates(identity_point(ectx3, 2)) == (0, 0)


class TestGroupLaw:
    def test_commutative_associative(self, ctx3):
        ectx = ExtensionContext(ctx3, 3)
        rng = random.Random(5)
        for _ in range(5):
            y = random_geometric_point(rng, ectx, 5)
            z = random_geometric_point(rng, ectx, 5, nontrivial=True)
            w = random_geometric_point(rng, ectx, 5)
            assert add_points(y, z) == add_points(z, y)
            assert add_points(add_points(y, z), w) == add_points(y, add_points(z, w))

    def test_inverse(self, ectx2):
        rng = random.Random(7)
        y = random_geometric_point(rng, ectx2, 6, nontrivial=True)
        assert add_points(y, negate_point(y)) == identity_point(ectx2, 6)

    def test_isotropy_closure(self, ectx3):
        # the filtration generator of a sum pairs to zero with itself,
        # evaluated through the assembled pairing
        rng = random.Random(11)
        y = random_geometric_point(rng, ectx3, 6)
        z = random_geometric_point(rng, ectx3, 6, nontrivial=True)
        s = add_points(y, z)
        h = s.h
        ctx = s.ectx.ctx
        last = column(ctx, *[0] * (h - 1), 1)
        vec = SeriesMatrix(ctx, np.concatenate([s.hodge.arr, last.arr]))
        pairing_value = (vec.transpose() @ assemble_crystal(s.extension).pairing
                         @ vec)
        assert pairing_value.is_zero()

    def test_points_over_different_bases_do_not_add(self, ectx2, ctx5):
        y = identity_point(ectx2, 4)
        for z in (identity_point(ectx2, 3),
                  identity_point(ExtensionContext(ctx5, 2), 4)):
            with pytest.raises(ContextMismatch, match="different bases"):
                add_points(y, z)

    def test_scaling_matches_iterated_addition(self, ectx2):
        rng = random.Random(13)
        y = random_geometric_point(rng, ectx2, 6, nontrivial=True)
        p = ectx2.ctx.p
        acc = y
        for _ in range(p - 1):
            acc = add_points(acc, y)
        assert acc == scale_point(y, p)
        assert acc.extension == int_scale(y.extension, p)


class TestTangent:
    def test_additive_and_surjective(self, ectx3):
        p = ectx3.ctx.p
        rng = random.Random(17)
        for _ in range(10):
            a = [rng.randrange(p) for _ in range(2)]
            b = [rng.randrange(p) for _ in range(2)]
            ya, yb = point_from_tangent(ectx3, a), point_from_tangent(ectx3, b)
            assert tangent_coordinates(ya) == tuple(a)
            assert tangent_coordinates(add_points(ya, yb)) == \
                tuple((x + y) % p for x, y in zip(a, b))

    def test_dimension(self, ctx3):
        for h in (2, 3, 5):
            ectx = ExtensionContext(ctx3, h)
            pt = identity_point(ectx, 2)
            assert len(tangent_coordinates(pt)) == h - 1

    def test_wrong_base(self, ectx2):
        with pytest.raises(WrongBase):
            tangent_coordinates(identity_point(ectx2, 3))

    @pytest.mark.parametrize("N", [8, 40], ids=["int64", "object"])
    def test_values_stored_as_canonical_residues(self, N):
        # negative values and values at or above p^N (2^70 exceeds int64)
        # land in the degree-1 layer reduced mod p^N
        ctx = PrecisionContext(3, N, 32)
        ectx = ExtensionContext(ctx, 4)
        values = [-1, ctx.modulus + 2, 2**70]
        pt = point_from_tangent(ectx, values)
        expected = [v % ctx.modulus for v in values]
        assert [pt.hodge.entry(i, 0).coeffs()[1] for i in range(3)] == expected
        assert pt.hodge == column(
            ctx, *[TruncatedSeries.monomial(ctx, 1, v) for v in expected], 0)
        assert tangent_coordinates(pt) == (2, 2, 2**70 % 3)


class TestTruncation:
    def test_functoriality(self, ectx3):
        rng = random.Random(19)
        for _ in range(10):
            y = random_geometric_point(rng, ectx3, 6, nontrivial=True)
            z = random_geometric_point(rng, ectx3, 6)
            n2 = rng.randrange(2, 6)
            assert truncate_point(add_points(y, z), n2) == \
                add_points(truncate_point(y, n2), truncate_point(z, n2))

    def test_truncated_point_is_consistent_over_small_base(self, ectx2):
        # reduction mod t^(n') preserves the structural identities through
        # the degrees visible over the smaller base
        rng = random.Random(23)
        y = random_geometric_point(rng, ectx2, 6, nontrivial=True)
        n2 = 3
        y2 = truncate_point(y, n2)
        assert y2.base_degree == n2
        from crystal_lab import check_horizontality, check_pairing_compat
        c = assemble_crystal(y2.extension)
        assert check_horizontality(c).residual.is_zero_through(n2 - 2)
        rep = check_pairing_compat(c)
        assert rep.symmetric and rep.perfect
        assert rep.residuals["frobenius"].is_zero_through(n2 - 1)
        assert rep.residuals["flat"].is_zero_through(n2 - 2)

    def test_range_errors(self, ectx2):
        y = identity_point(ectx2, 4)
        with pytest.raises(WrongBase):
            truncate_point(y, 1)
        with pytest.raises(WrongBase):
            truncate_point(y, 5)


class TestPointValidation:
    def test_isotropy_enforced(self, ectx2):
        ctx = ectx2.ctx
        bad_hodge = column(ctx, 0, TruncatedSeries.monomial(ctx, 1))
        with pytest.raises(InvalidExtension):
            DeformationPoint(ectx2, 6, ExtensionData.zero(ectx2), bad_hodge)

    def test_hodge_outside_t_ideal(self, ectx2):
        ctx = ectx2.ctx
        unit = TruncatedSeries.constant(ctx, 1)
        with pytest.raises(InvalidExtension, match="vanish at t=0"):
            DeformationPoint(ectx2, 4, ExtensionData.zero(ectx2),
                             column(ctx, unit, 0))

    def test_pairing_data_outside_t_ideal(self, ectx2):
        ctx = ectx2.ctx
        z = SeriesMatrix.zeros(ctx, 2, 2)
        arr = z.arr.copy()
        arr[0, 0, 0] = 1  # off the isotropy corner (1, 1)
        e = ExtensionData(ectx2, z, z, SeriesMatrix(ctx, arr))
        with pytest.raises(InvalidExtension, match="pairing data must vanish"):
            DeformationPoint(ectx2, 4, e, column(ctx, 0, 0))

    def test_support_bound_enforced(self, ectx2):
        ctx = ectx2.ctx
        wide = TruncatedSeries.monomial(ctx, 10)  # beyond degree n-1 = 3
        with pytest.raises(InvalidExtension):
            DeformationPoint(ectx2, 4, ExtensionData.zero(ectx2),
                             column(ctx, wide, 0))

    @pytest.mark.parametrize("field, top, message", [
        ("xi", lambda p, n: n - 2, "connection defect exceeds"),
        ("v", lambda p, n: p * (n - 1), "Frobenius defect exceeds"),
        ("m", lambda p, n: n - 1, "pairing data exceeds"),
        ("hodge", lambda p, n: n - 1, "hodge coordinate exceeds")],
        ids=["xi", "v", "m", "hodge"])
    def test_degree_bounds_are_exact(self, ectx2, field, top, message):
        # a coefficient at the top allowed degree passes, one above fails
        ctx, n = ectx2.ctx, 4
        z = SeriesMatrix.zeros(ctx, 2, 2)

        def point(degree):
            data = {"xi": z, "v": z, "m": z}
            hodge = column(ctx, 0, 0)
            if field == "hodge":
                hodge = column(ctx, TruncatedSeries.monomial(ctx, degree), 0)
            else:
                arr = z.arr.copy()
                arr[0, 0, degree] = 1  # off the isotropy corner (1, 1)
                data[field] = SeriesMatrix(ctx, arr)
            e = ExtensionData(ectx2, data["xi"], data["v"], data["m"])
            return DeformationPoint(ectx2, n, e, hodge)

        degree = top(ctx.p, n)
        assert point(degree).base_degree == n
        with pytest.raises(InvalidExtension, match=message):
            point(degree + 1)

    @pytest.mark.parametrize("n", [12, 34, 10**9])
    def test_sampling_beyond_faithful_range_refuses(self, ectx2, n):
        # the range is checked before the first draw: no index error and
        # no draw that grows with n
        with pytest.raises(InvalidExtension, match="faithful coefficient"):
            random_geometric_point(random.Random(0), ectx2, n)

    def test_faithful_range_enforced(self, ctx3):
        ectx = ExtensionContext(ctx3, 2)
        with pytest.raises(InvalidExtension):
            # p*(n-1) = 3*11 > 32
            DeformationPoint(ectx, 12, ExtensionData.zero(ectx),
                             column(ctx3, 0, 0))

    @pytest.mark.parametrize("rows, cols", [(1, 1), (3, 1), (2, 2), (1, 2)])
    def test_hodge_shape_enforced(self, ectx2, rows, cols):
        hodge = SeriesMatrix.zeros(ectx2.ctx, rows, cols)
        with pytest.raises(InvalidExtension, match="hodge must be 2x1"):
            DeformationPoint(ectx2, 4, ExtensionData.zero(ectx2), hodge)

    def test_hodge_context_names_both(self, ectx2, ctx5):
        with pytest.raises(ContextMismatch) as exc:
            DeformationPoint(ectx2, 4, ExtensionData.zero(ectx2),
                             SeriesMatrix.zeros(ctx5, 2, 1))
        msg = str(exc.value)
        assert msg.startswith("hodge context")
        assert str(ctx5) in msg and str(ectx2.ctx) in msg

    def test_extension_context_names_both(self, ectx2, ctx5):
        other = ExtensionContext(ctx5, 2)
        with pytest.raises(ContextMismatch) as exc:
            DeformationPoint(ectx2, 4, ExtensionData.zero(other),
                             SeriesMatrix.zeros(ectx2.ctx, 2, 1))
        msg = str(exc.value)
        assert msg.startswith("extension context")
        assert str(other) in msg and str(ectx2) in msg


class TestProbe:
    def test_empty(self, ectx2):
        rep = multiply_by_p_injectivity_probe(ectx2, 6, 0, seed=1)
        assert rep.samples == 0 and not rep.counterexamples

    def test_negative_samples(self, ectx2):
        with pytest.raises(ValueError, match="non-negative, got -1"):
            multiply_by_p_injectivity_probe(ectx2, 6, -1)

    @pytest.mark.parametrize("n, error", [(1, WrongBase),
                                          (12, InvalidExtension)])
    def test_empty_checks_the_base_degree(self, ectx2, n, error):
        with pytest.raises(error):
            multiply_by_p_injectivity_probe(ectx2, n, 0)

    def test_scaled_data_nonzero(self, ectx2):
        rng = random.Random(29)
        y = random_geometric_point(rng, ectx2, 6, nontrivial=True)
        py = scale_point(y, ectx2.ctx.p)
        assert py.extension == int_scale(y.extension, ectx2.ctx.p)
        assert not py.extension.is_zero()

    def test_no_counterexamples_at_desk_scale(self, ectx2):
        rep = multiply_by_p_injectivity_probe(ectx2, 6, 50, seed=7)
        assert rep.samples == 50
        assert rep.counterexamples == ()
        assert rep.torsion_certified + rep.nontrivial_py == 50

    def test_wide_base_exercises_surviving_noise(self, ectx2):
        # at n = 10 the noise degree p^2 fits, so some p-multiples stay
        # nontrivial and are counted in the first bucket
        rep = multiply_by_p_injectivity_probe(ectx2, 10, 40, seed=3)
        assert rep.counterexamples == ()
        assert rep.nontrivial_py > 0


def untrimmed(ectx, n):
    """``_point_context`` without the trim: the check, then the caller's
    own context, as the verbs computed before they trimmed."""
    _check_base_degree(ectx, n)
    return ectx


class TestPointContext:
    @pytest.mark.parametrize("n", [2, 6, 11])
    def test_degree_is_the_lifted_degree(self, ectx3, n):
        pctx = _point_context(ectx3, n)
        assert pctx == ExtensionContext(PrecisionContext(3, 8, 3 * (n - 1)), 3)

    def test_exact_fit_is_the_callers_context(self):
        ectx = ExtensionContext(PrecisionContext(5, 8, 15), 2)
        assert _point_context(ectx, 4) is ectx

    @pytest.mark.parametrize("n, error, message", [
        (12, InvalidExtension, r"\(p=3, n=12, M=32\)$"),
        (1, WrongBase, "at least 2")])
    def test_invalid_base_degree_names_the_callers_context(
            self, ectx3, n, error, message):
        with pytest.raises(error, match=message):
            _point_context(ectx3, n)

    # noise at degrees 3, 6, 9 (p=3), at p (5 and 7) where p > n - 1
    @pytest.mark.parametrize("p, n", [(3, 10), (5, 4), (7, 3)])
    def test_draws_agree_on_the_lifted_degrees(self, p, n):
        ectx = ExtensionContext(PrecisionContext(p, 8, 40), 3)
        trimmed = _point_context(ectx, n)
        top = p * (n - 1)
        assert trimmed.ctx.M == top < 40
        for seed in range(6):
            rng, rng_trimmed = random.Random(seed), random.Random(seed)
            y = random_geometric_point(rng, ectx, n, bool(seed % 2))
            y_trimmed = random_geometric_point(rng_trimmed, trimmed, n,
                                               bool(seed % 2))
            assert rng.getstate() == rng_trimmed.getstate()
            e, e_trimmed = y.extension, y_trimmed.extension
            for full, low in ((e.xi, e_trimmed.xi), (e.v, e_trimmed.v),
                              (e.m, e_trimmed.m), (y.hodge, y_trimmed.hodge)):
                assert np.array_equal(full.arr[..., :top + 1], low.arr)
                assert not full.arr[..., top + 1:].any()

    @pytest.mark.parametrize("p, N, n", [(3, 8, 10), (5, 40, 4)])
    def test_probe_reports_what_the_callers_context_gives(
            self, monkeypatch, p, N, n):
        ectx = ExtensionContext(PrecisionContext(p, N, 40), 3)
        report = multiply_by_p_injectivity_probe(ectx, n, 8, seed=p)
        monkeypatch.setattr(moduli, "_point_context", untrimmed)
        assert multiply_by_p_injectivity_probe(ectx, n, 8, seed=p) == report


class TestSlopeReport:
    @pytest.mark.parametrize("h,expected", [
        (2, Fraction(1)), (10, Fraction(1, 5)), (4, Fraction(1, 2)),
        (6, Fraction(1, 3)), (7, Fraction(2, 7)), (8, Fraction(1, 4)),
        (9, Fraction(2, 9))])
    def test_slope_values(self, ctx3, h, expected):
        # with criterion 02 (h in 2, 3, 5, 10), every height: the twist-2
        # hom has the one slope 2 minus the slope difference of the ends
        rep = slope_report(ExtensionContext(ctx3, h))
        assert rep.slope == Fraction(2, h) == expected
        assert {s for s, _ in rep.detail.entries} == \
            {2 + rep.sub_slope - rep.super_slope}

    def test_detail_multiset(self, ctx5):
        rep = slope_report(ExtensionContext(ctx5, 3))
        assert rep.detail.total_multiplicity() == 9
        assert len(rep.detail.entries) == 1
        assert rep.detail.entries[0][0] == Fraction(2 - Fraction(2, 3))
        assert rep.hom_common_slope == 2 - Fraction(2, 3)

    def test_report_json(self, ctx3):
        rep = slope_report(ExtensionContext(ctx3, 3))
        assert rep.to_json() == {
            "h": 3, "slope": "2/3", "slope_sub": "2/3", "slope_super": "4/3",
            "hom_twist2_common_slope": "4/3", "hom_twist2_slopes": [["4/3", 9]]}
        assert str(rep.detail) == "{4/3 x9}"


# -- the stacked probe against the probe one sample at a time ------------------


def per_sample_probe(ectx, n, samples, seed=0):
    """The probe one sample at a time, each step on records without the
    sample axis: the reference of ``multiply_by_p_injectivity_probe``.
    Module attributes are read at call time, so a patch applies to both."""
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    ectx = moduli._point_context(ectx, n)
    rng = random.Random(seed)
    p = ectx.ctx.p
    nontrivial_py = certified = trivial_direct = 0
    issues = []
    for k in range(samples):
        y = moduli.random_geometric_point(rng, ectx, n,
                                          nontrivial=bool(rng.getrandbits(1)))
        if not isinstance(extension_group.trivialize(y.extension),
                          Untrivializable):
            trivial_direct += 1
        py = y
        for _ in range(p - 1):
            py = moduli.add_points(py, y)
        if moduli.scale_point(y, p) != py:
            issues.append(ProbeSampleIssue(
                k, "linearity", "iterated sum disagrees with scaling"))
            continue
        w = extension_group.trivialize(py.extension)
        if isinstance(w, Untrivializable):
            nontrivial_py += 1
            continue
        outcome = extension_group.p_torsion_check(y.extension, w)
        if isinstance(outcome, TorsionCertificate):
            certified += 1
        else:
            issues.append(ProbeSampleIssue(k, outcome.step, outcome.detail))
    return ProbeReport(seed, samples, nontrivial_py, certified, trivial_direct,
                       tuple(issues))


BLOCK = 3  # samples per block in these tests


def set_block(monkeypatch, ectx, n, size=BLOCK):
    """Make the probe's blocks `size` samples long at this shape."""
    pctx = _point_context(ectx, n)
    monkeypatch.setattr(moduli, "_BLOCK_COEFFICIENTS",
                        size * pctx.h ** 2 * (pctx.ctx.M + 1))


@pytest.mark.parametrize("h", [2, 3, 10])
@pytest.mark.parametrize("n_digits", [3, 8, 24, 40])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_stacked_probe_matches_the_per_sample_probe(monkeypatch, p, n_digits,
                                                    h):
    ectx = ExtensionContext(PrecisionContext(p, n_digits, 32), h)
    set_block(monkeypatch, ectx, 3)
    for samples in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1):
        seed = 100 * p + n_digits + samples
        report = multiply_by_p_injectivity_probe(ectx, 3, samples, seed)
        assert report == per_sample_probe(ectx, 3, samples, seed)
        assert report.counterexamples == ()


def test_blocks_stay_within_the_budget(monkeypatch):
    # 25 samples at h=10, M=15 take three blocks of the default budget
    ectx = ExtensionContext(PrecisionContext(3, 8, 32), 10)
    sizes = []
    trivialize = moduli.trivialize

    def spy(e):
        sizes.append(e.xi.arr.shape[0])
        return trivialize(e)

    monkeypatch.setattr(moduli, "trivialize", spy)
    report = multiply_by_p_injectivity_probe(ectx, 6, 25, seed=1)
    assert sizes == [10, 10, 10, 10, 5, 5]
    assert all(size * 10 * 10 * 16 <= moduli._BLOCK_COEFFICIENTS
               for size in sizes)
    monkeypatch.undo()
    assert report == per_sample_probe(ectx, 6, 25, seed=1)


def sample_fault(target, fault):
    """Wrap a function that returns a matrix or an extension, with or
    without the sample axis, so that the target-th sample it returns,
    counted over all calls, is changed by fault(array of that sample): of
    the matrix, or of the extension's m."""
    seen = [0]

    def wrap(func):
        def wrapper(record, *args):
            out = func(record, *args)
            arr = out.arr if isinstance(out, SeriesMatrix) else out.m.arr
            stack = arr if arr.ndim == 4 else arr[None]
            k = target - seen[0]
            seen[0] += len(stack)
            if not 0 <= k < len(stack):
                return out
            stack = stack.copy()
            fault(stack[k])
            new = stack if arr.ndim == 4 else stack[0]
            if isinstance(out, SeriesMatrix):
                return SeriesMatrix(out.context, new)
            return ExtensionData(out.ectx, out.xi, out.v,
                                 SeriesMatrix(out.context, new),
                                 out.geometric_flag)
        return wrapper
    return wrap


def bump(arr):
    """Change one coefficient, keeping it a residue: m stays symmetric."""
    arr[0, 0, 1] = 2 if arr[0, 0, 1] == 1 else 1


@pytest.mark.parametrize("h", [2, 10])
def test_a_linearity_failure_is_pinned(monkeypatch, h):
    ectx = ExtensionContext(PrecisionContext(3, 8, 32), h)
    set_block(monkeypatch, ectx, 6)
    scale = moduli.int_scale
    reports = []
    for probe in (multiply_by_p_injectivity_probe, per_sample_probe):
        # the scaled extension of sample 4, the second of the second
        # block, disagrees with the iterated sum
        monkeypatch.setattr(moduli, "int_scale", sample_fault(4, bump)(scale))
        reports.append(probe(ectx, 6, 7, seed=5))
    assert reports[0].counterexamples == (
        ProbeSampleIssue(4, "linearity", "iterated sum disagrees with scaling"),)
    assert reports[0] == reports[1]


def misflagged_point(ectx, n):
    """A point whose extension claims the rank-1-mod-p hypothesis falsely:
    e = from_alpha(alpha) / p for alpha = t^p (E_01 - E_10), so p*e is
    trivial with witness alpha, which does not vanish mod p.  Its xi is
    not integrable, and p*e loses one digit to integration."""
    ctx = ectx.ctx
    arr = zeros_array(ctx, ectx.h, ectx.h)
    arr[0, 1, ctx.p], arr[1, 0, ctx.p] = 1, ctx.modulus - 1
    image = from_alpha(TrivializationWitness(ectx, SeriesMatrix(ctx, arr)))
    e = unchecked(ExtensionData, ectx, *(
        SeriesMatrix(ctx, getattr(image, f).arr // ctx.p)
        for f in ("xi", "v", "m")), True)
    return DeformationPoint(ectx, n, e, SeriesMatrix.zeros(ctx, ectx.h, 1))


def test_a_refuted_congruence_is_pinned(monkeypatch):
    ectx = ExtensionContext(PrecisionContext(3, 8, 32), 3)
    set_block(monkeypatch, ectx, 6)
    # the records derived from the misflagged point break the flag's
    # condition, which the suite would check: here they stay unchecked
    for module in (moduli, extension_group):
        monkeypatch.setattr(module, "_derived", unchecked)
    draw = moduli.random_geometric_point
    calls = [0]

    def faulty_draw(rng, pctx, n, nontrivial=False):
        y = draw(rng, pctx, n, nontrivial)
        calls[0] += 1
        return misflagged_point(pctx, n) if calls[0] == 3 else y

    monkeypatch.setattr(moduli, "random_geometric_point", faulty_draw)
    report = multiply_by_p_injectivity_probe(ectx, 6, 5, seed=2)
    assert report.counterexamples == (
        ProbeSampleIssue(2, "descend(0,1)", "column induction fails"),)
    calls[0] = 0
    assert report == per_sample_probe(ectx, 6, 5, seed=2)


def test_a_refuted_beta_verification_is_pinned(monkeypatch):
    ectx = ExtensionContext(PrecisionContext(5, 8, 32), 3)
    set_block(monkeypatch, ectx, 4)
    divide = extension_group._divide_matrix_by_p
    reports = []
    for probe in (multiply_by_p_injectivity_probe, per_sample_probe):
        # the second quotient by p is changed
        monkeypatch.setattr(extension_group, "_divide_matrix_by_p",
                            sample_fault(1, bump)(divide))
        reports.append(probe(ectx, 4, 5, seed=4))
    assert reports[0].counterexamples == (ProbeSampleIssue(
        1, "beta-verification",
        "divided witness does not trivialize the extension"),)
    assert reports[0] == reports[1]


def test_two_digits_raise_the_per_sample_error(monkeypatch):
    ectx = ExtensionContext(PrecisionContext(3, 2, 32), 3)
    set_block(monkeypatch, ectx, 6)
    message = "need three p-digits: the quotient by p needs two"
    with pytest.raises(PrecisionInsufficient, match=message):
        per_sample_probe(ectx, 6, 7, seed=0)
    with pytest.raises(PrecisionInsufficient, match=message):
        multiply_by_p_injectivity_probe(ectx, 6, 7, seed=0)


def test_the_p_multiple_takes_a_logarithmic_chain(monkeypatch):
    # p = 4093 passes every cap; p - 1 additions took minutes at h=10
    ectx = ExtensionContext(PrecisionContext(4093, 3, 4093), 2)
    calls = [0]
    baer_sum = moduli.baer_sum

    def counted(e1, e2, *args):
        calls[0] += 1
        return baer_sum(e1, e2, *args)

    monkeypatch.setattr(moduli, "baer_sum", counted)
    report = multiply_by_p_injectivity_probe(ectx, 2, 1, seed=0)
    assert calls[0] <= 2 * (4093).bit_length()
    assert report.counterexamples == ()
    assert report.nontrivial_py + report.torsion_certified == 1


# -- points drawn as a block ---------------------------------------------------


def per_point_random_geometric_point(rng, ectx, n, nontrivial=False):
    """The point drawn and built one step at a time, through the sampling
    functions: the reference of the block steps."""
    _check_base_degree(ectx, n)
    ctx, h = ectx.ctx, ectx.h
    e = from_alpha(random_witness(rng, ectx, witness_support(ectx, n - 1))
                   ).mark_geometric()
    if nontrivial:
        top = min(n - 1, ctx.M // ctx.p)
        noise_degrees = [d for d in range(ctx.p, top + 1, ctx.p)
                         if d % ctx.modulus]
        deg = rng.choice(noise_degrees) if noise_degrees else ctx.p
        field = "m" if deg <= n - 1 and rng.getrandbits(1) else "v"
        e = add_noise(rng, e, field, deg)
    hodge = zeros_array(ctx, h, 1)
    hodge[:h - 1] = random_series_matrix(rng, ctx, h - 1, 1, range(1, n)).arr
    hodge[h - 1, 0] = -e.m.arr[h - 1, h - 1] % ctx.modulus
    return DeformationPoint(ectx, n, e, SeriesMatrix(ctx, hodge))


def point_arrays(y):
    return [y.extension.xi.arr, y.extension.v.arr, y.extension.m.arr,
            y.hodge.arr]


# noise degrees exist at p=3, n=10 (and at N=2 one with v_p >= N); none at
# p=7, n=3, which falls back to degree p
@pytest.mark.parametrize("p, N, h, n", [
    (3, 8, 10, 6), (3, 40, 3, 10), (5, 24, 2, 4), (7, 8, 3, 3), (3, 2, 3, 10)])
def test_a_drawn_point_is_the_per_step_point(p, N, h, n):
    ectx = ExtensionContext(PrecisionContext(p, N, 32), h)
    for seed in range(8):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for k in range(4):
            flag = bool((seed + k) % 2)
            y = random_geometric_point(rng, ectx, n, flag)
            ref = per_point_random_geometric_point(ref_rng, ectx, n, flag)
            assert y == ref
            assert y.extension.geometric_flag and y.hodge.arr.ndim == 3
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("N", [8, 40], ids=["int64", "object"])
def test_a_block_of_points_is_its_points_stacked(N):
    ectx = ExtensionContext(PrecisionContext(3, N, 32), 3)
    flags = [False, True, True, False, False, True, False]
    for seed in range(6):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        block = _build_points(ectx, 10, _draw_points(rng, ectx, 10, flags))
        points = [random_geometric_point(ref_rng, ectx, 10, flag)
                  for flag in flags]
        assert rng.getstate() == ref_rng.getstate()
        for got, *want in zip(point_arrays(block),
                              *map(point_arrays, points)):
            assert np.array_equal(got, np.stack(want))
        assert block.extension.geometric_flag


class TestStackedPoints:
    def stack(self, ectx, n, seed, count=4):
        rng = random.Random(seed)
        flags = [bool(k % 2) for k in range(count)]
        return _build_points(ectx, n, _draw_points(rng, ectx, n, flags))

    def sample(self, y, k):
        return moduli._samples_of(y, slice(k, k + 1))

    def test_the_samples_must_agree(self, ectx3):
        y = self.stack(ectx3, 4, 1)
        hodge = SeriesMatrix(ectx3.ctx, y.hodge.arr[:3])
        with pytest.raises(ValueError, match="the same samples"):
            DeformationPoint(ectx3, 4, y.extension, hodge)
        with pytest.raises(ValueError, match="the same samples"):
            DeformationPoint(ectx3, 4, y.extension,
                             SeriesMatrix(ectx3.ctx, y.hodge.arr[0]))

    def test_isotropy_is_checked_per_sample(self, ectx3):
        y = self.stack(ectx3, 4, 2)
        arr = y.hodge.arr.copy()
        arr[2, 2, 0, 1] += 1
        with pytest.raises(InvalidExtension, match="isotropy requires"):
            DeformationPoint(ectx3, 4, y.extension,
                             SeriesMatrix(ectx3.ctx, arr % ectx3.ctx.modulus))

    def test_the_operations_act_per_sample(self, ectx3):
        y, z = self.stack(ectx3, 5, 3), self.stack(ectx3, 5, 4)
        ident = identity_point(ectx3, 5)
        for k in range(4):
            yk, zk = self.sample(y, k), self.sample(z, k)
            assert self.sample(add_points(y, z), k) == add_points(yk, zk)
            assert self.sample(add_points(y, ident), k) == add_points(yk, ident)
            assert self.sample(negate_point(y), k) == negate_point(yk)
            assert self.sample(scale_point(y, 7), k) == scale_point(yk, 7)
            assert self.sample(truncate_point(y, 3), k) == truncate_point(yk, 3)

    def test_the_comparison_is_per_sample(self, ectx3):
        y = self.stack(ectx3, 4, 5)
        arr = y.extension.v.arr.copy()
        arr[1, 0, 1, 1] = (arr[1, 0, 1, 1] + 3) % ectx3.ctx.modulus
        e = y.extension
        other = DeformationPoint(ectx3, 4, ExtensionData(
            ectx3, e.xi, SeriesMatrix(ectx3.ctx, arr), e.m, True), y.hodge)
        differs = _point_differs(y, other)
        assert differs.tolist() == [False, True, False, False]
        assert differs.tolist() == [self.sample(y, k) != self.sample(other, k)
                                    for k in range(4)]
        assert y != other and y == y
        assert _point_differs(y, identity_point(ectx3, 4)).all()

    @pytest.mark.parametrize("N", [8, 40], ids=["int64", "object"])
    def test_tangent_rows_make_a_stack(self, N):
        ectx = ExtensionContext(PrecisionContext(3, N, 32), 4)
        rows = [[-1, 5, 2**70], [0, 1, 2], [4, 4, 4]]
        y = point_from_tangent(ectx, rows)
        points = [point_from_tangent(ectx, row) for row in rows]
        for k, pt in enumerate(points):
            assert self.sample(y, k) == moduli._samples_of(
                point_from_tangent(ectx, [rows[k]]), slice(None))
            assert tangent_coordinates(pt) == tangent_coordinates(y)[k]
        assert tangent_coordinates(y) == tuple(
            tuple(v % 3 for v in row) for row in rows)
        empty = point_from_tangent(ectx, np.zeros((0, 3), dtype=np.int64))
        assert tangent_coordinates(empty) == ()
        with pytest.raises(ValueError, match="expected 3 coordinates"):
            point_from_tangent(ectx, [[1, 2]])


# -- the block grouplaw against the grouplaw one point at a time -------------


def per_point_grouplaw(ectx, n, samples, seed=0):
    """The grouplaw checks one point at a time, on records without the
    sample axis: the reference of ``group_law_check``.  Module attributes
    are read at call time, so a patch applies to both."""
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    ectx = moduli._point_context(ectx, n)
    rng = random.Random(seed)
    add, trunc = moduli.add_points, moduli.truncate_point
    failures = []

    def tally(name, ok):
        if not ok:
            failures.append(name)

    ident = moduli.identity_point(ectx, n)
    for k in range(samples):
        y, z, w = (moduli.random_geometric_point(rng, ectx, n, nontrivial=False)
                   for _ in range(3))
        tally(f"commutative[{k}]", add(y, z) == add(z, y))
        tally(f"associative[{k}]", add(add(y, z), w) == add(y, add(z, w)))
        tally(f"identity[{k}]", add(y, ident) == y)
        tally(f"inverse[{k}]", add(y, moduli.negate_point(y)) == ident)
        tally(f"functorial[{k}]",
              trunc(add(y, z), 2) == add(trunc(y, 2), trunc(z, 2)))

    p, h = ectx.ctx.p, ectx.h
    tangent_ok = True
    for k in range(samples):
        a = [rng.randrange(p) for _ in range(h - 1)]
        b = [rng.randrange(p) for _ in range(h - 1)]
        ya = moduli.point_from_tangent(ectx, a)
        yb = moduli.point_from_tangent(ectx, b)
        lhs = moduli.tangent_coordinates(add(ya, yb))
        rhs = tuple((x + y) % p for x, y in zip(a, b))
        if lhs != rhs or moduli.tangent_coordinates(ya) != tuple(a):
            tangent_ok = False
    tally("tangent_additive", tangent_ok)

    y = moduli.random_geometric_point(rng, ectx, n, nontrivial=True)
    z = moduli.random_geometric_point(rng, ectx, n, nontrivial=False)
    total = add(y, z)
    levels = []
    for i in range(2, n + 1):
        lhs = trunc(total, i) if i < n else total
        rhs = add(trunc(y, i) if i < n else y, trunc(z, i) if i < n else z)
        levels.append((i, lhs == rhs))
        tally(f"level[{i}]", lhs == rhs)
    return GroupLawReport(seed, samples, h - 1, tuple(levels), tuple(failures))


def set_grouplaw_block(monkeypatch, ectx, n, size=BLOCK):
    """Make the grouplaw's blocks `size` samples long at this shape."""
    pctx = _point_context(ectx, n)
    monkeypatch.setattr(moduli, "_BLOCK_COEFFICIENTS",
                        size * 3 * pctx.h ** 2 * (pctx.ctx.M + 1))


@pytest.mark.parametrize("h", [2, 3, 10])
@pytest.mark.parametrize("n_digits", [8, 40], ids=["int64", "object"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_block_grouplaw_matches_the_per_point_grouplaw(monkeypatch, p,
                                                       n_digits, h):
    ectx = ExtensionContext(PrecisionContext(p, n_digits, 32), h)
    set_grouplaw_block(monkeypatch, ectx, 3)
    for samples in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1):
        seed = 100 * p + n_digits + samples
        report = group_law_check(ectx, 3, samples, seed)
        assert report == per_point_grouplaw(ectx, 3, samples, seed)
        assert report.passed and len(report.levels) == 2


def test_grouplaw_blocks_stay_within_the_budget(monkeypatch):
    # 25 samples of three points at h=10, M=15 take nine blocks
    ectx = ExtensionContext(PrecisionContext(3, 8, 32), 10)
    sizes = []
    negate = moduli.negate_point

    def spy(y):
        sizes.append(y.hodge.arr.shape[0])
        return negate(y)

    monkeypatch.setattr(moduli, "negate_point", spy)
    report = group_law_check(ectx, 6, 25, seed=1)
    assert sizes == [3] * 8 + [1]
    assert all(3 * size * 10 * 10 * 16 <= moduli._BLOCK_COEFFICIENTS
               for size in sizes)
    monkeypatch.undo()
    assert report == per_point_grouplaw(ectx, 6, 25, seed=1)


ANY = object()  # a key that every argument matches


def drawn(ectx, n, samples, seed):
    """The hodge columns of the points y, z, w, the tangent rows a, b and
    the hodge columns of their points ya, yb, of every sample, as the verb
    draws them, and the zero column."""
    pctx = _point_context(ectx, n)
    rng = random.Random(seed)
    hodges = [random_geometric_point(rng, pctx, n).hodge.arr
              for _ in range(3 * samples)]
    rows = [[rng.randrange(pctx.ctx.p) for _ in range(pctx.h - 1)]
            for _ in range(2 * samples)]
    tangent = [point_from_tangent(pctx, row).hodge.arr for row in rows]
    return {"y": hodges[0::3], "z": hodges[1::3], "w": hodges[2::3],
            "a": rows[0::2], "b": rows[1::2],
            "ya": tangent[0::2], "yb": tangent[1::2],
            "zero": zeros_array(pctx.ctx, pctx.h, 1)}


def matches(arg, key, sample):
    """Whether the sample of an argument (a point, with or without the
    sample axis, keyed by its hodge column; an integer; or coordinate
    rows) is the key."""
    if key is ANY:
        return True
    if isinstance(arg, int):
        return arg == key
    arr = arg.hodge.arr if isinstance(arg, DeformationPoint) else np.asarray(arg)
    stacked = arr.ndim == (4 if isinstance(arg, DeformationPoint) else 2)
    return np.array_equal(arr[sample] if stacked else arr, key)


def keyed_fault(func, key, delta):
    """Wrap a function that returns a point, with or without the sample
    axis, so that every sample of a result whose arguments match the key
    has delta added to the degree-1 coefficient of its first hodge
    coordinate, off the isotropy corner."""
    def wrapper(*args):
        out = func(*args)
        ctx, arr = out.ectx.ctx, out.hodge.arr
        stack = (arr if arr.ndim == 4 else arr[None]).copy()
        hits = [k for k in range(len(stack))
                if all(matches(a, part, k) for a, part in zip(args, key))]
        if not hits:
            return out
        for k in hits:
            stack[k, 0, 0, 1] = (stack[k, 0, 0, 1] + delta) % ctx.modulus
        return DeformationPoint(out.ectx, out.base_degree, out.extension,
                                SeriesMatrix(ctx, stack.reshape(arr.shape)))
    return wrapper


# each fault shifts a result of sample 4 of 7, the second of the second
# block of three, chosen by the points or rows it is computed from; the
# tangent round trip shifts ya and yb oppositely, so that only the check of
# a's coordinates sees it, and the tangent sum is seen only by the check
# that coordinates add
FAULTS = {
    "commutative": ([("add_points", lambda d: (d["z"][4], d["y"][4]), 1)],
                    ("commutative[4]",)),
    "associative": ([("add_points", lambda d: (d["z"][4], d["w"][4]), 1)],
                    ("associative[4]",)),
    "identity": ([("add_points", lambda d: (d["y"][4], d["zero"]), 1)],
                 ("identity[4]",)),
    "inverse": ([("negate_point", lambda d: (d["y"][4],), 1)],
                ("inverse[4]",)),
    "functorial": ([("truncate_point", lambda d: (d["y"][4], 2), 1)],
                   ("functorial[4]",)),
    "tangent-sum": ([("add_points", lambda d: (d["ya"][4], d["yb"][4]), 1)],
                    ("tangent_additive",)),
    "tangent-round-trip": (
        [("point_from_tangent", lambda d: (ANY, d["a"][4]), 1),
         ("point_from_tangent", lambda d: (ANY, d["b"][4]), -1)],
        ("tangent_additive",)),
    "two-in-a-block": ([("negate_point", lambda d: (d["y"][4],), 1),
                        ("truncate_point", lambda d: (d["y"][3], 2), 1)],
                       ("functorial[3]", "inverse[4]")),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_a_failed_check_is_pinned(monkeypatch, fault):
    faults, failures = FAULTS[fault]
    ectx = ExtensionContext(PrecisionContext(7, 8, 32), 4)
    set_grouplaw_block(monkeypatch, ectx, 4)
    draws = drawn(ectx, 4, 7, seed=6)
    # each keyed row is drawn once, so each fault hits one sample
    rows = draws["a"] + draws["b"]
    assert rows.count(draws["a"][4]) == rows.count(draws["b"][4]) == 1
    for name, key, delta in faults:
        monkeypatch.setattr(moduli, name, keyed_fault(
            getattr(moduli, name), key(draws), delta))
    report = group_law_check(ectx, 4, 7, seed=6)
    assert report.failures == failures
    assert report == per_point_grouplaw(ectx, 4, 7, seed=6)
    assert not report.passed


def test_the_report_gives_the_cli_bytes(capsys):
    ctx = PrecisionContext(3, 8, 32)
    report = group_law_check(ExtensionContext(ctx, 10), 6, 3, seed=4)
    doc = {**serialize.header(ctx), "h": 10, "n": 6, **report.to_json()}
    assert run(["grouplaw", "--p", "3", "--h", "10", "--n", "6",
                "--samples", "3", "--seed", "4"]) == 0
    assert capsys.readouterr().out == json.dumps(
        doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert report.passed and report.tangent_dimension == 9


@pytest.mark.parametrize("n, error", [(1, WrongBase), (12, InvalidExtension)])
def test_grouplaw_checks_before_drawing(ectx2, n, error):
    with pytest.raises(ValueError, match="non-negative, got -1"):
        group_law_check(ectx2, n, -1)
    with pytest.raises(error):
        group_law_check(ectx2, n, 0)
