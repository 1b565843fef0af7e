import random
from fractions import Fraction

import pytest

from crystal_lab import (DeformationPoint, ExtensionContext, ExtensionData,
                         PrecisionContext, TruncatedSeries, add_points,
                         assemble_crystal, identity_point, int_scale,
                         multiply_by_p_injectivity_probe, negate_point,
                         point_from_tangent, random_geometric_point,
                         scale_point, slope_report, tangent_coordinates,
                         truncate_point)
from crystal_lab.errors import ContextMismatch, InvalidExtension, WrongBase
from crystal_lab.series_matrix import SeriesMatrix


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
        vec = SeriesMatrix.block(ctx, [[s.hodge], [last]])
        pairing_value = (vec.transpose() @ assemble_crystal(s.extension).pairing
                         @ vec)
        assert pairing_value.is_zero()

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
        # the hodge draw stops at degree M, so the point's own check
        # rejects n rather than an index error or a draw that grows with n
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


class TestSlopeReport:
    @pytest.mark.parametrize("h,expected", [(2, Fraction(1)), (10, Fraction(1, 5))])
    def test_slope_values(self, ctx3, h, expected):
        rep = slope_report(ExtensionContext(ctx3, h))
        assert rep.slope == Fraction(2, h) == expected

    def test_detail_multiset(self, ctx5):
        rep = slope_report(ExtensionContext(ctx5, 3))
        assert rep.detail.total_multiplicity() == 9
        assert len(rep.detail.entries) == 1
        assert rep.detail.entries[0][0] == Fraction(2 - Fraction(2, 3))
        assert rep.hom_common_slope == 2 - Fraction(2, 3)
