import random
from fractions import Fraction

import pytest

from crystal_lab import (DeformationPoint, ExtensionContext, ExtensionData,
                         TruncatedSeries, add_points, assemble_crystal,
                         identity_point, int_scale,
                         multiply_by_p_injectivity_probe, negate_point,
                         point_from_tangent, random_geometric_point,
                         scale_point, slope_report, tangent_coordinates,
                         truncate_point)
from crystal_lab.errors import InvalidExtension, WrongBase
from crystal_lab.series_matrix import SeriesMatrix


@pytest.fixture
def ectx2(ctx3):
    return ExtensionContext(ctx3, 2)


@pytest.fixture
def ectx3(ctx3):
    return ExtensionContext(ctx3, 3)


class TestIdentityPoint:
    def test_zero_data(self, ectx2):
        pt = identity_point(ectx2, 6)
        assert pt.extension.is_zero()
        assert all(s.is_zero() for s in pt.hodge)

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
        coords = [[x] for x in s.hodge] + \
            [[TruncatedSeries.zero(ctx)] for _ in range(h)]
        coords[2 * h - 1][0] = TruncatedSeries.one(ctx)
        vec = SeriesMatrix.from_series_rows(ctx, coords)
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
        zero = TruncatedSeries.zero(ctx)
        bad_hodge = (zero, TruncatedSeries.monomial(ctx, 1))
        with pytest.raises(InvalidExtension):
            DeformationPoint(ectx2, 6, ExtensionData.zero(ectx2), bad_hodge)

    def test_hodge_outside_t_ideal(self, ectx2):
        ctx = ectx2.ctx
        zero = TruncatedSeries.zero(ctx)
        unit = TruncatedSeries.constant(ctx, 1)
        with pytest.raises(InvalidExtension, match="vanish at t=0"):
            DeformationPoint(ectx2, 4, ExtensionData.zero(ectx2), (unit, zero))

    def test_support_bound_enforced(self, ectx2):
        ctx = ectx2.ctx
        zero = TruncatedSeries.zero(ctx)
        wide = TruncatedSeries.monomial(ctx, 10)  # beyond degree n-1 = 3
        with pytest.raises(InvalidExtension):
            DeformationPoint(ectx2, 4, ExtensionData.zero(ectx2), (wide, zero))

    def test_faithful_range_enforced(self, ctx3):
        ectx = ExtensionContext(ctx3, 2)
        zero = TruncatedSeries.zero(ctx3)
        with pytest.raises(InvalidExtension):
            # p*(n-1) = 3*11 > 32
            DeformationPoint(ectx, 12, ExtensionData.zero(ectx), (zero, zero))


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
