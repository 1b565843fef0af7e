import random

import pytest

from crystal_lab import (ExtensionContext, ExtensionData, PrecisionContext,
                         Refuted, TorsionCertificate, TrivializationWitness,
                         TruncatedSeries, Untrivializable, assemble_crystal,
                         baer_sum, check_horizontality, check_pairing_compat,
                         from_alpha, int_scale, make_standard_crystal,
                         p_torsion_check, trivialize)
from crystal_lab.errors import (ContextMismatch, HypothesisMissing,
                                InvalidExtension, WitnessInvalid)
from crystal_lab.sampling import (add_m_noise, add_v_noise,
                                  random_extension, random_witness,
                                  witness_support)
from crystal_lab.series_matrix import SeriesMatrix


@pytest.fixture
def ectx3(ctx3):
    return ExtensionContext(ctx3, 3)


@pytest.fixture
def ectx2(ctx3):
    return ExtensionContext(ctx3, 2)


def conjugation_oracle(w: TrivializationWitness):
    """Assemble the extension crystal by a literal change of basis of the
    split crystal: new basis (a_*, b_* + sum alpha a_*)."""
    ectx = w.ectx
    ctx = ectx.ctx
    h = ectx.h
    z = SeriesMatrix.zeros(ctx, h, h)
    ident = SeriesMatrix.identity(ctx, h)
    at = w.alpha.transpose()
    t = SeriesMatrix.block(ctx, [[ident, at], [z, ident]])
    t_inv = SeriesMatrix.block(ctx, [[ident, -at], [z, ident]])
    f0 = SeriesMatrix.block(ctx, [[ectx.sub1.frobenius, z],
                                  [z, ectx.super1.frobenius]])
    g0 = SeriesMatrix.block(ctx, [[z, ident], [ident, z]])
    f = t_inv @ f0 @ t.phi_pullback()
    a = t_inv @ t.derivative_bodies()
    g = t.transpose() @ g0 @ t
    return f, a.truncate_degree(ctx.M - 1), g


class TestFromAlpha:
    def test_zero_witness(self, ectx3):
        z = SeriesMatrix.zeros(ectx3.ctx, 3, 3)
        e = from_alpha(TrivializationWitness(ectx3, z))
        assert e.is_zero()

    def test_matches_conjugation_oracle(self, ectx3):
        rng = random.Random(17)
        for _ in range(5):
            w = random_witness(rng, ectx3, witness_support(ectx3))
            e = from_alpha(w)
            c = assemble_crystal(e)
            f, a, g = conjugation_oracle(w)
            assert c.frobenius == f
            assert c.connection == a
            assert c.pairing == g

    def test_single_entry_witness(self, ectx2):
        # alpha[0][1] = t: the connection defect is dt in that slot
        ctx = ectx2.ctx
        arr = SeriesMatrix.zeros(ctx, 2, 2).arr.copy()
        arr[0, 1, 1] = 1
        w = TrivializationWitness(ectx2, SeriesMatrix(ctx, arr))
        e = from_alpha(w)
        assert e.xi.entry(0, 1) == TruncatedSeries.one(ctx)
        assert e.xi.entry(0, 0).is_zero()
        c = assemble_crystal(e)
        f, a, g = conjugation_oracle(w)
        assert (c.frobenius, c.connection, c.pairing) == (f, a, g)

    def test_diagonal_pairing_halves(self, ectx2):
        # <b'_0, b'_0> = 2 alpha[0][0], so m[0][0] = alpha[0][0]
        ctx = ectx2.ctx
        arr = SeriesMatrix.zeros(ctx, 2, 2).arr.copy()
        arr[0, 0, 2] = 5
        w = TrivializationWitness(ectx2, SeriesMatrix(ctx, arr))
        e = from_alpha(w)
        assert e.m.entry(0, 0) == TruncatedSeries.monomial(ctx, 2, 5)
        c = assemble_crystal(e)
        assert c.pairing.entry(2, 2) == TruncatedSeries.monomial(ctx, 2, 10)


class TestAssemble:
    def test_zero_data_is_standard_pair(self, ectx3):
        c = assemble_crystal(ExtensionData.zero(ectx3))
        assert c == make_standard_crystal(ectx3.ctx, 3, "pair")

    def test_invariants_on_random_images(self, ectx3):
        rng = random.Random(23)
        for _ in range(3):
            e = from_alpha(random_witness(rng, ectx3, witness_support(ectx3)))
            c = assemble_crystal(e)
            assert check_horizontality(c).passed
            rep = check_pairing_compat(c)
            assert rep.passed and rep.perfect

    def test_perturbed_xi_fails_horizontality(self, ectx3):
        rng = random.Random(29)
        e = from_alpha(random_witness(rng, ectx3, witness_support(ectx3)))
        arr = e.xi.arr.copy()
        arr[0, 1, 0] = (arr[0, 1, 0] + 1) % ectx3.ctx.modulus
        bad = ExtensionData(ectx3, SeriesMatrix(ectx3.ctx, arr), e.v, e.m)
        report = check_horizontality(assemble_crystal(bad))
        assert not report.passed
        # the residual is confined to the defect block (a-rows, c-columns)
        h = 3
        assert report.residual.arr[:h, h:, :h * 3].any()
        assert not report.residual.arr[:, :h, :].any()
        assert not report.residual.arr[h:, h:, :].any()

    def test_unmatched_xi_assembles_but_does_not_trivialize(self, ectx2):
        # a unit one-form at degree p-1 is not any series' differential
        ctx = ectx2.ctx
        z = SeriesMatrix.zeros(ctx, 2, 2)
        arr = z.arr.copy()
        arr[0, 0, ctx.p - 1] = 1
        bad = ExtensionData(ectx2, SeriesMatrix(ctx, arr), z, z)
        assemble_crystal(bad)  # construction succeeds
        out = trivialize(bad)
        assert isinstance(out, Untrivializable)
        assert out.equation == "xi"


class TestDataValidation:
    def test_v_outside_t_ideal(self, ectx2):
        ctx = ectx2.ctx
        z = SeriesMatrix.zeros(ctx, 2, 2)
        arr = z.arr.copy()
        arr[0, 0, 0] = 1
        with pytest.raises(InvalidExtension, match="t-ideal"):
            ExtensionData(ectx2, z, SeriesMatrix(ctx, arr), z)

    def test_asymmetric_m(self, ectx2):
        ctx = ectx2.ctx
        z = SeriesMatrix.zeros(ctx, 2, 2)
        arr = z.arr.copy()
        arr[0, 1, 1] = 1
        with pytest.raises(InvalidExtension):
            ExtensionData(ectx2, z, z, SeriesMatrix(ctx, arr))

    def test_geometric_flag_rejects_unit_v_column(self, ectx2):
        ctx = ectx2.ctx
        z = SeriesMatrix.zeros(ctx, 2, 2)
        arr = z.arr.copy()
        arr[0, 1, 1] = 1  # unit multiple of t in column 2
        with pytest.raises(InvalidExtension):
            ExtensionData(ectx2, z, SeriesMatrix(ctx, arr), z,
                          geometric_flag=True)


class TestBaerSum:
    def test_three_way_agreement(self, ctx3):
        rng = random.Random(37)
        for h in (2, 3):
            ectx = ExtensionContext(ctx3, h)
            for _ in range(10):
                e1 = random_extension(rng, ectx, nontrivial=True)
                e2 = random_extension(rng, ectx, nontrivial=False)
                fast = baer_sum(e1, e2, "fast")
                assert baer_sum(e1, e2, "pullback_pushout") == fast
                assert baer_sum(e1, e2, "pushout_pullback") == fast

    def test_identity_all_modes(self, ectx3):
        rng = random.Random(41)
        e = random_extension(rng, ectx3, nontrivial=True)
        zero = ExtensionData.zero(ectx3)
        for mode in ("fast", "pullback_pushout", "pushout_pullback"):
            assert baer_sum(e, zero, mode) == e

    def test_group_axioms_fast(self, ctx3, ctx5):
        for ctx, h in [(ctx3, 2), (ctx3, 3), (ctx5, 5)]:
            ectx = ExtensionContext(ctx, h)
            rng = random.Random(43 + h)
            a = random_extension(rng, ectx, nontrivial=True)
            b = random_extension(rng, ectx)
            c = random_extension(rng, ectx)
            zero = ExtensionData.zero(ectx)
            assert baer_sum(a, b) == baer_sum(b, a)
            assert baer_sum(baer_sum(a, b), c) == baer_sum(a, baer_sum(b, c))
            assert baer_sum(a, int_scale(a, -1)) == zero

    def test_int_scale_matches_iterated_sum(self, ectx2):
        rng = random.Random(47)
        e = random_extension(rng, ectx2, nontrivial=True)
        acc = e
        for _ in range(ectx2.ctx.p - 1):
            acc = baer_sum(acc, e, "fast")
        assert acc == int_scale(e, ectx2.ctx.p)
        assert int_scale(e, 1) == e
        assert int_scale(e, 0).is_zero()

    def test_context_mismatch(self, ctx3, ctx5):
        e1 = ExtensionData.zero(ExtensionContext(ctx3, 2))
        e2 = ExtensionData.zero(ExtensionContext(ctx5, 2))
        with pytest.raises(ContextMismatch):
            baer_sum(e1, e2)

    def test_geometric_flag_conjunction(self, ectx2):
        rng = random.Random(53)
        e = from_alpha(random_witness(rng, ectx2, witness_support(ectx2)))
        assert baer_sum(e.mark_geometric(), ExtensionData.zero(ectx2),
                        "fast").geometric_flag
        assert not baer_sum(e, ExtensionData.zero(ectx2), "fast").geometric_flag


class TestTrivialize:
    def test_zero(self, ectx3):
        w = trivialize(ExtensionData.zero(ectx3))
        assert isinstance(w, TrivializationWitness)
        assert w.alpha.is_zero()
        assert w.context.N == ectx3.ctx.N

    def test_round_trip_lossless_support(self, ectx3):
        rng = random.Random(59)
        for _ in range(10):
            w = random_witness(rng, ectx3, witness_support(ectx3))
            out = trivialize(from_alpha(w))
            assert isinstance(out, TrivializationWitness)
            assert out.context.N == ectx3.ctx.N
            assert out.alpha == w.alpha

    def test_round_trip_full_support(self, ectx2):
        rng = random.Random(61)
        ctx = ectx2.ctx
        for _ in range(5):
            w = random_witness(rng, ectx2, range(1, ctx.M + 1))
            out = trivialize(from_alpha(w))
            assert isinstance(out, TrivializationWitness)
            assert out.context.N < ctx.N
            assert out.alpha == w.alpha.reduce_precision(out.context.N)

    def test_m_perturbation_detected(self, ectx2):
        rng = random.Random(67)
        e = from_alpha(random_witness(rng, ectx2, witness_support(ectx2)))
        arr = e.m.arr.copy()
        arr[0, 0, 1] = (arr[0, 0, 1] + 1) % ectx2.ctx.modulus
        bad = ExtensionData(ectx2, e.xi, e.v, SeriesMatrix(ectx2.ctx, arr))
        out = trivialize(bad)
        assert isinstance(out, Untrivializable)
        assert out.equation == "m" and out.index == (0, 0)

    def test_v_noise_detected(self, ectx2):
        rng = random.Random(71)
        e = from_alpha(random_witness(rng, ectx2, witness_support(ectx2)))
        noisy = add_v_noise(rng, e, ectx2.ctx.p, entry=(1, 0))
        out = trivialize(noisy)
        assert isinstance(out, Untrivializable)
        assert out.equation == "v" and out.index == (1, 0)


class TestPTorsion:
    def test_scaled_witness_recovers_gamma(self, ectx3):
        rng = random.Random(73)
        gamma = random_witness(rng, ectx3, witness_support(ectx3))
        e = from_alpha(gamma).mark_geometric()
        w = trivialize(int_scale(e, ectx3.ctx.p))
        assert isinstance(w, TrivializationWitness)
        out = p_torsion_check(e, w)
        assert isinstance(out, TorsionCertificate)
        assert out.precision == ectx3.ctx.N - 1
        assert out.beta.alpha == gamma.alpha.reduce_precision(out.precision)
        assert all(step.ok for step in out.trace)

    def test_zero(self, ectx2):
        e = ExtensionData.zero(ectx2)
        w = TrivializationWitness(ectx2, SeriesMatrix.zeros(ectx2.ctx, 2, 2))
        out = p_torsion_check(e, w)
        assert isinstance(out, TorsionCertificate)
        assert out.beta.alpha.is_zero()

    def test_noisy_point_certified_at_reduced_precision(self, ectx2):
        rng = random.Random(79)
        e = from_alpha(random_witness(rng, ectx2, witness_support(ectx2)))
        e = add_m_noise(rng, e.mark_geometric(), ectx2.ctx.p)
        assert isinstance(trivialize(e), Untrivializable)
        w = trivialize(int_scale(e, ectx2.ctx.p))
        assert isinstance(w, TrivializationWitness)
        out = p_torsion_check(e, w)
        assert isinstance(out, TorsionCertificate)

    def test_requires_geometric_flag(self, ectx2):
        rng = random.Random(83)
        e = from_alpha(random_witness(rng, ectx2, witness_support(ectx2)))
        w = trivialize(int_scale(e, ectx2.ctx.p))
        with pytest.raises(HypothesisMissing):
            p_torsion_check(e, w)

    def test_invalid_witness_rejected(self, ectx2):
        rng = random.Random(89)
        e = from_alpha(random_witness(rng, ectx2, witness_support(ectx2)))
        e = e.mark_geometric()
        arr = SeriesMatrix.zeros(ectx2.ctx, 2, 2).arr.copy()
        arr[0, 1, 1] = 1
        bad_w = TrivializationWitness(ectx2, SeriesMatrix(ectx2.ctx, arr))
        with pytest.raises(WitnessInvalid):
            p_torsion_check(e, bad_w)

    def test_refutes_beyond_faithful_range(self, ectx2):
        # Hand-built instance whose witness lives past degree M/p: the data
        # satisfies every equation for p*e, yet the witness is a unit at
        # degree 2p^2 and cannot be divided.  The chain must refuse rather
        # than certify.
        ctx = ectx2.ctx
        p, mod = ctx.p, ctx.modulus
        deg = 2 * p * p  # 18 > M/p, with v_p(deg) = 1 so d(alpha)/p is exact
        u = 1
        z = SeriesMatrix.zeros(ctx, 2, 2)
        alpha_arr = z.arr.copy()
        alpha_arr[0, 1, deg] = u
        alpha_arr[1, 0, deg] = (-u) % mod
        alpha = SeriesMatrix(ctx, alpha_arr)
        w = TrivializationWitness(ectx2, alpha)

        xi_arr = z.arr.copy()
        xi_arr[0, 1, deg - 1] = (deg * u // p) % mod
        xi_arr[1, 0, deg - 1] = (-deg * u // p) % mod
        v_arr = z.arr.copy()
        v_arr[0, 0, deg] = u
        v_arr[1, 1, deg] = (-p * u) % mod
        e = ExtensionData(ectx2, SeriesMatrix(ctx, xi_arr),
                          SeriesMatrix(ctx, v_arr), z, geometric_flag=True)
        c = assemble_crystal(e)
        assert check_horizontality(c).passed
        assert check_pairing_compat(c).passed
        out = p_torsion_check(e, w)
        assert isinstance(out, Refuted)


@pytest.mark.parametrize("n_digits", [24, 39, 40])
def test_baer_routes_agree_at_the_storage_edges(n_digits):
    # N=24 and N=39 store int64 (3^39 < 2^62) and take limb products and
    # chunked scalar multiplies; N=40 stores Python integers
    ectx = ExtensionContext(PrecisionContext(3, n_digits, 12), 3)
    rng = random.Random(n_digits)
    e1 = random_extension(rng, ectx, nontrivial=True)
    e2 = random_extension(rng, ectx, nontrivial=False)
    fast = baer_sum(e1, e2, "fast")
    assert baer_sum(e1, e2, "pullback_pushout") == fast
    assert baer_sum(e1, e2, "pushout_pullback") == fast
    crystal = assemble_crystal(fast)
    assert check_horizontality(crystal).passed
    assert check_pairing_compat(crystal).passed
