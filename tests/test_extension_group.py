import gc
import random
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from crystal_lab import (ExtensionContext, ExtensionData, PrecisionContext,
                         Refuted, TorsionCertificate, TrivializationWitness,
                         TruncatedSeries, Untrivializable, add_points,
                         assemble_crystal, baer_sum, check_horizontality,
                         check_pairing_compat, from_alpha, int_scale,
                         make_standard_crystal,
                         multiply_by_p_injectivity_probe, p_torsion_check,
                         random_geometric_point, trivialize, truncate_point)
from crystal_lab import extension_group
from crystal_lab.crystal import induced_maps
from crystal_lab.errors import (ContextMismatch, HypothesisMissing,
                                InvalidExtension, NotStable,
                                PrecisionInsufficient, UnsupportedHeight,
                                WitnessInvalid)
from crystal_lab.extension_group import _pushout, _readout, _v_from_alpha
from crystal_lab.padic_series import mul_mod, reduce_mod
from crystal_lab.sampling import (add_noise, random_extension,
                                  random_series_matrix, random_witness,
                                  witness_support)
from crystal_lab.series_matrix import SeriesMatrix

from test_series_matrix import block_matrix, naive_matmul


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
    t = block_matrix(ctx, [[ident, at], [z, ident]])
    t_inv = block_matrix(ctx, [[ident, -at], [z, ident]])
    f0 = block_matrix(ctx, [[ectx.sub1.frobenius, z],
                            [z, ectx.super1.frobenius]])
    g0 = block_matrix(ctx, [[z, ident], [ident, z]])
    f = t_inv @ f0 @ t.phi_pullback()
    a = t_inv @ t.derivative_bodies()
    g = t.transpose() @ g0 @ t
    return f, a.truncate_degree(ctx.M - 1), g


class TestRecords:
    def test_fields_are_frozen(self, ectx2):
        e = ExtensionData.zero(ectx2)
        w = TrivializationWitness(ectx2, e.v)
        for record, name in ((e, "xi"), (e, "v"), (e, "m"), (e, "ectx"),
                             (e, "geometric_flag"), (w, "alpha"), (w, "ectx")):
            with pytest.raises(FrozenInstanceError):
                setattr(record, name, getattr(record, name))

    def test_equality_and_hash_ignore_the_flag(self, ectx2):
        e = ExtensionData.zero(ectx2)
        plain = ExtensionData(ectx2, e.xi, e.v, e.m)
        assert e.geometric_flag and not plain.geometric_flag
        assert e == plain and hash(e) == hash(plain)
        assert len({e, plain}) == 1

    def test_the_context_owns_its_crystals(self, ctx3):
        # the standard crystals are built once per context, on first use;
        # equality, hash and repr read (ctx, h) only, whatever is built
        ectx, fresh = ExtensionContext(ctx3, 3), ExtensionContext(ctx3, 3)
        assert ectx.pair is ectx.pair and ectx.sub1 is ectx.sub1
        assert ectx.super1 is ectx.super1
        assert ectx.pair == make_standard_crystal(ctx3, 3, "pair")
        assert ectx == fresh and hash(ectx) == hash(fresh)
        assert repr(ectx) == repr(fresh) == \
            f"ExtensionContext(ctx={ctx3!r}, h=3)"
        assert vars(fresh) == {"ctx": ctx3, "h": 3}
        for h in (1, 11):
            with pytest.raises(UnsupportedHeight):
                ExtensionContext(ctx3, h)


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

    def test_witness_outside_t_ideal(self, ectx2):
        ctx = ectx2.ctx
        arr = SeriesMatrix.zeros(ctx, 2, 2).arr.copy()
        arr[1, 0, 0] = 1
        with pytest.raises(InvalidExtension, match="alpha entries"):
            TrivializationWitness(ectx2, SeriesMatrix(ctx, arr))

    def test_asymmetric_m(self, ectx2):
        ctx = ectx2.ctx
        z = SeriesMatrix.zeros(ctx, 2, 2)
        arr = z.arr.copy()
        arr[0, 1, 1] = 1
        with pytest.raises(InvalidExtension):
            ExtensionData(ectx2, z, z, SeriesMatrix(ctx, arr))

    def test_xi_at_degree_m(self):
        # the diagram routes keep a connection only through degree M-1, so
        # a degree-M body would make the fast route disagree with them
        ectx = ExtensionContext(PrecisionContext(3, 8, 4), 2)
        z = SeriesMatrix.zeros(ectx.ctx, 2, 2)
        arr = z.arr.copy()
        arr[0, 1, 4] = 1
        with pytest.raises(InvalidExtension, match="degree M"):
            ExtensionData(ectx, SeriesMatrix(ectx.ctx, arr), z, z)
        below = z.arr.copy()
        below[0, 1, 3] = 1
        ExtensionData(ectx, SeriesMatrix(ectx.ctx, below), z, z)

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

    def test_height_must_be_an_integer(self, ctx3):
        with pytest.raises(TypeError):
            ExtensionContext(ctx3, 3.0)
        ectx = ExtensionContext(ctx3, np.int64(3))
        assert type(ectx.h) is int and ectx == ExtensionContext(ctx3, 3)

    def test_context_mismatch(self, ctx3, ctx5):
        e1 = ExtensionData.zero(ExtensionContext(ctx3, 2))
        e2 = ExtensionData.zero(ExtensionContext(ctx5, 2))
        with pytest.raises(ContextMismatch):
            baer_sum(e1, e2)

    def test_unknown_mode(self, ectx2):
        zero = ExtensionData.zero(ectx2)
        with pytest.raises(ValueError, match="unknown mode 'pp'"):
            baer_sum(zero, zero, "pp")

    def test_geometric_flag_conjunction(self, ectx2):
        rng = random.Random(53)
        e = from_alpha(random_witness(rng, ectx2, witness_support(ectx2)))
        assert baer_sum(e.mark_geometric(), ExtensionData.zero(ectx2),
                        "fast").geometric_flag
        assert not baer_sum(e, ExtensionData.zero(ectx2), "fast").geometric_flag


def random_accepted_data(rng, ectx):
    """Extension data drawn only from the shape rules: xi below degree M, v
    in the t-ideal and m symmetric; the crystal identities need not hold."""
    ctx, h = ectx.ctx, ectx.h
    xi = random_series_matrix(rng, ctx, h, h, range(ctx.M))
    v = random_series_matrix(rng, ctx, h, h, range(1, ctx.M + 1))
    m = random_series_matrix(rng, ctx, h, h, range(ctx.M + 1))
    return ExtensionData(ectx, xi, v, m + m.transpose())


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([3, 5]),
       n_digits=st.sampled_from([8, 40]), h=st.sampled_from([2, 3]))
def test_baer_routes_agree_on_any_accepted_data(seed, p, n_digits, h):
    rng = random.Random(seed)
    ectx = ExtensionContext(PrecisionContext(p, n_digits, 6), h)
    e1, e2 = random_accepted_data(rng, ectx), random_accepted_data(rng, ectx)
    fast = baer_sum(e1, e2, "fast")
    assert baer_sum(e1, e2, "pullback_pushout") == fast
    assert baer_sum(e1, e2, "pushout_pullback") == fast


# tracemalloc peak, in bytes, of one diagram-mode Baer sum at p=3, h=10,
# N=8, M=32 (numpy 2.4).  The diagrams that held the rank-4h ambient
# pairing to the end, built direct_sum from block copies and checked both
# closure equations on all 40 rows of the pullback peaked at 3,329,440
# (pullback_pushout) and 2,748,952 (pushout_pullback) on this pair; the
# bound is 80% of that.  No clock is involved.
DIAGRAM_PEAK_BOUND = {"pullback_pushout": 0.8 * 3_329_440,
                      "pushout_pullback": 0.8 * 2_748_952}


@pytest.mark.parametrize("mode", sorted(DIAGRAM_PEAK_BOUND))
def test_baer_diagram_working_set(mode):
    ectx = ExtensionContext(PrecisionContext(3, 8, 32), 10)
    rng = random.Random(0)
    e1, e2 = (random_extension(rng, ectx, nontrivial=True) for _ in range(2))
    expected = baer_sum(e1, e2, "fast")
    # the first sum fills the block-map and gather-plan memos
    assert baer_sum(e1, e2, mode) == expected
    tracemalloc.start()
    try:
        result = baer_sum(e1, e2, mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == expected
    assert peak <= DIAGRAM_PEAK_BOUND[mode], peak


def test_contexts_free_their_matrices():
    # a context owns its standard crystals and block maps, so a sweep of
    # one diagram sum in each of ten contexts at h=10, M=200 keeps almost
    # nothing once the contexts are dropped (module-level memos of them
    # kept 163 MiB here)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for n_digits in range(8, 18):
            ectx = ExtensionContext(PrecisionContext(3, n_digits, 200), 10)
            rng = random.Random(n_digits)
            e1, e2 = (random_extension(rng, ectx, nontrivial=True)
                      for _ in range(2))
            assert baer_sum(e1, e2, "pullback_pushout") == \
                baer_sum(e1, e2, "fast")
        del ectx, e1, e2
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert kept < 4 * 2**20, kept


class TestClosureChecks:
    """Each stability check of the diagram read-offs fires on input that
    breaks it."""

    def test_span_not_frobenius_stable(self, ctx3):
        sub1 = make_standard_crystal(ctx3, 3, "sub1")
        e0 = SeriesMatrix.from_series_rows(ctx3, [[1], [0], [0]])
        # F e_0 = p e_1 leaves the span of e_0
        with pytest.raises(NotStable, match="Frobenius"):
            induced_maps(sub1.frobenius, sub1.connection, e0, [0])

    @pytest.mark.parametrize("degree, stable", [(0, False), (31, False),
                                                (32, True)])
    def test_span_not_connection_stable(self, ctx3, degree, stable):
        e0 = SeriesMatrix.from_series_rows(ctx3, [[1], [0]])
        arr = SeriesMatrix.zeros(ctx3, 2, 2).arr.copy()
        arr[1, 0, degree] = 1  # the connection moves e_0 towards e_1
        conn = SeriesMatrix(ctx3, arr)
        ident = SeriesMatrix.identity(ctx3, 2)
        if stable:  # degree M is beyond the trusted range and is dropped
            f, a = induced_maps(ident, conn, e0, [0])
            assert f == SeriesMatrix.identity(ctx3, 1) and a.is_zero()
        else:
            with pytest.raises(NotStable, match="connection"):
                induced_maps(ident, conn, e0, [0])

    @pytest.mark.parametrize("broken", ["Frobenius", "connection"])
    def test_pushout_kernel_not_stable(self, ctx3, broken):
        # quotient of span(e_0, e_1) by e_0, and a map sending e_0 to e_1
        moves = SeriesMatrix.from_series_rows(ctx3, [[0, 0], [1, 0]])
        zero = SeriesMatrix.zeros(ctx3, 2, 2)
        f, a = (moves, zero) if broken == "Frobenius" else (zero, moves)
        kernel = SeriesMatrix.from_series_rows(ctx3, [[1], [0]])
        proj = SeriesMatrix.from_series_rows(ctx3, [[0, 1]])
        section = SeriesMatrix.from_series_rows(ctx3, [[0], [1]])
        with pytest.raises(NotStable, match=broken):
            _pushout(f, a, kernel, proj, section)
        f_q, a_q = _pushout(zero, zero, kernel, proj, section)
        assert f_q.is_zero() and a_q.is_zero() and f_q.rows == 1

    def test_block_maps_are_shared(self, ctx3, ectx2):
        # each block map is built once per context and pattern, and once a
        # product has found it constant it is its own Frobenius pullback
        m = ectx2._block_map(("+0", "0-"))
        assert ectx2._block_map(("+0", "0-")) is m
        zero = SeriesMatrix.zeros(ctx3, 2, 2)
        assert m == block_matrix(ctx3, [
            [SeriesMatrix.identity(ctx3, 2), zero],
            [zero, SeriesMatrix.identity(ctx3, 2, scale=-1)]])
        m @ SeriesMatrix.identity(ctx3, 4)
        assert m.phi_pullback() is m

    @pytest.mark.parametrize("which, entry, match", [
        ("frobenius", (3, 0), "output"),      # lower-left block
        ("connection", (0, 0), "connection"),  # upper-left block
        ("pairing", (0, 0), "pairing"),       # upper-left block
        ("pairing", (3, 0), "pairing")])      # lower-left block
    def test_presentation_off_the_frame(self, ectx3, which, entry, match):
        rng = random.Random(5)
        e = random_extension(rng, ectx3, nontrivial=True)
        c = assemble_crystal(e)
        mats = {"frobenius": c.frobenius, "connection": c.connection,
                "pairing": c.pairing}
        assert _readout(ectx3, *mats.values(), False) == e
        arr = mats[which].arr.copy()
        arr[entry + (1,)] = 1
        mats[which] = SeriesMatrix(ectx3.ctx, arr)
        with pytest.raises(NotStable, match=match):
            _readout(ectx3, *mats.values(), False)


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
        noisy = add_noise(rng, e, "v", ectx2.ctx.p, entry=(1, 0))
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
        e = add_noise(rng, e.mark_geometric(), "m", ectx2.ctx.p)
        assert isinstance(trivialize(e), Untrivializable)
        w = trivialize(int_scale(e, ectx2.ctx.p))
        assert isinstance(w, TrivializationWitness)
        out = p_torsion_check(e, w)
        assert isinstance(out, TorsionCertificate)

    @pytest.mark.parametrize("e_digits, w_digits", [(2, 2), (8, 2)])
    def test_two_digits_cannot_be_divided(self, e_digits, w_digits):
        # dividing by p leaves one digit, below the precision floor of two
        def ectx(n):
            return ExtensionContext(PrecisionContext(3, n, 6), 2)
        e = ExtensionData.zero(ectx(e_digits))
        w = TrivializationWitness(ectx(w_digits),
                                  SeriesMatrix.zeros(ectx(w_digits).ctx, 2, 2))
        with pytest.raises(PrecisionInsufficient, match="quotient by p"):
            p_torsion_check(e, w)
        three = ectx(3)
        out = p_torsion_check(ExtensionData.zero(three), TrivializationWitness(
            three, SeriesMatrix.zeros(three.ctx, 2, 2)))
        assert isinstance(out, TorsionCertificate) and out.precision == 2

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

    @pytest.mark.parametrize("name, cell, equation", [
        ("xi", (0, 1, 0), "connection"),  # 1 at body degree 0
        ("v", (0, 0, 1), "Frobenius"),    # t in column 0: still geometric
        ("m", (0, 0, 1), "pairing")])     # t on the diagonal: still symmetric
    def test_witness_failure_names_its_equation(self, ectx3, name, cell,
                                                equation):
        # e changed in one field keeps the valid witness for p*e, which
        # then fails that one equation of p times the changed extension
        rng = random.Random(97)
        ctx = ectx3.ctx
        e = from_alpha(random_witness(rng, ectx3, witness_support(ectx3))
                       ).mark_geometric()
        w = trivialize(int_scale(e, ctx.p))
        assert isinstance(p_torsion_check(e, w), TorsionCertificate)
        arr = getattr(e, name).arr.copy()
        arr[cell] = (arr[cell] + 1) % ctx.modulus
        changed = replace(e, **{name: SeriesMatrix(ctx, arr)})
        with pytest.raises(WitnessInvalid) as info:
            p_torsion_check(changed, w)
        assert str(info.value) == \
            f"witness fails the {equation} equations for p*e"

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


@pytest.mark.parametrize("p, n_digits", [(3, 40), (5, 27)])
def test_torsion_quotient_switches_storage(p, n_digits):
    # 3^40 and 5^27 exceed 2^62, one digit lower does not: the divided
    # witness moves from Python-integer to int64 storage
    ctx = PrecisionContext(p, n_digits, 3 * p)
    assert not ctx.int64_safe and ctx.reduce_precision(n_digits - 1).int64_safe
    ectx = ExtensionContext(ctx, 3)
    rng = random.Random(n_digits)
    gamma = random_witness(rng, ectx, witness_support(ectx))
    e = from_alpha(gamma).mark_geometric()
    w = trivialize(int_scale(e, p))
    assert isinstance(w, TrivializationWitness)
    assert w.alpha.arr.dtype == object
    out = p_torsion_check(e, w)
    assert isinstance(out, TorsionCertificate)
    assert out.precision == n_digits - 1
    assert out.beta.alpha.arr.dtype == np.int64
    assert out.beta.alpha == gamma.alpha.reduce_precision(n_digits - 1)
    # a product on the quotient runs on its own storage
    assert out.beta.alpha @ out.beta.alpha == naive_matmul(out.beta.alpha,
                                                           out.beta.alpha)


# (p, N, storage): limbs, the int64 edge (3^39 < 2^62), Python integers,
# and the storage edge at p=5 (5^26 < 2^62 < 5^27)
REGIMES = [(3, 24, np.int64), (3, 39, np.int64), (3, 40, object),
           (5, 26, np.int64), (5, 27, object)]


@pytest.mark.parametrize("p, n_digits, storage", REGIMES)
def test_criterion_03_in_every_regime(p, n_digits, storage):
    ectx = ExtensionContext(PrecisionContext(p, n_digits, 32), 5)
    for seed in range(4):
        rng = random.Random(seed)
        e1 = random_extension(rng, ectx, nontrivial=bool(seed % 2))
        e2 = random_extension(rng, ectx, nontrivial=bool(seed % 3))
        fast = baer_sum(e1, e2, "fast")
        assert fast.xi.arr.dtype == storage
        assert baer_sum(e1, e2, "pullback_pushout") == fast, seed
        assert baer_sum(e1, e2, "pushout_pullback") == fast, seed
        crystal = assemble_crystal(fast)
        assert check_horizontality(crystal).passed, seed
        assert check_pairing_compat(crystal).passed, seed


def _v_by_roll(alpha: SeriesMatrix) -> np.ndarray:
    """The Frobenius defect of ``_v_from_alpha`` with its index shifts
    written as np.roll, the form the formula was first stated in."""
    ctx = alpha.context
    p = ctx.p
    term1 = np.roll(alpha.phi_pullback().arr, 1, axis=1)
    term1[:, 1:, :] = mul_mod(term1[:, 1:, :], p, ctx)
    term2 = np.roll(alpha.arr, -1, axis=0)
    term2[:-1] = mul_mod(term2[:-1], p, ctx)
    term2[-1] = mul_mod(term2[-1], p * p, ctx)
    return reduce_mod(term1 - term2, ctx.modulus)


@pytest.mark.parametrize("n_digits, storage", [(8, np.int64), (40, object)])
@pytest.mark.parametrize("h", [2, 3, 10])
def test_v_from_alpha_matches_the_roll_formula(h, n_digits, storage):
    # every degree drawn, so that the wrap row and column carry data
    ctx = PrecisionContext(3, n_digits, 32)
    alpha = random_series_matrix(random.Random(h), ctx, h, h, range(1, 33))
    v = _v_from_alpha(alpha)
    assert v.arr.dtype == storage
    assert np.array_equal(v.arr, _v_by_roll(alpha))


@pytest.mark.parametrize("p, n_digits, storage", REGIMES)
def test_criterion_07_in_every_regime(p, n_digits, storage):
    ectx = ExtensionContext(PrecisionContext(p, n_digits, 32), 5)
    n = 32 // p + 1  # the widest base: p(n-1) <= 32
    report = multiply_by_p_injectivity_probe(ectx, n, 8, seed=n_digits)
    assert report.counterexamples == ()
    assert report.nontrivial_py + report.torsion_certified == 8
    # one certification, and the dtypes on either side of the division
    rng = random.Random(p)
    y = random_geometric_point(rng, ectx, n)
    w = trivialize(int_scale(y.extension, p))
    assert w.alpha.arr.dtype == storage
    cert = p_torsion_check(y.extension, w)
    assert isinstance(cert, TorsionCertificate)
    assert cert.precision == n_digits - 1
    assert from_alpha(cert.beta) == y.extension.reduce_precision(n_digits - 1)


@pytest.mark.parametrize("p, n_digits, storage", REGIMES)
def test_criterion_06_in_every_regime(p, n_digits, storage):
    ectx = ExtensionContext(PrecisionContext(p, n_digits, 32), 5)
    rng = random.Random(n_digits)
    # t^9 at p=3 and t^5 at p=5 cost 2 and 1 digits, which moves N=40 and
    # N=27 from Python integers to int64
    n_out = n_digits - (2 if p == 3 else 1)
    for _ in range(4):
        w = random_witness(rng, ectx, range(1, 32 // p + 1))
        assert w.alpha.arr.dtype == storage
        out = trivialize(from_alpha(w))
        assert isinstance(out, TrivializationWitness)
        assert out.context.N == n_out
        assert out.alpha == w.alpha.reduce_precision(n_out)
        assert out.alpha.arr.dtype == np.int64


@pytest.mark.parametrize("p, n_digits, storage", REGIMES)
def test_criterion_09_in_every_regime(p, n_digits, storage):
    ectx = ExtensionContext(PrecisionContext(p, n_digits, 32), 5)
    n = 32 // p + 1
    rng = random.Random(n_digits)
    for k in range(4):
        y = random_geometric_point(rng, ectx, n, bool(k % 2))
        z = random_geometric_point(rng, ectx, n, bool(k % 3))
        assert y.extension.xi.arr.dtype == storage
        n2 = rng.randrange(2, n)
        assert truncate_point(add_points(y, z), n2) == add_points(
            truncate_point(y, n2), truncate_point(z, n2)), k


def stacked(records):
    """One ExtensionData with the sample axis from records of one context."""
    e = records[0]
    return ExtensionData(e.ectx, *(
        SeriesMatrix(e.context, np.stack([getattr(r, f).arr for r in records]))
        for f in ("xi", "v", "m")), all(r.geometric_flag for r in records))


class TestSampleAxis:
    """Records with the leading sample axis: each sample as if alone."""

    @staticmethod
    def mixed(ectx, seed):
        """Extensions that lose 0, 2 and 1 digits to integration, one that
        is not integrable, and two whose v or m equation fails after
        integration."""
        rng = random.Random(seed)

        def image(degrees):
            return from_alpha(random_witness(rng, ectx, degrees))

        return [image(witness_support(ectx)), image(range(1, 11)), image([3]),
                random_extension(rng, ectx, nontrivial=True),
                add_noise(rng, image([3]), "v", 9),
                add_noise(rng, image([1, 3]), "m", 9)]

    @pytest.mark.parametrize("n_digits", [8, 40])
    def test_trivialize_matches_the_per_sample_calls(self, n_digits):
        ectx = ExtensionContext(PrecisionContext(3, n_digits, 32), 3)
        es = self.mixed(ectx, n_digits)
        out = trivialize(stacked(es))
        assert out == tuple(trivialize(e) for e in es)
        assert [o.context.N for o in out[:3]] == [n_digits, n_digits - 2,
                                                  n_digits - 1]
        assert [o.equation for o in out[3:]] == ["xi", "v", "m"]

    def test_trivialize_raises_for_the_lowest_sample(self):
        # at N=3 the loss-2 sample exhausts the precision; the sample
        # before it is not integrable, which is an outcome, not an error
        ectx = ExtensionContext(PrecisionContext(3, 3, 32), 3)
        es = self.mixed(ectx, 1)
        order = [es[3], es[2], es[1], es[0]]
        with pytest.raises(PrecisionInsufficient, match="loss 2 of N=3"):
            trivialize(order[2])
        assert isinstance(trivialize(order[0]), Untrivializable)
        with pytest.raises(PrecisionInsufficient, match="loss 2 of N=3"):
            trivialize(stacked(order))

    @pytest.mark.parametrize("n_digits", [8, 40])
    def test_p_torsion_check_matches_the_per_sample_calls(self, n_digits):
        ectx = ExtensionContext(PrecisionContext(3, n_digits, 32), 3)
        rng = random.Random(n_digits)
        ys = [random_geometric_point(rng, ectx, 6, bool(k % 2)).extension
              for k in range(4)]
        ws = [trivialize(int_scale(y, 3)) for y in ys]
        alpha = SeriesMatrix(ectx.ctx, np.stack([w.alpha.arr for w in ws]))
        out = p_torsion_check(stacked(ys), TrivializationWitness(ectx, alpha))
        assert out == tuple(p_torsion_check(y, w) for y, w in zip(ys, ws))
        assert all(isinstance(o, TorsionCertificate) for o in out)

    def test_an_invalid_witness_names_the_lowest_sample(self):
        ectx = ExtensionContext(PrecisionContext(3, 8, 32), 3)
        ctx = ectx.ctx
        rng = random.Random(0)
        ys = [random_geometric_point(rng, ectx, 6).extension for _ in range(3)]
        arr = np.stack([trivialize(int_scale(y, 3)).alpha.arr for y in ys])
        arr[2, 0, 1, 1] += 1  # sample 2 fails the connection equation
        # sample 1 fails the pairing equation only: p^(N-1) t^p has a
        # vanishing derivative, and the Frobenius terms multiply it by p
        arr[1, 0, 0, 3] = (arr[1, 0, 0, 3] + 3**7) % ctx.modulus
        w = TrivializationWitness(ectx, SeriesMatrix(ctx, arr))
        for k, what in ((1, "pairing"), (2, "connection")):
            with pytest.raises(WitnessInvalid, match=what):
                p_torsion_check(ys[k], TrivializationWitness(
                    ectx, SeriesMatrix(ctx, arr[k])))
        with pytest.raises(WitnessInvalid, match="pairing"):
            p_torsion_check(stacked(ys), w)

    def test_products_refuse_the_sample_axis(self):
        ctx = PrecisionContext(3, 8, 32)
        a = random_series_matrix(random.Random(0), ctx, 2, 2, [0, 1])
        stack = SeriesMatrix(ctx, np.stack([a.arr, a.arr]))
        for left, right in ((stack, a), (a, stack), (stack, stack)):
            with pytest.raises(ValueError, match="sample axis"):
                left @ right

    def test_accessors_refuse_the_sample_axis(self):
        ctx = PrecisionContext(3, 8, 32)
        a = random_series_matrix(random.Random(0), ctx, 2, 3, [0, 1])
        stack = SeriesMatrix(ctx, np.stack([a.arr, a.arr]))
        with pytest.raises(ValueError, match="entry .*sample axis"):
            stack.entry(1, 2)
        assert a.entry(1, 2) == TruncatedSeries._from_array(ctx, a.arr[1, 2])

    def test_one_integration_per_loss(self, monkeypatch):
        ectx = ExtensionContext(PrecisionContext(3, 8, 32), 3)
        rng = random.Random(3)
        es = self.mixed(ectx, 3)
        es[1:1] = [random_extension(rng, ectx, nontrivial=True)
                   for _ in range(3)]
        calls = []
        integrate = extension_group.integrate
        monkeypatch.setattr(extension_group, "integrate",
                            lambda form: calls.append(form) or integrate(form))
        out = trivialize(stacked(es))
        # losses 0, 2 and 1 (three samples), in order of first appearance;
        # no call holds one of the four non-integrable samples
        assert [c.arr.shape[0] for c in calls] == [1, 1, 3]
        assert np.array_equal(np.concatenate([c.arr for c in calls]), np.stack(
            [es[k].xi.arr for k in (0, 4, 5, 7, 8)]))
        monkeypatch.setattr(extension_group, "integrate", integrate)
        assert out == tuple(trivialize(e) for e in es)
        assert [out[k].equation for k in (1, 2, 3, 6)] == ["xi"] * 4

    def test_all_samples_non_integrable(self):
        ectx = ExtensionContext(PrecisionContext(3, 8, 32), 3)
        es = [random_extension(random.Random(k), ectx, nontrivial=True)
              for k in range(2)]
        assert trivialize(stacked(es)) == tuple(trivialize(e) for e in es)

    def test_records_refuse_unequal_sample_counts(self):
        ectx = ExtensionContext(PrecisionContext(3, 8, 32), 3)
        rng = random.Random(0)
        ys = [random_geometric_point(rng, ectx, 6).extension for _ in range(2)]
        e = stacked(ys)
        for f in ("xi", "v", "m"):
            fields = {g: getattr(e, g) for g in ("xi", "v", "m")}
            fields[f] = getattr(ys[0], f)
            with pytest.raises(ValueError, match="same samples"):
                ExtensionData(ectx, **fields)
            fields[f] = SeriesMatrix(ectx.ctx, getattr(e, f).arr[:1])
            with pytest.raises(ValueError, match="same samples"):
                ExtensionData(ectx, **fields)

    def test_p_torsion_check_refuses_unequal_sample_counts(self):
        ectx = ExtensionContext(PrecisionContext(3, 8, 32), 3)
        rng = random.Random(0)
        ys = [random_geometric_point(rng, ectx, 6).extension for _ in range(2)]
        ws = [trivialize(int_scale(y, 3)) for y in ys]
        one = TrivializationWitness(ectx, SeriesMatrix(ectx.ctx,
                                                       ws[0].alpha.arr[None]))
        for e, w in ((stacked(ys), ws[0]), (stacked(ys), one),
                     (ys[0], one), (stacked(ys[:1]), ws[0])):
            with pytest.raises(ValueError, match="same samples"):
                p_torsion_check(e, w)
