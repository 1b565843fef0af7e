import random
import time
from fractions import Fraction

import numpy as np
import pytest

from crystal_lab import (OneForm, PrecisionContext, TruncatedSeries,
                         derivative, frobenius_pullback, integrate,
                         oneform_pullback)
from crystal_lab.errors import (ContextMismatch, NonIntegrable,
                                PrecisionInsufficient)
from crystal_lab.padic_series import (MAX_MODULUS_BITS, MAX_PRIME,
                                     _integration_tables, _is_odd_prime,
                                     p_valuation, reduce_mod)
from crystal_lab.series_matrix import SeriesMatrix


def poly_mul_oracle(a, b, modulus, top):
    """Independent Cauchy product over plain Python integers."""
    out = [0] * (top + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= top:
                out[i + j] = (out[i + j] + x * y) % modulus
    return tuple(out)


def random_series(rng, ctx, zero_constant=False):
    coeffs = [rng.randrange(ctx.modulus) for _ in range(ctx.M + 1)]
    if zero_constant:
        coeffs[0] = 0
    return TruncatedSeries(ctx, coeffs)


@pytest.mark.parametrize("mod", [3**8, 3**24, 5**26])
def test_reduce_mod_matches_python_remainder_on_int64(mod):
    # the whole range the call sites use, -(mod - 1) to 2^63 - 1, with its
    # ends, the multiples of mod next to 0 and to 2^63, and random values
    top = 2**63 - 1
    edges = {-(mod - 1), -1, 0, 1, mod - 1, top, top - 1}
    for base in (0, mod, -mod, top - top % mod, top - top % mod - mod):
        edges.update(base + d for d in (-1, 0, 1))
    rng = random.Random(mod)
    values = sorted(v for v in edges if -(mod - 1) <= v <= top)
    values += [rng.randrange(-(mod - 1), top + 1) for _ in range(2000)]
    arr = np.array(values, dtype=np.int64)
    got = reduce_mod(arr, mod)
    assert got.dtype == np.int64
    assert got.tolist() == [v % mod for v in values]


def test_reduce_mod_keeps_python_integers_on_object():
    mod = 3**40
    rng = random.Random(0)
    values = [-(mod - 1), -1, 0, mod - 1, mod, 2 * mod + 1, 2**200]
    values += [rng.randrange(-mod, mod**2) for _ in range(200)]
    got = reduce_mod(np.array(values, dtype=object), mod)
    assert got.dtype == object
    assert got.tolist() == [v % mod for v in values]
    assert {type(x) for x in got} == {int}


BANDS = [(-1, 1), (-1, 2), (0, 1), (0, 2)]


@pytest.mark.parametrize("n", [8, 24, 39])
@pytest.mark.parametrize("bands", BANDS)
def test_reduce_mod_folds_a_known_range_exactly(n, bands):
    # every entry of [low p^N, high p^N): its ends, the band edges 0,
    # m - 1, m, 2m - 2 and -(m - 1) inside it, and random values; 3^39 is
    # just below 2^62, so a sum of two residues there nears 2^63
    mod = 3**n
    lo, hi = bands[0] * mod, bands[1] * mod - 1
    edges = (lo, hi, 0, 1, -1, mod - 1, mod, 2 * mod - 2, -(mod - 1))
    rng = random.Random(f"{n} {bands}")
    values = [v for v in edges if lo <= v <= hi]
    values += [rng.randint(lo, hi) for _ in range(2000)]
    arr = np.array(values, dtype=np.int64)
    got = reduce_mod(arr, mod, bands)
    # the fresh array is folded in place
    assert got is arr and got.dtype == np.int64
    assert got.tolist() == [v % mod for v in values]


@pytest.mark.parametrize("bands", BANDS)
def test_reduce_mod_with_bands_keeps_python_integers_on_object(bands):
    # object storage (N=40) takes % whatever the range, as without one
    mod = 3**40
    rng = random.Random(40)
    values = [-(mod - 1), -1, 0, mod - 1, mod, 2 * mod - 2]
    values += [rng.randint(-(mod - 1), 2 * mod - 2) for _ in range(200)]
    arr = np.array(values, dtype=object)
    got = reduce_mod(arr, mod, bands)
    assert got.dtype == object
    assert got.tolist() == [v % mod for v in values]
    assert {type(x) for x in got} == {int}
    assert arr.tolist() == values


@pytest.mark.parametrize("n", [8, 39, 40])
def test_folding_operations_never_write_their_operands(n):
    # add, sub and neg fold a fresh array: the operands, read-only and
    # here filled with p^N - 1 and random residues, stay as they were
    ctx = PrecisionContext(3, n, 4)
    rng = random.Random(n)
    top = TruncatedSeries(ctx, [ctx.modulus - 1] * (ctx.M + 1))
    other = random_series(rng, ctx)
    before = (top.coeffs(), other.coeffs())
    for got, want in ((top + other, lambda x, y: x + y),
                      (top - other, lambda x, y: x - y),
                      (other - top, lambda x, y: y - x),
                      (-top, lambda x, y: -x), (top + top, lambda x, y: 2 * x)):
        assert got.coeffs() == tuple(want(x, y) % ctx.modulus
                                     for x, y in zip(*before))
    a, b = top._matrix(), other._matrix()
    for got in (a + b, a - b, -a):
        assert got.arr.dtype == a.arr.dtype
    assert (top.coeffs(), other.coeffs()) == before
    assert not a.arr.flags.writeable and not b.arr.flags.writeable


class TestPrecisionContext:
    def test_rejects_even_prime(self):
        with pytest.raises(ValueError):
            PrecisionContext(2, 8, 32)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrecisionContext(9, 8, 32)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            PrecisionContext(3, 1, 32)

    def test_rejects_negative_m(self):
        with pytest.raises(ValueError):
            PrecisionContext(3, 8, -1)

    def test_primality_matches_trial_division(self):
        def trial(n):
            return n > 2 and n % 2 == 1 and all(n % d for d in range(3, int(n**0.5) + 1, 2))
        assert [n for n in range(3000) if _is_odd_prime(n)] == \
            [n for n in range(3000) if trial(n)]

    @pytest.mark.parametrize("n", [
        2047,                          # strong pseudoprime to base 2
        3215031751,                    # ... to bases 2, 3, 5, 7
        3825123056546413051,           # ... to bases 2 through 23
        318665857834031151167461,      # ... to bases 2 through 37
    ])
    def test_rejects_strong_pseudoprimes(self, n):
        assert not _is_odd_prime(n)

    def test_large_primes(self):
        assert _is_odd_prime(10**18 + 3)
        assert _is_odd_prime(2**61 - 1)
        assert not _is_odd_prime((2**31 - 1) * (2**61 - 1))
        assert PrecisionContext(10**18 + 3, 2, 0).modulus == (10**18 + 3)**2

    def test_rejects_p_beyond_proven_range(self):
        with pytest.raises(ValueError, match="below"):
            PrecisionContext(MAX_PRIME + 2, 2, 0)

    def test_n_cap_is_checked_before_the_modulus(self):
        # N * bitlen(3) = 2N: N = 512 is the largest admitted precision
        assert PrecisionContext(3, MAX_MODULUS_BITS // 2, 0).modulus == 3**512
        for n in (MAX_MODULUS_BITS // 2 + 1, 10**9, 10**18):
            t0 = time.perf_counter()
            with pytest.raises(ValueError, match="bitlen"):
                PrecisionContext(3, n, 0)
            assert time.perf_counter() - t0 < 0.1, n
        with pytest.raises(ValueError, match="bitlen"):
            PrecisionContext(MAX_PRIME - 2, MAX_MODULUS_BITS // 82 + 1, 0)

    @pytest.mark.parametrize("args", [(3.0, 40, 4), (3, 40.0, 4),
                                      (3, 40, 4.0)], ids=["p", "N", "M"])
    def test_rejects_a_float_in_each_field(self, args):
        # at N=40.0, p^N would be a float whose residues are not exact
        with pytest.raises(TypeError):
            PrecisionContext(*args)

    @pytest.mark.parametrize("field", ["p", "N", "M"])
    def test_numpy_integers_become_python_ints(self, field):
        values = {"p": 3, "N": 40, "M": 4}
        values[field] = np.int64(values[field])
        ctx = PrecisionContext(**values)
        assert ctx == PrecisionContext(3, 40, 4)
        assert type(getattr(ctx, field)) is int
        assert type(ctx.modulus) is int and ctx.modulus == 3**40
        top = TruncatedSeries(ctx, [3**40 - 1])
        assert (top * top).coeffs()[0] == 1

    def test_modulus(self, ctx3):
        assert ctx3.modulus == 3**8

    def test_precision_is_never_raised(self, ctx3):
        assert ctx3.reduce_precision(8) is ctx3
        assert ctx3.reduce_precision(5) == PrecisionContext(3, 5, 32)
        with pytest.raises(PrecisionInsufficient, match="from 8 to 9"):
            ctx3.reduce_precision(9)


def test_valuation_of_zero_is_refused():
    assert [p_valuation(n, 3) for n in (1, -3, 18, 3**40)] == [0, 1, 2, 40]
    with pytest.raises(ValueError, match="unbounded"):
        p_valuation(0, 3)


class TestSeriesArith:
    def test_difference_of_squares(self, ctx3):
        one = TruncatedSeries.one(ctx3)
        t = TruncatedSeries.monomial(ctx3, 1)
        expected = one - TruncatedSeries.monomial(ctx3, 2)
        assert (one + t) * (one - t) == expected

    def test_truncation_ideal(self, ctx3):
        top = TruncatedSeries.monomial(ctx3, ctx3.M)
        t = TruncatedSeries.monomial(ctx3, 1)
        assert (top * t).is_zero()

    def test_reduction_mod_p_power(self):
        # (3 + t)^2 over Z/9: the constant 9 dies, leaving 6t + t^2
        ctx = PrecisionContext(3, 2, 4)
        s = TruncatedSeries(ctx, (3, 1))
        expected = poly_mul_oracle((3, 1), (3, 1), 9, 4)
        assert (s * s).coeffs() == expected
        assert (s * s).coeffs()[:3] == (0, 6, 1)

    def test_mul_against_integer_oracle(self, ctx3):
        rng = random.Random(11)
        for _ in range(20):
            a = random_series(rng, ctx3)
            b = random_series(rng, ctx3)
            assert (a * b).coeffs() == poly_mul_oracle(
                a.coeffs(), b.coeffs(), ctx3.modulus, ctx3.M)

    def test_ring_axioms(self, ctx3):
        rng = random.Random(5)
        for _ in range(10):
            a, b, c = (random_series(rng, ctx3) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_context_mismatch(self, ctx3, ctx5):
        with pytest.raises(ContextMismatch):
            TruncatedSeries.one(ctx3) + TruncatedSeries.one(ctx5)

    def test_t_ideal_predicate(self, ctx3):
        assert TruncatedSeries.monomial(ctx3, 1).coeffs()[0] == 0
        assert TruncatedSeries.one(ctx3).coeffs()[0] != 0

    @pytest.mark.parametrize("n_digits", [8, 40])
    def test_truncate_degree(self, n_digits):
        ctx = PrecisionContext(3, n_digits, 6)
        a = random_series(random.Random(n_digits), ctx)
        for d in range(-1, ctx.M + 2):
            got = a.truncate_degree(d)
            assert got.context == ctx
            assert got.coeffs() == tuple(
                c if n <= d else 0 for n, c in enumerate(a.coeffs()))
            assert {type(c) for c in got.coeffs()} == {int}

    @pytest.mark.parametrize("d", [-1, -2, -5])
    def test_negative_degrees(self, d):
        # every d < 0 means what d = -1 does: truncate to zero, and nothing
        # is left to be non-zero; a monomial has no negative degree
        ctx = PrecisionContext(3, 8, 4)
        s = TruncatedSeries(ctx, [1, 2, 3, 4, 5])
        assert s.truncate_degree(d).is_zero()
        assert s._matrix().truncate_degree(d).is_zero()
        assert s._matrix().is_zero_through(d)
        assert OneForm(s).is_zero_through(d)
        with pytest.raises(ValueError, match="negative degree"):
            TruncatedSeries.monomial(ctx, d)

    def test_equal_series_hash_equal(self, ctx3, ctx5):
        rng = random.Random(13)
        a, b = random_series(rng, ctx3), random_series(rng, ctx3)
        # equal series built by different routes
        pairs = [(a + b, b + a), (a * b - b, b * (a - TruncatedSeries.one(ctx3))),
                 (TruncatedSeries.zero(ctx3), a - a),
                 (TruncatedSeries.constant(ctx3, -1), -TruncatedSeries.one(ctx3))]
        for x, y in pairs:
            assert x == y and hash(x) == hash(y)
        assert len({a, b, a + TruncatedSeries.zero(ctx3)}) == 2
        # equal coefficients over different contexts are different series
        assert TruncatedSeries.one(ctx3) != TruncatedSeries.one(ctx5)
        assert TruncatedSeries.one(ctx3) != 1

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("value", [Fraction(1, 3), 0.5, 1.9, "1"])
    def test_non_integers_are_refused(self, p, value):
        # 1/3 used to become 0, also at p=5, where it is a unit
        ctx = PrecisionContext(p, 8, 4)
        with pytest.raises(TypeError):
            TruncatedSeries(ctx, [1, value])
        ints = TruncatedSeries(ctx, [True, np.int64(-2), np.uint8(3)])
        assert ints.coeffs() == (1, ctx.modulus - 2, 3, 0, 0)

    def test_operands_of_another_type_are_refused(self, ctx3):
        s = TruncatedSeries(ctx3, [1, 2])
        for op in (lambda: s + 1, lambda: 1 + s, lambda: s - 1,
                   lambda: 1 - s, lambda: s * 2.5, lambda: 2.5 * s,
                   lambda: s * Fraction(1, 3),
                   lambda: s * SeriesMatrix.identity(ctx3, 1)):
            with pytest.raises(TypeError, match="unsupported operand"):
                op()

    def test_integral_scalars_scale_from_both_sides(self, ctx3):
        s = TruncatedSeries(ctx3, [1, 2])
        expected = TruncatedSeries(ctx3, [3, 6])
        for k in (3, np.int64(3), np.uint16(3)):
            assert s * k == expected and k * s == expected
        assert s * True == s and s * np.int64(-1) == -s

    def test_str(self, ctx3):
        s = TruncatedSeries(ctx3, (2, 0, -1, 0, 5))
        assert str(s) == repr(s) == "2*t^0 + 6560*t^2 + 5*t^4"
        assert str(TruncatedSeries.zero(ctx3)) == "0"
        assert str(OneForm(TruncatedSeries.monomial(ctx3, 3))) == "(1*t^3) dt"
        assert str(OneForm.zero(ctx3)) == "(0) dt"


class TestDerivative:
    def test_power_rule(self, ctx3):
        d = derivative(TruncatedSeries.monomial(ctx3, 2))
        assert d.body == TruncatedSeries.monomial(ctx3, 1, 2)

    def test_constant(self, ctx3):
        assert derivative(TruncatedSeries.constant(ctx3, 17)).is_zero()

    def test_p_divisible_coefficient(self, ctx3):
        # d(t^3) = 3 t^2 dt: the body coefficient picks up valuation 1
        d = derivative(TruncatedSeries.monomial(ctx3, 3))
        assert d.body == TruncatedSeries.monomial(ctx3, 2, 3)
        assert p_valuation(d.body.coeffs()[2], 3) == 1


class TestIntegrate:
    def test_inverse_power_rule(self, ctx3):
        form = OneForm(TruncatedSeries.monomial(ctx3, 1, 2))
        assert integrate(form) == TruncatedSeries.monomial(ctx3, 2)

    def test_zero_without_loss(self, ctx3):
        out = integrate(OneForm.zero(ctx3))
        assert out.is_zero()
        assert out.context == ctx3

    def test_divisibility_gate(self, ctx3):
        with pytest.raises(NonIntegrable) as exc:
            integrate(OneForm(TruncatedSeries.monomial(ctx3, 2)))
        assert exc.value.degree == 2

    def test_loss_of_one_digit(self, ctx3):
        out = integrate(OneForm(TruncatedSeries.monomial(ctx3, 2, 3)))
        assert out.context.N == ctx3.N - 1
        assert out == TruncatedSeries.monomial(out.context, 3)

    def test_roundtrip_at_reduced_precision(self, ctx3):
        rng = random.Random(7)
        for _ in range(10):
            a = random_series(rng, ctx3, zero_constant=True)
            back = integrate(derivative(a))
            assert back == a.reduce_precision(back.context.N)

    def test_last_digit_is_not_given_up(self):
        # d(t^3) = 3 t^2 dt at N=2 has an antiderivative only at N=1
        with pytest.raises(PrecisionInsufficient):
            integrate(OneForm(TruncatedSeries(PrecisionContext(3, 2, 5),
                                              [0, 0, 3])))
        out = integrate(OneForm(TruncatedSeries(PrecisionContext(3, 3, 5),
                                                [0, 0, 3])))
        assert out.context.N == 2 and out == TruncatedSeries.monomial(
            out.context, 3)

    def test_exhaustion(self):
        ctx = PrecisionContext(3, 2, 32)
        body = TruncatedSeries(ctx, [0] * 26 + [3**1])  # degree 26, n+1 = 27
        with pytest.raises((NonIntegrable, PrecisionInsufficient)):
            integrate(OneForm(body))


class TestFrobeniusPullback:
    def test_monomial_substitution(self, ctx3):
        t = TruncatedSeries.monomial(ctx3, 1)
        assert frobenius_pullback(t) == TruncatedSeries.monomial(ctx3, 3)

    def test_fixes_constants(self, ctx3):
        c = TruncatedSeries.constant(ctx3, 1234)
        assert frobenius_pullback(c) == c

    def test_truncates_high_degrees(self):
        ctx = PrecisionContext(3, 8, 10)
        s = TruncatedSeries(ctx, (1, 1, 0, 0, 1))
        assert frobenius_pullback(s) == TruncatedSeries(ctx, (1, 0, 0, 1))

    def test_multiplicative(self, ctx3):
        rng = random.Random(3)
        for _ in range(10):
            a = random_series(rng, ctx3)
            b = random_series(rng, ctx3)
            assert frobenius_pullback(a * b) == \
                frobenius_pullback(a) * frobenius_pullback(b)

    def test_injective_mod_p_on_low_degrees(self, ctx3):
        rng = random.Random(9)
        top = ctx3.M // ctx3.p
        for _ in range(20):
            coeffs = [0] * (ctx3.M + 1)
            for d in range(top + 1):
                coeffs[d] = rng.randrange(ctx3.modulus)
            a = TruncatedSeries(ctx3, coeffs)
            if any(c % 3 for c in a.coeffs()):
                assert any(c % 3 for c in frobenius_pullback(a).coeffs())

    def test_oneform_pullback(self, ctx3):
        # dt pulls back to p t^(p-1) dt
        form = OneForm(TruncatedSeries.one(ctx3))
        assert oneform_pullback(form).body == \
            TruncatedSeries.monomial(ctx3, 2, 3)

    def test_pullback_commutes_with_d(self, ctx3):
        rng = random.Random(13)
        for _ in range(10):
            a = random_series(rng, ctx3)
            lhs = oneform_pullback(derivative(a))
            rhs = derivative(frobenius_pullback(a))
            assert (lhs - rhs).is_zero_through(ctx3.M - 1)


@pytest.mark.parametrize("n_digits", [2, 8, 40])
@pytest.mark.parametrize("m", [0, 1, 15, 32, 121])
@pytest.mark.parametrize("p", [3, 5, 7, 37])
def test_integration_tables_match_the_direct_formula(p, m, n_digits):
    ctx = PrecisionContext(p, n_digits, m)
    cols, vp, pv, inv, inv_max = _integration_tables(ctx)
    assert _integration_tables(PrecisionContext(p, n_digits, m)) is \
        _integration_tables(ctx)  # memoised by value
    expect = [(n, p_valuation(n + 1, p)) for n in range(m)]
    assert cols.tolist() == [n for n, v in expect if v]
    assert vp.tolist() == [v for _, v in expect if v]
    assert pv.tolist() == [p**v for _, v in expect if v]
    units = [(n + 1) // p**v for n, v in expect]
    assert [int(x) for x in inv] == [pow(u, -1, ctx.modulus) for u in units]
    assert inv.dtype == (np.int64 if ctx.int64_safe else object)
    assert inv_max == max((int(x) for x in inv), default=0)
    for arr in (cols, vp, pv, inv):
        assert not arr.flags.writeable


@pytest.mark.parametrize("p", [2**61 - 1, 2**64 + 13])
def test_integration_tables_at_a_prime_beyond_every_degree(p):
    # no n+1 <= M is divisible by p, which need not fit in int64
    ctx = PrecisionContext(p, 2, 8)
    cols, vp, pv, inv, _ = _integration_tables(ctx)
    assert cols.size == vp.size == pv.size == 0
    assert [int(x) for x in inv] == [pow(n, -1, p**2) for n in range(1, 9)]
    g = OneForm(TruncatedSeries(ctx, [1, 2, 3]))
    assert integrate(g) == TruncatedSeries(ctx, [0, 1, 1, 1])


class TestStackedIntegrate:
    """integrate on a matrix with the sample axis: each sample as alone."""

    @staticmethod
    def stack(ctx, degrees, seed=0):
        """Per sample, the derivative bodies of a random 2 x 3 matrix drawn
        at the given degrees, stacked."""
        rng = random.Random(seed)
        arrs = []
        for ds in degrees:
            arr = np.zeros((2, 3, ctx.M + 1), dtype=np.int64 if ctx.int64_safe
                           else object)
            for d in ds:
                for i in range(2):
                    for j in range(3):
                        arr[i, j, d] = rng.randrange(ctx.modulus)
            arrs.append(SeriesMatrix(ctx, arr).derivative_bodies().arr)
        return SeriesMatrix(ctx, np.stack(arrs))

    @pytest.mark.parametrize("n_digits", [8, 40])
    def test_mixed_losses_match_the_per_sample_calls(self, n_digits):
        # one matrix at the lowest precision, as for a record: each sample
        # is its own antiderivative reduced to that N
        ctx = PrecisionContext(3, n_digits, 32)
        # losses 0, 1, 2 and 0 again: degrees off 3, at 3, at 9
        forms = self.stack(ctx, [(1, 2), (3, 4), (9, 1), (5,)])
        out = integrate(forms)
        assert isinstance(out, SeriesMatrix)
        assert out.context.N == n_digits - 2
        assert out.arr.dtype == (np.int64 if out.context.int64_safe else object)
        alone = [integrate(SeriesMatrix(ctx, a)) for a in forms.arr]
        assert [a.context.N for a in alone] == [n_digits, n_digits - 1,
                                                n_digits - 2, n_digits]
        for a, sample in zip(out.arr, alone):
            assert SeriesMatrix(out.context, a) == sample.reduce_precision(
                n_digits - 2)

    def test_equal_losses_give_one_stack(self):
        ctx = PrecisionContext(3, 8, 32)
        forms = self.stack(ctx, [(3, 1), (6,), (3, 30)])
        out = integrate(forms)
        assert isinstance(out, SeriesMatrix) and out.context.N == 7
        for a, sample in zip(out.arr, forms.arr):
            assert SeriesMatrix(out.context, a) == integrate(
                SeriesMatrix(ctx, sample))

    def test_errors_name_the_first_sample(self):
        ctx = PrecisionContext(3, 3, 32)
        forms = self.stack(ctx, [(1,), (9,), (3,)])
        with pytest.raises(PrecisionInsufficient, match="loss 2 of N=3"):
            integrate(forms)
        arr = forms.arr.copy()
        arr[2, 1, 0, 2] = 1  # t^2 dt: not integrable mod p
        with pytest.raises(NonIntegrable) as exc:
            integrate(SeriesMatrix(ctx, arr))
        assert (exc.value.index, exc.value.degree) == ((2, 1, 0), 2)
