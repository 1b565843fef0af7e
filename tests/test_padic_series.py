import random
import time

import pytest

from crystal_lab import (OneForm, PrecisionContext, TruncatedSeries,
                         derivative, frobenius_pullback, integrate,
                         oneform_pullback)
from crystal_lab.errors import (ContextMismatch, NonIntegrable,
                                PrecisionInsufficient)
from crystal_lab.padic_series import (MAX_MODULUS_BITS, MAX_PRIME,
                                     _is_odd_prime, p_valuation)


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

    def test_modulus(self, ctx3):
        assert ctx3.modulus == 3**8


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
