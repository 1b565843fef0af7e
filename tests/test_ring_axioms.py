"""Ring axioms of W[[t]]/(p^N, t^(M+1)) and of matrices over it, in both
storage regimes, with the schoolbook product as the oracle.

Series products and inverses run on the matrix product kernels, so these
properties cover float64 (N=8), limb (N=24) and Python-integer (N=40, and
p=5 at N=27) arithmetic alike.
"""

import random

from hypothesis import given, settings, strategies as st

from crystal_lab import (SeriesMatrix, PrecisionContext, TruncatedSeries,
                         derivative, frobenius_pullback, integrate)
from crystal_lab.series_matrix import storage_dtype

from test_series_matrix import filled, naive_matmul

CONTEXTS = {"N8": PrecisionContext(3, 8, 6), "N24": PrecisionContext(3, 24, 6),
            "N40": PrecisionContext(3, 40, 6),
            "p5N27": PrecisionContext(5, 27, 11)}
FILLS = ["random", "top", "signs"]


def series(ctx, fill, rng, unit=False):
    s = filled(ctx, 1, 1, fill, False, rng).entry(0, 0)
    if unit and s.coeffs()[0] % ctx.p == 0:
        s = s + TruncatedSeries.one(ctx)
    return s


def as_1x1(s):
    return SeriesMatrix(s.context, s._arr[None, None].copy())


def cases(max_examples):
    return lambda test: settings(max_examples=max_examples, deadline=None)(
        given(n=st.sampled_from(sorted(CONTEXTS)), fill=st.sampled_from(FILLS),
              seed=st.integers(0, 2**32))(test))


@cases(60)
def test_series_ring_axioms(n, fill, seed):
    ctx = CONTEXTS[n]
    rng = random.Random(seed)
    a, b, c = (series(ctx, fill, rng) for _ in range(3))
    ab = a * b
    assert ab._arr.dtype == storage_dtype(ctx)
    assert as_1x1(ab) == naive_matmul(as_1x1(a), as_1x1(b))
    assert ab == b * a
    assert ab * c == a * (b * c)
    assert a * (b + c) == ab + a * c
    assert (a + b) * c == a * c + b * c
    assert a * TruncatedSeries.one(ctx) == a


@cases(40)
def test_matrix_ring_axioms(n, fill, seed):
    ctx = CONTEXTS[n]
    rng = random.Random(seed)
    r, k, l, c = (rng.randrange(1, 4) for _ in range(4))
    a = filled(ctx, r, k, fill, rng.random() < 0.3, rng)
    b = filled(ctx, k, l, fill, rng.random() < 0.3, rng)
    b2 = filled(ctx, k, l, fill, False, rng)
    d = filled(ctx, l, c, fill, rng.random() < 0.3, rng)
    ab = a @ b
    assert ab == naive_matmul(a, b)
    assert ab @ d == a @ (b @ d)
    assert a @ (b + b2) == ab + a @ b2
    assert (b + b2) @ d == b @ d + b2 @ d


@cases(40)
def test_inverse(n, fill, seed):
    ctx = CONTEXTS[n]
    x = series(ctx, fill, random.Random(seed), unit=True)
    inv = x.inverse()
    assert x * inv == TruncatedSeries.one(ctx)
    assert inv * x == TruncatedSeries.one(ctx)
    assert inv.inverse() == x


@cases(40)
def test_integrate_inverts_derivative(n, fill, seed):
    ctx = CONTEXTS[n]
    rng = random.Random(seed)
    x = series(ctx, fill, rng)
    back = integrate(derivative(x))
    x0 = TruncatedSeries.constant(ctx, x.coeffs()[0])
    assert back == (x - x0).reduce_precision(back.context.N)
    m = filled(ctx, 2, 3, fill, False, rng)
    back = integrate(m.derivative_bodies())
    constant = m.arr.copy()
    constant[:, :, 1:] = 0
    m0 = SeriesMatrix(ctx, constant)
    assert back == (m - m0).reduce_precision(back.context.N)


@cases(40)
def test_phi_is_a_ring_endomorphism(n, fill, seed):
    ctx = CONTEXTS[n]
    rng = random.Random(seed)
    a, b = series(ctx, fill, rng), series(ctx, fill, rng)
    phi = frobenius_pullback
    assert phi(a * b) == phi(a) * phi(b)
    assert phi(a + b) == phi(a) + phi(b)
    assert phi(a * 7) == phi(a) * 7
    assert phi(TruncatedSeries.one(ctx)) == TruncatedSeries.one(ctx)
    m = filled(ctx, 2, 3, fill, False, rng)
    k = filled(ctx, 3, 2, fill, False, rng)
    assert (m @ k).phi_pullback() == m.phi_pullback() @ k.phi_pullback()
    assert (m + m).phi_pullback() == m.phi_pullback() + m.phi_pullback()
    assert SeriesMatrix.identity(ctx, 3).phi_pullback() == \
        SeriesMatrix.identity(ctx, 3)
