import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crystal_lab import PrecisionContext, TruncatedSeries
from crystal_lab import series_matrix
from crystal_lab.errors import ContextMismatch
from crystal_lab.series_matrix import SeriesMatrix, det_mod_p, storage_dtype


def random_matrix(rng, ctx, rows, cols, constant=False):
    grid = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            if constant:
                row.append(TruncatedSeries.constant(ctx, rng.randrange(ctx.modulus)))
            else:
                row.append(TruncatedSeries(
                    ctx, [rng.randrange(ctx.modulus) for _ in range(ctx.M + 1)]))
        grid.append(row)
    return SeriesMatrix.from_series_rows(ctx, grid)


def naive_matmul(a, b):
    """Schoolbook product over Python integers: the reference every product
    kernel is tested against."""
    mod, top = a.context.modulus, a.context.M

    def terms(m, i, j):
        return [(x, v) for x, v in enumerate(m.entry(i, j).coeffs()) if v]

    ta = [[terms(a, i, k) for k in range(a.cols)] for i in range(a.rows)]
    tb = [[terms(b, k, j) for j in range(b.cols)] for k in range(b.rows)]
    out = np.zeros((a.rows, b.cols, top + 1), dtype=object)
    for i in range(a.rows):
        for j in range(b.cols):
            for k in range(a.cols):
                for x, u in ta[i][k]:
                    for y, v in tb[k][j]:
                        if x + y <= top:
                            out[i, j, x + y] += u * v
    return SeriesMatrix(a.context, out % mod)


@pytest.fixture
def small_ctx():
    return PrecisionContext(3, 8, 8)


def test_matmul_matches_naive(small_ctx):
    rng = random.Random(2)
    for _ in range(5):
        a = random_matrix(rng, small_ctx, 3, 4)
        b = random_matrix(rng, small_ctx, 4, 2)
        assert a @ b == naive_matmul(a, b)


def test_constant_fast_paths(small_ctx):
    rng = random.Random(4)
    a = random_matrix(rng, small_ctx, 3, 3)
    c = random_matrix(rng, small_ctx, 3, 3, constant=True)
    assert a @ c == naive_matmul(a, c)
    assert c @ a == naive_matmul(c, a)


def test_identity_and_transpose(small_ctx):
    rng = random.Random(6)
    a = random_matrix(rng, small_ctx, 3, 3)
    ident = SeriesMatrix.identity(small_ctx, 3)
    assert a @ ident == a
    assert ident @ a == a
    assert a.transpose().transpose() == a


def test_scale_and_add(small_ctx):
    rng = random.Random(8)
    a = random_matrix(rng, small_ctx, 2, 2)
    assert a + a == a.scale_int(2)
    assert (a - a).is_zero()
    t = TruncatedSeries.monomial(small_ctx, 1)
    scaled = a.scale_series(t)
    for i in range(2):
        for j in range(2):
            assert scaled.entry(i, j) == a.entry(i, j) * t


def test_calculus_matches_scalar_ops(small_ctx):
    from crystal_lab import derivative, frobenius_pullback, oneform_pullback, OneForm
    rng = random.Random(10)
    a = random_matrix(rng, small_ctx, 2, 3)
    d = a.derivative_bodies()
    ph = a.phi_pullback()
    fp = a.oneform_pullback_bodies()
    for i in range(2):
        for j in range(3):
            assert d.entry(i, j) == derivative(a.entry(i, j)).body
            assert ph.entry(i, j) == frobenius_pullback(a.entry(i, j))
            assert fp.entry(i, j) == oneform_pullback(OneForm(a.entry(i, j))).body


def test_block_assembly(small_ctx):
    ident = SeriesMatrix.identity(small_ctx, 2)
    z = SeriesMatrix.zeros(small_ctx, 2, 2)
    big = SeriesMatrix.block(small_ctx, [[ident, z], [z, ident.scale_int(5)]])
    assert big.entry(0, 0) == TruncatedSeries.one(small_ctx)
    assert big.entry(2, 2) == TruncatedSeries.constant(small_ctx, 5)
    assert big.rows == big.cols == 4


def test_context_mismatch(small_ctx, ctx3):
    a = SeriesMatrix.identity(small_ctx, 2)
    b = SeriesMatrix.identity(ctx3, 2)
    with pytest.raises(ContextMismatch):
        a @ b


def test_det_mod_p():
    assert det_mod_p([[1, 0], [0, 1]], 3) == 1
    assert det_mod_p([[0, 1], [1, 0]], 3) == 2  # -1 mod 3
    assert det_mod_p([[3, 1], [3, 1]], 3) == 0
    assert det_mod_p([], 3) == 1


def test_object_dtype_fallback_beyond_int64():
    # moduli too large for the vectorized path fall back to Python integers:
    # 5^27 > 2^62
    ctx = PrecisionContext(5, 27, 12)
    assert not ctx.int64_safe
    rng = random.Random(12)
    a = random_matrix(rng, ctx, 3, 3)
    b = random_matrix(rng, ctx, 3, 3)
    assert a @ b == naive_matmul(a, b)
    big = TruncatedSeries(ctx, [5**26, 1])
    assert (big * big).coeffs()[0] == (5**52) % 5**27


# -- product kernels against the Python-integer reference ----------------------


def filled(ctx, rows, cols, fill, constant, rng):
    """A matrix whose coefficients are random, all p^N - 1 ("top"), or in
    {0, 1, p^N - 1} ("signs", the balanced 0/+-1 maps)."""
    mod = ctx.modulus
    draw = {"random": lambda: rng.randrange(mod),
            "top": lambda: mod - 1,
            "signs": lambda: rng.choice((0, 1, mod - 1))}[fill]
    arr = np.zeros((rows, cols, ctx.M + 1), dtype=storage_dtype(ctx))
    for i in range(rows):
        for j in range(cols):
            for n in range(1 if constant else ctx.M + 1):
                arr[i, j, n] = draw()
    return SeriesMatrix(ctx, arr)


def chosen_kernel(monkeypatch, a, b):
    """The product and the arithmetic type it ran in."""
    seen = []
    real = series_matrix.product_dtype

    def spy(bound, storage):
        seen.append(real(bound, storage))
        return seen[-1]

    monkeypatch.setattr(series_matrix, "product_dtype", spy)
    out = a @ b
    monkeypatch.undo()
    return out, seen[-1] if seen else None


# N=8: every product fits float64.  N=16, N=19 and N=24: general products
# take float64 limb products; 0/+-1 constant products still fit float64.
# N=19 puts (M+1)(p^N - 1)^2 just above 2^63, so series products leave int64.
# N=39 and (2^31 - 1)^2: int64 storage just below 2^62, where the limb
# recombination and the chunked scalar multiplies are tightest.
# N=40 and p^N beyond int64: object storage; only empty or zero products
# avoid Python integers.
KERNEL_CONTEXTS = {**{n: PrecisionContext(3, n, 6)
                      for n in (8, 16, 19, 24, 39, 40)},
                   "mersenne": PrecisionContext(2**31 - 1, 2, 3),
                   "huge": PrecisionContext(10**18 + 3, 2, 3)}


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from(list(KERNEL_CONTEXTS)),
       kind=st.sampled_from(["const-left", "const-right", "general"]),
       fill=st.sampled_from(["random", "top", "signs"]),
       shape=st.tuples(st.integers(0, 3), st.integers(0, 4), st.integers(0, 3)),
       seed=st.integers(0, 2**32))
def test_product_kernels_match_reference(n, kind, fill, shape, seed):
    ctx = KERNEL_CONTEXTS[n]
    rng = random.Random(seed)
    r, k, c = shape
    a = filled(ctx, r, k, fill, kind == "const-left", rng)
    b = filled(ctx, k, c, fill, kind == "const-right", rng)
    out = a @ b
    assert out.arr.dtype == storage_dtype(ctx)
    assert out == naive_matmul(a, b)


def top_const(ctx, rows, cols):
    """Constant matrix of the residue with the largest balanced lift."""
    return SeriesMatrix.from_int_rows(ctx, [[ctx.modulus // 2] * cols] * rows)


def all_top(ctx, rows, cols):
    return filled(ctx, rows, cols, "top", False, None)


def first_k_at_or_above(limit, per_k):
    return -(-limit // per_k)


# (context, build a @ b from the inner dimension k, bound per unit of k)
BOUND_CASES = {
    "general-2^53": (PrecisionContext(3, 15, 1),
                     lambda ctx, k: (all_top(ctx, 1, k), all_top(ctx, k, 1)),
                     lambda ctx: 2 * (ctx.modulus - 1) ** 2, 2**53),
    "general-2^63": (PrecisionContext(3, 16, 32),
                     lambda ctx, k: (all_top(ctx, 1, k), all_top(ctx, k, 1)),
                     lambda ctx: 33 * (ctx.modulus - 1) ** 2, 2**63),
    "const-left-2^53": (PrecisionContext(3, 16, 32),
                        lambda ctx, k: (top_const(ctx, 1, k), all_top(ctx, k, 2)),
                        lambda ctx: (ctx.modulus - 1) * (ctx.modulus // 2), 2**53),
    "const-right-2^63": (PrecisionContext(3, 16, 2),
                         lambda ctx, k: (all_top(ctx, 1, k), top_const(ctx, k, 1)),
                         lambda ctx: (ctx.modulus - 1) * (ctx.modulus // 2), 2**63),
}
# on int64 storage 2^63 is no longer a switch: limb splitting carries any
# bound, so the product stays off Python integers on both sides of it
BELOW = {2**53: np.float64, 2**63: np.int64}
ABOVE = {2**53: np.int64, 2**63: np.int64}


@pytest.mark.parametrize("case", sorted(BOUND_CASES))
def test_kernel_switches_at_the_bound(monkeypatch, case):
    ctx, build, per_k, limit = BOUND_CASES[case]
    assert ctx.int64_safe
    k_above = first_k_at_or_above(limit, per_k(ctx))
    for k, expected in ((k_above - 1, BELOW[limit]), (k_above, ABOVE[limit])):
        a, b = build(ctx, k)
        out, kernel = chosen_kernel(monkeypatch, a, b)
        assert kernel is expected, (k, kernel)
        assert out.arr.dtype == np.int64
        assert out == naive_matmul(a, b)


def test_balanced_lift_keeps_wide_constants_on_float(monkeypatch):
    # at N=24 a 0/+-1 map stays on float64; beyond 2^62 the storage is
    # object and so is the product
    for n, kernel_expected in ((24, np.float64), (40, object)):
        ctx = KERNEL_CONTEXTS[n]
        rng = random.Random(3)
        a = filled(ctx, 3, 40, "random", False, rng)
        signs = filled(ctx, 40, 2, "signs", True, rng)
        out, kernel = chosen_kernel(monkeypatch, a, signs)
        assert kernel is kernel_expected
        assert out.arr.dtype == storage_dtype(ctx)
        assert out == naive_matmul(a, signs)


def test_no_int64_overflow_on_wide_inner_dimension():
    # 1x152 by 152x1 with every coefficient p^N - 1 sums 152 * 33 products
    # near 2^50.9 each at degree M, past 2^63: int64 would wrap
    ctx = PrecisionContext(3, 16, 32)
    assert ctx.int64_safe
    a, b = all_top(ctx, 1, 152), all_top(ctx, 152, 1)
    out = a @ b
    assert int(out.arr[0, 0, ctx.M]) == 5016
    assert int(out.arr[0, 0, ctx.M]) == (152 * 33 * (ctx.modulus - 1) ** 2) % ctx.modulus
    assert out == naive_matmul(a, b)


def test_storage_switches_at_2_62():
    # int64 storage needs 2(p^N - 1) < 2^63, so that add, sub and neg of
    # residues never overflow
    assert 3**39 < 2**62 < 3**40
    assert PrecisionContext(3, 39, 4).int64_safe
    assert PrecisionContext(2**31 - 1, 2, 4).int64_safe
    assert not PrecisionContext(3, 40, 4).int64_safe
    for ctx in (KERNEL_CONTEXTS[39], KERNEL_CONTEXTS["mersenne"],
                KERNEL_CONTEXTS[40]):
        top = all_top(ctx, 2, 2)
        assert top.arr.dtype == storage_dtype(ctx)
        assert TruncatedSeries.one(ctx)._arr.dtype == storage_dtype(ctx)
        mod = ctx.modulus
        assert (top + top).arr.tolist() == [[[mod - 2] * (ctx.M + 1)] * 2] * 2
        assert (top - top).is_zero()
        assert (-top).arr.tolist() == [[[1] * (ctx.M + 1)] * 2] * 2


# -- elementwise multiplies against Python integers ----------------------------


def conv_ref(u, v, mod):
    """Truncated product of two coefficient lists over Python integers."""
    out = [0] * len(u)
    for x, a in enumerate(u):
        for y, b in enumerate(v[:len(u) - x]):
            out[x + y] += a * b
    return [c % mod for c in out]


def map_cells(arr, fn):
    return [[fn(cell) for cell in row] for row in arr.tolist()]


@pytest.mark.parametrize("n", list(KERNEL_CONTEXTS))
@settings(max_examples=10, deadline=None)
@given(fill=st.sampled_from(["random", "top"]), seed=st.integers(0, 2**32))
def test_elementwise_multiplies_match_reference(n, fill, seed):
    from crystal_lab import derivative, frobenius_pullback
    from crystal_lab.extension_group import _v_from_alpha
    ctx = KERNEL_CONTEXTS[n]
    mod, p, m = ctx.modulus, ctx.p, ctx.M
    rng = random.Random(seed)
    a = filled(ctx, 3, 3, fill, False, rng)
    s = filled(ctx, 1, 1, fill, False, rng).entry(0, 0)
    cells = a.arr.tolist()
    results = []

    # SeriesMatrix.scale_int and TruncatedSeries * int, the `* inv2` of the
    # Baer-sum readout and the `* p`, `* p^2` of the Frobenius defect
    for k in (mod - 1, pow(2, -1, mod), p, p * p, rng.randrange(mod)):
        results.append(a.scale_int(k))
        assert results[-1].arr.tolist() == map_cells(
            a.arr, lambda cell: [x * k % mod for x in cell])
        results.append(a.entry(0, 1) * k)
        assert list(results[-1].coeffs()) == [x * k % mod for x in cells[0][1]]

    # the series convolutions: TruncatedSeries * TruncatedSeries, scale_series
    results.append(a.entry(1, 2) * s)
    assert list(results[-1].coeffs()) == conv_ref(cells[1][2], list(s.coeffs()), mod)
    results.append(a.scale_series(s))
    assert results[-1].arr.tolist() == map_cells(
        a.arr, lambda cell: conv_ref(cell, list(s.coeffs()), mod))

    # derivative and derivative_bodies multiply degree n+1 by n+1
    def deriv(cell):
        return [(x + 1) * cell[x + 1] % mod for x in range(m)] + [0]
    results.append(a.derivative_bodies())
    assert results[-1].arr.tolist() == map_cells(a.arr, deriv)
    results.append(derivative(a.entry(2, 0)).body)
    assert list(results[-1].coeffs()) == deriv(cells[2][0])

    # oneform_pullback_bodies: g |-> g(t^p) * p * t^(p-1)
    def pullback(cell):
        out = [0] * (m + 1)
        for x, c in enumerate(cell):
            if p * x + p - 1 <= m:
                out[p * x + p - 1] = c * p % mod
        return out
    results.append(a.oneform_pullback_bodies())
    assert results[-1].arr.tolist() == map_cells(a.arr, pullback)

    # _v_from_alpha: p^(1-[j=0]) phi*(alpha[i][j-1]) - p^(1+[i=h-1]) alpha[i+1][j]
    h = a.rows
    phi = [[frobenius_pullback(a.entry(i, j)).coeffs() for j in range(h)]
           for i in range(h)]
    expect = [[[(p ** (j != 0) * phi[i][(j - 1) % h][x]
                 - p ** (1 + (i == h - 1)) * cells[(i + 1) % h][j][x]) % mod
                for x in range(m + 1)] for j in range(h)] for i in range(h)]
    results.append(_v_from_alpha(a))
    assert results[-1].arr.tolist() == expect

    for r in results:
        arr = r.arr if isinstance(r, SeriesMatrix) else r._arr
        assert arr.dtype == storage_dtype(ctx)


@pytest.mark.parametrize("n", [24, 39, "mersenne", 40])
def test_limb_products_at_storage_edges(monkeypatch, n):
    # every coefficient p^N - 1 maximizes each limb and each recombination
    # step; constants of residue p^N // 2 have the widest balanced lift
    ctx = KERNEL_CONTEXTS[n]
    expected = np.int64 if ctx.int64_safe else object
    for a, b in ((all_top(ctx, 2, 3), all_top(ctx, 3, 2)),
                 (top_const(ctx, 2, 3), all_top(ctx, 3, 2)),
                 (all_top(ctx, 2, 3), top_const(ctx, 3, 2))):
        out, kernel = chosen_kernel(monkeypatch, a, b)
        assert kernel is expected
        assert out.arr.dtype == storage_dtype(ctx)
        assert out == naive_matmul(a, b)
