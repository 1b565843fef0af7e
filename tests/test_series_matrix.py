import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crystal_lab import (PrecisionContext, TruncatedSeries, direct_sum,
                         make_standard_crystal)
from crystal_lab import series_matrix
from crystal_lab.crystal import STANDARD_WEIGHT, FCrystalPresentation
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
    return SeriesMatrix(a.context, (out % mod).astype(storage_dtype(a.context)))


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


def block_matrix(ctx, grid):
    """The matrix of a 2-D grid of SeriesMatrix blocks."""
    return SeriesMatrix(ctx, np.concatenate(
        [np.concatenate([b.arr for b in row], axis=1) for row in grid]))


def test_direct_sum_layout():
    # both summands sit in place and the off-diagonal blocks are zero in
    # every degree, on int64 and on Python-integer storage
    for n in (8, 40):
        ctx = PrecisionContext(3, n, 4)
        rng = random.Random(n)
        c1, c2 = (FCrystalPresentation(
            ctx, rank, *(random_matrix(rng, ctx, rank, rank) for _ in range(3)),
            STANDARD_WEIGHT) for rank in (2, 3))
        total = direct_sum(c1, c2)
        assert total.rank == 5 and total.weight == STANDARD_WEIGHT
        for name in ("frobenius", "connection", "pairing"):
            arr = getattr(total, name).arr
            assert arr.shape == (5, 5, ctx.M + 1)
            assert arr.dtype == storage_dtype(ctx)
            assert np.array_equal(arr[:2, :2], getattr(c1, name).arr)
            assert np.array_equal(arr[2:, 2:], getattr(c2, name).arr)
            assert not arr[:2, 2:].any() and not arr[2:, :2].any()
            assert getattr(total, name) == block_matrix(ctx, [
                [getattr(c1, name), SeriesMatrix.zeros(ctx, 2, 3)],
                [SeriesMatrix.zeros(ctx, 3, 2), getattr(c2, name)]])


def test_context_mismatch(small_ctx, ctx3):
    a = SeriesMatrix.identity(small_ctx, 2)
    b = SeriesMatrix.identity(ctx3, 2)
    with pytest.raises(ContextMismatch):
        a @ b


def test_entry_context_mismatch_names_both(small_ctx, ctx3):
    entry = TruncatedSeries.one(ctx3)
    with pytest.raises(ContextMismatch) as exc:
        SeriesMatrix.from_series_rows(small_ctx, [[entry]])
    assert str(ctx3) in str(exc.value) and str(small_ctx) in str(exc.value)


@pytest.mark.parametrize("case", ["gather", "zero", "general"])
def test_matmul_checks_the_inner_dimension(small_ctx, case):
    # each route used to run past the check: the gather read rows 0-1 of
    # the 3x3, the zero shortcut returned a 2x2 and the general product
    # failed inside numpy
    rng = random.Random(5)
    a, b = {"gather": (SeriesMatrix.identity(small_ctx, 2),
                       SeriesMatrix.identity(small_ctx, 3)),
            "zero": (SeriesMatrix.zeros(small_ctx, 2, 3),
                     SeriesMatrix.zeros(small_ctx, 2, 2)),
            "general": (random_matrix(rng, small_ctx, 2, 3),
                        random_matrix(rng, small_ctx, 2, 2))}[case]
    shapes = f"{a.rows}x{a.cols} by a {b.rows}x{b.cols}"
    with pytest.raises(ValueError, match=shapes):
        a @ b


@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [2, 3]]])
def test_ragged_rows_are_refused(small_ctx, rows):
    with pytest.raises(ValueError, match="do not form a matrix"):
        SeriesMatrix.from_series_rows(small_ctx, rows)


@pytest.mark.parametrize("value", [1.5, Fraction(7, 2), "1"])
def test_non_integer_entries_are_refused(small_ctx, value):
    # 1.5 and 7/2 used to be floored to the constants 1 and 3
    with pytest.raises(TypeError):
        SeriesMatrix.from_series_rows(small_ctx, [[1, value]])
    m = SeriesMatrix.from_series_rows(small_ctx, [[True, np.int64(-1)]])
    assert m.constant_layer() == [[1, small_ctx.modulus - 1]]


@pytest.mark.parametrize("scale", [2.5, Fraction(1, 3), "2"])
def test_non_integer_identity_scales_are_refused(small_ctx, scale):
    # 2.5 used to put 2 on the diagonal
    with pytest.raises(TypeError):
        SeriesMatrix.identity(small_ctx, 2, scale=scale)
    assert (SeriesMatrix.identity(small_ctx, 2, scale=np.int64(2))
            == SeriesMatrix.identity(small_ctx, 2, scale=2))


def test_operands_of_another_type_are_refused(small_ctx):
    m = SeriesMatrix.identity(small_ctx, 2)
    for op in (lambda: m + 1, lambda: 1 + m, lambda: m - 1, lambda: m @ 2,
               lambda: 2 @ m, lambda: m @ np.int64(2),
               lambda: m + TruncatedSeries.one(small_ctx)):
        with pytest.raises(TypeError, match="unsupported operand"):
            op()


def test_phi_pullback_keeps_constants(small_ctx):
    # t |-> t^p fixes constants, so a matrix known to be constant is its own
    # pullback, and one not yet scanned gets an equal copy
    rng = random.Random(6)
    const = random_matrix(rng, small_ctx, 2, 3, constant=True)
    copy = const.phi_pullback()
    assert copy == const and copy is not const
    assert const.is_constant()
    assert const.phi_pullback() is const


@pytest.mark.parametrize("n_digits", [8, 40], ids=["int64", "object"])
def test_constant_layer_is_python_ints(n_digits):
    # the former list comprehension is the reference
    ctx = PrecisionContext(3, n_digits, 4)
    rng = random.Random(n_digits)
    top = SeriesMatrix.identity(ctx, 2, ctx.modulus - 1)
    for m in (random_matrix(rng, ctx, 3, 4), top, SeriesMatrix.zeros(ctx, 0, 2),
              SeriesMatrix.zeros(ctx, 2, 0)):
        got = m.constant_layer()
        assert got == [[int(x) for x in row] for row in m.arr[:, :, 0]]
        assert all(type(x) is int for row in got for x in row)


def test_equality_and_truncation_edges(small_ctx):
    rng = random.Random(9)
    a = random_matrix(rng, small_ctx, 2, 3)
    assert a.__eq__(a.arr) is NotImplemented
    assert a != a.arr.tolist() and a != 0
    # reduction mod t^(d+1) keeps a matrix as it is from d = M on
    assert a.truncate_degree(small_ctx.M) is a
    assert a.truncate_degree(small_ctx.M + 5) is a
    low = a.truncate_degree(2)
    assert np.array_equal(low.arr[..., :3], a.arr[..., :3])
    assert not low.arr[..., 3:].any()


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


def chosen_kernels(monkeypatch, run):
    """run() and the arithmetic types its products chose, in order."""
    seen = []
    real = series_matrix.product_dtype

    def spy(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(series_matrix, "product_dtype", spy)
    out = run()
    monkeypatch.undo()
    return out, seen


def chosen_kernel(monkeypatch, a, b):
    """The product and the arithmetic type it ran in."""
    out, seen = chosen_kernels(monkeypatch, lambda: a @ b)
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
    return SeriesMatrix.from_series_rows(ctx, [[ctx.modulus // 2] * cols] * rows)


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
    # a 0/+-1 map is a signed gather on int64 (N=24) and on object (N=40)
    # storage alike; at N=24 a constant of balanced lift 2 stays on float64
    for n in (24, 40):
        ctx = KERNEL_CONTEXTS[n]
        rng = random.Random(3)
        a = filled(ctx, 3, 40, "random", False, rng)
        signs = filled(ctx, 40, 2, "signs", True, rng)
        out, kernel = chosen_kernel(monkeypatch, a, signs)
        assert kernel is series_matrix.GATHER
        assert out.arr.dtype == storage_dtype(ctx)
        assert out == naive_matmul(a, signs)
    ctx = KERNEL_CONTEXTS[24]
    rng = random.Random(3)
    a = filled(ctx, 3, 40, "random", False, rng)
    twos = SeriesMatrix.from_series_rows(
        ctx, [[rng.choice((0, 1, 2, ctx.modulus - 2)) for _ in range(2)]
              for _ in range(40)])
    out, kernel = chosen_kernel(monkeypatch, a, twos)
    assert kernel is np.float64
    assert out == naive_matmul(a, twos)


@pytest.mark.parametrize("side", ["left", "right"])
def test_signed_gather_at_the_int64_edge(monkeypatch, side):
    # 3^39 is just below 2^62: three -1 terms of residues near 3^39 sum
    # below -2^63, so a width-3 plan must reduce after each term; width 4
    # and an output with no source (a zero row or column) as well
    ctx = KERNEL_CONTEXTS[39]
    mod = ctx.modulus
    assert 2**61 < mod < 2**62
    for width in (3, 4):
        minus = [[mod - 1] * width + [0] * (5 - width)] * 2 + [[0] * 5]
        const = SeriesMatrix.from_series_rows(ctx, minus)
        other = all_top(ctx, 5, 2)
        if side == "left":
            a, b = const, other
        else:
            a, b = other.transpose(), const.transpose()
        out, kernel = chosen_kernel(monkeypatch, a, b)
        assert kernel is series_matrix.GATHER
        assert out.arr.dtype == np.int64
        assert out == naive_matmul(a, b)


def sign_rows(rng, plus, minus, outputs=4, inner=6):
    """An outputs x inner 0/+-1 matrix whose first output has `plus` +1 and
    `minus` -1 entries, the others at most as many, and the last none."""
    rows = []
    for o in range(outputs):
        p, q = (plus, minus) if o == 0 else (rng.randint(0, plus),
                                             rng.randint(0, minus))
        if o == outputs - 1:
            p = q = 0
        row = [1] * p + [-1] * q + [0] * (inner - p - q)
        rng.shuffle(row)
        rows.append(row)
    return rows


@pytest.mark.parametrize("n", [8, 39, 40])
@pytest.mark.parametrize("fill", ["random", "top"])
def test_signed_gathers_of_every_sign_count(n, fill):
    # a gather plan records plus and minus, the most +1 and -1 sources of
    # any output: plus <= 1 with minus = 0 needs no reduction, plus <= 2
    # with minus <= 1 folds, any other plan divides.  At 3^39 every plan of
    # width 2 or more reduces after each term instead (the `each` path);
    # N=40 is object storage
    ctx = PrecisionContext(3, n, 2)
    mod = ctx.modulus
    if n == 39:
        assert 2 * (mod - 1) >= 2**63 - mod
    rng = random.Random(f"{n} {fill}")
    for plus, minus in itertools.product(range(4), range(3)):
        if plus == minus == 0:
            continue
        rows = sign_rows(rng, plus, minus)
        signs = np.array(rows, dtype=np.int8)
        plan = series_matrix._gather_plan(signs.shape, signs.tobytes())
        assert plan[2:] == (plus, minus)
        const = SeriesMatrix.from_series_rows(
            ctx, [[x % mod for x in row] for row in rows])
        other = filled(ctx, 6, 3, fill, False, rng)
        for a, b in ((const, other), (other.transpose(), const.transpose())):
            src = (b if a is const else a).arr.copy()
            out = a @ b
            assert out.arr.dtype == storage_dtype(ctx)
            assert out == naive_matmul(a, b)
            assert np.array_equal((b if a is const else a).arr, src)


def test_gather_plans_own_their_indices_and_stay_bounded():
    # a plan's index arrays pin no more than themselves (no view of the
    # argsort); a plan
    # whose key and indices exceed PLAN_MEMO_BYTES is built afresh and not
    # kept (a rank-1024 permutation once left 9.0 MiB in the memo), while
    # the 30 x 40 block map of the Baer diagrams is kept and hit
    import gc
    import tracemalloc
    from crystal_lab.extension_group import _blocks
    plan = series_matrix._gather_plan
    ctx = PrecisionContext(3, 8, 0)
    rng = np.random.default_rng(0)
    sigma = rng.permutation(1024)
    perm = np.zeros((1024, 1024, 1), dtype=np.int64)
    perm[np.arange(1024), sigma, 0] = 1
    b = SeriesMatrix(ctx, rng.integers(0, ctx.modulus, (1024, 4, 1)))
    plan.cache_clear()
    gc.collect()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    out = SeriesMatrix(ctx, perm.copy()) @ b
    assert np.array_equal(out.arr, b.arr[sigma])
    del out
    gc.collect()
    held = tracemalloc.get_traced_memory()[0] - base
    tracemalloc.stop()
    assert plan.cache_info().currsize == 0
    assert held < 2**16
    block = _blocks(PrecisionContext(3, 8, 32), 10, ("+0+0", "0+00", "000+"))
    x = SeriesMatrix.zeros(block.context, 40, 3)
    for _ in range(2):
        assert (block @ x).is_zero()
    assert plan.cache_info()[:] == (1, 1, 64, 1)
    lift = block._balanced()[0][:, :, 0]
    terms = plan(lift.shape, lift.astype(np.int8).tobytes())[0]
    for outs, take, _ in terms:
        for idx in (take, outs if outs is not None else take):
            assert idx.base is None or idx.base.nbytes == idx.nbytes
    assert lift.size + 16 * np.count_nonzero(lift) <= \
        series_matrix.PLAN_MEMO_BYTES < 1024**2


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

    # the series convolution TruncatedSeries * TruncatedSeries
    results.append(a.entry(1, 2) * s)
    assert list(results[-1].coeffs()) == conv_ref(cells[1][2], list(s.coeffs()), mod)

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


# -- general products on their support -----------------------------------------


def support(a, b):
    """(rows, inner, cols) of a @ b by definition: the inner indices where a
    column of a and the matching row of b are both non-zero, then the rows
    of a and the columns of b that are non-zero on those."""
    nz_a = [[a.arr[i, j].any() for j in range(a.cols)] for i in range(a.rows)]
    nz_b = [[b.arr[j, l].any() for l in range(b.cols)] for j in range(b.rows)]
    inner = [j for j in range(a.cols)
             if any(row[j] for row in nz_a) and any(nz_b[j])]
    rows = [i for i in range(a.rows) if any(nz_a[i][j] for j in inner)]
    cols = [l for l in range(b.cols) if any(nz_b[j][l] for j in inner)]
    return rows, inner, cols


def masked(m, rows=(), cols=(), constant_cols=()):
    """m with the given rows and columns zero and the constant_cols cut to
    their constant terms."""
    arr = m.arr.copy()
    arr[list(rows)] = 0
    arr[:, list(cols)] = 0
    arr[:, list(constant_cols), 1:] = 0
    return SeriesMatrix(m.context, arr)


def product_shapes(monkeypatch, a, b):
    """a @ b, the (rows, inner, cols) its arithmetic ran on, and the kernel."""
    shapes = []
    real = series_matrix._product

    def spy(x, y, *args):
        shapes.append((x.shape[0], x.shape[1], y.shape[1]))
        return real(x, y, *args)

    monkeypatch.setattr(series_matrix, "_product", spy)
    out, kernel = chosen_kernel(monkeypatch, a, b)  # undoes both patches
    return out, shapes, kernel


def constant_on_meeting_indices(ctx, fill, rng, lifts):
    """4x5 by 5x3, where a is constant with balanced lifts drawn from lifts
    on the inner indices 0-2, the only ones where b is non-zero."""
    mod = ctx.modulus
    a = filled(ctx, 4, 5, fill, False, rng)
    arr = a.arr.copy()
    arr[:, :3] = 0
    for i in range(4):
        for j in range(3):
            arr[i, j, 0] = rng.choice(lifts) % mod
    arr[0, 0, 0] = lifts[-1] % mod  # the widest lift occurs
    b = masked(filled(ctx, 5, 3, fill, False, rng), rows=(3, 4))
    return SeriesMatrix(ctx, arr), b


def masked_pair(a_rows=(), a_cols=(), b_rows=(), b_cols=()):
    return lambda ctx, fill, rng: (
        masked(filled(ctx, 4, 5, fill, False, rng), a_rows, a_cols),
        masked(filled(ctx, 5, 3, fill, False, rng), b_rows, b_cols))


# (build a 4x5 and a 5x3 operand, the kernel of their product by context)
GENERAL_KERNELS = {8: np.float64, 24: np.int64, 39: np.int64, 40: object}
TRIMS = {
    "full": (masked_pair(), GENERAL_KERNELS),
    "zero-rows": (masked_pair(a_rows=(0, 2)), GENERAL_KERNELS),
    "zero-cols": (masked_pair(b_cols=(1,)), GENERAL_KERNELS),
    "zero-inner": (masked_pair(a_cols=(1,), b_rows=(3,)), GENERAL_KERNELS),
    "mixed": (masked_pair(a_rows=(3,), a_cols=(0,), b_rows=(4,), b_cols=(2,)),
              GENERAL_KERNELS),
    "no-support": (masked_pair(a_cols=(0, 1, 2), b_rows=(3, 4)),
                   dict.fromkeys(GENERAL_KERNELS)),
    "constant-signs": (lambda ctx, fill, rng: constant_on_meeting_indices(
        ctx, fill, rng, (0, 1, -1)),
        dict.fromkeys(GENERAL_KERNELS, series_matrix.GATHER)),
    "constant-lift-2": (lambda ctx, fill, rng: constant_on_meeting_indices(
        ctx, fill, rng, (0, 1, -1, 2)),
        {8: np.float64, 24: np.float64, 39: np.int64, 40: object}),
}


@pytest.mark.parametrize("case", sorted(TRIMS))
@pytest.mark.parametrize("fill", ["random", "top"])
@pytest.mark.parametrize("n", [8, 24, 39, 40])
def test_general_products_run_on_their_support(monkeypatch, n, fill, case):
    # float64 (N=8), limbs (N=24), the int64 edge (N=39) and Python
    # integers (N=40); a trimmed operand that is constant takes the route
    # of a constant operand
    ctx = KERNEL_CONTEXTS[n]
    build, kernels = TRIMS[case]
    a, b = build(ctx, fill, random.Random(f"{n} {fill} {case}"))
    rows, inner, cols = support(a, b)
    out, shapes, kernel = product_shapes(monkeypatch, a, b)
    assert shapes == [(len(rows), len(inner), len(cols))]
    assert kernel is kernels[n]
    assert out.arr.dtype == storage_dtype(ctx)
    assert out == naive_matmul(a, b)


def test_bound_uses_the_trimmed_inner_dimension(monkeypatch):
    # at the first inner dimension whose bound reaches 2^53 a product of
    # all-top operands leaves float64; with one inner index zero it runs on
    # one index fewer and stays on float64
    ctx, build, per_k, limit = BOUND_CASES["general-2^53"]
    a, b = build(ctx, first_k_at_or_above(limit, per_k(ctx)))
    a = masked(a, cols=(0,))
    out, kernel = chosen_kernel(monkeypatch, a, b)
    assert kernel is np.float64
    assert out == naive_matmul(a, b)


@settings(max_examples=150, deadline=None)
@given(n=st.sampled_from([8, 24, 39, 40, "mersenne"]),
       fill=st.sampled_from(["random", "top", "signs"]),
       shape=st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 4)),
       seed=st.integers(0, 2**32))
def test_masked_products_match_reference(n, fill, shape, seed):
    # random rows, columns and inner indices zero, and some columns of a
    # constant, so that a trimmed operand may turn constant
    ctx = KERNEL_CONTEXTS[n]
    rng = random.Random(seed)
    r, k, c = shape

    def pick(size):
        return [i for i in range(size) if rng.random() < 0.3]

    a = masked(filled(ctx, r, k, fill, False, rng), pick(r), pick(k), pick(k))
    b = masked(filled(ctx, k, c, fill, False, rng), pick(k), pick(c))
    rows, inner, cols = support(a, b)
    with pytest.MonkeyPatch.context() as mp:
        out, shapes, _ = product_shapes(mp, a, b)
    if not (a.is_constant() or b.is_constant()):
        assert shapes == [(len(rows), len(inner), len(cols))]
    assert out.arr.dtype == storage_dtype(ctx)
    assert out == naive_matmul(a, b)


# -- layered products ----------------------------------------------------------

# (p, N) of every storage regime: float64 (3^8), limbs (3^24, 5^26), the
# int64 edge (3^39) and Python integers (3^40, 5^27)
REGIMES = [(3, 8), (3, 24), (3, 39), (3, 40), (5, 26), (5, 27)]


def layer(m, t_ideal):
    """The degree-0 layer of m, or its t-ideal part."""
    arr = m.arr.copy()
    if t_ideal:
        arr[:, :, 0] = 0
    else:
        arr[:, :, 1:] = 0
    return SeriesMatrix(m.context, arr)


def runs_by_definition(a, b):
    """The (rows, inner, cols) of each product a @ b runs, by the rule of
    the module docstring: a constant operand untrimmed; a product whose
    trimmed operand is constant, or whose t-ideal term is non-empty, whole
    on its support; otherwise A0 B and A1 B0 on their own supports, without
    the empty ones."""
    if a.is_constant() or b.is_constant():
        return [(a.rows, a.cols, b.cols)]
    rows, inner, cols = support(a, b)
    whole = [(len(rows), len(inner), len(cols))]
    trimmed_a = SeriesMatrix(a.context, a.arr[np.ix_(rows, inner)])
    trimmed_b = SeriesMatrix(b.context, b.arr[np.ix_(inner, cols)])
    if trimmed_a.is_constant() or trimmed_b.is_constant():
        return whole
    a0, a1, b0, b1 = layer(a, False), layer(a, True), layer(b, False), layer(b, True)
    if support(a1, b1)[1]:
        return whole
    terms = [support(x, y) for x, y in ((a0, b), (a1, b0))]
    return [(len(r), len(i), len(c)) for r, i, c in terms if i]


def frame_operand(ctx, h, rng, constant, t_rows, t_cols):
    """A 2h x 2h operand: its degree-0 layer random and non-zero ("dense"),
    the standard pair's Frobenius ("pair") or zero ("zero"), plus non-zero
    random t-ideal entries on the block t_rows x t_cols."""
    mod = ctx.modulus
    arr = np.zeros((2 * h, 2 * h, ctx.M + 1), dtype=storage_dtype(ctx))
    if constant == "dense":
        for i in range(2 * h):
            for j in range(2 * h):
                arr[i, j, 0] = rng.randrange(1, mod)
    elif constant == "pair":
        arr[:, :, :1] = make_standard_crystal(ctx, h, "pair").frobenius.arr[:, :, :1]
    for i in t_rows:
        for j in t_cols:
            for n in range(1, ctx.M + 1):
                arr[i, j, n] = rng.randrange(1, mod)
    return SeriesMatrix(ctx, arr)


H = 3
TOP, LOW = range(H), range(H, 2 * H)
# (block of A's t-ideal part, block of B's): where A1's columns and B1's
# rows meet nowhere (the F^T G of the pairing check), on one index, on all
FRAMES = {
    "apart": ((LOW, TOP), (LOW, LOW)),
    "partly": ((LOW, [*TOP, H]), (LOW, LOW)),
    "fully": ((LOW, LOW), (LOW, LOW)),
}
CONSTANTS = [("dense", "dense"), ("pair", "pair"), ("zero", "dense"),
             ("dense", "zero"), ("zero", "zero")]


@pytest.mark.parametrize("frame", sorted(FRAMES))
@pytest.mark.parametrize("constants", CONSTANTS)
@pytest.mark.parametrize("m", [0, 1, 2, 32])
@pytest.mark.parametrize("p, n", REGIMES)
def test_layered_products_match_reference(monkeypatch, p, n, m, constants,
                                          frame):
    ctx = PrecisionContext(p, n, m)
    rng = random.Random(f"{p} {n} {m} {constants} {frame}")
    (a_block, b_block) = FRAMES[frame]
    a = frame_operand(ctx, H, rng, constants[0], *a_block)
    b = frame_operand(ctx, H, rng, constants[1], *b_block)
    out, shapes, _ = product_shapes(monkeypatch, a, b)
    assert shapes == runs_by_definition(a, b)
    assert out.arr.dtype == storage_dtype(ctx)
    assert out == naive_matmul(a, b)


def test_layered_terms_of_the_frames(monkeypatch):
    # the terms by hand at h=3, M=32 (support 6 x 6 x 6 with dense
    # constants): apart, A0 B on everything and A1 B0 from A1's 3 x 3
    # block; meeting on one index or fully, the whole product, on int64
    # storage and on Python integers alike
    expected = {
        (8, "apart"): [(6, 6, 6), (3, 3, 6)],
        (8, "partly"): [(6, 6, 6)],
        (8, "fully"): [(6, 6, 6)],
        (40, "apart"): [(6, 6, 6), (3, 3, 6)],
        (40, "partly"): [(6, 6, 6)],
        (40, "fully"): [(6, 6, 6)],
    }
    for (n, frame), terms in expected.items():
        ctx = PrecisionContext(3, n, 32)
        rng = random.Random(frame)
        a_block, b_block = FRAMES[frame]
        a = frame_operand(ctx, H, rng, "dense", *a_block)
        b = frame_operand(ctx, H, rng, "dense", *b_block)
        out, shapes, _ = product_shapes(monkeypatch, a, b)
        assert shapes == terms, (n, frame)
        assert out == naive_matmul(a, b)


def test_one_by_one_and_dense_products_stay_whole(monkeypatch):
    # a series product (as in series_inverse) and dense operands: the
    # t-ideal term is the whole support
    for n in (8, 40):
        ctx = KERNEL_CONTEXTS[n]
        rng = random.Random(n)
        for shape in ((1, 1, 1), (3, 4, 2)):
            r, k, c = shape
            a = filled(ctx, r, k, "random", False, rng)
            b = filled(ctx, k, c, "random", False, rng)
            out, shapes, _ = product_shapes(monkeypatch, a, b)
            assert shapes == [shape]
            assert out == naive_matmul(a, b)
        x = SeriesMatrix.from_series_rows(ctx, [[TruncatedSeries(ctx, [2, 1])]])
        assert (series_matrix.series_inverse(x) @ x).arr.tolist() == \
            SeriesMatrix.identity(ctx, 1).arr.tolist()


@pytest.mark.parametrize("n", [39, 40, "huge"])
def test_constructor_enforces_storage_dtype(n):
    # the dtype of every coefficient array is storage_dtype(context), so
    # that each product picks its kernel for the storage it really has
    ctx = KERNEL_CONTEXTS[n]
    other = np.int64 if storage_dtype(ctx) is object else object
    arr = np.zeros((2, 2, ctx.M + 1), dtype=other)
    with pytest.raises(TypeError, match="stored as"):
        SeriesMatrix(ctx, arr)
    assert SeriesMatrix(ctx, arr.astype(storage_dtype(ctx))).is_zero()


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 2, 7), (5,), (1, 2, 2, 3, 5)])
def test_constructor_enforces_the_layer_count(shape):
    # at M=4 only (rows, cols, 5) and (S, rows, cols, 5) are matrices; a
    # (1, 1, 1) array was accepted and its constant then added at every
    # degree of an identity
    ctx = PrecisionContext(3, 8, 4)
    with pytest.raises(ValueError, match="is not"):
        SeriesMatrix(ctx, np.ones(shape, dtype=np.int64))
    for ok in ((2, 3, 5), (4, 2, 3, 5)):
        assert SeriesMatrix(ctx, np.zeros(ok, dtype=np.int64)).is_zero()


@pytest.mark.parametrize("cols", [1024, 1025])
def test_products_are_capped_before_they_allocate(cols):
    # (2048 x 1) @ (1 x 1024) at M=1 makes exactly MAX_COEFFICIENTS; one
    # column more is refused with the message of zeros_array, before the
    # output is allocated
    import tracemalloc
    ctx = PrecisionContext(3, 8, 1)
    a, b = SeriesMatrix.zeros(ctx, 2048, 1), SeriesMatrix.zeros(ctx, 1, cols)
    assert 2048 * 1024 * 2 == series_matrix.MAX_COEFFICIENTS
    if cols == 1024:
        assert (a @ b).arr.shape == (2048, 1024, 2)
        return
    with pytest.raises(ValueError) as refused:
        series_matrix.zeros_array(ctx, 2048, cols)
    tracemalloc.start()
    with pytest.raises(ValueError) as exc:
        a @ b
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert str(exc.value) == str(refused.value)
    assert peak < 2**16


def layer_case(ctx, case, fill, rng):
    """(x, y, reference) of a kernel product by the layer-count contract: a
    one-layer constant on the left or the right, the M-layer t-ideal part
    of a matrix times a one-layer constant, or two one-layer constants
    (the left one is the constant).  fill draws the constant: "signs"
    (lifts in {0, +-1}), "wide" (random, one lift of mod // 2) or "zero"."""
    const = filled(ctx, 3, 3, "random" if fill == "wide" else "signs",
                   True, rng)
    arr = const.arr.copy()
    if fill == "wide":
        arr[0, 0, 0] = ctx.modulus // 2
    elif fill == "zero":
        arr[...] = 0
    const = SeriesMatrix(ctx, arr)
    other = filled(ctx, 3, 3, "random", False, rng)
    if case == "left":
        return const.arr[:, :, :1], other.arr, naive_matmul(const, other).arr
    if case == "right":
        return other.arr, const.arr[:, :, :1], naive_matmul(other, const).arr
    if case == "t-ideal":
        part = other.arr.copy()
        part[:, :, 0] = 0
        ref = naive_matmul(SeriesMatrix(ctx, part), const).arr[:, :, 1:]
        return other.arr[:, :, 1:], const.arr[:, :, :1], ref
    ref = naive_matmul(const, other.truncate_degree(0)).arr[:, :, :1]
    return const.arr[:, :, :1], other.arr[:, :, :1], ref


LAYER_KERNELS = {"signs": dict.fromkeys((8, 24, 39, 40), series_matrix.GATHER),
                 "wide": {8: np.float64, 24: np.int64, 39: np.int64,
                          40: object},
                 "zero": dict.fromkeys((8, 24, 39, 40))}


@pytest.mark.parametrize("case", ["left", "right", "t-ideal", "two-constants"])
@pytest.mark.parametrize("fill", sorted(LAYER_KERNELS))
@pytest.mark.parametrize("n", [8, 24, 39, 40])
def test_the_kernel_reads_constancy_off_the_layer_count(monkeypatch, n, fill,
                                                        case):
    # gathers, float64 (N=8), limbs (N=24 and 39) and Python integers
    # (N=40); a zero constant takes the zero-result shortcut
    ctx = KERNEL_CONTEXTS[n]
    x, y, ref = layer_case(ctx, case, fill, random.Random(f"{n} {fill} {case}"))
    out, seen = chosen_kernels(
        monkeypatch, lambda: series_matrix._product(x, y, ctx))
    assert seen == ([LAYER_KERNELS[fill][n]] if LAYER_KERNELS[fill][n] else [])
    assert out.shape == (3, 3, max(x.shape[2], y.shape[2]))
    assert out.dtype == storage_dtype(ctx)
    assert np.array_equal(out, ref)


@pytest.mark.parametrize("n", [8, 24, 40])
def test_at_m0_a_known_constant_right_operand_is_not_taken_for_the_left(n):
    # at M=0 both operands have one layer, so the kernel takes the left one
    # as the constant; a right operand already known to be constant must
    # not hand its lift over in the left one's place
    ctx = PrecisionContext(3, n, 0)
    rng = random.Random(n)
    a = filled(ctx, 3, 3, "random", True, rng)
    b = filled(ctx, 3, 3, "signs", True, rng)
    assert b.is_constant()
    assert a @ b == naive_matmul(a, b)
    assert b @ a == naive_matmul(b, a)


def unit_work(monkeypatch, name):
    """The kernels one seed-0 unit of the workload chose, the summed
    (rows, inner, cols) its products of two non-constant operands ran on,
    and the summed rows x columns of its signed gathers' outputs."""
    from test_perfbench_golden import load
    workload = load("workloads").WORKLOADS[name]
    pair = workload.setup(0)[0]
    general, shapes, cells = [], [], []
    matmul, product = SeriesMatrix.__matmul__, series_matrix._product
    gather = series_matrix._signed_gather

    def spy_gather(src, signs, axis, mod):
        out = gather(src, signs, axis, mod)
        cells.append(out.shape[0] * out.shape[1])
        return out

    def spy_matmul(a, b):
        general.append(not (a.is_constant() or b.is_constant()))
        return matmul(a, b)

    def spy_product(a, b, *args):
        if general[-1]:
            shapes.append((a.shape[0], a.shape[1], b.shape[1]))
        return product(a, b, *args)

    monkeypatch.setattr(SeriesMatrix, "__matmul__", spy_matmul)
    monkeypatch.setattr(series_matrix, "_product", spy_product)
    monkeypatch.setattr(series_matrix, "_signed_gather", spy_gather)
    # chosen_kernels undoes every patch once the unit has run
    _, seen = chosen_kernels(monkeypatch, lambda: workload.unit(pair))
    return (Counter(seen), len(shapes), [sum(dims) for dims in zip(*shapes)],
            sum(cells))


def test_oracle_unit_routes_its_block_maps_to_gathers(monkeypatch):
    # one seed-0 baer_oracle unit (p=3, h=10, N=8) makes 34 products: the
    # 28 block maps of the two Baer diagrams are 0/+-1 constants and take
    # signed gathers.  Of the 6 general products of the two checkers, 4 run
    # on a 10x10 by 10x10 support where one operand is constant (2 of them
    # 0/+-1, gathers; 2 with a wider lift, float64).  The other 2, F^T G and
    # (F^T G) F, are layered: their t-ideal parts meet nowhere, so each runs
    # as A0 B on 20x20 by 20x20 (float64) plus A1 B0 on 10x10 by 10x10 (a
    # gather for F^T G, float64 for (F^T G) F), with no general term
    kernels, general, trimmed, cells = unit_work(monkeypatch, "baer_oracle")
    assert kernels == {series_matrix.GATHER: 31, np.float64: 5}
    # rows, inner indices and columns: 120 each without the trim
    assert (general, trimmed) == (8, [100, 100, 100])
    # the kernels do not move with the pivot-row rule of induced_maps, but
    # the gathers shrink: each closure check of a pullback runs on the rows
    # off the pivots, 10 of 40 (a 10x30 output where 40x30 was) in the
    # pullback-first route and 10 of 30 (10x20 for 30x20) in the other, so
    # the unit's gathers write 15,900 rows x columns where they wrote 18,500
    assert cells == 15_900


def test_wide_precision_unit_routes(monkeypatch):
    # the same unit at h=5, N=24: the constant layers of the two layered
    # products have one degree pair and small lifts, so they stay on
    # float64 where the whole products took int64 limbs
    kernels, general, trimmed, cells = unit_work(monkeypatch, "wide_precision")
    assert kernels == {series_matrix.GATHER: 31, np.float64: 5}
    # rows, inner indices and columns: 60 each without the trim
    assert (general, trimmed) == (8, [50, 50, 50])
    # the pivot-row rule as at h=10: 3,975 rows x columns where 4,625 were
    assert cells == 3_975


# -- product plans -------------------------------------------------------------

def plan_key(a, b):
    """The key _general_product memoises the plan of a @ b by: the shapes
    and the bool masks of the four layers, as bytes."""
    x, y = a.arr, b.arr
    return ((a.rows, a.cols, b.cols), (x[:, :, 0] != 0).tobytes(),
            x[:, :, 1:].any(axis=2).tobytes(), (y[:, :, 0] != 0).tobytes(),
            y[:, :, 1:].any(axis=2).tobytes())


def plan_kind(a, b):
    """The kind of plan a @ b runs by, built without the memo."""
    plan = series_matrix._general_plan.__wrapped__(*plan_key(a, b))
    if plan is None:
        return "whole"
    if len(plan) == 2:
        return "layered"
    (at, at_a, at_b), = plan
    # a single term is never the t-ideal one: it writes every layer
    assert at[-1] == slice(None) and at_a[-1] != slice(1, None)
    if not support(a, b)[1]:
        return "empty"
    layer0 = slice(0, 1)
    return ("left" if at_a[-1] == layer0 else "right" if at_b[-1] == layer0
            else "trimmed")


def pattern_operand(ctx, rows, cols, rng, fill):
    """A random non-constant operand: each entry is zero, constant, in the
    t-ideal only or both, by random row and column blocks; fill draws the
    non-zero coefficients as in `filled`."""
    mod = ctx.modulus
    draw = {"random": lambda: rng.randrange(1, mod),
            "top": lambda: mod - 1}[fill]
    arr = np.zeros((rows, cols, ctx.M + 1), dtype=storage_dtype(ctx))
    for degrees in (range(1), range(1, ctx.M + 1)):
        on_rows = [i for i in range(rows) if rng.random() < 0.6]
        on_cols = [j for j in range(cols) if rng.random() < 0.6]
        for i in on_rows:
            for j in on_cols:
                for n in degrees:
                    arr[i, j, n] = draw()
    arr[rng.randrange(rows), rng.randrange(cols), ctx.M] = draw()
    return SeriesMatrix(ctx, arr)


PLAN_KINDS = {"whole", "left", "right", "trimmed", "layered", "empty"}


@pytest.mark.parametrize("n", [8, 24, 40])
def test_planned_products_match_the_whole_route(n):
    # float64 (N=8), limbs (N=24) and Python integers (N=40): every plan
    # kind gives exactly the array of the whole product, and a layered
    # plan always has both terms (were one empty, a trimmed operand would
    # be constant and the plan would have one term)
    ctx = PrecisionContext(3, n, 3)
    rng = random.Random(f"plans {n}")
    seen = Counter()
    for _ in range(400):
        r, k, c = (rng.randint(1, 5) for _ in range(3))
        fill = rng.choice(["random", "top"])
        a = pattern_operand(ctx, r, k, rng, fill)
        b = pattern_operand(ctx, k, c, rng, fill)
        seen[plan_kind(a, b)] += 1
        out = series_matrix._general_product(a.arr, b.arr, ctx)
        whole = series_matrix._product(a.arr, b.arr, ctx)
        assert out.dtype == whole.dtype == storage_dtype(ctx)
        assert np.array_equal(out, whole)
    assert set(seen) == PLAN_KINDS, seen


def test_a_memoised_plan_serves_new_values():
    # the same pattern with new values is a memo hit and still exact
    for n in (8, 24, 40):
        ctx = PrecisionContext(3, n, 3)
        rng = random.Random(f"memo {n}")
        a = pattern_operand(ctx, 4, 4, rng, "random")
        b = pattern_operand(ctx, 4, 4, rng, "random")
        for fill in ("random", "top"):
            x, y = a.arr.copy(), b.arr.copy()
            for arr in (x, y):
                arr[arr != 0] = [rng.randrange(1, ctx.modulus) if fill ==
                                 "random" else ctx.modulus - 1
                                 for _ in range(np.count_nonzero(arr))]
            series_matrix._general_product(a.arr, b.arr, ctx)
            hits = series_matrix._general_plan.cache_info().hits
            out = series_matrix._general_product(x, y, ctx)
            assert series_matrix._general_plan.cache_info().hits == hits + 1
            assert np.array_equal(
                out, series_matrix._product(x, y, ctx))


def test_plans_are_read_only():
    ctx = PrecisionContext(3, 8, 3)
    rng = random.Random("read-only")
    for _ in range(100):
        a = pattern_operand(ctx, 5, 5, rng, "random")
        b = pattern_operand(ctx, 5, 5, rng, "random")
        plan = series_matrix._general_plan(*plan_key(a, b)) or ()
        for term in plan:
            for at in term[:3]:
                for idx in at:
                    assert isinstance(idx, slice) or not idx.flags.writeable


def layered_pair(ctx, n, rng):
    """n x n operands whose product is layered on index arrays: a random
    0/1 degree-0 layer, the t-ideal part of a on odd columns and of b on
    even rows."""
    a = np.zeros((n, n, ctx.M + 1), dtype=np.int64)
    b = np.zeros_like(a)
    a[:, :, 0] = rng.integers(0, 2, (n, n))
    b[:, :, 0] = rng.integers(0, 2, (n, n))
    a[:, 1::2, 1] = rng.integers(1, 3, (n, n // 2))
    b[0::2, :, 1] = rng.integers(1, 3, (n - n // 2, n))
    return SeriesMatrix(ctx, a), SeriesMatrix(ctx, b)


def test_plan_memo_memory_is_bounded():
    # 64 plans at the largest memoised size (58 x 58 by 58 x 58: 16,240
    # bytes of key and indices) hold under 1.25 MiB; a product just above
    # that size is planned afresh, and the memo holds nothing of it
    import gc
    import tracemalloc
    ctx = PrecisionContext(3, 8, 1)
    rng = np.random.default_rng(0)
    assert 2 * 2 * 58**2 + 16 * 3 * 58 <= series_matrix.PLAN_MEMO_BYTES
    assert 2 * 2 * 59**2 + 16 * 3 * 59 > series_matrix.PLAN_MEMO_BYTES
    plan = series_matrix._general_plan
    pairs = [layered_pair(ctx, 58, rng) for _ in range(64)]
    assert plan_kind(*pairs[0]) == "layered"
    plan.cache_clear()
    gc.collect()
    tracemalloc.start()
    outs = [a @ b for a, b in pairs]
    full = tracemalloc.get_traced_memory()[0]
    assert plan.cache_info().currsize == 64
    plan.cache_clear()
    gc.collect()
    held = full - tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    assert 0 < held < 1.25 * 2**20
    assert outs[0] == naive_matmul(*pairs[0])
    a, b = layered_pair(ctx, 59, rng)
    assert a @ b == naive_matmul(a, b)
    assert plan.cache_info()[:] == (0, 0, 64, 0)


def test_a_known_constant_right_operand_skips_the_left_scan():
    # X @ B with B a block map of known constancy leaves X's unknown; a
    # constant C whose flag is still unknown gives the same C @ B as one
    # whose flag is known (the route of the left constant)
    from crystal_lab.extension_group import _blocks
    for n in (8, 24, 40):
        ctx = PrecisionContext(3, n, 4)
        rng = random.Random(n)
        block = _blocks(ctx, 2, (("+", "-"), ("0", "+")))
        assert block.is_constant()
        for constant in (False, True):
            x = filled(ctx, 3, 4, "random", constant, rng)
            known = SeriesMatrix(ctx, x.arr)
            assert known.is_constant() is constant
            out = x @ block
            assert x._const is None
            assert out.arr.dtype == storage_dtype(ctx)
            assert np.array_equal(out.arr, (known @ block).arr)
            assert out == naive_matmul(x, block)


@pytest.mark.parametrize("name", ["baer_oracle", "wide_precision"])
def test_oracle_units_plan_once(name):
    # one seed-0 unit makes 6 distinct general-product plans, and a second
    # unit of the same pool plans nothing new
    from test_perfbench_golden import load
    workload = load("workloads").WORKLOADS[name]
    pool = workload.setup(0)
    plan = series_matrix._general_plan
    plan.cache_clear()
    workload.unit(pool[0])
    assert plan.cache_info().misses == plan.cache_info().currsize == 6
    workload.unit(pool[1])
    assert plan.cache_info().misses == 6


def test_a_second_oracle_unit_plans_no_gather():
    # the block maps and the pivot-row blocks of their closure checks are
    # the same in every unit, so their gather plans are all memo hits
    from test_perfbench_golden import load
    workload = load("workloads").WORKLOADS["baer_oracle"]
    pool = workload.setup(0)
    plan = series_matrix._gather_plan
    plan.cache_clear()
    workload.unit(pool[0])
    misses = plan.cache_info().misses
    assert misses == plan.cache_info().currsize > 0
    workload.unit(pool[1])
    assert plan.cache_info().misses == misses


def test_every_block_map_of_the_diagrams_folds():
    # each block map of both Baer diagrams at h=10, as a left or right
    # constant, has at most two +1 and one -1 source per output, so its
    # gather folds its sums instead of dividing them (``_signed_gather``);
    # the patterns are read off the source of _baer_diagram, and both
    # diagrams build exactly these maps on their context
    import ast
    import inspect
    from crystal_lab import extension_group as eg
    from crystal_lab.sampling import random_extension
    tree = ast.parse(inspect.getsource(eg._baer_diagram))
    patterns = {ast.literal_eval(node.args[0]) for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "blocks"}
    ectx = eg.ExtensionContext(PrecisionContext(3, 8, 32), 10)
    rng = random.Random(0)
    e1, e2 = (random_extension(rng, ectx, nontrivial=True) for _ in range(2))
    for mode in ("pullback_pushout", "pushout_pullback"):
        eg.baer_sum(e1, e2, mode)
    assert len(vars(ectx)["_block_maps"]) == len(patterns) == 10
    for pattern in patterns:
        lift = ectx._block_map(pattern)._balanced()[0][:, :, 0]
        for signs in (lift, lift.T):
            _, _, plus, minus = series_matrix._gather_plan(
                signs.shape, signs.astype(np.int8).tobytes())
            assert plus <= 2 and minus <= 1, pattern
