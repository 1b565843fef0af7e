"""Differential tests of the series inverse and of the orthogonal-complement
elimination against the former scalar code, kept here as references.

The references are the former O(M^2) coefficient loop for the inverse and
the former elimination over lists of series, rewritten on plain lists of
Python integers so that they share no kernel with the code under test.  The
code under test inverts by Newton iteration on 1x1 matrix products and
eliminates on the whole (d, rank, M+1) coefficient array.
"""

import random
from fractions import Fraction

import pytest

from crystal_lab import (FCrystalPresentation, PrecisionContext,
                         SeriesMatrix, TruncatedSeries, direct_sum,
                         make_standard_crystal, orthogonal_complement)
from crystal_lab.crystal import (_fraction_inverse, annihilator_basis,
                                 induced_subpresentation)
from crystal_lab.errors import NotPerfect
from crystal_lab.padic_series import p_valuation
from crystal_lab.series_matrix import det_mod_p, series_inverse


# -- the references -------------------------------------------------------------


def ref_mul(a, b, mod):
    out = [0] * len(a)
    for x, u in enumerate(a):
        for y, v in enumerate(b[:len(a) - x]):
            out[x + y] += u * v
    return [c % mod for c in out]


def ref_inverse(a, p, mod):
    """The former TruncatedSeries.inverse: solve a * out = 1 degree by degree."""
    c0 = a[0]
    if c0 % p == 0:
        raise ZeroDivisionError("constant term is not a unit mod p")
    inv0 = pow(c0, -1, mod)
    out = [0] * len(a)
    out[0] = inv0
    for n in range(1, len(a)):
        s = 0
        for k in range(1, n + 1):
            s += a[k] * out[n - k]
        out[n] = (-inv0 * s) % mod
    return out


def ref_eliminate(b, p, mod):
    """The former elimination of orthogonal_complement on a d x rank grid of
    coefficient lists: unit pivots of minimal valuation, lowest row, then
    lowest column.  Returns the basis grid (rank x free) and the free columns."""
    d, rank = len(b), len(b[0])
    b = [[list(x) for x in row] for row in b]
    pivot_cols, pivot_rows = [], []
    for _ in range(d):
        best = None
        for i in range(d):
            if i in pivot_rows:
                continue
            for j in range(rank):
                if j in pivot_cols:
                    continue
                c0 = b[i][j][0]
                if c0 == 0:
                    continue
                key = (p_valuation(c0, p), i, j)
                if best is None or key < best:
                    best = key
        if best is None or best[0] > 0:
            raise NotPerfect("no unit pivot available during elimination")
        _, pi, pj = best
        inv = ref_inverse(b[pi][pj], p, mod)
        b[pi] = [ref_mul(x, inv, mod) for x in b[pi]]
        for i in range(d):
            if i != pi and any(b[i][pj]):
                f = b[i][pj]
                b[i] = [[(u - v) % mod for u, v in zip(x, ref_mul(f, y, mod))]
                        for x, y in zip(b[i], b[pi])]
        pivot_rows.append(pi)
        pivot_cols.append(pj)
    free_cols = [j for j in range(rank) if j not in pivot_cols]
    m1 = len(b[0][0])
    zero, one = [0] * m1, [1] + [0] * (m1 - 1)
    basis = [[zero] * len(free_cols) for _ in range(rank)]
    for k, fcol in enumerate(free_cols):
        basis[fcol][k] = one
        for prow, pcol in zip(pivot_rows, pivot_cols):
            basis[pcol][k] = [(-x) % mod for x in b[prow][fcol]]
    return basis, free_cols


def ref_complement(c, vectors):
    """Basis and free columns of the former orthogonal_complement, from a
    schoolbook product of the subspace rows with the pairing."""
    ctx = c.context
    mod, m1 = ctx.modulus, ctx.M + 1
    g = c.pairing.arr.tolist()
    rows = [[list(x.coeffs()) if isinstance(x, TruncatedSeries)
             else [int(x) % mod] + [0] * (m1 - 1) for x in vec]
            for vec in vectors]
    bt = [[[sum(col) % mod for col in zip(*(ref_mul(r[k], g[k][j], mod)
                                            for k in range(c.rank)))]
           for j in range(c.rank)] for r in rows]
    return ref_eliminate(bt, ctx.p, mod)


def as_matrix(ctx, grid, rows, cols):
    arr = SeriesMatrix.zeros(ctx, rows, cols).arr.copy()
    for i in range(rows):
        for j in range(cols):
            arr[i, j, :] = grid[i][j]
    return SeriesMatrix(ctx, arr)


# -- the inverse ----------------------------------------------------------------

INVERSE_CONTEXTS = [PrecisionContext(3, n, m) for n in (8, 24, 40)
                    for m in (0, 1, 2, 31, 32)] + [PrecisionContext(5, 27, 32)]


@pytest.mark.parametrize("ctx", INVERSE_CONTEXTS, ids=repr)
def test_newton_inverse_matches_reference(ctx):
    rng = random.Random(ctx.N * 100 + ctx.M)
    mod, p = ctx.modulus, ctx.p
    draws = [[rng.randrange(mod) for _ in range(ctx.M + 1)] for _ in range(6)]
    draws.append([mod - 1] * (ctx.M + 1))          # every coefficient at the top
    draws.append([1] + [p] * ctx.M)                # a unit plus a p-adic tail
    for coeffs in draws:
        if coeffs[0] % p == 0:
            coeffs[0] += 1
        s = TruncatedSeries(ctx, coeffs)
        expected = ref_inverse(list(s.coeffs()), p, mod)
        inv = s.inverse()
        assert list(inv.coeffs()) == expected
        assert inv._arr.dtype == s._arr.dtype
        assert s * inv == TruncatedSeries.one(ctx)
        m = series_inverse(SeriesMatrix(ctx, s._arr[None, None].copy()))
        assert m.arr[0, 0].tolist() == expected


@pytest.mark.parametrize("ctx", [PrecisionContext(3, 8, 6),
                                 PrecisionContext(3, 40, 6),
                                 PrecisionContext(5, 27, 0)], ids=repr)
def test_non_unit_constant_term_raises(ctx):
    p = ctx.p
    for coeffs in ([], [p, 1], [p ** (ctx.N - 1), 1, 1], [0, 1]):
        s = TruncatedSeries(ctx, coeffs)
        with pytest.raises(ZeroDivisionError):
            s.inverse()
        with pytest.raises(ZeroDivisionError):
            ref_inverse(list(s.coeffs()), p, ctx.modulus)
        with pytest.raises(ZeroDivisionError):
            series_inverse(SeriesMatrix(ctx, s._arr[None, None].copy()))


# -- the elimination ------------------------------------------------------------


def check_complement(c, vectors):
    res = orthogonal_complement(c, vectors)
    ctx = c.context
    basis, free = ref_complement(c, vectors)
    expected = as_matrix(ctx, basis, c.rank, len(free))
    assert res.basis == expected
    assert res.free_rows == tuple(free)
    assert res.presentation == induced_subpresentation(c, expected, free)
    return res


def blocks(ctx, h=2, rho=3):
    pair = make_standard_crystal(ctx, h, "pair")
    sl = make_standard_crystal(ctx, h, "slope1", rho=rho)
    return pair, sl, direct_sum(pair, sl)


def unit_vectors(c, start, count):
    return [[int(i == start + k) for i in range(c.rank)] for k in range(count)]


def conjugate(c, rng):
    """c in a random constant basis t with unit determinant, and t^-1."""
    ctx, n = c.context, c.rank
    while True:
        rows = [[rng.randrange(ctx.modulus) for _ in range(n)] for _ in range(n)]
        if det_mod_p(rows, ctx.p):
            break
    mod = ctx.modulus
    inv = [[f.numerator * pow(f.denominator, -1, mod) % mod for f in row]
           for row in _fraction_inverse([[Fraction(x) for x in row]
                                         for row in rows])]
    t = SeriesMatrix.from_series_rows(ctx, rows)
    t_inv = SeriesMatrix.from_series_rows(ctx, inv)
    conj = FCrystalPresentation(ctx, n, t_inv @ c.frobenius @ t,
                                SeriesMatrix.zeros(ctx, n, n),
                                t.transpose() @ c.pairing @ t, c.weight)
    return conj, t_inv


@pytest.mark.parametrize("n", [8, 40])
def test_complement_matches_reference_on_crystal_cases(n):
    ctx = PrecisionContext(3, n, 32)
    pair, sl, c = blocks(ctx)
    # the block perp, the whole space, and the double perp
    res = check_complement(c, unit_vectors(c, pair.rank, sl.rank))
    check_complement(c, unit_vectors(c, 0, c.rank))
    check_complement(c, [[res.basis.entry(i, j) for i in range(c.rank)]
                         for j in range(res.basis.cols)])
    # the slope-1 block in conjugated coordinates
    for seed in (31, 32, 33):
        pair, sl, c = blocks(ctx, h=2, rho=2)
        conj, t_inv = conjugate(c, random.Random(seed))
        vecs = [[t_inv.entry(i, pair.rank + k) for i in range(c.rank)]
                for k in range(sl.rank)]
        check_complement(conj, vecs)
    # a degenerate subspace
    with pytest.raises(NotPerfect):
        orthogonal_complement(c, unit_vectors(c, 0, 1))


def random_unit_pivot_matrix(rng, ctx, d, rank):
    """A d x rank matrix of random series whose constant layer has rank d
    mod p, with p-divisible constant terms mixed in."""
    mod, p = ctx.modulus, ctx.p
    while True:
        grid = [[[rng.randrange(mod) for _ in range(ctx.M + 1)]
                 for _ in range(rank)] for _ in range(d)]
        for row in grid:
            for cell in row:
                if rng.random() < 0.4:
                    cell[0] = p * rng.randrange(mod // p)
        layer = [[cell[0] for cell in row] for row in grid]
        square = [[sum(layer[i][k] * layer[j][k] for k in range(rank))
                   for j in range(d)] for i in range(d)]
        if det_mod_p(square, p):
            return grid


@pytest.mark.parametrize("n", [8, 40])
def test_elimination_matches_reference_on_random_subspaces(n):
    ctx = PrecisionContext(3, n, 7)
    rng = random.Random(n)
    for d, rank in ((1, 1), (1, 4), (2, 5), (3, 3), (3, 6), (4, 7)):
        for _ in range(3):
            grid = random_unit_pivot_matrix(rng, ctx, d, rank)
            b = as_matrix(ctx, grid, d, rank)
            basis, free = annihilator_basis(b)
            ref_basis, ref_free = ref_eliminate(grid, ctx.p, ctx.modulus)
            assert free == ref_free
            assert basis == as_matrix(ctx, ref_basis, rank, len(ref_free))
            assert (b @ basis).is_zero()
