"""Differential test of random_series_matrix against the former entry loop,
kept here as the reference, and the inputs the samplers refuse.

The code under test draws every residue in one list and writes them with
one slice assignment; the reference writes one coefficient per draw.  Both
must consume the generator identically and give the same matrix, in int64
storage (N=8) and in Python-integer storage (N=40).
"""

import random

import pytest

from crystal_lab import ExtensionContext, ExtensionData, PrecisionContext
from crystal_lab.sampling import (add_noise, random_extension,
                                  random_series_matrix)
from crystal_lab.series_matrix import SeriesMatrix, zeros_array


def ref_random_series_matrix(rng, ctx, rows, cols, degrees):
    """The former random_series_matrix: an i/j/d loop of single draws."""
    arr = zeros_array(ctx, rows, cols)
    for i in range(rows):
        for j in range(cols):
            for d in degrees:
                arr[i, j, d] = rng.randrange(ctx.modulus)
    return SeriesMatrix(ctx, arr)


@pytest.mark.parametrize("N", [8, 40], ids=["int64", "object"])
@pytest.mark.parametrize("rows, cols, degrees", [
    (10, 10, range(1, 9)), (3, 1, [1, 2, 5]), (2, 3, [0, 32]),
    (4, 4, []), (0, 3, [1]), (1, 1, range(33))])
def test_matches_the_entry_loop(N, rows, cols, degrees):
    ctx = PrecisionContext(3, N, 32)
    for seed in range(3):
        got_rng, ref_rng = random.Random(seed), random.Random(seed)
        got = random_series_matrix(got_rng, ctx, rows, cols, degrees)
        ref = ref_random_series_matrix(ref_rng, ctx, rows, cols, degrees)
        assert got == ref
        assert got.arr.dtype == ref.arr.dtype
        # object storage holds Python integers, never numpy scalars
        assert ({type(x) for x in got.arr.flat}
                <= {type(x) for x in ref.arr.flat})
        # the generator is left in the same state
        assert got_rng.getrandbits(64) == ref_rng.getrandbits(64)


# at v_p(d) = N the noise is a unit, which breaks "v stays zero mod p"; at
# v_p(d) > N the coefficient p^(N - v_p(d)) is a float stored as zero
@pytest.mark.parametrize("degree", [9, 27, 1, 2])
def test_noise_degree_needs_valuation_below_n(degree):
    zero = ExtensionData.zero(ExtensionContext(PrecisionContext(3, 2, 81), 3))
    with pytest.raises(ValueError, match="needs 1 <= v_p < N=2"):
        add_noise(random.Random(0), zero, "m", degree, entry=(0, 0))


@pytest.mark.parametrize("p, M", [(5, 4), (37, 32)])
def test_nontrivial_extension_needs_a_noise_degree(p, M):
    ectx = ExtensionContext(PrecisionContext(p, 8, M), 3)
    with pytest.raises(ValueError, match=f"p={p} exceeds M={M}"):
        random_extension(random.Random(0), ectx, nontrivial=True)
