"""Differential test of random_series_matrix against the former entry loop,
kept here as the reference.

The code under test draws every residue in one list and writes them with
one slice assignment; the reference writes one coefficient per draw.  Both
must consume the generator identically and give the same matrix, in int64
storage (N=8) and in Python-integer storage (N=40).
"""

import random

import pytest

from crystal_lab import PrecisionContext
from crystal_lab.sampling import random_series_matrix
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
