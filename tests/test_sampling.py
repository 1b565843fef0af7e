"""Differential tests of the residue draws against the randrange loop,
kept here as the reference, and the inputs the samplers refuse.

``_draw_residues`` takes int64 residues in bulk from getrandbits and cuts
the words itself; random_series_matrix writes its draws with one slice
assignment, where the reference writes one coefficient per draw.  Both must
give the same values and leave the generator in the same state: with one
Mersenne word per residue (p^N < 2^32), two (p^N < 2^62), and on
Python-integer storage, which keeps the loop.
"""

import random

import numpy as np
import pytest

from crystal_lab import (ExtensionContext, ExtensionData, PrecisionContext,
                         Untrivializable, trivialize)
from crystal_lab.errors import InvalidExtension
from crystal_lab.sampling import (_BULK_MIN, _draw_residues, add_noise,
                                  perturb_xi_antisym, random_extension,
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


# n = 2^32 and 2^32 + 1 take two words, 1 and 2^13 are powers of two
# (half of each draw is rejected), 2^13 - 1 and 2^62 - 1 reject almost none
# (so a round that took one word too many would show), 5^26 is just under
# 2^62, and 3^40 is on Python-integer storage
@pytest.mark.parametrize("n", [3**8, 3**24, 5**26, 2**13, 2**32, 2**32 + 1,
                               1, 2**13 - 1, 2**62 - 1, 3**40])
@pytest.mark.parametrize("count", [0, 1, 7, _BULK_MIN + 1, 5001])
def test_draw_residues_matches_the_loop(n, count):
    got_rng, ref_rng = random.Random(n), random.Random(n)
    got = _draw_residues(got_rng, n, count)
    ref = [ref_rng.randrange(n) for _ in range(count)]
    assert got.tolist() == ref
    assert got.dtype == (np.int64 if n < 2**62 else object)
    assert got_rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("p, N", [
    pytest.param(3, 8, id="int64"), pytest.param(3, 24, id="int64-two-words"),
    pytest.param(5, 26, id="int64-p5"), pytest.param(3, 40, id="object")])
@pytest.mark.parametrize("rows, cols, degrees", [
    (10, 10, range(1, 9)), (3, 1, [1, 2, 5]), (2, 3, [0, 32]),
    (4, 4, []), (0, 3, [1]), (1, 1, range(33))])
def test_matches_the_entry_loop(p, N, rows, cols, degrees):
    ctx = PrecisionContext(p, N, 32)
    for seed in range(3):
        got_rng, ref_rng = random.Random(seed), random.Random(seed)
        got = random_series_matrix(got_rng, ctx, rows, cols, degrees)
        ref = ref_random_series_matrix(ref_rng, ctx, rows, cols, degrees)
        assert got == ref
        assert got.arr.dtype == ref.arr.dtype
        # object storage holds Python integers, never numpy scalars
        assert ({type(x) for x in got.arr.flat}
                <= {type(x) for x in ref.arr.flat})
        assert got_rng.getstate() == ref_rng.getstate()


# at v_p(d) = N the noise is a unit, which breaks "v stays zero mod p"; at
# v_p(d) > N the coefficient p^(N - v_p(d)) is a float stored as zero
@pytest.mark.parametrize("degree", [9, 27, 1, 2])
def test_noise_degree_needs_valuation_below_n(degree):
    zero = ExtensionData.zero(ExtensionContext(PrecisionContext(3, 2, 81), 3))
    with pytest.raises(ValueError, match="needs 1 <= v_p < N=2"):
        add_noise(random.Random(0), zero, "m", degree, entry=(0, 0))


def test_noise_goes_on_v_or_m():
    zero = ExtensionData.zero(ExtensionContext(PrecisionContext(3, 8, 32), 3))
    with pytest.raises(ValueError, match="on v or m, not 'xi'"):
        add_noise(random.Random(0), zero, "xi", 3)


# at p=3: t^(p-1) needs M >= p, its pullback ghost t^(p^2) needs M >= 9,
# and the ghost of either entry may not sit on the last column
@pytest.mark.parametrize("M, i0, j0, error, message", [
    (32, 1, 1, ValueError, "off-diagonal"),
    (2, 0, 1, ValueError, "trusted range"),
    (8, 0, 1, InvalidExtension, "outside the truncation"),
    (32, 0, 2, InvalidExtension, "wrap column"),
    (32, 2, 0, InvalidExtension, "wrap column")])
def test_perturbation_refusals(M, i0, j0, error, message):
    zero = ExtensionData.zero(ExtensionContext(PrecisionContext(3, 8, M), 3))
    with pytest.raises(error, match=message):
        perturb_xi_antisym(zero, i0, j0)


# a negative index would wrap around: (0, -1) is the wrap column (0, 3)
# and (1, -3) the diagonal entry (1, 1); both are refused as out of range,
# and so is an index past h
@pytest.mark.parametrize("i0, j0", [(0, -1), (1, -3), (5, 1), (1, 4)])
def test_perturbation_indices_lie_in_range(i0, j0):
    zero = ExtensionData.zero(ExtensionContext(PrecisionContext(3, 8, 12), 4))
    match = rf"\({i0}, {j0}\) lies outside \[0, 4\)"
    with pytest.raises(ValueError, match=match):
        perturb_xi_antisym(zero, i0, j0)


@pytest.mark.parametrize("degree, entry, match", [
    (27, None, r"degree 27 lies outside \[1, M=12\]"),
    (-3, (0, 1), r"degree -3 lies outside \[1, M=12\]"),
    (3, (3, 0), r"entry \(3, 0\) lies outside \[0, 3\)"),
    (3, (0, -1), r"entry \(0, -1\) lies outside \[0, 3\)")])
def test_noise_input_is_checked_before_any_draw(degree, entry, match):
    zero = ExtensionData.zero(ExtensionContext(PrecisionContext(3, 8, 12), 3))
    rng = random.Random(0)
    state = rng.getstate()
    for field in ("v", "m"):
        with pytest.raises(ValueError, match=match):
            add_noise(rng, zero, field, degree, entry)
    assert rng.getstate() == state


@pytest.mark.parametrize("degree, entry", [
    (3.0, None), (3, (0.0, 1)), (3, (0, 1.5)), (3, ("0", 1))])
def test_noise_refuses_non_integers_before_any_draw(degree, entry):
    zero = ExtensionData.zero(ExtensionContext(PrecisionContext(3, 8, 12), 3))
    rng = random.Random(0)
    state = rng.getstate()
    for field in ("v", "m"):
        with pytest.raises(TypeError):
            add_noise(rng, zero, field, degree, entry)
    assert rng.getstate() == state


@pytest.mark.parametrize("i0, j0, unit", [
    (0.0, 1, 1), (0, 1.0, 1), (0, 1, 1.5), (0, 1, "1")])
def test_perturbation_refuses_non_integers(i0, j0, unit):
    zero = ExtensionData.zero(ExtensionContext(PrecisionContext(3, 8, 12), 3))
    with pytest.raises(TypeError):
        perturb_xi_antisym(zero, i0, j0, unit)


# a unit divisible by p gives a class that trivialize splits, and 0 or
# p^N gives e itself
@pytest.mark.parametrize("unit", [0, 3, -3, 3**8])
def test_perturbation_unit_must_be_a_unit(unit):
    zero = ExtensionData.zero(ExtensionContext(PrecisionContext(3, 8, 12), 3))
    with pytest.raises(ValueError, match=f"unit {unit} is divisible by p=3"):
        perturb_xi_antisym(zero, 0, 1, unit)


@pytest.mark.parametrize("unit", [1, 2, -1, np.int64(4), 3**8 + 1])
def test_perturbation_by_a_unit_cannot_be_trivialized(unit):
    e = perturb_xi_antisym(ExtensionData.zero(ExtensionContext(
        PrecisionContext(3, 8, 12), 3)), 0, 1, unit)
    assert isinstance(trivialize(e), Untrivializable)


@pytest.mark.parametrize("p, M", [(5, 4), (37, 32)])
def test_nontrivial_extension_needs_a_noise_degree(p, M):
    ectx = ExtensionContext(PrecisionContext(p, 8, M), 3)
    with pytest.raises(ValueError, match=f"p={p} exceeds M={M}"):
        random_extension(random.Random(0), ectx, nontrivial=True)
