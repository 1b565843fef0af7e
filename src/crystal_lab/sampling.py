"""Seeded random generators for extensions and deformation points.

All sampling is driven by an explicit random.Random instance so that suites
and CLI reports are reproducible bit for bit.  Two populations are drawn:

* trivial classes, images of a random witness matrix;
* nontrivial classes, obtained by adding derivative-free high-valuation
  noise to v or m (``add_noise``, which keeps every structural identity,
  including the rank-1-mod-p condition, but defeats the splitting
  equations), or for non-geometric tests by an antisymmetric
  non-integrable perturbation of xi with its forced v-corrections.

Witness supports avoid multiples of p so that antidifferentiation is
lossless and the noise stays visible at the comparison precision.
"""

from __future__ import annotations

import operator
import random
import sys

import numpy as np

from .errors import InvalidExtension
from .extension_group import (ExtensionContext, ExtensionData,
                              TrivializationWitness, from_alpha)
from .padic_series import PrecisionContext, p_valuation
from .series_matrix import SeriesMatrix, zeros_array

# below this many draws one numpy round costs more than the randrange loop
_BULK_MIN = 32


def _draw_residues(rng: random.Random, n: int, count: int) -> np.ndarray:
    """The next `count` values of rng.randrange(n), in order, as a 1-D
    array: int64 when n < 2^62, so that a sum of two draws stays in int64,
    Python integers in an object array otherwise.  The dtype follows n, not
    a context: a caller that builds coefficients writes the draws into an
    array of its context's storage dtype.  The generator is left as the
    randrange loop leaves it.

    On CPython, for n < 2^62, the draws are taken in bulk.  There
    randrange(n) is getrandbits(k) with k = bitlen(n), drawn again while it
    is n or more.  getrandbits(k) takes ceil(k/32) 32-bit Mersenne Twister
    words, low word first, and keeps as many top bits of the last word as
    k still needs; getrandbits(32 m) returns the next m words
    little-endian.  So one getrandbits call for m attempts of one or two
    words, cut into words, gives the next m attempts of the loop, and the
    values below n are its draws in order.  Each round makes only as many
    attempts as draws are still missing, so it takes no word the loop would
    not take.  This depends on CPython's word order, so other interpreters
    use the loop, as does a remainder below _BULK_MIN draws.
    """
    if n >= 2**62:
        return np.array([rng.randrange(n) for _ in range(count)], dtype=object)
    out = np.empty(count, dtype=np.int64)
    done = 0
    if sys.implementation.name == "cpython":
        k = n.bit_length()
        words = 1 if k <= 32 else 2
        while count - done >= _BULK_MIN:
            size = words * (count - done)
            raw = np.frombuffer(rng.getrandbits(32 * size).to_bytes(
                4 * size, "little"), dtype="<u4").astype(np.int64)
            if words == 1:
                vals = raw >> (32 - k)
            else:
                vals = raw[0::2] | (raw[1::2] >> (64 - k) << 32)
            kept = vals[vals < n]
            out[done:done + kept.size] = kept
            done += kept.size
    out[done:] = [rng.randrange(n) for _ in range(count - done)]
    return out


def random_series_matrix(rng: random.Random, ctx: PrecisionContext, rows: int,
                         cols: int, degrees) -> SeriesMatrix:
    # one draw per (row, column, degree), in that nesting order
    degrees = list(degrees)
    shape = (rows, cols, len(degrees))
    arr = zeros_array(ctx, rows, cols)
    arr[:, :, degrees] = _draw_residues(
        rng, ctx.modulus, rows * cols * shape[2]).reshape(shape)
    return SeriesMatrix(ctx, arr)


def random_witness(rng: random.Random, ectx: ExtensionContext,
                   degrees) -> TrivializationWitness:
    degrees = [d for d in degrees if d >= 1]
    alpha = random_series_matrix(rng, ectx.ctx, ectx.h, ectx.h, degrees)
    return TrivializationWitness(ectx, alpha)


def witness_support(ectx: ExtensionContext, max_degree: int | None = None):
    """Degrees usable for witness entries: within the phi-faithful range,
    avoiding multiples of p (lossless antidifferentiation)."""
    ctx = ectx.ctx
    top = ctx.M // ctx.p
    if max_degree is not None:
        top = min(top, max_degree)
    return [d for d in range(1, top + 1) if d % ctx.p]


def add_noise(rng: random.Random, e: ExtensionData, field: str, degree: int,
              entry=None) -> ExtensionData:
    """Add p^(N - v_p(degree)) * unit * t^degree to one entry of e.v or of
    e.m (field "v" or "m"); on m the transposed entry gets the same, so m
    stays symmetric.

    The noise has exactly vanishing derivative mod p^N, so every structural
    identity survives, v stays zero mod p, and the class becomes nontrivial
    at full precision while p times it is trivial.  That needs
    1 <= v_p(degree) < N: at v_p(degree) >= N the noise is a unit or zero.
    Before any draw, a non-integer degree or entry raises TypeError, and a
    degree outside [1, M] or an entry outside [0, h) ValueError.
    """
    if field not in ("v", "m"):
        raise ValueError(f"noise goes on v or m, not {field!r}")
    ctx = e.context
    degree = operator.index(degree)
    if not 1 <= degree <= ctx.M:
        raise ValueError(f"noise degree {degree} lies outside [1, M={ctx.M}]")
    if entry is not None:
        entry = _check_indices(entry, e.h)
    vp = p_valuation(degree, ctx.p)
    if not 1 <= vp < ctx.N:
        raise ValueError(f"noise degree {degree} needs 1 <= v_p < N={ctx.N}")
    entry, unit = _noise_draws(rng, e.h, ctx.p, entry)
    arr = getattr(e, field).arr.copy()
    _put_noise(arr, field, degree, entry, unit, ctx)
    noisy = SeriesMatrix(ctx, arr)
    v, m = (noisy, e.m) if field == "v" else (e.v, noisy)
    return ExtensionData(e.ectx, e.xi, v, m, e.geometric_flag)


def _check_indices(entry: tuple, h: int) -> tuple:
    """The entry (i, j) of an h x h matrix as ints: TypeError for a
    non-integer, and ValueError outside [0, h), where a negative index would
    wrap around."""
    entry = tuple(map(operator.index, entry))
    if not all(0 <= k < h for k in entry):
        raise ValueError(f"entry {entry} lies outside [0, {h})")
    return entry


def _noise_draws(rng: random.Random, h: int, p: int, entry=None) -> tuple:
    """The draws of ``add_noise``, in its order: the entry (i, j), unless
    given, then the unit in [1, p)."""
    if entry is None:
        entry = rng.randrange(h), rng.randrange(h)
    return entry, rng.randrange(1, p)


def _put_noise(arr: np.ndarray, field: str, degree: int, entry: tuple,
               unit: int, ctx: PrecisionContext) -> None:
    """Add the noise of ``add_noise`` to the h x h x (M+1) residue array of
    e.v or e.m, in place: p^(N - v_p(degree)) * unit at the entry and the
    degree, and on m at the transposed entry too."""
    coeff = ctx.p ** (ctx.N - p_valuation(degree, ctx.p)) * unit % ctx.modulus
    i, j = entry
    for a, b in {(i, j), (j, i)} if field == "m" else {(i, j)}:
        arr[a, b, degree] = (arr[a, b, degree] + coeff) % ctx.modulus


def perturb_xi_antisym(e: ExtensionData, i0: int, j0: int,
                       unit: int = 1) -> ExtensionData:
    """Add a non-integrable antisymmetric perturbation to xi, with the
    v-corrections forced by horizontality and Frobenius-pairing
    compatibility.

    The perturbation is unit * t^(p-1) dt at (i0, j0) and its negative at
    (j0, i0).  Its pullback ghost lands in v at degree p^2 with a unit
    coefficient, so the result is never geometric; when p^2 exceeds M and
    the ghost would be silently truncated the construction refuses, since
    that regime fabricates torsion classes that only exist at truncation.
    A non-integer index or unit raises TypeError, and indices outside
    [0, h) or a unit divisible by p ValueError.
    """
    ctx = e.context
    h = e.h
    p = ctx.p
    i0, j0 = _check_indices((i0, j0), h)
    unit = operator.index(unit)
    if unit % p == 0:
        raise ValueError(f"unit {unit} is divisible by p={p}")
    if i0 == j0:
        raise ValueError("perturbation must be off-diagonal (antisymmetric)")
    if p - 1 > ctx.M - 1:
        raise ValueError("perturbation degree exceeds the trusted range")
    if p * p > ctx.M:
        raise InvalidExtension(
            "pullback ghost of the perturbation falls outside the truncation; "
            "refusing to build an inconsistent class")
    mod = ctx.modulus
    xi_arr = e.xi.arr.copy()
    v_arr = e.v.arr.copy()

    def bump(arr, i, j, d, c):
        arr[i, j, d] = (arr[i, j, d] + c) % mod

    for (a, b, sgn) in ((i0, j0, 1), (j0, i0, -1)):
        u = sgn * unit
        bump(xi_arr, a, b, p - 1, u)
        # direct correction: d(v[a-1][b]) -= p^(1+[a=0]) * u t^(p-1) dt
        bump(v_arr, (a - 1) % h, b, p, -u * (p if a == 0 else 1))
        # pullback ghost: d(v[a][b+1]) += p^(1-[b=h-1]) * phi-pullback(u t^(p-1) dt)
        if b == h - 1:
            raise InvalidExtension(
                "ghost correction at the wrap column is not integral; choose "
                "indices off the last column")
        bump(v_arr, a, (b + 1) % h, p * p, u)

    return ExtensionData(e.ectx, SeriesMatrix(ctx, xi_arr),
                         SeriesMatrix(ctx, v_arr), e.m, geometric_flag=False)


def random_extension(rng: random.Random, ectx: ExtensionContext,
                     nontrivial: bool = False) -> ExtensionData:
    """A random extension class: a witness image, optionally made
    nontrivial by an antisymmetric xi-perturbation (h >= 3 keeps the ghost
    off the wrap column) or by v-noise."""
    e = from_alpha(random_witness(rng, ectx, witness_support(ectx)))
    if not nontrivial:
        return e
    h = ectx.h
    p = ectx.ctx.p
    if h >= 3 and p * p <= ectx.ctx.M:
        # both indices must avoid the wrap column h-1 for the ghosts to land
        i0 = rng.randrange(h - 1)
        j0 = rng.choice([j for j in range(h - 1) if j != i0])
        return perturb_xi_antisym(e, i0, j0, rng.randrange(1, p))
    if p > ectx.ctx.M:
        raise ValueError(f"no noise degree: p={p} exceeds M={ectx.ctx.M}")
    return add_noise(rng, e, "v", p)
