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

import random

import numpy as np

from .errors import InvalidExtension
from .extension_group import (ExtensionContext, ExtensionData,
                              TrivializationWitness, from_alpha)
from .padic_series import PrecisionContext, p_valuation
from .series_matrix import SeriesMatrix, zeros_array


def random_series_matrix(rng: random.Random, ctx: PrecisionContext, rows: int,
                         cols: int, degrees) -> SeriesMatrix:
    # one draw per (row, column, degree), in that nesting order
    degrees = list(degrees)
    shape = (rows, cols, len(degrees))
    arr = zeros_array(ctx, rows, cols)
    draws = [rng.randrange(ctx.modulus) for _ in range(rows * cols * shape[2])]
    arr[:, :, degrees] = np.array(draws, dtype=arr.dtype).reshape(shape)
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
    at full precision while p times it is trivial.
    """
    if field not in ("v", "m"):
        raise ValueError(f"noise goes on v or m, not {field!r}")
    ctx = e.context
    vp = p_valuation(degree, ctx.p)
    if vp < 1:
        raise ValueError("noise degree must be divisible by p")
    i, j = entry if entry is not None else (rng.randrange(e.h), rng.randrange(e.h))
    unit = rng.randrange(1, ctx.p)
    coeff = (ctx.p ** (ctx.N - vp)) * unit % ctx.modulus
    arr = getattr(e, field).arr.copy()
    cells = {(i, j), (j, i)} if field == "m" else {(i, j)}
    for a, b in cells:
        arr[a, b, degree] = (arr[a, b, degree] + coeff) % ctx.modulus
    noisy = SeriesMatrix(ctx, arr)
    v, m = (noisy, e.m) if field == "v" else (e.v, noisy)
    return ExtensionData(e.ectx, e.xi, v, m, e.geometric_flag)


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
    """
    ctx = e.context
    h = e.h
    p = ctx.p
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
                     nontrivial: bool = False, max_degree: int | None = None
                     ) -> ExtensionData:
    """A random extension class: a witness image, optionally made
    nontrivial by an antisymmetric xi-perturbation (h >= 3 keeps the ghost
    off the wrap column) or by v-noise."""
    e = from_alpha(random_witness(rng, ectx, witness_support(ectx, max_degree)))
    if not nontrivial:
        return e
    h = ectx.h
    p = ectx.ctx.p
    if h >= 3 and p * p <= ectx.ctx.M:
        # both indices must avoid the wrap column h-1 for the ghosts to land
        i0 = rng.randrange(h - 1)
        j0 = rng.choice([j for j in range(h - 1) if j != i0])
        return perturb_xi_antisym(e, i0, j0, rng.randrange(1, p))
    deg = p  # p <= M in any valid context with M >= p
    return add_noise(rng, e, "v", deg)
