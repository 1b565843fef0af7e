"""Deformation points over truncated bases and their group law.

A point over k[t]/(t^n) is a pair (extension class, filtration coordinates).
The series data is carried in the ambient ring with degree supports bounded
by the base: the free generators (connection defect, pairing, filtration)
live below t^n while the Frobenius defect may reach degree p*(n-1), its
image under the coefficient lift.  Requiring p*(n-1) <= M keeps the lift
faithful on the data, which is what makes the torsion certification chain
sound at finite truncation.

The sampling verbs (the probe and the group-law check, both here; the CLI
only parses, calls them and emits) therefore compute at t-adic degree
p(n-1), the smallest ambient ring holding every point, and report the
caller's context (``_point_context``).  This is exact.  Besides the
modulus, the draws read M only through min(n-1, M//p), which is n-1
whenever p(n-1) <= M, so the same random words give the same coefficients.
Every step of the verbs (sums, integer multiples, ``truncate_point``,
``from_alpha``, whose phi* reads degrees <= M//p, ``integrate``, the
comparisons of ``trivialize``, the torsion chain and
``tangent_coordinates``) maps data supported in degrees <= p(n-1) to such
data and commutes with truncation there, so every equality and every
outcome is the same.

Both verbs run their samples in blocks, as records with a leading sample
axis.  A block is drawn first, with the calls of the per-sample loop in its
order, which read only the generator; the group-law check reads all of a
block's point residues in one ``_draw_residues`` call (``_draw_points``)
and builds the block's points at once (``_build_points``).  Every later
step acts on each sample alone, so the counts, counterexamples and failed
checks are those of the loop.  So is any error.  Once ``_point_context``
accepts n, drawing never raises.  Every xi is the derivative of a witness
supported off multiples of p, so ``integrate`` loses no digit and
trivialization never raises.  Each witness then holds at N for p*Y, so the
torsion check raises only for N < 3, with one message for any sample.

The filtration generator is normalized with unit coefficient on the last
lifted basis vector, so the group law is literal addition of coordinates;
isotropy pins the last coordinate to minus the corner of m.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .crystal import SlopeMultiset, hom_crystal, newton_slopes
from .errors import ContextMismatch, InvalidExtension, WrongBase
from .extension_group import (ExtensionContext, ExtensionData,
                              TorsionCertificate, TrivializationWitness,
                              Untrivializable, _check_matrix, _derived,
                              _differs, _stacked, baer_sum, from_alpha,
                              int_scale, p_torsion_check, trivialize)
from .padic_series import PrecisionContext, storage_dtype
from .sampling import (_draw_residues, _noise_draws, _put_noise,
                       witness_support)
from .series_matrix import SeriesMatrix


@dataclass(frozen=True)
class DeformationPoint:
    """A deformation point: extension data plus filtration coordinates.

    hodge is the h x 1 column (s_0, ..., s_{h-1}) presenting the filtration
    generator as the last lifted basis vector plus sum s_i a_i.  A stack of
    points carries the leading sample axis in hodge and in the extension,
    with the same samples in both; every condition is checked per sample.
    """

    ectx: ExtensionContext
    base_degree: int
    extension: ExtensionData
    hodge: SeriesMatrix

    def __post_init__(self):
        e, hodge, n = self.extension, self.hodge, self.base_degree
        ectx, ctx, h = self.ectx, self.ectx.ctx, self.ectx.h
        _check_base_degree(ectx, n)
        if e.ectx != ectx:
            raise ContextMismatch(f"extension context {e.ectx} differs from "
                                  f"{ectx}")
        _check_matrix("hodge", hodge, ctx, h, 1)
        if hodge.arr.shape[:-3] != e.m.arr.shape[:-3]:
            raise ValueError("the extension and hodge must hold the same "
                             "samples")
        # degree bounds: xi below n - 1, v up to p(n - 1), m and hodge below n
        if e.xi.arr[..., n - 1:].any():
            raise InvalidExtension("connection defect exceeds the base degree")
        if e.v.arr[..., ctx.p * (n - 1) + 1:].any():
            raise InvalidExtension("Frobenius defect exceeds the lifted degree")
        if e.m.arr[..., n:].any():
            raise InvalidExtension("pairing data exceeds the base degree")
        if e.m.arr[..., 0].any():
            raise InvalidExtension("pairing data must vanish at t=0")
        if hodge.arr[..., 0].any():
            raise InvalidExtension("hodge coordinates must vanish at t=0")
        if hodge.arr[..., n:].any():
            raise InvalidExtension("hodge coordinate exceeds the base degree")
        if hodge.arr.ndim == 4:
            anisotropic = ((hodge.arr[..., h - 1, 0, :]
                            + e.m.arr[..., h - 1, h - 1, :]) % ctx.modulus).any()
        else:
            # the same test through two entry copies: they are the probe's
            # only SeriesMatrix.entry calls, which DOMINANT["probe"] in
            # perfbench/workloads.py requires; this branch goes when that
            # requirement does
            anisotropic = hodge.entry(h - 1, 0) != -e.m.entry(h - 1, h - 1)
        if anisotropic:
            raise InvalidExtension(
                "isotropy requires the last hodge coordinate to equal minus "
                "the corner of m")

    @property
    def h(self) -> int:
        return self.ectx.h


def _check_base_degree(ectx: ExtensionContext, n: int) -> None:
    """Reject a base degree n below 2, or one whose lifted degree p(n-1)
    passes M, where the coefficient lift stops being faithful."""
    ctx = ectx.ctx
    if n < 2:
        raise WrongBase("base degree must be at least 2")
    if ctx.p * (n - 1) > ctx.M:
        raise InvalidExtension(
            f"need p*(n-1) <= M for a faithful coefficient lift "
            f"(p={ctx.p}, n={n}, M={ctx.M})")


def _point_context(ectx: ExtensionContext, n: int) -> ExtensionContext:
    """The context of t-adic degree p(n-1), the smallest that holds every
    point over k[t]/(t^n), once n is checked against ectx; ectx itself
    when its M is already p(n-1)."""
    _check_base_degree(ectx, n)
    ctx = ectx.ctx
    if ctx.p * (n - 1) == ctx.M:
        return ectx
    return ExtensionContext(PrecisionContext(ctx.p, ctx.N, ctx.p * (n - 1)),
                            ectx.h)


def identity_point(ectx: ExtensionContext, n: int) -> DeformationPoint:
    return DeformationPoint(ectx, n, ExtensionData.zero(ectx),
                            SeriesMatrix.zeros(ectx.ctx, ectx.h, 1))


def add_points(y: DeformationPoint, z: DeformationPoint) -> DeformationPoint:
    """Group law: Baer sum of the extensions, addition of the filtration
    coordinates.  Isotropy is preserved because both constraints are linear.

    Stacks add sample by sample; a point without the sample axis adds to
    every sample of a stack."""
    if y.ectx != z.ectx or y.base_degree != z.base_degree:
        raise ContextMismatch("points live over different bases")
    # sums keep the degree bounds and the t=0 conditions, and isotropy
    return _derived(DeformationPoint, y.ectx, y.base_degree,
                    baer_sum(y.extension, z.extension), y.hodge + z.hodge)


def scale_point(y: DeformationPoint, k: int) -> DeformationPoint:
    # multiples keep the degree bounds and the t=0 conditions, and isotropy
    return _derived(DeformationPoint, y.ectx, y.base_degree,
                    int_scale(y.extension, k), y.hodge.scale_int(k))


def negate_point(y: DeformationPoint) -> DeformationPoint:
    return scale_point(y, -1)


def truncate_point(y: DeformationPoint, new_n: int) -> DeformationPoint:
    """Base change along k[t]/(t^n) -> k[t]/(t^n'), n' <= n.

    Every stored series is reduced mod t^(n') (connection bodies mod
    t^(n'-1), matching the module of differentials of the smaller base);
    the reduction commutes with the Frobenius lift since t^(n') maps into
    itself.  Structural identities of the reduced data hold through degree
    n'-2, the meaningful range over the smaller base.
    """
    if not (2 <= new_n <= y.base_degree):
        raise WrongBase(f"new base degree must lie in [2, {y.base_degree}]")
    e = y.extension
    # t-truncation keeps the t-ideal, symmetry and mod-p conditions, and
    # new_n - 2 < M clears xi at degree M
    ext = _derived(ExtensionData, y.ectx, e.xi.truncate_degree(new_n - 2),
                   e.v.truncate_degree(new_n - 1),
                   e.m.truncate_degree(new_n - 1), e.geometric_flag)
    # the truncation degrees are the bounds over the smaller base, which is
    # faithful as p*(new_n-1) <= p*(n-1); hodge and m truncate alike
    return _derived(DeformationPoint, y.ectx, new_n, ext,
                    y.hodge.truncate_degree(new_n - 1))


def tangent_coordinates(y: DeformationPoint) -> tuple:
    """Free filtration coordinates over the dual numbers, reduced mod p;
    for a stack, one tuple per sample.

    Only defined at base degree 2; the last coordinate is excluded since
    isotropy determines it.
    """
    if y.base_degree != 2:
        raise WrongBase("tangent coordinates require base degree 2")
    coords = (y.hodge.arr[..., :y.h - 1, 0, 1] % y.ectx.ctx.p).tolist()
    return tuple(map(tuple, coords)) if y.hodge.arr.ndim == 4 else tuple(coords)


def point_from_tangent(ectx: ExtensionContext, values) -> DeformationPoint:
    """The point over the dual numbers with prescribed tangent coordinates
    and split extension; witnesses surjectivity of the tangent map.  Rows
    of h-1 coordinates, one per sample, give a stack."""
    ctx, h = ectx.ctx, ectx.h
    coords = np.array(values, dtype=object)
    if coords.ndim not in (1, 2) or coords.shape[-1] != h - 1:
        raise ValueError(f"expected {h - 1} coordinates")
    arr = np.zeros((*coords.shape[:-1], h, 1, ctx.M + 1),
                   dtype=storage_dtype(ctx))
    # canonical residues first: int64 storage cannot hold every integer
    arr[..., :h - 1, 0, 1] = np.array(
        [int(v) % ctx.modulus for v in coords.flat], dtype=object
    ).reshape(coords.shape)
    e = ExtensionData.zero(ectx)
    if coords.ndim == 2:
        z = SeriesMatrix(ctx, np.broadcast_to(e.xi.arr, (len(coords),
                                                         *e.xi.arr.shape)))
        # the zero extension in every sample, as read-only views
        e = _derived(ExtensionData, ectx, z, z, z, True)
    return DeformationPoint(ectx, 2, e, SeriesMatrix(ctx, arr))


def _samples_of(y: DeformationPoint, index: slice) -> DeformationPoint:
    """The samples `index` of the stack y, as a stack."""
    e, ctx = y.extension, y.ectx.ctx
    mats = [SeriesMatrix(ctx, getattr(e, f).arr[index])
            for f in ("xi", "v", "m")]
    # samples of a checked stack meet its conditions
    ext = _derived(ExtensionData, e.ectx, *mats, e.geometric_flag)
    # samples of a checked stack meet its conditions
    return _derived(DeformationPoint, y.ectx, y.base_degree, ext,
                    SeriesMatrix(ctx, y.hodge.arr[index]))


def _point_differs(y: DeformationPoint, z: DeformationPoint) -> np.ndarray:
    """Per sample of points of one context and base degree: whether they
    differ, which is what == tells of that sample alone.  A point without
    the sample axis is one sample, or is compared with every sample."""
    return _differs(y.extension, z.extension).any(axis=1) | (
        _stacked(y.hodge.arr) != _stacked(z.hodge.arr)).any(axis=(1, 2, 3))


# -- random geometric points ----------------------------------------------------


def _draw_points(rng: random.Random, ectx: ExtensionContext, n: int,
                 nontrivial) -> tuple:
    """Read the generator for one point per flag of `nontrivial`, in the
    order of drawing the points one at a time: per point the witness
    residues, then for a set flag the noise (its degree, field, entry and
    unit), then the hodge residues.  Needs a checked base degree n.

    Returns (alpha, hodge, noise): the (S, h, h, M+1) witness residues, the
    (S, h, 1, M+1) hodge column without its last coordinate, and a tuple
    (k, field, degree, entry, unit) for each noisy point k.  The residues
    between two noise draws come from one ``_draw_residues`` call, which
    gives the values of the randrange loop.
    """
    ctx, h, p = ectx.ctx, ectx.h, ectx.ctx.p
    degrees = witness_support(ectx, n - 1)
    size = h * h * len(degrees)
    step = size + (h - 1) * (n - 1)
    top = min(n - 1, ctx.M // p)
    # v_p(d) < N, or the noise would be a unit or zero
    noise_degrees = [d for d in range(p, top + 1, p) if d % ctx.modulus]
    chunks, noise, pending = [], [], 0
    for k, flag in enumerate(nontrivial):
        pending += size
        if flag:
            chunks.append(_draw_residues(rng, ctx.modulus, pending))
            pending = 0
            deg = rng.choice(noise_degrees) if noise_degrees else p
            field = "m" if deg <= n - 1 and rng.getrandbits(1) else "v"
            noise.append((k, field, deg, *_noise_draws(rng, h, p)))
        pending += step - size
    chunks.append(_draw_residues(rng, ctx.modulus, pending))
    flat = np.concatenate(chunks).reshape(len(nontrivial), step)
    alpha = np.zeros((len(flat), h, h, ctx.M + 1), dtype=flat.dtype)
    alpha[..., degrees] = flat[:, :size].reshape(-1, h, h, len(degrees))
    hodge = np.zeros((len(flat), h, 1, ctx.M + 1), dtype=flat.dtype)
    # n - 1 <= M / p, so every degree below n is stored
    hodge[:, :h - 1, :, 1:n] = flat[:, size:].reshape(-1, h - 1, 1, n - 1)
    return alpha, hodge, tuple(noise)


def _build_points(ectx: ExtensionContext, n: int, draws: tuple,
                  stack: bool = True) -> DeformationPoint:
    """The points of `draws` (``_draw_points``) as one checked stack, or,
    with stack False, its one point as a record without the sample axis:
    the geometric image of each witness plus its noise, and the hodge
    column whose last coordinate isotropy sets."""
    ctx, h = ectx.ctx, ectx.h
    alpha, hodge, noise = draws
    e = from_alpha(TrivializationWitness(ectx, SeriesMatrix(ctx, alpha)))
    # columns 2..h of v are p phi*(alpha) - p alpha or p phi*(alpha) -
    # p^2 alpha (_v_from_alpha), so they vanish mod p: the image is geometric
    e = _derived(ExtensionData, ectx, e.xi, e.v, e.m, True)
    arrs = [e.xi.arr, e.v.arr, e.m.arr]
    if noise:
        arrs[1:] = [a.copy() for a in arrs[1:]]
        for k, field, degree, entry, unit in noise:
            _put_noise(arrs[1 if field == "v" else 2][k], field, degree,
                       entry, unit, ctx)
    hodge[:, h - 1, 0] = -arrs[2][:, h - 1, h - 1] % ctx.modulus
    lead = slice(None) if stack else 0
    if noise:
        e = ExtensionData(ectx, *(SeriesMatrix(ctx, a[lead]) for a in arrs),
                          True)
    elif not stack:
        # the one sample of a checked geometric stack
        e = _derived(ExtensionData, ectx, *(SeriesMatrix(ctx, a[0])
                                            for a in arrs), True)
    return DeformationPoint(ectx, n, e, SeriesMatrix(ctx, hodge[lead]))


def random_geometric_point(rng: random.Random, ectx: ExtensionContext, n: int,
                           nontrivial: bool = False) -> DeformationPoint:
    """Draw a point whose extension satisfies the rank-1-mod-p condition.

    The witness support stays within degrees < n and within the faithful
    range M/p, avoiding multiples of p so antidifferentiation is lossless;
    nontrivial points add derivative-free valuation-matched noise to v (or
    symmetrically to m) at a degree d with 1 <= v_p(d) < N.  This is the
    one-point case of a block of points: ``_draw_points``, then
    ``_build_points``.
    """
    _check_base_degree(ectx, n)  # before the first draw
    return _build_points(ectx, n, _draw_points(rng, ectx, n, [nontrivial]),
                         stack=False)


# -- the [p]-injectivity experiment ----------------------------------------------


@dataclass(frozen=True)
class ProbeSampleIssue:
    index: int
    stage: str
    detail: str


@dataclass(frozen=True)
class ProbeReport:
    seed: int
    samples: int
    nontrivial_py: int          # samples whose p-multiple stayed nontrivial
    torsion_certified: int      # trivial-p-multiple samples certified trivial
    trivial_direct: int         # samples already trivial at full precision
    counterexamples: tuple

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_json(self):
        return {
            "seed": self.seed,
            "samples": self.samples,
            "nontrivial_pY": self.nontrivial_py,
            "torsion_certified": self.torsion_certified,
            "trivial_Y": self.trivial_direct,
            "counterexamples": [
                {"index": c.index, "stage": c.stage, "detail": c.detail}
                for c in self.counterexamples],
        }


# coefficients per h x h field of a probe block: 10 samples at h=10, M=15
_BLOCK_COEFFICIENTS = 2**14


def _stack(es: list) -> ExtensionData:
    """One record with the sample axis from records of one context."""
    # a stack of checked records of one context keeps every condition
    return _derived(ExtensionData, es[0].ectx, *(
        SeriesMatrix(es[0].context, np.stack([getattr(e, f).arr for e in es]))
        for f in ("xi", "v", "m")), all(e.geometric_flag for e in es))


def multiply_by_p_injectivity_probe(ectx: ExtensionContext, n: int,
                                    samples: int, seed: int = 0) -> ProbeReport:
    """Sampled check that multiplication by p has trivial kernel.

    For each random geometric point Y, [p]Y is computed by a binary
    addition chain, at most 2 log2(p) sums; when its extension trivializes,
    the torsion chain must certify Y itself trivial (at its stated precision).  Any refusal is a
    counterexample; the expected count is zero.  The points are drawn and
    computed at t-adic degree p(n-1), in blocks with the sample axis (see
    the module docstring).
    """
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    ectx = _point_context(ectx, n)  # before the first draw
    rng = random.Random(seed)
    ctx, p = ectx.ctx, ectx.ctx.p
    size = max(1, _BLOCK_COEFFICIENTS // (ectx.h ** 2 * (ctx.M + 1)))
    nontrivial_py = certified = trivial_direct = 0
    issues = []
    for start in range(0, samples, size):
        ys = [random_geometric_point(rng, ectx, n,
                                     nontrivial=bool(rng.getrandbits(1)))
              for _ in range(min(size, samples - start))]
        y = _stack([pt.extension for pt in ys])
        hodge = SeriesMatrix(ctx, np.stack([pt.hodge.arr for pt in ys]))
        trivial_direct += sum(not isinstance(w, Untrivializable)
                              for w in trivialize(y))
        # [p]Y by a binary addition chain: double, and add Y at each set
        # bit; at p=3 these are the sums (Y, Y) and (2Y, Y) of p-1 additions
        py, p_hodge = y, hodge
        for bit in bin(p)[3:]:
            py, p_hodge = baer_sum(py, py), p_hodge + p_hodge
            if bit == "1":
                py, p_hodge = baer_sum(py, y), p_hodge + hodge
        # scale_point(Y, p) != [p]Y, sample by sample
        nonlinear = _differs(int_scale(y, p), py).any(axis=1) | (
            hodge.scale_int(p).arr != p_hodge.arr).any(axis=(1, 2, 3))
        outcomes = trivialize(py)
        del py, p_hodge  # freed before the torsion check
        found = {}
        for k, w in enumerate(outcomes):
            if nonlinear[k]:
                issues.append(ProbeSampleIssue(
                    start + k, "linearity", "iterated sum disagrees with scaling"))
            elif isinstance(w, Untrivializable):
                nontrivial_py += 1
            else:
                found.setdefault(w.context, []).append((k, w))
        # drawn points lose no digit, so they make one group (see the module
        # docstring); a corrupted point, one that breaks the condition of
        # its flag, can, and is then checked at its own precision, as alone
        for c, group in found.items():
            # the witnesses of one precision, each checked, stacked
            w = _derived(TrivializationWitness, group[0][1].ectx, SeriesMatrix(
                c, np.stack([w.alpha.arr for _, w in group])))
            if len(group) < len(ys):
                y = _stack([ys[k].extension for k, _ in group])
            for (k, _), outcome in zip(group, p_torsion_check(y, w)):
                if isinstance(outcome, TorsionCertificate):
                    certified += 1
                else:
                    issues.append(ProbeSampleIssue(start + k, outcome.step,
                                                   outcome.detail))
    issues.sort(key=lambda issue: issue.index)
    return ProbeReport(seed, samples, nontrivial_py, certified, trivial_direct,
                       tuple(issues))


# -- the group-law axioms ------------------------------------------------------


@dataclass(frozen=True)
class GroupLawReport:
    seed: int
    samples: int
    tangent_dimension: int
    levels: tuple       # (level, whether the single-shot sum agrees there)
    failures: tuple     # names of the failed checks, in the order run

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self):
        return {
            "seed": self.seed,
            "samples": self.samples,
            "tangent_dimension": self.tangent_dimension,
            "successive_levels": [{"level": i, "agrees": ok}
                                  for i, ok in self.levels],
            "failures": list(self.failures),
            "passed": self.passed,
        }


_AXIOMS = ("commutative", "associative", "identity", "inverse", "functorial")


def group_law_check(ectx: ExtensionContext, n: int, samples: int,
                    seed: int = 0) -> GroupLawReport:
    """Sampled check of the group law on points over k[t]/(t^n).

    Each sample draws three trivial geometric points y, z, w and checks
    that the law is commutative, associative, has the identity and
    inverses, and commutes with truncation to the dual numbers; then each
    sample checks that the tangent coordinates add, on points from drawn
    coordinates; then one sum of a nontrivial and a trivial point is
    compared with the sum of its truncations at every level 2..n.  A
    failed check is named with its sample, every check of sample k before
    any of sample k+1.  The samples run in blocks with the sample axis,
    drawn in the order of a per-sample loop, and the points are computed at
    t-adic degree p(n-1) (see the module docstring).
    """
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    ectx = _point_context(ectx, n)  # before the first draw
    rng = random.Random(seed)
    ctx, h, p = ectx.ctx, ectx.h, ectx.ctx.p
    # three points per sample
    size = max(1, _BLOCK_COEFFICIENTS // (3 * h ** 2 * (ctx.M + 1)))
    blocks = [range(start, min(start + size, samples))
              for start in range(0, samples, size)]
    ident = identity_point(ectx, n)
    failures = []
    for block in blocks:
        points = _build_points(ectx, n, _draw_points(
            rng, ectx, n, [False] * (3 * len(block))))
        # each sample draws y, z, w in turn
        y, z, w = (_samples_of(points, slice(i, None, 3)) for i in range(3))
        yz = add_points(y, z)
        differs = np.stack([
            _point_differs(yz, add_points(z, y)),
            _point_differs(add_points(yz, w), add_points(y, add_points(z, w))),
            _point_differs(add_points(y, ident), y),
            _point_differs(add_points(y, negate_point(y)), ident),
            _point_differs(truncate_point(yz, 2),
                           add_points(truncate_point(y, 2),
                                      truncate_point(z, 2)))], axis=1)
        failures += [f"{name}[{k}]" for k, row in zip(block, differs)
                     for name, bad in zip(_AXIOMS, row) if bad]

    tangent_ok = True
    for block in blocks:
        # each sample draws the coordinates a, then b, one randrange(p) each
        a, b = _draw_residues(rng, p, 2 * (h - 1) * len(block)).reshape(
            len(block), 2, h - 1).transpose(1, 0, 2)
        ya, yb = point_from_tangent(ectx, a), point_from_tangent(ectx, b)
        tangent_ok &= (
            tangent_coordinates(add_points(ya, yb))
            == tuple(map(tuple, ((a + b) % p).tolist()))
            and tangent_coordinates(ya) == tuple(map(tuple, a.tolist())))
    if not tangent_ok:
        failures.append("tangent_additive")

    # level-by-level view of one sum: the single-shot law agrees with the
    # successive lifts through every truncation of the base
    y = random_geometric_point(rng, ectx, n, nontrivial=True)
    z = random_geometric_point(rng, ectx, n, nontrivial=False)
    total = add_points(y, z)
    levels = []
    for i in range(2, n + 1):
        lhs = truncate_point(total, i) if i < n else total
        rhs = add_points(truncate_point(y, i) if i < n else y,
                         truncate_point(z, i) if i < n else z)
        levels.append((i, lhs == rhs))
    failures += [f"level[{i}]" for i, agrees in levels if not agrees]
    return GroupLawReport(seed, samples, h - 1, tuple(levels), tuple(failures))


# -- the slope report -------------------------------------------------------------


@dataclass(frozen=True)
class SlopeReport:
    h: int
    slope: Fraction              # slope of the formal group: 2/h
    sub_slope: Fraction          # (h-1)/h
    super_slope: Fraction        # (h+1)/h
    hom_common_slope: Fraction   # 2 - 2/h, the twist-2 hom slope
    detail: SlopeMultiset

    def to_json(self):
        return {
            "h": self.h,
            "slope": str(self.slope),
            "slope_sub": str(self.sub_slope),
            "slope_super": str(self.super_slope),
            "hom_twist2_common_slope": str(self.hom_common_slope),
            "hom_twist2_slopes": self.detail.to_json(),
        }


def slope_report(ectx: ExtensionContext) -> SlopeReport:
    """The formal-group slope 2/h, exhibited as the slope difference of the
    two ends, beside the Newton slopes of the twist-2 internal hom, whose
    one slope is 2 - 2/h."""
    (s_sub, _), = newton_slopes(ectx.sub1).entries
    (s_super, _), = newton_slopes(ectx.super1).entries
    detail = newton_slopes(hom_crystal(ectx.super1, ectx.sub1, twist=2))
    return SlopeReport(ectx.h, s_super - s_sub, s_sub, s_super,
                       2 + s_sub - s_super, detail)
