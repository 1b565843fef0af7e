"""Deformation points over truncated bases and their group law.

A point over k[t]/(t^n) is a pair (extension class, filtration coordinates).
The series data is carried in the ambient ring with degree supports bounded
by the base: the free generators (connection defect, pairing, filtration)
live below t^n while the Frobenius defect may reach degree p*(n-1), its
image under the coefficient lift.  Requiring p*(n-1) <= M keeps the lift
faithful on the data, which is what makes the torsion certification chain
sound at finite truncation.

The filtration generator is normalized with unit coefficient on the last
lifted basis vector, so the group law is literal addition of coordinates;
isotropy pins the last coordinate to minus the corner of m.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .crystal import SlopeMultiset, hom_crystal, newton_slopes
from .errors import ContextMismatch, InvalidExtension, WrongBase
from .extension_group import (ExtensionContext, ExtensionData,
                              TorsionCertificate, Untrivializable, baer_sum,
                              int_scale, p_torsion_check, trivialize)
from .sampling import add_noise, random_extension, random_series_matrix
from .series_matrix import SeriesMatrix, zeros_array


@dataclass(frozen=True)
class DeformationPoint:
    """A deformation point: extension data plus filtration coordinates.

    hodge is the h x 1 column (s_0, ..., s_{h-1}) presenting the filtration
    generator as the last lifted basis vector plus sum s_i a_i.
    """

    ectx: ExtensionContext
    base_degree: int
    extension: ExtensionData
    hodge: SeriesMatrix

    def __post_init__(self):
        e, hodge, n = self.extension, self.hodge, self.base_degree
        ectx, ctx, h = self.ectx, self.ectx.ctx, self.ectx.h
        if n < 2:
            raise WrongBase("base degree must be at least 2")
        if ctx.p * (n - 1) > ctx.M:
            raise InvalidExtension(
                f"need p*(n-1) <= M for a faithful coefficient lift "
                f"(p={ctx.p}, n={n}, M={ctx.M})")
        if e.ectx != ectx:
            raise ContextMismatch(f"extension context {e.ectx} differs from "
                                  f"{ectx}")
        if (hodge.rows, hodge.cols) != (h, 1):
            raise InvalidExtension(f"hodge must be {h}x1")
        if hodge.context != ctx:
            raise ContextMismatch(f"hodge context {hodge.context} differs "
                                  f"from {ctx}")
        # degree bounds: xi below n - 1, v up to p(n - 1), m and hodge below n
        if e.xi.arr[:, :, n - 1:].any():
            raise InvalidExtension("connection defect exceeds the base degree")
        if e.v.arr[:, :, ctx.p * (n - 1) + 1:].any():
            raise InvalidExtension("Frobenius defect exceeds the lifted degree")
        if e.m.arr[:, :, n:].any():
            raise InvalidExtension("pairing data exceeds the base degree")
        if e.m.arr[:, :, 0].any():
            raise InvalidExtension("pairing data must vanish at t=0")
        if hodge.arr[:, :, 0].any():
            raise InvalidExtension("hodge coordinates must vanish at t=0")
        if hodge.arr[:, :, n:].any():
            raise InvalidExtension("hodge coordinate exceeds the base degree")
        if hodge.entry(h - 1, 0) != -e.m.entry(h - 1, h - 1):
            raise InvalidExtension(
                "isotropy requires the last hodge coordinate to equal minus "
                "the corner of m")

    @property
    def h(self) -> int:
        return self.ectx.h


def identity_point(ectx: ExtensionContext, n: int) -> DeformationPoint:
    return DeformationPoint(ectx, n, ExtensionData.zero(ectx),
                            SeriesMatrix.zeros(ectx.ctx, ectx.h, 1))


def add_points(y: DeformationPoint, z: DeformationPoint) -> DeformationPoint:
    """Group law: Baer sum of the extensions, addition of the filtration
    coordinates.  Isotropy is preserved because both constraints are linear."""
    if y.ectx != z.ectx or y.base_degree != z.base_degree:
        raise ContextMismatch("points live over different bases")
    return DeformationPoint(y.ectx, y.base_degree,
                            baer_sum(y.extension, z.extension),
                            y.hodge + z.hodge)


def scale_point(y: DeformationPoint, k: int) -> DeformationPoint:
    return DeformationPoint(y.ectx, y.base_degree, int_scale(y.extension, k),
                            y.hodge.scale_int(k))


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
    ext = ExtensionData(y.ectx,
                        e.xi.truncate_degree(new_n - 2),
                        e.v.truncate_degree(new_n - 1),
                        e.m.truncate_degree(new_n - 1),
                        e.geometric_flag)
    return DeformationPoint(y.ectx, new_n, ext,
                            y.hodge.truncate_degree(new_n - 1))


def tangent_coordinates(y: DeformationPoint) -> tuple:
    """Free filtration coordinates over the dual numbers, reduced mod p.

    Only defined at base degree 2; the last coordinate is excluded since
    isotropy determines it.
    """
    if y.base_degree != 2:
        raise WrongBase("tangent coordinates require base degree 2")
    p = y.ectx.ctx.p
    return tuple(int(x) % p for x in y.hodge.arr[:y.h - 1, 0, 1])


def point_from_tangent(ectx: ExtensionContext, values) -> DeformationPoint:
    """The point over the dual numbers with prescribed tangent coordinates
    and split extension; witnesses surjectivity of the tangent map."""
    ctx = ectx.ctx
    h = ectx.h
    values = list(values)
    if len(values) != h - 1:
        raise ValueError(f"expected {h - 1} coordinates")
    arr = zeros_array(ctx, h, 1)
    # canonical residues first: int64 storage cannot hold every integer
    arr[:h - 1, 0, 1] = [int(v) % ctx.modulus for v in values]
    return DeformationPoint(ectx, 2, ExtensionData.zero(ectx),
                            SeriesMatrix(ctx, arr))


# -- random geometric points ----------------------------------------------------


def random_geometric_point(rng: random.Random, ectx: ExtensionContext, n: int,
                           nontrivial: bool = False) -> DeformationPoint:
    """Draw a point whose extension satisfies the rank-1-mod-p condition.

    The witness support stays within degrees < n and within the faithful
    range M/p, avoiding multiples of p so antidifferentiation is lossless;
    nontrivial points add derivative-free valuation-matched noise to v (or
    symmetrically to m) at a degree divisible by p.
    """
    ctx = ectx.ctx
    h = ectx.h
    e = random_extension(rng, ectx, max_degree=n - 1).mark_geometric()
    if nontrivial:
        top = min(n - 1, ctx.M // ctx.p)
        noise_degrees = [d for d in range(ctx.p, top + 1, ctx.p)]
        deg = rng.choice(noise_degrees) if noise_degrees else ctx.p
        field = "m" if deg <= n - 1 and rng.getrandbits(1) else "v"
        e = add_noise(rng, e, field, deg)
    degrees = range(1, min(n, ctx.M + 1))  # an n past M fails the point check
    hodge = zeros_array(ctx, h, 1)
    hodge[:h - 1] = random_series_matrix(rng, ctx, h - 1, 1, degrees).arr
    hodge[h - 1, 0] = -e.m.arr[h - 1, h - 1] % ctx.modulus
    return DeformationPoint(ectx, n, e, SeriesMatrix(ctx, hodge))


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


def multiply_by_p_injectivity_probe(ectx: ExtensionContext, n: int,
                                    samples: int, seed: int = 0) -> ProbeReport:
    """Sampled check that multiplication by p has trivial kernel.

    For each random geometric point Y, [p]Y is computed by iterated
    addition; when its extension trivializes, the torsion chain must
    certify Y itself trivial (at its stated precision).  Any refusal is a
    counterexample; the expected count is zero.
    """
    rng = random.Random(seed)
    p = ectx.ctx.p
    nontrivial_py = 0
    certified = 0
    trivial_direct = 0
    issues = []
    for k in range(samples):
        y = random_geometric_point(rng, ectx, n, nontrivial=bool(rng.getrandbits(1)))
        if not isinstance(trivialize(y.extension), Untrivializable):
            trivial_direct += 1
        py = y
        for _ in range(p - 1):
            py = add_points(py, y)
        if scale_point(y, p) != py:
            issues.append(ProbeSampleIssue(k, "linearity",
                                           "iterated sum disagrees with scaling"))
            continue
        w = trivialize(py.extension)
        if isinstance(w, Untrivializable):
            nontrivial_py += 1
            continue
        outcome = p_torsion_check(y.extension, w)
        if isinstance(outcome, TorsionCertificate):
            certified += 1
        else:
            issues.append(ProbeSampleIssue(k, outcome.step, outcome.detail))
    return ProbeReport(seed, samples, nontrivial_py, certified, trivial_direct,
                       tuple(issues))


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
    two ends and cross-checked on the twist-2 internal hom."""
    h = ectx.h
    sub_slopes = newton_slopes(ectx.sub1)
    super_slopes = newton_slopes(ectx.super1)
    (s_sub, _), = sub_slopes.entries
    (s_super, _), = super_slopes.entries
    detail = newton_slopes(hom_crystal(ectx.super1, ectx.sub1, twist=2))
    slopes = {s for s, _ in detail.entries}
    if slopes != {2 + s_sub - s_super}:
        raise AssertionError("hom slopes disagree with the slope difference")
    return SlopeReport(h, s_super - s_sub, s_sub, s_super,
                       2 + s_sub - s_super, detail)
