"""F-crystal presentations over the truncated ring and their invariants.

A presentation fixes a basis: the Frobenius and connection matrices have
column j equal to the coordinates of the image of basis vector j, and the
pairing matrix is the Gram matrix of the basis.  Frobenius is linear (not
just semilinear) because the coefficient field is F_p, which is what makes
Newton slopes readable off a characteristic polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .errors import (ContextMismatch, NonInvertible, NotConstant, NotPerfect,
                     NotStable, PrecisionInsufficient, UnsupportedHeight)
from .padic_series import PrecisionContext, p_valuation
from .series_matrix import SeriesMatrix, det_mod_p, series_inverse, zeros_array

STANDARD_WEIGHT = 2  # Frobenius scales the cup-product pairing by p^2


@dataclass(frozen=True)
class FCrystalPresentation:
    """Rank-r module with Frobenius, connection and pairing matrices.

    frobenius_shift records a formal Tate twist: the intended Frobenius is
    p^frobenius_shift times the stored (always p-integral) matrix.  It is
    zero everywhere except for internal-hom constructions whose twist does
    not clear denominators.
    """

    context: PrecisionContext
    rank: int
    frobenius: SeriesMatrix
    connection: SeriesMatrix  # matrix of one-form bodies
    pairing: SeriesMatrix
    weight: int
    frobenius_shift: int = 0

    def __post_init__(self):
        for name in ("frobenius", "connection", "pairing"):
            m = getattr(self, name)
            if m.rows != self.rank or m.cols != self.rank:
                raise ValueError(f"{name} must be {self.rank}x{self.rank}")
            if m.context != self.context:
                raise ValueError(f"{name} context differs from presentation context")

    def is_constant(self) -> bool:
        return self.connection.is_zero() and self.frobenius.is_constant()


@dataclass(frozen=True)
class SlopeMultiset:
    """Newton slopes with multiplicities, sorted ascending."""

    entries: tuple  # of (Fraction, int)

    @classmethod
    def from_pairs(cls, pairs):
        merged = {}
        for s, m in pairs:
            merged[s] = merged.get(s, 0) + m
        return cls(tuple(sorted((Fraction(s), int(m)) for s, m in merged.items()
                                if m)))

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.entries)

    def weighted_sum(self) -> Fraction:
        return sum((s * m for s, m in self.entries), Fraction(0))

    def shift(self, k: int) -> "SlopeMultiset":
        return SlopeMultiset(tuple((s + k, m) for s, m in self.entries))

    def to_json(self):
        return [[str(s), m] for s, m in self.entries]

    def __str__(self):
        return "{" + ", ".join(f"{s} x{m}" for s, m in self.entries) + "}"


@dataclass(frozen=True)
class HorizontalityReport:
    passed: bool
    residual: SeriesMatrix


@dataclass(frozen=True)
class PairingReport:
    symmetric: bool
    frobenius_compatible: bool
    flat: bool
    perfect: bool
    residuals: dict = field(compare=False)

    @property
    def passed(self) -> bool:
        """The three structural pairing identities; perfectness is reported
        separately because totally isotropic summands carry a zero Gram block."""
        return self.symmetric and self.frobenius_compatible and self.flat


def _check_height(h):
    if not (2 <= h <= 10):
        raise UnsupportedHeight(f"height must lie in [2, 10], got {h}")


def make_standard_crystal(ctx: PrecisionContext, h: int, kind: str,
                          rho: int | None = None) -> FCrystalPresentation:
    """Constant normal-form crystals.

    sub1:   rank h, cyclic Frobenius with one p on each step except the
            wrap-around step (slope (h-1)/h).
    super1: rank h, cyclic with one p on each step and p^2 on the wrap-around
            (slope (h+1)/h).
    slope1: rank rho, Frobenius p times the identity, identity pairing.
    pair:   sub1 (+) super1 with the unimodular antidiagonal pairing between
            the two blocks.
    """
    _check_height(h)
    p = ctx.p

    def cyclic(wrap_weight):
        rows = [[0] * h for _ in range(h)]
        for i in range(h):
            rows[(i + 1) % h][i] = wrap_weight if i == h - 1 else p
        return SeriesMatrix.from_series_rows(ctx, rows)

    if kind in ("sub1", "super1"):
        f = cyclic(1 if kind == "sub1" else p * p)
        return FCrystalPresentation(ctx, h, f, SeriesMatrix.zeros(ctx, h, h),
                                    SeriesMatrix.zeros(ctx, h, h), STANDARD_WEIGHT)
    if kind == "slope1":
        if rho is None or rho < 0:
            raise ValueError("slope1 requires a non-negative rank rho")
        f = SeriesMatrix.identity(ctx, rho, scale=p)
        return FCrystalPresentation(ctx, rho, f, SeriesMatrix.zeros(ctx, rho, rho),
                                    SeriesMatrix.identity(ctx, rho), STANDARD_WEIGHT)
    if kind == "pair":
        antidiagonal = np.roll(SeriesMatrix.identity(ctx, 2 * h).arr, h, axis=1)
        return replace(direct_sum(make_standard_crystal(ctx, h, "sub1"),
                                  make_standard_crystal(ctx, h, "super1")),
                       pairing=SeriesMatrix(ctx, antidiagonal))
    raise ValueError(f"unknown kind {kind!r}")


def direct_sum(c1: FCrystalPresentation, c2: FCrystalPresentation) -> FCrystalPresentation:
    if c1.context != c2.context or c1.weight != c2.weight \
            or c1.frobenius_shift != c2.frobenius_shift:
        raise ValueError("direct sum requires matching context, weight and shift")
    ctx, r = c1.context, c1.rank

    def blk(a, b):
        arr = zeros_array(ctx, r + c2.rank, r + c2.rank)
        arr[:r, :r], arr[r:, r:] = a.arr, b.arr
        return SeriesMatrix(ctx, arr)

    return FCrystalPresentation(ctx, c1.rank + c2.rank,
                                blk(c1.frobenius, c2.frobenius),
                                blk(c1.connection, c2.connection),
                                blk(c1.pairing, c2.pairing),
                                c1.weight, c1.frobenius_shift)


def check_horizontality(c: FCrystalPresentation) -> HorizontalityReport:
    """Machine form of the compatibility dF + A.F = F.phi*(A).p t^(p-1).

    The residual is trusted through degree M-1 (differentiation loses the
    top coefficient), so the verdict ignores the degree-M layer.
    """
    f, a = c.frobenius, c.connection
    residual = f.derivative_bodies() + (a @ f) - (f @ a.oneform_pullback_bodies())
    return HorizontalityReport(residual.is_zero_through(c.context.M - 1), residual)


def check_pairing_compat(c: FCrystalPresentation) -> PairingReport:
    """Pairing symmetry, Frobenius compatibility at the declared weight,
    flatness against the connection, and perfectness (unit Gram determinant)."""
    ctx = c.context
    g, f, a = c.pairing, c.frobenius, c.connection
    sym = g == g.transpose()

    w_eff = c.weight - 2 * c.frobenius_shift
    lhs = f.transpose() @ g @ f
    rhs = g.phi_pullback()
    if w_eff >= 0:
        rhs = rhs.scale_int(pow(ctx.p, w_eff, ctx.modulus))
    else:
        lhs = lhs.scale_int(pow(ctx.p, -w_eff, ctx.modulus))
    frob_res = lhs - rhs
    frob = frob_res.is_zero()

    flat_res = g.derivative_bodies() - (a.transpose() @ g) - (g @ a)
    flat = flat_res.is_zero_through(ctx.M - 1)

    perfect = det_mod_p(g.constant_layer(), ctx.p) != 0
    return PairingReport(sym, frob, flat, perfect,
                         {"frobenius": frob_res, "flat": flat_res})


# -- characteristic polynomials and Newton polygons --------------------------


def _charpoly_generalized_permutation(rows):
    """Char poly for matrices with at most one nonzero per row and column,
    via cycle decomposition.  Returns None if the shape does not apply."""
    image = {}  # column -> (row, entry) of its single nonzero
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x:
                if j in image:
                    return None
                image[j] = (i, x)
    if len({i for i, _ in image.values()}) < len(image):
        return None
    # poly = x^(n - sum lengths) * prod (x^L - W), coefficients high->low;
    # a walk that returns to its start closed a cycle of length L, weight W
    poly, seen = [1], set()
    for start in image:
        j, length, w = start, 0, 1
        while j in image and j not in seen:
            seen.add(j)
            j, x = image[j]
            length, w = length + 1, w * x
        if length and j == start:
            poly = [a - w * b for a, b in zip(poly + [0] * length,
                                              [0] * length + poly)]
    return poly + [0] * (len(rows) + 1 - len(poly))


def _charpoly_berkowitz(rows):
    """Division-free characteristic polynomial; coefficients high->low."""
    n = len(rows)
    poly = [1]
    for k in range(1, n + 1):
        a = rows[k - 1][k - 1]
        r_vec = rows[k - 1][:k - 1]
        c_vec = [rows[i][k - 1] for i in range(k - 1)]
        col = [1, -a]
        vec = c_vec
        for j in range(2, k + 1):
            if j > 2:
                vec = [sum(rows[i][l] * vec[l] for l in range(k - 1))
                       for i in range(k - 1)]
            col.append(-sum(r_vec[l] * vec[l] for l in range(k - 1)))
        new = [0] * (k + 1)
        for i in range(k + 1):
            s = 0
            lo = max(0, i - (len(col) - 1))
            for j in range(lo, min(i, k - 1) + 1):
                s += col[i - j] * poly[j]
            new[i] = s
        poly = new
    return poly


DENSE_CHARPOLY_BUDGET = 2**40  # on n^5 max(64, b)^2, see charpoly_int


def charpoly_int(rows):
    """Exact characteristic polynomial det(xI - A) of an integer matrix.

    Coefficients are returned from x^n down to x^0.  A generalized
    permutation takes the cycle fast path at any size.  Berkowitz runs O(n^4)
    products of integers growing to n b bits, b the largest entry bit
    length, so any other matrix raises ValueError unless n^5 max(64, b)^2 <=
    DENSE_CHARPOLY_BUDGET: rank 48 below 2^64, rank 16 at 1024 bits.
    """
    fast = _charpoly_generalized_permutation(rows)
    if fast is not None:
        return fast
    n = len(rows)
    bits = max([64] + [x.bit_length() for row in rows for x in row])
    if n ** 5 * bits ** 2 > DENSE_CHARPOLY_BUDGET:
        raise ValueError(f"dense characteristic polynomial of rank {n} with "
                         f"{bits}-bit entries exceeds its size budget")
    return _charpoly_berkowitz(rows)


def _lower_hull(points):
    """Lower convex hull of (x, y) points sorted by x; returns the vertices."""
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop hull[-1] if it lies on or above segment hull[-2] -> pt
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def newton_slopes(c: FCrystalPresentation) -> SlopeMultiset:
    """Slopes of the p-adic Newton polygon of the characteristic polynomial
    of the Frobenius at the closed point t = 0.

    The canonical integer lift of the Frobenius matrix is taken as exact
    data.  Coefficients that vanish as residues carry the precision-capped
    valuation (zero means "at least N"), so a vanishing determinant block
    contributes slopes reported as N.  A finite polygon slope exceeding N
    cannot be expressed on the precision scale and raises
    PrecisionInsufficient.  The formal Tate twist shifts every slope.
    """
    if not c.is_constant():
        raise NotConstant("newton_slopes requires a constant presentation")
    n = c.rank
    ctx = c.context
    p, N = ctx.p, ctx.N
    rows = c.frobenius.constant_layer()
    coeffs = charpoly_int(rows)  # x^n .. x^0
    a = [coeffs[n - i] for i in range(n + 1)]  # a[i] = coeff of x^i

    points = [(i, Fraction(p_valuation(a[i], p))) for i in range(n + 1) if a[i]]
    z = points[0][0]  # leading zero coefficients: valuations off the scale
    hull = _lower_hull(points)

    pairs = []
    if z > 0:
        pairs.append((Fraction(N), z))
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(y1 - y2, x2 - x1)
        if slope > N:
            raise PrecisionInsufficient(
                f"polygon slope {slope} exceeds the p-adic precision {N}")
        pairs.append((slope, x2 - x1))
    ms = SlopeMultiset.from_pairs(pairs)
    if c.frobenius_shift:
        ms = ms.shift(c.frobenius_shift)
    return ms


# -- internal hom with a Tate twist ------------------------------------------


def _adjugate(rows):
    """(adj, det) of a square integer matrix given as rows: A adj = det I,
    with adj an n x n object array of Python integers.

    Cayley-Hamilton: if det(xI - A) = x^n + c1 x^(n-1) + ... + cn, then
    adj = (-1)^(n-1) (A^(n-1) + c1 A^(n-2) + ... + c(n-1) I) and
    det = (-1)^n cn, run by Horner's rule in n - 1 integer products.  The
    polynomial comes from the cycle fast path or division-free Berkowitz,
    not charpoly_int: DENSE_CHARPOLY_BUDGET bounds slopes, and would refuse
    dense F1 that hom_crystal inverts (rank 49 at 64 bits, 17 at 1024).
    """
    n = len(rows)
    coeffs = (_charpoly_generalized_permutation(rows)
              or _charpoly_berkowitz(rows))
    a = np.array(rows, dtype=object).reshape(n, n)
    adj = eye = np.identity(n, dtype=object)
    for c in coeffs[1:n]:
        adj = a @ adj + c * eye
    return (adj if n % 2 else -adj), (-1) ** n * coeffs[n]


def hom_crystal(c1: FCrystalPresentation, c2: FCrystalPresentation,
                twist: int) -> FCrystalPresentation:
    """Internal hom on r1*r2 basis vectors with Frobenius
    p^twist * (F1^(-T) kron F2), computed over the integers.

    With det F1 = p^v u, u a unit, F1^-1 = p^-v u^-1 adj F1.  If the twist
    leaves negative p-valuations, the stored matrix is scaled p-integral
    and the deficit is recorded in frobenius_shift, so slope arithmetic
    still reports twist + s2 - s1.
    """
    if c1.context != c2.context:
        raise ContextMismatch("hom_crystal requires a shared context")
    if not (c1.is_constant() and c2.is_constant()):
        raise NotConstant("hom_crystal requires constant presentations")
    ctx = c1.context
    p, mod = ctx.p, ctx.modulus
    r2 = c2.rank
    n = c1.rank * r2
    adj, det = _adjugate(c1.frobenius.constant_layer())
    if det == 0:
        raise NonInvertible("zero determinant at the working precision")
    v = p_valuation(det, p)
    kron = np.kron(adj.T, np.array(c2.frobenius.constant_layer(), dtype=object
                                   ).reshape(r2, r2))
    shift = min([0] + [twist - v + p_valuation(x, p) for x in kron.flat if x])
    e = twist - v - shift  # when negative, p^-e divides every entry
    scaled = kron * p ** e if e >= 0 else kron // p ** -e
    arr = zeros_array(ctx, n, n)
    arr[:, :, 0] = scaled * pow(det // p ** v, -1, mod) % mod
    z = SeriesMatrix.zeros(ctx, n, n)
    return FCrystalPresentation(ctx, n, SeriesMatrix(ctx, arr), z, z, 0, shift)


# -- orthogonal complements ---------------------------------------------------


@dataclass(frozen=True)
class ComplementResult:
    presentation: FCrystalPresentation
    basis: SeriesMatrix  # columns are ambient coordinates of the new basis
    free_rows: tuple


def induced_maps(frobenius: SeriesMatrix, connection: SeriesMatrix,
                 basis: SeriesMatrix, pivot_rows) -> tuple:
    """(f, a): the Frobenius and connection induced on the span of the basis
    columns, read off pivot_rows, where the basis is the identity (in order).

    Both closure equations are verified (the connection through degree
    M-1), raising NotStable when the span is not preserved; the connection
    comes back truncated to degree M-1.  They hold by construction on a
    pivot row where the basis is the identity, so only the other rows are
    checked, or all when the maps and pivots do not fit the basis.
    """
    ctx = basis.context
    pivot_rows = list(pivot_rows)
    rhs_f = frobenius @ basis.phi_pullback()
    f = SeriesMatrix(ctx, rhs_f.arr[pivot_rows])
    rows = slice(None)
    if len(pivot_rows) == basis.cols and \
            frobenius.rows == connection.rows == basis.rows:
        lead = basis.arr[pivot_rows, :, 0] == np.eye(basis.cols, dtype=int)
        exact = lead.all(axis=1) & (basis.is_constant() or
                                    ~basis.arr[pivot_rows, :, 1:].any(axis=(1, 2)))
        rows = np.delete(np.arange(basis.rows),
                         np.array(pivot_rows, dtype=int)[exact])
    part = SeriesMatrix(ctx, basis.arr[rows])
    if part @ f != SeriesMatrix(ctx, rhs_f.arr[rows]):
        raise NotStable("span is not Frobenius-stable")
    del rhs_f
    rhs_a = connection @ basis
    if not basis.is_constant():
        rhs_a = basis.derivative_bodies() + rhs_a
    a = rhs_a.arr[pivot_rows]
    a[..., max(ctx.M, 1):] = 0  # the check reads no degree M
    a = SeriesMatrix(ctx, a)
    if not (part @ a - SeriesMatrix(ctx, rhs_a.arr[rows])
            ).is_zero_through(ctx.M - 1):
        raise NotStable("span is not connection-stable")
    return f, a


def induced_subpresentation(c: FCrystalPresentation, basis: SeriesMatrix,
                            free_rows) -> FCrystalPresentation:
    """Presentation induced on the span of basis columns (``induced_maps``),
    with the restricted pairing."""
    f, a = induced_maps(c.frobenius, c.connection, basis, free_rows)
    return FCrystalPresentation(c.context, basis.cols, f, a,
                                basis.transpose() @ c.pairing @ basis,
                                c.weight, c.frobenius_shift)


def annihilator_basis(b: SeriesMatrix):
    """(basis, free_cols): the solutions of b x = 0, for a d x rank matrix b
    of rank d mod p, with basis rows free_cols the identity.

    Each elimination step scales the pivot row by the pivot's inverse and
    clears the pivot column with one d x 1 by 1 x rank outer product.  The
    pivot has the least p-valuation of the constant term, then the lowest
    row, then column; the rank leaves a unit among the unused rows and
    columns, so that is the first unit in row-major order.
    """
    ctx = b.context
    d, rank = b.rows, b.cols
    pivot_rows, pivot_cols = [], []
    for _ in range(d):
        units = b.arr[:, :, 0] % ctx.p != 0
        units[pivot_rows, :] = False
        units[:, pivot_cols] = False
        pi, pj = (int(x) for x in np.argwhere(units)[0])
        pivot_row = SeriesMatrix(ctx, b.arr[pi:pi + 1])
        row = series_inverse(SeriesMatrix(ctx, pivot_row.arr[:, pj:pj + 1])) \
            @ pivot_row
        # b[pi] - (b[pi][pj] - 1) row = row, and b[i] - b[i][pj] row clears
        col = b.arr[:, pj:pj + 1].copy()
        col[pi, 0, 0] = (col[pi, 0, 0] - 1) % ctx.modulus
        b = b - SeriesMatrix(ctx, col) @ row
        pivot_rows.append(pi)
        pivot_cols.append(pj)
    free_cols = [j for j in range(rank) if j not in pivot_cols]
    arr = zeros_array(ctx, rank, len(free_cols))
    arr[free_cols, range(len(free_cols)), 0] = 1
    arr[pivot_cols] = (-b).arr[np.ix_(pivot_rows, free_cols)]
    return SeriesMatrix(ctx, arr), free_cols


def orthogonal_complement(c: FCrystalPresentation, subspace) -> ComplementResult:
    """Perpendicular of the span of the given coordinate vectors (each a
    sequence of rank series or integers).

    Requires the pairing restricted to the subspace to be perfect (unit
    Gram determinant), and solves the annihilator equations with
    ``annihilator_basis``.
    """
    ctx = c.context
    subspace = list(subspace)
    if any(len(vec) != c.rank for vec in subspace):
        raise ValueError("subspace vector has wrong length")
    if not subspace or not c.rank:
        basis = SeriesMatrix.identity(ctx, c.rank)
        return ComplementResult(c, basis, tuple(range(c.rank)))
    st = SeriesMatrix.from_series_rows(ctx, subspace)  # the vectors as rows
    gram = st @ c.pairing @ st.transpose()
    if det_mod_p(gram.constant_layer(), ctx.p) == 0:
        raise NotPerfect("pairing restricted to the subspace is degenerate")
    basis, free_cols = annihilator_basis(st @ c.pairing)
    pres = induced_subpresentation(c, basis, free_cols)
    return ComplementResult(pres, basis, tuple(free_cols))
