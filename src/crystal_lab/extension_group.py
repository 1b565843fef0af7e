"""The group of extensions of the slope-(>1) crystal by the slope-(<1) one.

An extension is canonicalized by the triple (xi, v, m) of h x h matrices
describing, in the fixed frame, the connection, the Frobenius defect and
the pairing of a chosen lift of the top basis.  Indexing is 0-based with
wrap-around mod h; index h-1 is the cycle-closing position that carries the
extra power of p.  The three Baer-sum routes (componentwise, pullback then
pushout, pushout then pullback) must agree entrywise; the diagram routes
materialize the intermediate rank-3h module with explicit section choices
and serve as the oracle for the componentwise rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .crystal import (FCrystalPresentation, STANDARD_WEIGHT, direct_sum,
                      make_standard_crystal)
from .errors import (ContextMismatch, HypothesisMissing, InvalidExtension,
                     NonIntegrable, NotStable, PrecisionInsufficient,
                     WitnessInvalid)
from .padic_series import PrecisionContext, integrate, mul_mod
from .series_matrix import SeriesMatrix, zeros_array


@lru_cache(maxsize=None)
def _standard(ctx: PrecisionContext, h: int, kind: str) -> FCrystalPresentation:
    return make_standard_crystal(ctx, h, kind)


@dataclass(frozen=True)
class ExtensionContext:
    """Fixes the two ends of the extensions: the height and the precisions."""

    ctx: PrecisionContext
    h: int

    def __post_init__(self):
        _standard(self.ctx, self.h, "sub1")  # validates the height range

    @property
    def sub1(self) -> FCrystalPresentation:
        return _standard(self.ctx, self.h, "sub1")

    @property
    def super1(self) -> FCrystalPresentation:
        return _standard(self.ctx, self.h, "super1")

    @property
    def pair(self) -> FCrystalPresentation:
        return _standard(self.ctx, self.h, "pair")


class ExtensionData:
    """Canonical data (xi, v, m) of an extension in the fixed frame.

    xi[i][j] is the one-form body of the connection defect, v[i][j] the
    Frobenius defect (constrained to the t-ideal), m[i][j] the half-pairing
    of the lifted basis; m is symmetric.  geometric_flag asserts the
    rank-1-mod-p Frobenius condition: v columns 1..h-1 vanish mod p.

    Equality compares the data only, never the flag.  Deep consistency
    (the assembled rank-2h crystal passing both checkers) is a checkable
    invariant exercised by the test suite, not revalidated per construction.
    """

    __slots__ = ("ectx", "xi", "v", "m", "geometric_flag")

    def __init__(self, ectx: ExtensionContext, xi: SeriesMatrix, v: SeriesMatrix,
                 m: SeriesMatrix, geometric_flag: bool = False):
        h = ectx.h
        for name, mat in (("xi", xi), ("v", v), ("m", m)):
            if mat.rows != h or mat.cols != h:
                raise InvalidExtension(f"{name} must be {h}x{h}")
            if mat.context != ectx.ctx:
                raise ContextMismatch(f"{name} context differs")
        if v.arr[:, :, 0].any():
            raise InvalidExtension("v entries must lie in the t-ideal")
        if m != m.transpose():
            raise InvalidExtension("m must be symmetric")
        if geometric_flag and h > 1:
            if (v.arr[:, 1:, :] % ectx.ctx.p).any():
                raise InvalidExtension(
                    "geometric flag asserts v columns 2..h vanish mod p")
        self.ectx = ectx
        self.xi = xi
        self.v = v
        self.m = m
        self.geometric_flag = geometric_flag

    @property
    def context(self) -> PrecisionContext:
        return self.ectx.ctx

    @property
    def h(self) -> int:
        return self.ectx.h

    @classmethod
    def zero(cls, ectx: ExtensionContext) -> "ExtensionData":
        z = SeriesMatrix.zeros(ectx.ctx, ectx.h, ectx.h)
        return cls(ectx, z, z, z, geometric_flag=True)

    def is_zero(self) -> bool:
        return self.xi.is_zero() and self.v.is_zero() and self.m.is_zero()

    def mark_geometric(self) -> "ExtensionData":
        return ExtensionData(self.ectx, self.xi, self.v, self.m,
                             geometric_flag=True)

    def reduce_precision(self, new_n: int) -> "ExtensionData":
        if new_n == self.context.N:
            return self
        ectx2 = ExtensionContext(self.context.reduce_precision(new_n), self.h)
        return ExtensionData(ectx2, self.xi.reduce_precision(new_n),
                             self.v.reduce_precision(new_n),
                             self.m.reduce_precision(new_n),
                             self.geometric_flag)

    def __eq__(self, other):
        if not isinstance(other, ExtensionData):
            return NotImplemented
        return (self.ectx == other.ectx and self.xi == other.xi
                and self.v == other.v and self.m == other.m)

    def __hash__(self):
        return hash((self.ectx, self.xi, self.v, self.m))


class TrivializationWitness:
    """A splitting of an extension: the matrix of t-ideal series expressing
    the split lift in terms of the canonical one."""

    __slots__ = ("ectx", "alpha")

    def __init__(self, ectx: ExtensionContext, alpha: SeriesMatrix):
        if alpha.rows != ectx.h or alpha.cols != ectx.h:
            raise InvalidExtension(f"alpha must be {ectx.h}x{ectx.h}")
        if alpha.context != ectx.ctx:
            raise ContextMismatch("alpha context differs")
        if alpha.arr[:, :, 0].any():
            raise InvalidExtension("alpha entries must lie in the t-ideal")
        self.ectx = ectx
        self.alpha = alpha

    @property
    def context(self) -> PrecisionContext:
        return self.ectx.ctx

    @property
    def h(self) -> int:
        return self.ectx.h

    def __eq__(self, other):
        if not isinstance(other, TrivializationWitness):
            return NotImplemented
        return self.ectx == other.ectx and self.alpha == other.alpha

    def __hash__(self):
        return hash((self.ectx, self.alpha))


@dataclass(frozen=True)
class Untrivializable:
    """Returned by trivialize when no witness exists; names the first
    failing equation."""

    equation: str
    index: tuple
    reason: str


# -- the closed formulas of the fixed frame -----------------------------------


def _v_from_alpha(alpha: SeriesMatrix) -> SeriesMatrix:
    """Frobenius defect of the basis change by alpha:
    v[i][j] = p^(1-[j=0]) phi*(alpha[i][j-1]) - p^(1+[i=h-1]) alpha[i+1][j],
    indices mod h."""
    ctx = alpha.context
    p = ctx.p
    term1 = np.roll(alpha.phi_pullback().arr, 1, axis=1)
    term1[:, 1:, :] = mul_mod(term1[:, 1:, :], p, ctx)
    term2 = np.roll(alpha.arr, -1, axis=0)
    term2[:-1] = mul_mod(term2[:-1], p, ctx)
    term2[-1] = mul_mod(term2[-1], p * p, ctx)
    return SeriesMatrix(ctx, (term1 - term2) % ctx.modulus)


def _m_from_alpha(alpha: SeriesMatrix) -> SeriesMatrix:
    """Half-pairing of the changed basis: m[i][j] = alpha[i][j] + alpha[j][i]
    off the diagonal, m[i][i] = alpha[i][i]."""
    arr = (alpha.arr + alpha.transpose().arr) % alpha.context.modulus
    h = alpha.rows
    out = arr.copy()
    for i in range(h):
        out[i, i, :] = alpha.arr[i, i, :]
    return SeriesMatrix(alpha.context, out)


def from_alpha(w: TrivializationWitness, ectx: ExtensionContext | None = None
               ) -> ExtensionData:
    """Extension data of the trivial extension presented through the basis
    change recorded in the witness."""
    if ectx is None:
        ectx = w.ectx
    elif ectx != w.ectx:
        raise ContextMismatch("witness context differs from extension context")
    xi = w.alpha.derivative_bodies()
    return ExtensionData(ectx, xi, _v_from_alpha(w.alpha), _m_from_alpha(w.alpha))


def assemble_crystal(e: ExtensionData) -> FCrystalPresentation:
    """Rank-2h presentation of the total space in the frame (a_*, c_*)."""
    ectx = e.ectx
    ctx = ectx.ctx
    h = e.h
    z = SeriesMatrix.zeros(ctx, h, h)
    ident = SeriesMatrix.identity(ctx, h)
    f = SeriesMatrix.block(ctx, [[ectx.sub1.frobenius, e.v.transpose()],
                                 [z, ectx.super1.frobenius]])
    conn = SeriesMatrix.block(ctx, [[z, e.xi.transpose()], [z, z]])
    d_arr = e.m.arr.copy()
    for i in range(h):
        d_arr[i, i, :] = (2 * d_arr[i, i, :]) % ctx.modulus
    d_block = SeriesMatrix(ctx, d_arr)
    g = SeriesMatrix.block(ctx, [[z, ident], [ident, d_block]])
    return FCrystalPresentation(ctx, 2 * h, f, conn, g, STANDARD_WEIGHT)


# -- Baer sum, three ways ------------------------------------------------------


def _readout(ectx: ExtensionContext, f_fin: SeriesMatrix, a_fin: SeriesMatrix,
             g_fin: SeriesMatrix, flag: bool) -> ExtensionData:
    """Recognize a rank-2h presentation in the canonical frame and extract
    its (xi, v, m)."""
    ctx = ectx.ctx
    h = ectx.h
    mod = ctx.modulus

    def sub(mat, r0, r1, c0, c1):
        return SeriesMatrix(ctx, np.ascontiguousarray(mat.arr[r0:r1, c0:c1, :]))

    if sub(f_fin, 0, h, 0, h) != ectx.sub1.frobenius \
            or f_fin.arr[h:, :h, :].any() \
            or sub(f_fin, h, 2 * h, h, 2 * h) != ectx.super1.frobenius:
        raise NotStable("Baer-sum output does not reduce to the standard frame")
    v = sub(f_fin, 0, h, h, 2 * h).transpose()

    if a_fin.arr[:, :h, :].any() or a_fin.arr[h:, h:, :].any():
        raise NotStable("Baer-sum connection does not reduce to the standard frame")
    xi = sub(a_fin, 0, h, h, 2 * h).transpose()

    if g_fin.arr[:h, :h, :].any() \
            or sub(g_fin, 0, h, h, 2 * h) != SeriesMatrix.identity(ctx, h) \
            or sub(g_fin, h, 2 * h, 0, h) != SeriesMatrix.identity(ctx, h):
        raise NotStable("Baer-sum pairing does not reduce to the standard frame")
    m_arr = g_fin.arr[h:, h:, :].copy()
    diag = np.arange(h)
    m_arr[diag, diag, :] = mul_mod(m_arr[diag, diag, :], pow(2, -1, mod), ctx)
    m = SeriesMatrix(ctx, m_arr)
    return ExtensionData(ectx, xi, v, m, geometric_flag=flag)


def _const(ctx, rows, cols, ones, minus=()):
    arr = zeros_array(ctx, rows, cols)
    for (i, j) in ones:
        arr[i, j, 0] = 1
    for (i, j) in minus:
        arr[i, j, 0] = ctx.modulus - 1
    return SeriesMatrix(ctx, arr)


def _solve_in_basis(basis: SeriesMatrix, rhs: SeriesMatrix, pivot_rows,
                    oneform: bool) -> SeriesMatrix:
    """Coordinates of rhs columns in the span of basis columns, where basis
    restricted to pivot_rows (in order) is the identity; verifies membership."""
    x = rhs.select_rows(pivot_rows)
    check = basis @ x
    ok = (check - rhs).is_zero_through(basis.context.M - 1) if oneform \
        else check == rhs
    if not ok:
        raise NotStable("intermediate module is not closed under the structure maps")
    return x


def _baer_diagram(e1: ExtensionData, e2: ExtensionData, pullback_first: bool
                  ) -> ExtensionData:
    ectx = e1.ectx
    ctx = ectx.ctx
    h = ectx.h
    amb = direct_sum(assemble_crystal(e1), assemble_crystal(e2))
    # ambient coordinates: (a1: 0..h-1, c1: h..2h-1, a2: 2h..3h-1, c2: 3h..4h-1)
    f_amb, a_amb, g_amb = amb.frobenius, amb.connection, amb.pairing
    lift = _const(ctx, 4 * h, 2 * h,
                  ones=[(i, i) for i in range(h)]
                  + [(h + i, h + i) for i in range(h)]
                  + [(3 * h + i, h + i) for i in range(h)])
    flag = e1.geometric_flag and e2.geometric_flag

    if pullback_first:
        # pull back along the diagonal: basis (a1, a2, d_i = c1_i + c2_i)
        pb = _const(ctx, 4 * h, 3 * h,
                    ones=[(i, i) for i in range(h)]
                    + [(2 * h + i, h + i) for i in range(h)]
                    + [(h + i, 2 * h + i) for i in range(h)]
                    + [(3 * h + i, 2 * h + i) for i in range(h)])
        pivot_rows = list(range(h)) + list(range(2 * h, 3 * h)) \
            + list(range(h, 2 * h))
        f_sub = _solve_in_basis(pb, f_amb @ pb.phi_pullback(), pivot_rows, False)
        a_sub = _solve_in_basis(pb, pb.derivative_bodies() + a_amb @ pb,
                                pivot_rows, True)
        # push out along the sum: quotient by span{a1_i - a2_i}
        kernel = _const(ctx, 3 * h, h, ones=[(i, i) for i in range(h)],
                        minus=[(h + i, i) for i in range(h)])
        proj = _const(ctx, 2 * h, 3 * h,
                      ones=[(i, i) for i in range(h)]
                      + [(i, h + i) for i in range(h)]
                      + [(h + i, 2 * h + i) for i in range(h)])
        section = _const(ctx, 3 * h, 2 * h,
                         ones=[(i, i) for i in range(h)]
                         + [(2 * h + i, h + i) for i in range(h)])
        if not (proj @ (f_sub @ kernel.phi_pullback())).is_zero():
            raise NotStable("pushout kernel is not Frobenius-stable")
        if not (proj @ (a_sub @ kernel)).is_zero_through(ctx.M - 1):
            raise NotStable("pushout kernel is not connection-stable")
        f_fin = proj @ (f_sub @ section.phi_pullback())
        a_fin = proj @ (a_sub @ section)
    else:
        # push out first: quotient of the direct sum by span{a1_i - a2_i},
        # basis (abar, c1, c2) with the zero-second-component section
        proj = _const(ctx, 3 * h, 4 * h,
                      ones=[(i, i) for i in range(h)]
                      + [(i, 2 * h + i) for i in range(h)]
                      + [(h + i, h + i) for i in range(h)]
                      + [(2 * h + i, 3 * h + i) for i in range(h)])
        section = _const(ctx, 4 * h, 3 * h,
                         ones=[(i, i) for i in range(h)]
                         + [(h + i, h + i) for i in range(h)]
                         + [(3 * h + i, 2 * h + i) for i in range(h)])
        kernel = _const(ctx, 4 * h, h, ones=[(i, i) for i in range(h)],
                        minus=[(2 * h + i, i) for i in range(h)])
        if not (proj @ (f_amb @ kernel.phi_pullback())).is_zero():
            raise NotStable("pushout kernel is not Frobenius-stable")
        if not (proj @ (a_amb @ kernel)).is_zero_through(ctx.M - 1):
            raise NotStable("pushout kernel is not connection-stable")
        f_quot = proj @ (f_amb @ section.phi_pullback())
        a_quot = proj @ (a_amb @ section)
        # pull back along the diagonal: basis (abar, e_i = c1_i + c2_i)
        pb = _const(ctx, 3 * h, 2 * h,
                    ones=[(i, i) for i in range(h)]
                    + [(h + i, h + i) for i in range(h)]
                    + [(2 * h + i, h + i) for i in range(h)])
        pivot_rows = list(range(2 * h))
        f_fin = _solve_in_basis(pb, f_quot @ pb.phi_pullback(), pivot_rows, False)
        a_fin = _solve_in_basis(pb, pb.derivative_bodies() + a_quot @ pb,
                                pivot_rows, True)

    # the pairing descends only through the normalized representatives in
    # the ambient direct sum; both routes share the same lifts
    g_fin = lift.transpose() @ g_amb @ lift
    a_fin = a_fin.truncate_degree(ctx.M - 1) if ctx.M >= 1 else a_fin
    return _readout(ectx, f_fin, a_fin, g_fin, flag)


BAER_MODES = ("fast", "pullback_pushout", "pushout_pullback")


def baer_sum(e1: ExtensionData, e2: ExtensionData, mode: str = "fast"
             ) -> ExtensionData:
    """Group law on extension data.

    fast adds componentwise; the two diagram modes construct the rank-3h
    intermediate (in either order) and read the result off the induced
    basis.  All three agree entrywise.
    """
    if e1.ectx != e2.ectx:
        raise ContextMismatch("extensions live over different contexts")
    if mode == "fast":
        return ExtensionData(e1.ectx, e1.xi + e2.xi, e1.v + e2.v, e1.m + e2.m,
                             e1.geometric_flag and e2.geometric_flag)
    if mode == "pullback_pushout":
        return _baer_diagram(e1, e2, pullback_first=True)
    if mode == "pushout_pullback":
        return _baer_diagram(e1, e2, pullback_first=False)
    raise ValueError(f"unknown mode {mode!r}")


def int_scale(e: ExtensionData, n: int) -> ExtensionData:
    """Integer scaling of the data; agrees with the n-fold Baer sum."""
    return ExtensionData(e.ectx, e.xi.scale_int(n), e.v.scale_int(n),
                         e.m.scale_int(n), e.geometric_flag)


# -- trivialization -------------------------------------------------------------


def trivialize(e: ExtensionData):
    """Search for a splitting: antidifferentiate the connection defect, then
    verify the Frobenius and pairing equations at the post-integration
    precision.  Returns a TrivializationWitness or an Untrivializable value
    naming the first failing equation, and within it the first failing
    entry in row-major order.
    """
    try:
        alpha = integrate(e.xi)
    except NonIntegrable as exc:
        i, j = exc.index
        return Untrivializable(
            "xi", (i, j),
            f"connection defect ({i},{j}) is not integrable at body "
            f"degree {exc.degree}")
    n = alpha.context.N
    for name, expect, given, what in (("v", _v_from_alpha, e.v, "Frobenius"),
                                      ("m", _m_from_alpha, e.m, "pairing")):
        wrong = (expect(alpha).arr != given.reduce_precision(n).arr).any(axis=2)
        if wrong.any():
            i, j = (int(x) for x in np.argwhere(wrong)[0])
            return Untrivializable(name, (i, j),
                                   f"{what} equation ({i},{j}) fails")
    return TrivializationWitness(ExtensionContext(alpha.context, e.h), alpha)


# -- the p-torsion certification chain ------------------------------------------


@dataclass(frozen=True)
class TraceStep:
    label: str
    statement: str
    ok: bool


@dataclass(frozen=True)
class TorsionCertificate:
    beta: TrivializationWitness
    trace: tuple
    precision: int


@dataclass(frozen=True)
class Refuted:
    step: str
    detail: str


def _divide_matrix_by_p(mat: SeriesMatrix) -> SeriesMatrix:
    """Exact division by p of a matrix all of whose residues are divisible
    by p; the quotient lives one p-digit lower."""
    ctx = mat.context
    new_ctx = PrecisionContext(ctx.p, ctx.N - 1, ctx.M)
    return SeriesMatrix(new_ctx, (mat.arr // ctx.p) % new_ctx.modulus)


def _congruence_chain(h: int, zero: np.ndarray, sym: np.ndarray):
    """The congruence steps of the torsion chain in order, as (label,
    statement, ok, failure), from the masks of witness entries (zero) and
    of symmetric sums (sym) that vanish mod p."""
    for i in range(h):
        yield (f"diag({i})",
               f"witness entry ({i},{i}) = p * m[{i}][{i}] vanishes mod p",
               zero[i, i], "diagonal congruence fails")
    for i in range(h):
        for j in range(i + 1, h):
            yield (f"sym({i},{j})",
                   f"witness entries ({i},{j}) + ({j},{i}) = p * m[{i}][{j}] "
                   "vanish mod p", sym[i, j], "symmetry congruence fails")
    for i in range(h):
        yield (f"col-last({i})",
               f"witness entry ({i},{h - 1}) vanishes mod p (pullback "
               "faithfulness applied to the first Frobenius column)",
               zero[i, h - 1], "last-column congruence fails")
    for j in range(h - 2, -1, -1):
        for i in range(h):
            yield (f"descend({i},{j})",
                   f"witness entry ({i},{j}) vanishes mod p by downward "
                   f"column induction from column {j + 1}",
                   zero[i, j], "column induction fails")


def p_torsion_check(e: ExtensionData, w: TrivializationWitness):
    """Certify that an extension with trivial p-multiple is itself trivial.

    Consumes a witness for p*e, verifies its defining equations, replays the
    congruence chain showing every witness entry vanishes mod p, divides,
    and confirms the quotient trivializes e at one fewer p-digit.  Returns a
    TorsionCertificate, or Refuted at the first congruence the data fails
    (which indicates corrupted input).
    """
    if not e.geometric_flag:
        raise HypothesisMissing(
            "p_torsion_check requires the rank-1-mod-p hypothesis "
            "(geometric_flag)")
    ctx = e.context
    h = e.h
    p = ctx.p
    nc = min(ctx.N, w.context.N)
    if nc < 2:
        raise PrecisionInsufficient("need at least two p-digits to divide")
    pe = int_scale(e, p).reduce_precision(nc)
    alpha = w.alpha.reduce_precision(nc)

    if not (alpha.derivative_bodies() - pe.xi).is_zero_through(ctx.M - 1):
        raise WitnessInvalid("witness fails the connection equations for p*e")
    if _v_from_alpha(alpha) != pe.v:
        raise WitnessInvalid("witness fails the Frobenius equations for p*e")
    if _m_from_alpha(alpha) != pe.m:
        raise WitnessInvalid("witness fails the pairing equations for p*e")

    trace = []
    # hypothesis: v columns 2..h of e vanish mod p (rank-1-mod-p Frobenius)
    hyp_ok = not (e.v.arr[:, 1:, :] % p).any() if h > 1 else True
    trace.append(TraceStep("eq5-hypothesis",
                           "v columns 2..h of the extension vanish mod p",
                           hyp_ok))
    if not hyp_ok:
        return Refuted("eq5-hypothesis", "rank-1-mod-p condition fails on v")

    # entry (i, j) vanishes mod p; (i, j) + (j, i) vanishes mod p
    zero = ~(alpha.arr % p).any(axis=2)
    sym = ~((alpha.arr + alpha.arr.transpose(1, 0, 2)) % p).any(axis=2)
    for label, statement, ok, failure in _congruence_chain(h, zero, sym):
        trace.append(TraceStep(label, statement, bool(ok)))
        if not ok:
            return Refuted(label, failure)

    beta_mat = _divide_matrix_by_p(alpha)
    beta_ctx = beta_mat.context
    beta = TrivializationWitness(ExtensionContext(beta_ctx, h), beta_mat)

    nb = beta_ctx.N
    e_red = e.reduce_precision(nb)
    ok = (beta_mat.derivative_bodies() - e_red.xi).is_zero_through(ctx.M - 1) \
        and _v_from_alpha(beta_mat) == e_red.v \
        and _m_from_alpha(beta_mat) == e_red.m
    trace.append(TraceStep("beta-verification",
                           f"the divided witness trivializes the extension "
                           f"at precision {nb}", ok))
    if not ok:
        return Refuted("beta-verification",
                       "divided witness does not trivialize the extension")
    return TorsionCertificate(beta, tuple(trace), nb)
