"""The group of extensions of the slope-(>1) crystal by the slope-(<1) one.

An extension is canonicalized by the triple (xi, v, m) of h x h matrices
describing, in the fixed frame, the connection, the Frobenius defect and
the pairing of a chosen lift of the top basis.  Indexing is 0-based with
wrap-around mod h; index h-1 is the cycle-closing position that carries the
extra power of p.  Two rules are stated once: ``_frame`` places the
triple in the rank-2h frame of the standard pair (``assemble_crystal`` sets
its blocks, ``_readout`` reads them back), and ``from_alpha`` states the
witness equations.  The three Baer-sum routes (componentwise, pullback then
pushout, pushout then pullback) must agree entrywise; the diagram routes
materialize the intermediate rank-3h module with explicit section choices
and serve as the oracle for the componentwise rule.  Each diagram writes
its own rank-4h ambient: two standard pairs, framed (``_assembled``).
A pullback step reads the induced maps off a sub-span, checking closure
off its pivot rows (``crystal.induced_maps``), a pushout step off a
quotient (``_pushout``); the constant maps are +-identity blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .crystal import (FCrystalPresentation, _check_height, induced_maps,
                      make_standard_crystal)
from .errors import (ContextMismatch, HypothesisMissing, InvalidExtension,
                     NotStable, PrecisionInsufficient, WitnessInvalid)
from .padic_series import (PrecisionContext, _divisibility,
                           _integration_tables, integrate, mul_mod, reduce_mod,
                           residues)
from .series_matrix import SeriesMatrix, zeros_array


@dataclass(frozen=True)
class ExtensionContext:
    """Fixes the two ends of the extensions: the height and the precisions.

    It owns what these determine, each built on first use and freed with
    it: the standard crystals sub1, super1 and pair, and the block maps of
    the Baer diagrams.  Equality, hash and repr read (ctx, h) only."""

    ctx: PrecisionContext
    h: int

    def __post_init__(self):
        _check_height(self.h)

    @cached_property
    def sub1(self) -> FCrystalPresentation:
        return make_standard_crystal(self.ctx, self.h, "sub1")

    @cached_property
    def super1(self) -> FCrystalPresentation:
        return make_standard_crystal(self.ctx, self.h, "super1")

    @cached_property
    def pair(self) -> FCrystalPresentation:
        return make_standard_crystal(self.ctx, self.h, "pair")

    def _block_map(self, pattern: tuple) -> SeriesMatrix:
        """``_blocks`` of the pattern, built once: every caller shares the
        read-only matrix and its constant flag."""
        maps = self.__dict__.setdefault("_block_maps", {})
        if pattern not in maps:
            maps[pattern] = _blocks(self.ctx, self.h, pattern)
        return maps[pattern]


def _derived(cls, *values):
    """The record of the frozen dataclass cls with the given field values,
    built without running ``__post_init__``.

    For results computed inside the package from records that were already
    checked, by an operation that keeps every checked condition; each call
    site says in a comment why the conditions hold.  The test suite routes
    every call through ``cls(*values)``, so each of those claims is checked
    on every run.
    """
    record = object.__new__(cls)
    for name, value in zip(cls.__match_args__, values, strict=True):
        object.__setattr__(record, name, value)
    return record


def _check_matrix(name, mat, ctx, rows, cols) -> None:
    """The shape and the context every matrix field of a record must have."""
    if (mat.rows, mat.cols) != (rows, cols):
        raise InvalidExtension(f"{name} must be {rows}x{cols}")
    if mat.context != ctx:
        raise ContextMismatch(f"{name} context {mat.context} differs from {ctx}")


@dataclass(frozen=True, slots=True)
class ExtensionData:
    """Canonical data (xi, v, m) of an extension in the fixed frame.

    xi[i][j] is the one-form body of the connection defect, v[i][j] the
    Frobenius defect (constrained to the t-ideal), m[i][j] the half-pairing
    of the lifted basis; m is symmetric.  xi vanishes at degree M, which a
    one-form body cannot be trusted at.  geometric_flag asserts the
    rank-1-mod-p Frobenius condition: v columns 1..h-1 vanish mod p.

    Constructing a record checks all of these conditions.  The results of
    the group law, of scaling, of reduction and of ``from_alpha`` are
    derived from checked records by operations that keep them, and are
    built unchecked (``_derived``); ``mark_geometric`` checks only the
    condition it adds.

    Equality compares the data only, never the flag.  Deep consistency
    (the assembled rank-2h crystal passing both checkers) is a checkable
    invariant exercised by the test suite, not revalidated per construction.
    """

    ectx: ExtensionContext
    xi: SeriesMatrix
    v: SeriesMatrix
    m: SeriesMatrix
    geometric_flag: bool = field(default=False, compare=False)

    def __post_init__(self):
        xi, v, m = self.xi, self.v, self.m
        for name, mat in (("xi", xi), ("v", v), ("m", m)):
            _check_matrix(name, mat, self.context, self.h, self.h)
        if not xi.arr.shape[:-3] == v.arr.shape[:-3] == m.arr.shape[:-3]:
            raise ValueError("xi, v and m must hold the same samples")
        if v.arr[..., 0].any():
            raise InvalidExtension("v entries must lie in the t-ideal")
        if np.count_nonzero(xi.arr[..., -1]):
            raise InvalidExtension("xi entries must vanish at degree M")
        if m != m.transpose():
            raise InvalidExtension("m must be symmetric")
        if self.geometric_flag:
            self._check_geometric()

    def _check_geometric(self) -> None:
        if (self.v.arr[..., 1:, :] % self.ectx.ctx.p).any():
            raise InvalidExtension(
                "geometric flag asserts v columns 2..h vanish mod p")

    @property
    def context(self) -> PrecisionContext:
        return self.ectx.ctx

    @property
    def h(self) -> int:
        return self.ectx.h

    @classmethod
    def zero(cls, ectx: ExtensionContext) -> "ExtensionData":
        z = SeriesMatrix.zeros(ectx.ctx, ectx.h, ectx.h)
        # zero matrices of the context's shape meet every condition
        return _derived(cls, ectx, z, z, z, True)

    def is_zero(self) -> bool:
        return self.xi.is_zero() and self.v.is_zero() and self.m.is_zero()

    def mark_geometric(self) -> "ExtensionData":
        self._check_geometric()
        # self was checked when built, and the flag's condition just now
        return _derived(ExtensionData, self.ectx, self.xi, self.v, self.m,
                        True)

    def reduce_precision(self, new_n: int) -> "ExtensionData":
        if new_n == self.context.N:
            return self
        ectx2 = ExtensionContext(self.context.reduce_precision(new_n), self.h)
        # reduction mod p^n keeps the t-ideal, degree-M, symmetry and
        # mod-p conditions
        return _derived(ExtensionData, ectx2, self.xi.reduce_precision(new_n),
                        self.v.reduce_precision(new_n),
                        self.m.reduce_precision(new_n), self.geometric_flag)


@dataclass(frozen=True, slots=True)
class TrivializationWitness:
    """A splitting of an extension: the matrix of t-ideal series expressing
    the split lift in terms of the canonical one."""

    ectx: ExtensionContext
    alpha: SeriesMatrix

    def __post_init__(self):
        _check_matrix("alpha", self.alpha, self.context, self.h, self.h)
        if self.alpha.arr[..., 0].any():
            raise InvalidExtension("alpha entries must lie in the t-ideal")

    @property
    def context(self) -> PrecisionContext:
        return self.ectx.ctx

    @property
    def h(self) -> int:
        return self.ectx.h


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
    indices mod h.

    The terms are summed unreduced, in [-p^2 (p^N - 1), p (p^N - 1)], and
    reduced once: in int64 when (p^2 + 1)(p^N - 1) < 2^63, which reduce_mod
    takes, and otherwise in Python integers."""
    ctx = alpha.context
    p = ctx.p
    phi, a = alpha.phi_pullback().arr, alpha.arr
    if p * p + 1 > ctx.int64_scalar_max:
        phi, a = phi.astype(object), a.astype(object)
    v = np.empty_like(a)
    v[..., 0, :] = phi[..., -1, :]
    np.multiply(phi[..., :-1, :], p, out=v[..., 1:, :])
    v[..., :-1, :, :] -= a[..., 1:, :, :] * p
    v[..., -1, :, :] -= a[..., 0, :, :] * (p * p)
    return SeriesMatrix(ctx, residues(v, ctx))


def _m_from_alpha(alpha: SeriesMatrix) -> SeriesMatrix:
    """Half-pairing of the changed basis: m[i][j] = alpha[i][j] + alpha[j][i]
    off the diagonal, m[i][i] = alpha[i][i]."""
    arr = reduce_mod(alpha.arr + alpha.transpose().arr, alpha.context.modulus,
                     (0, 2))
    diag = np.arange(alpha.rows)
    arr[..., diag, diag, :] = alpha.arr[..., diag, diag, :]
    return SeriesMatrix(alpha.context, arr)


def from_alpha(w: TrivializationWitness) -> ExtensionData:
    """Extension data of the trivial extension presented through the basis
    change recorded in the witness: the one statement of the witness
    equations."""
    # a derivative has no degree-M body; alpha in the t-ideal puts v there,
    # and m = alpha + alpha^T off the diagonal is symmetric
    return _derived(ExtensionData, w.ectx, w.alpha.derivative_bodies(),
                    _v_from_alpha(w.alpha), _m_from_alpha(w.alpha), False)


def _frame(h: int) -> dict:
    """The one layout of extension data in the rank-2h frame (a_*, c_*):
    the block (rows, cols) of each presentation matrix that carries v^T
    (Frobenius), xi^T (connection) and the Gram block m + diag(m)
    (pairing).  Outside its block each matrix is that of the standard
    pair, the zero extension."""
    top, low = slice(h), slice(h, None)
    return {"frobenius": (top, low), "connection": (top, low),
            "pairing": (low, low)}


def _scale_diagonal(arr: np.ndarray, k: int, ctx: PrecisionContext
                    ) -> np.ndarray:
    """A copy of the h x h x (M+1) array with its diagonal times k."""
    arr = arr.copy()
    diag = np.arange(arr.shape[0])
    arr[diag, diag] = mul_mod(arr[diag, diag], k, ctx)
    return arr


def assemble_crystal(e: ExtensionData) -> FCrystalPresentation:
    """Rank-2h presentation of the total space: the standard pair with the
    data blocks of the frame set."""
    return replace(e.ectx.pair, **_assembled(e))


def _assembled(*es) -> dict:
    """The matrices of the direct sum of one standard pair per extension,
    with the data blocks of the frame of the k-th extension set in its k-th
    rank-2h diagonal block, by name in the frame's order."""
    ectx, n = es[0].ectx, 2 * es[0].h
    mats = {name: zeros_array(ectx.ctx, n * len(es), n * len(es))
            for name in _frame(ectx.h)}
    for k, e in enumerate(es):
        at = slice(n * k, n * (k + 1))
        for (name, block), data in zip(_frame(ectx.h).items(), (
                e.v.transpose().arr, e.xi.transpose().arr,
                _scale_diagonal(e.m.arr, 2, e.context))):
            mats[name][at, at] = getattr(ectx.pair, name).arr
            mats[name][at, at][block] = data
    return {name: SeriesMatrix(ectx.ctx, arr) for name, arr in mats.items()}


# -- Baer sum, three ways ------------------------------------------------------


def _readout(ectx: ExtensionContext, f_fin: SeriesMatrix, a_fin: SeriesMatrix,
             g_fin: SeriesMatrix, flag: bool) -> ExtensionData:
    """The inverse of ``assemble_crystal``: recognize a rank-2h presentation
    in the frame and extract its (xi, v, m)."""
    ctx = ectx.ctx
    data = {}
    for (name, block), mat, what in zip(_frame(ectx.h).items(),
                                        (f_fin, a_fin, g_fin),
                                        ("output", "connection", "pairing")):
        data[name] = SeriesMatrix(ctx, mat.arr[block])
        std = getattr(ectx.pair, name).arr
        if mat.arr.shape == std.shape:
            differs = mat.arr != std
            differs[block] = False
        if mat.arr.shape != std.shape or differs.any():
            raise NotStable(
                f"Baer-sum {what} does not reduce to the standard frame")
    m_arr = _scale_diagonal(data["pairing"].arr, pow(2, -1, ctx.modulus), ctx)
    return ExtensionData(ectx, data["connection"].transpose(),
                         data["frobenius"].transpose(),
                         SeriesMatrix(ctx, m_arr), geometric_flag=flag)


def _blocks(ctx: PrecisionContext, h: int, pattern: tuple) -> SeriesMatrix:
    """The constant matrix of h x h blocks given row by row: '+' is the
    identity block, '-' its negative and '0' the zero block."""
    arr = zeros_array(ctx, h * len(pattern), h * len(pattern[0]))
    diag = np.arange(h)
    for r, row in enumerate(pattern):
        for c, sign in enumerate(row):
            if sign != "0":
                arr[r * h + diag, c * h + diag, 0] = \
                    1 if sign == "+" else ctx.modulus - 1
    return SeriesMatrix(ctx, arr)


def _pushout(f: SeriesMatrix, a: SeriesMatrix, kernel: SeriesMatrix,
             proj: SeriesMatrix, section: SeriesMatrix) -> tuple:
    """Frobenius and connection induced on the quotient by the span of the
    kernel columns, in the basis of the section columns; proj maps onto the
    quotient coordinates.  Verifies that the kernel span is stable."""
    if not (proj @ (f @ kernel.phi_pullback())).is_zero():
        raise NotStable("pushout kernel is not Frobenius-stable")
    if not (proj @ (a @ kernel)).is_zero_through(f.context.M - 1):
        raise NotStable("pushout kernel is not connection-stable")
    return proj @ (f @ section.phi_pullback()), proj @ (a @ section)


def _baer_diagram(e1: ExtensionData, e2: ExtensionData, pullback_first: bool
                  ) -> ExtensionData:
    ectx, h, blocks = e1.ectx, e1.h, e1.ectx._block_map
    f, a, g = _assembled(e1, e2).values()
    # the pairing descends only through the normalized representatives in
    # the ambient direct sum; read first, it frees the ambient pairing
    g = blocks(("+000", "0+0+")) @ g @ blocks(("+0", "0+", "00", "0+"))
    # ambient coordinates, one h-block each: (a1, c1, a2, c2); both routes
    # push out along the sum, the quotient by span{a1_i - a2_i}, and pull
    # back along the diagonal, the span of c1_i + c2_i over the a-part
    if pullback_first:
        # basis (a1, a2, d_i = c1_i + c2_i), then the quotient (abar, d)
        f, a = induced_maps(f, a, blocks(("+00", "00+", "0+0", "00+")),
                            [*range(h), *range(2 * h, 3 * h), *range(h, 2 * h)])
        f, a = _pushout(f, a, blocks(("+", "-", "0")),
                        blocks(("++0", "00+")), blocks(("+0", "00", "0+")))
    else:
        # quotient basis (abar, c1, c2) with the zero-second-component
        # section, then the diagonal basis (abar, e_i = c1_i + c2_i)
        f, a = _pushout(f, a, blocks(("+", "0", "-", "0")),
                        blocks(("+0+0", "0+00", "000+")),
                        blocks(("+00", "0+0", "000", "00+")))
        f, a = induced_maps(f, a, blocks(("+0", "0+", "0+")), range(2 * h))
    return _readout(ectx, f, a, g, e1.geometric_flag and e2.geometric_flag)


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
        # sums keep the t-ideal, degree-M, symmetry and mod-p conditions
        return _derived(ExtensionData, e1.ectx, e1.xi + e2.xi, e1.v + e2.v,
                        e1.m + e2.m, e1.geometric_flag and e2.geometric_flag)
    if mode == "pullback_pushout":
        return _baer_diagram(e1, e2, pullback_first=True)
    if mode == "pushout_pullback":
        return _baer_diagram(e1, e2, pullback_first=False)
    raise ValueError(f"unknown mode {mode!r}")


def int_scale(e: ExtensionData, n: int) -> ExtensionData:
    """Integer scaling of the data; agrees with the n-fold Baer sum."""
    # integer multiples keep the t-ideal, degree-M, symmetry and mod-p
    # conditions
    return _derived(ExtensionData, e.ectx, e.xi.scale_int(n), e.v.scale_int(n),
                    e.m.scale_int(n), e.geometric_flag)


# -- trivialization -------------------------------------------------------------


def _stacked(arr: np.ndarray) -> np.ndarray:
    """arr with the sample axis: a record without it is one sample."""
    return arr if arr.ndim == 4 else arr[None]


def _differs(a: ExtensionData, b: ExtensionData, samples=slice(None)):
    """Per sample of a and field xi, v, m: whether it differs from b's."""
    return np.stack([
        (_stacked(getattr(a, f).arr) != _stacked(getattr(b, f).arr)[samples])
        .any(axis=(1, 2, 3)) for f in ("xi", "v", "m")], axis=1)


def trivialize(e: ExtensionData):
    """Search for a splitting: antidifferentiate the connection defect, then
    verify the Frobenius and pairing equations at the post-integration
    precision.  Returns a TrivializationWitness or an Untrivializable value
    naming the first failing equation, and within it the first failing
    entry in row-major order.

    A record with the sample axis gives a tuple with the outcome of each
    sample alone, over its own context.  Each sample's precision is decided
    here: the pass that finds the non-integrable samples gives every other
    one its loss, and the samples of one loss are integrated together, in
    order of their first sample.  So the first group to raise integrate's
    PrecisionInsufficient, the only error, holds the lowest sample that
    would raise it alone.
    """
    ctx, h = e.context, e.h
    xi, v, m = (_stacked(f.arr) for f in (e.xi, e.v, e.m))
    outcomes = [None] * len(xi)
    _, bad, lost = _divisibility(xi[..., :ctx.M], ctx)
    groups = {}
    for s, (fails, loss) in enumerate(zip(bad.any(axis=(1, 2, 3)),
                                          lost.tolist())):
        if fails:
            i, j, k = (int(x) for x in np.argwhere(bad[s])[0])
            outcomes[s] = Untrivializable(
                "xi", (i, j), f"connection defect ({i},{j}) is not integrable "
                f"at body degree {_integration_tables(ctx)[0][k]}")
        else:
            groups.setdefault(loss, []).append(s)
    for idx in groups.values():
        a = integrate(SeriesMatrix(ctx, xi[idx]))
        for name, expect, given, what in (("v", _v_from_alpha, v, "Frobenius"),
                                          ("m", _m_from_alpha, m, "pairing")):
            wrong = (expect(a).arr != SeriesMatrix(ctx, given[idx])
                     .reduce_precision(a.context.N).arr).any(axis=-1)
            for k in np.flatnonzero(wrong.any(axis=(1, 2))):
                if outcomes[idx[k]] is None:
                    i, j = (int(x) for x in np.argwhere(wrong[k])[0])
                    outcomes[idx[k]] = Untrivializable(
                        name, (i, j), f"{what} equation ({i},{j}) fails")
        wectx = e.ectx if a.context == ctx else ExtensionContext(a.context, h)
        for k, s in enumerate(idx):
            if outcomes[s] is None:
                # integrate's antiderivatives, over its context, have zero
                # constant term, so alpha lies in the t-ideal
                outcomes[s] = _derived(TrivializationWitness, wectx,
                                       SeriesMatrix(a.context, a.arr[k]))
    return tuple(outcomes) if e.xi.arr.ndim == 4 else outcomes[0]


# -- the p-torsion certification chain ------------------------------------------


@dataclass(frozen=True)
class TraceStep:
    label: str
    statement: str
    ok: bool


@dataclass(frozen=True)
class TorsionCertificate:
    """A certified torsion chain: beta trivializes the extension at the
    given precision.  A certificate exists only when every step of the
    chain held, so its trace, a function of h and the precision, is built
    when it is read."""

    beta: TrivializationWitness
    precision: int

    @property
    def trace(self) -> tuple:
        h = self.beta.h
        held = np.ones((h, h), dtype=bool)
        return (TraceStep("eq5-hypothesis",
                          "v columns 2..h of the extension vanish mod p", True),
                *(TraceStep(label, statement, bool(ok))
                  for label, statement, ok, _ in _congruence_chain(h, held, held)),
                TraceStep("beta-verification",
                          f"the divided witness trivializes the extension at "
                          f"precision {self.precision}", True))


@dataclass(frozen=True)
class Refuted:
    step: str
    detail: str


def _divide_matrix_by_p(mat: SeriesMatrix) -> SeriesMatrix:
    """Exact division by p of a matrix all of whose residues are divisible
    by p; the quotient lives one p-digit lower."""
    ctx = mat.context
    return SeriesMatrix(ctx, mat.arr // ctx.p).reduce_precision(ctx.N - 1)


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

    Records with the sample axis give a tuple with the outcome of each
    sample alone.  The flag and the precisions are shared, and
    WitnessInvalid names the first equation the lowest failing sample fails.
    """
    if e.xi.arr.shape[:-3] != w.alpha.arr.shape[:-3]:
        raise ValueError("the extension and the witness must hold the same "
                         "samples")
    if not e.geometric_flag:
        raise HypothesisMissing(
            "p_torsion_check requires the rank-1-mod-p hypothesis "
            "(geometric_flag)")
    ctx, h, p = e.context, e.h, e.context.p
    nc = min(ctx.N, w.context.N)
    if nc < 3:
        raise PrecisionInsufficient("need three p-digits: the quotient by p "
                                    "needs two")
    pe = int_scale(e, p).reduce_precision(nc)
    alpha = w.alpha.reduce_precision(nc)
    differs = _differs(from_alpha(TrivializationWitness(pe.ectx, alpha)), pe)
    if differs.any():
        what = ("connection", "Frobenius", "pairing")[np.argwhere(differs)[0][1]]
        raise WitnessInvalid(f"witness fails the {what} equations for p*e")

    # the eq5 hypothesis, the rank-1-mod-p Frobenius, holds: ExtensionData
    # checks it with the flag.  The chain tests every witness entry mod p,
    # and sums of entries that vanish mod p vanish too, so a step fails
    # exactly when some entry does not; the first failing step refutes
    a = _stacked(alpha.arr)
    zero = ~(a % p).any(axis=-1)
    outcomes = [None] * len(a)
    for s in np.flatnonzero(~zero.all(axis=(1, 2))):
        sym = ~((a[s] + a[s].transpose(1, 0, 2)) % p).any(axis=2)
        outcomes[s] = next(Refuted(label, failure) for label, _, ok, failure
                           in _congruence_chain(h, zero[s], sym) if not ok)

    ok = [s for s, outcome in enumerate(outcomes) if outcome is None]
    beta_mat = _divide_matrix_by_p(SeriesMatrix(alpha.context, a[ok]))
    beta_ctx = beta_mat.context
    # the quotient by p of t-ideal h x h matrices lies in the t-ideal
    beta = _derived(TrivializationWitness, ExtensionContext(beta_ctx, h),
                    beta_mat)

    nb = beta_ctx.N
    wrong = _differs(from_alpha(beta), e.reduce_precision(nb), ok).any(axis=1)
    for k, s in enumerate(ok):
        # one sample of the checked stack
        sample = _derived(TrivializationWitness, beta.ectx,
                          SeriesMatrix(beta_ctx, beta_mat.arr[k]))
        outcomes[s] = Refuted("beta-verification", "divided witness does not "
                              "trivialize the extension") if wrong[k] \
            else TorsionCertificate(sample, nb)
    return tuple(outcomes) if e.xi.arr.ndim == 4 else outcomes[0]
