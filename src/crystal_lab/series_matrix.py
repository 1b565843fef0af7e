"""Dense matrices over the truncated series ring: the one ring core.

Entries are stored as a single (rows, cols, M+1) array of canonical
residues in the storage dtype of the context (``padic_series.storage_dtype``):
numpy int64 when p^N < 2^62, Python integers in an object array otherwise.
The constructor rejects any other dtype or number of layers.  A matrix
holds at most MAX_COEFFICIENTS coefficients; ``zeros_array`` and ``@``
check this before they allocate.  A stack of samples of one shape and
context is an (S, rows, cols, M+1) array: the elementwise operations, the
calculus, ``transpose`` and the reductions act per sample; ``@`` and
``entry`` raise ValueError on it, and the constructors take none.

Every series operation but ``integrate`` runs on the 1x1 matrix of its
series, and the product here is the one product kernel.  It raises
ValueError, before any arithmetic, unless the inner dimensions agree.  The
kernel (``_product``) reads constancy off the layer count: a constant
operand comes as its degree-0 layer alone, and an operand of one layer,
when the other has more (or the left one of two), is the constant.  At
M=0 every matrix is constant, so ``@`` hands over its left operand's lift.
A product of Da by Db layers has min(Da, Db) degree pairs and max(Da, Db)
layers.  A product with a constant operand is not trimmed: a gather
touches only what its plan selects, and the two support scans would cost
more than the block maps of the Baer diagrams could save.  The balanced
lift of a constant matrix (below) is memoised on it, as the block maps are
shared by every product of a diagram.  A right operand known to be
constant takes its route without a scan of the left one: every route is
exact, so only the route of a constant left operand can change, and not
its result.

A product of two non-constant operands runs on its support: the inner
indices where a column of the left operand and the matching row of the
right one are both non-zero, and the rows and columns non-zero on those.
A trimmed operand that is constant takes a constant route.  Otherwise,
with A = A0 + A1 and B = B0 + B1 split into degree-0 layers and t-ideal
parts, the product runs in layers,

    A B = A0 B + A1 B0 + A1 B1,

when its t-ideal term A1 B1 is empty: no column of A1 meets a row of B1.
Each of the two terms runs on its own support through a constant route:
A0 B on layer 0 of A, and A1 B0 on layers 1..M of A and layer 0 of B,
written one degree up.  Neither is empty, or a trimmed operand would be
constant.  Otherwise the product runs whole.  Results are added into
zeros, with one reduction per term after the first.  The frame of
``extension_group._frame`` makes F^T G and (F^T G) F of the pairing check
layered: their t-ideal parts meet nowhere.  This plan, terms of index
triples whose last index picks degree layers, depends only on the shapes
and the non-zero patterns of the four layers, and is memoised by them
(``_general_plan``): at most 64 plans, each only when its key and index
arrays take at most PLAN_MEMO_BYTES = 16 KiB, about 1 MiB in all; a
larger product is planned afresh.

The rule is measured, at p=3, M=32 on 2 vCPUs, on rank-n products whose
constant layers are dense and whose t-ideal parts sit on blocks of columns
(left) and rows (right).  With an empty A1 B1 the layered form took 0.76
against 1.05 ms at n=20 on float64 (N=8), 0.51 against 4.1-4.9 ms on
limbs (N=24), and 27 against 147 ms on Python integers (N=40); with
constant layers of wide lifts at N=24 it tied up to n=4 and won from n=6.
A non-empty A1 B1 would run as a third, general term, and on int64
storage a general product costs mostly its one GEMM per degree, which a
smaller support does not shorten: an A1 B1 of 5-25% of the support made
the layered form 1.3-1.4x slower on float64 at n=10 and 20, and 1.1x
slower on limbs at n=10.

Each product picks its arithmetic in ``product_dtype``.  When an operand is
constant, it is lifted to balanced representatives in (-p^N/2, p^N/2] (so
p^N - 1 becomes -1).

* a constant operand whose lift lies in {0, +-1} (a map that selects, adds
  or negates rows or columns, like every block map of the Baer diagrams):
  signed gathers in the storage dtype (``_signed_gather``).  A plan, read
  off the degree-0 layer and memoised by its bytes within PLAN_MEMO_BYTES,
  gives each output row (left constant) or column (right constant) its
  source slices and signs.  In round k every output takes its k-th
  source: one ``np.take`` along the inner axis per sign, added to the
  outputs that take it with +1 and subtracted from those that take it
  with -1.  With at most P +1 and Q -1 sources per output, the sum needs
  nothing for P <= 1, Q = 0 (a selection), one fold per band for P <= 2,
  Q <= 1 (every block map of the Baer diagrams), and a division
  otherwise; on int64 a plan of width w is divided after each term when
  w (p^N - 1) >= 2^63 - p^N.

Every other product bounds every partial sum it forms by

    inner dimension x degree pairs x (p^N - 1) x c.

For a constant operand there is 1 degree pair, and c is the largest
absolute value of its lift.  Otherwise there are M+1 degree pairs and
c = p^N - 1.

* bound < 2^53: float64, through BLAS.  Every partial sum is an integer of
  magnitude below 2^53, and every such integer is a float64, so no rounding
  happens in any summation order and the result is bit-exact.  It is
  reduced in int64 and returned in the storage dtype;
* otherwise, on int64 storage: limb splitting.  Each residue is cut into L
  limbs of s bits, with inner dimension x degree pairs x (2^s - 1)^2 <
  2^53.  One float64 product of the stacked limbs (left limbs along rows,
  right limbs along columns) gives all L^2 limb products exactly, and they
  are recombined mod p^N in int64 (``_limb_product``);
* otherwise (object storage): Python integers, one product per pair of
  non-zero degrees.

Every array is reduced mod p^N by ``padic_series.reduce_mod``.  A sum or
difference of residues, and a gather of P <= 2, Q <= 1, lies within two
bands of p^N and is folded by unsigned minima; any other array (a float64
product below 2^53, the limb accumulator below 2^63) is divided by the
scalar p^N, which numpy does by multiply and shift, exact for every entry
at least -2^63 + p^N.  Multiplies by integers go through ``mul_mod``,
which proves its own int64 bound.  The calculus (derivative, Frobenius and
one-form pullbacks) is written here once, on the last axis, for matrices
and series alike.  Matrices of one-form bodies reuse the same class; the
degree-(M) body coefficient of differentiated data is untrusted and the
checkers compare through degree M-1 explicitly.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

from .errors import ContextMismatch
from .padic_series import (PrecisionContext, TruncatedSeries, mul_mod,
                           reduce_mod, residues, storage_dtype)

_FLOAT64_EXACT = 2**53
# the product_dtype of a constant 0/+-1 operand: signed gathers
GATHER = "gather"
# size cap of one matrix: 2^22 coefficients, 32 MiB as int64
MAX_COEFFICIENTS = 2**22
# the most bytes of key and index arrays a memoised ``_general_plan`` holds
PLAN_MEMO_BYTES = 2**14


def _check_size(context: PrecisionContext, rows: int, cols: int) -> None:
    if rows * cols * (context.M + 1) > MAX_COEFFICIENTS:
        raise ValueError(f"a {rows}x{cols} matrix at M={context.M} exceeds "
                         f"{MAX_COEFFICIENTS} coefficients")


def zeros_array(context: PrecisionContext, rows: int, cols: int) -> np.ndarray:
    """A zero (rows, cols, M+1) coefficient array in the storage dtype.

    Raises ValueError, before allocating, beyond MAX_COEFFICIENTS."""
    _check_size(context, rows, cols)
    return np.zeros((rows, cols, context.M + 1), dtype=storage_dtype(context))


def _check_same_context(a, b):
    if a.context != b.context:
        raise ContextMismatch(f"{a.context} vs {b.context}")


def product_dtype(bound: int, storage, signs: bool):
    """The arithmetic of a product whose partial sums stay below `bound`:
    GATHER when a constant operand has signs only (balanced lift in
    {0, +-1}), else float64 directly, int64 for recombined float64 limb
    products, or object."""
    if signs:
        return GATHER
    if bound < _FLOAT64_EXACT:
        return np.float64
    if storage == np.int64:
        return np.int64
    return object


class SeriesMatrix:
    __slots__ = ("context", "rows", "cols", "arr", "_const", "_lift")

    def __init__(self, context: PrecisionContext, arr: np.ndarray):
        if arr.dtype != storage_dtype(context):
            raise TypeError(f"coefficients must be stored as "
                            f"{np.dtype(storage_dtype(context))}, got {arr.dtype}")
        if arr.ndim not in (3, 4) or arr.shape[-1] != context.M + 1:
            raise ValueError(f"a coefficient array of shape {arr.shape} is not "
                             f"(rows, cols, {context.M + 1}) or a stack of them")
        self.context = context
        self.rows, self.cols = arr.shape[-3:-1]
        arr.setflags(write=False)
        self.arr = arr
        self._const = context.M == 0 or None  # at M=0 all are constant
        self._lift = None

    # -- construction -----------------------------------------------------

    @classmethod
    def zeros(cls, context, rows, cols):
        return cls(context, zeros_array(context, rows, cols))

    @classmethod
    def identity(cls, context, n, scale=1):
        arr = zeros_array(context, n, n)
        arr[np.arange(n), np.arange(n), 0] = (operator.index(scale)
                                              % context.modulus)
        return cls(context, arr)

    @classmethod
    def from_series_rows(cls, context, rows):
        """From a list of rows of series or integers (constants); raises
        ValueError unless every row has the length of the first."""
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError(f"rows of lengths {sorted({len(row) for row in rows})}"
                             f" do not form a matrix")
        arr = zeros_array(context, r, c)
        for i, row in enumerate(rows):
            for j, s in enumerate(row):
                if isinstance(s, TruncatedSeries):
                    if s.context != context:
                        raise ContextMismatch(
                            f"entry context {s.context} differs from {context}")
                    arr[i, j, :] = s._arr
                else:
                    arr[i, j, 0] = operator.index(s) % context.modulus
        return cls(context, arr)

    # -- accessors ---------------------------------------------------------

    def _unstacked(self, what: str) -> None:
        if self.arr.ndim == 4:
            raise ValueError(f"{what} takes matrices without the sample axis")

    def entry(self, i, j) -> TruncatedSeries:
        self._unstacked("entry")
        a = np.array(self.arr[i, j], copy=True)
        return TruncatedSeries._from_array(self.context, a)

    def is_zero(self) -> bool:
        return not self.arr.any()

    def is_zero_through(self, degree: int) -> bool:
        return not self.arr[..., :max(degree + 1, 0)].any()

    def is_constant(self) -> bool:
        if self._const is None:
            self._const = not self.arr[..., 1:].any()
        return self._const

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        _check_same_context(self, other)
        ctx = self.context
        return SeriesMatrix(ctx, reduce_mod(self.arr + other.arr, ctx.modulus, (0, 2)))

    def __sub__(self, other):
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        _check_same_context(self, other)
        ctx = self.context
        return SeriesMatrix(ctx, reduce_mod(self.arr - other.arr, ctx.modulus, (-1, 1)))

    def __neg__(self):
        ctx = self.context
        return SeriesMatrix(ctx, reduce_mod(-self.arr, ctx.modulus, (-1, 1)))

    def scale_int(self, k: int) -> "SeriesMatrix":
        return SeriesMatrix(self.context, mul_mod(
            self.arr, k % self.context.modulus, self.context))

    def __matmul__(self, other):
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        _check_same_context(self, other)
        self._unstacked("a product")
        other._unstacked("a product")
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply a {self.rows}x{self.cols} by a "
                             f"{other.rows}x{other.cols} matrix")
        ctx = self.context
        _check_size(ctx, self.rows, other.cols)
        a, b = self.arr, other.arr
        # a right operand known to be constant takes its route without a
        # scan of the left one (every route is exact); a scan's t-ideal
        # mask serves the plan key of a general product
        a1 = None if self._const is not None or other._const else self._t_mask()
        b1 = None if other._const is not None or self._const else other._t_mask()
        if self._const:
            out = _product(a[:, :, :1], b, ctx, self._balanced())
        elif other._const:
            out = _product(a, b[:, :, :1], ctx, other._balanced())
        else:
            out = _general_product(a, b, ctx, a1, b1)
        return SeriesMatrix(ctx, out)

    def _t_mask(self) -> np.ndarray:
        """Which entries have a t-ideal part; it settles ``is_constant``."""
        mask = self.arr[:, :, 1:].any(axis=2)
        self._const = not mask.any()
        return mask

    def _balanced(self) -> tuple:
        """(lift, top) of a constant matrix (``_balanced``), memoised: the
        block maps of the Baer diagrams are shared by every product."""
        if self._lift is None:
            lift, top = _balanced(self.arr[:, :, :1], self.context.modulus)
            lift.setflags(write=False)
            self._lift = lift, top
        return self._lift

    def transpose(self) -> "SeriesMatrix":
        return SeriesMatrix(self.context,
                            np.ascontiguousarray(np.swapaxes(self.arr, -3, -2)))

    def __eq__(self, other):
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        return (self.context == other.context
                and self.arr.shape == other.arr.shape
                and bool(np.array_equal(self.arr, other.arr)))

    def __hash__(self):
        return hash((self.context, self.arr.shape,
                     tuple(int(x) for x in self.arr.flat)))

    # -- calculus and Frobenius ---------------------------------------------

    def derivative_bodies(self) -> "SeriesMatrix":
        """Entrywise derivative, returned as a matrix of one-form bodies; the
        body coefficient at degree M is unknowable and set to 0."""
        m = self.context.M
        out = np.zeros_like(self.arr)
        if m >= 1:
            idx = np.arange(1, m + 1, dtype=self.arr.dtype)
            out[..., :m] = mul_mod(self.arr[..., 1:], idx, self.context, m)
        return SeriesMatrix(self.context, out)

    def phi_pullback(self) -> "SeriesMatrix":
        """Entrywise substitution t |-> t^p.  It fixes constants, so a
        matrix already known to be constant (such as a shared block map
        after its first product) is returned as it is, without a scan."""
        if self._const:
            return self
        p = self.context.p
        out = np.zeros_like(self.arr)
        out[..., ::p] = self.arr[..., :self.context.M // p + 1]
        return SeriesMatrix(self.context, out)

    def oneform_pullback_bodies(self) -> "SeriesMatrix":
        """Entrywise pullback of one-form bodies: g |-> g(t^p) * p * t^(p-1)."""
        p = self.context.p
        out = np.zeros_like(self.arr)
        # degree n goes to p n + p - 1, which is at most M for n < (M+1)/p
        out[..., p - 1::p] = mul_mod(self.arr[..., :(self.context.M + 1) // p],
                                     p, self.context)
        return SeriesMatrix(self.context, out)

    def truncate_degree(self, d: int) -> "SeriesMatrix":
        if d >= self.context.M:
            return self
        arr = self.arr.copy()
        arr[..., max(d + 1, 0):] = 0
        return SeriesMatrix(self.context, arr)

    def reduce_precision(self, new_n: int) -> "SeriesMatrix":
        ctx = self.context.reduce_precision(new_n)
        if ctx is self.context:
            return self
        return SeriesMatrix(ctx, residues(self.arr, ctx))

    # -- constant-layer helpers ----------------------------------------------

    def constant_layer(self) -> list:
        """The degree-0 coefficients as a list of rows of Python ints."""
        return self.arr[:, :, 0].tolist()


def series_inverse(a: SeriesMatrix) -> SeriesMatrix:
    """The inverse of the series in a 1x1 matrix; raises ZeroDivisionError
    unless its constant term c0 is a unit.

    Newton iteration x <- x (2 - a x) from x = c0^-1 mod p^N: if a x = 1
    mod t^k then 1 - a x' = (1 - a x)^2 = 0 mod t^(2k), exactly over
    Z/p^N, so ceil(log2(M+1)) = bitlen(M) steps reach t^(M+1)."""
    ctx = a.context
    c0 = int(a.arr[0, 0, 0])
    if c0 % ctx.p == 0:
        raise ZeroDivisionError("constant term is not a unit mod p")
    x = SeriesMatrix.identity(ctx, 1, pow(c0, -1, ctx.modulus))
    two = SeriesMatrix.identity(ctx, 1, 2)
    for _ in range(ctx.M.bit_length()):
        x = x @ (two - a @ x)
    return x


def _product(a: np.ndarray, b: np.ndarray, context: PrecisionContext,
             lift: tuple | None = None) -> np.ndarray:
    """a @ b mod p^N, max(Da, Db) layers from arrays of Da and Db layers, in
    the arithmetic product_dtype picks.  An operand of one layer, when the
    other has more (or the left of two), is constant; lift may carry its
    ``_balanced`` lift."""
    mod = context.modulus
    (r, k, da), (c, db) = a.shape, b.shape[1:]
    left, right = da == 1, db == 1 < da
    const, top = None, mod - 1
    if left or right:
        const, top = lift or _balanced(a if left else b, mod)
    pairs = min(da, db)
    bound = k * pairs * (mod - 1) * top
    if bound == 0 or r * c == 0:
        # an empty result or inner dimension, or a zero constant operand
        return np.zeros((r, c, max(da, db)), dtype=storage_dtype(context))
    dtype = product_dtype(bound, storage_dtype(context),
                          signs=(left or right) and top == 1)
    if dtype is GATHER:
        if left:
            return _signed_gather(b, const[:, :, 0], 0, mod)
        return _signed_gather(a, const[:, :, 0].T, 1, mod)
    if dtype is np.float64:
        if left:
            a = const
        elif right:
            b = const
        return residues(_float_product(a, b).astype(np.int64, order="C"),
                        context)
    if dtype is np.int64:
        return _limb_product(a, b, k * pairs, context)
    return reduce_mod(_convolve_pairs(a, b), mod)


def _balanced(layer: np.ndarray, mod: int) -> tuple:
    """(lift, top): residues lifted to (-mod/2, mod/2] (mod - 1 becomes -1),
    and the largest absolute value of the lift."""
    lift = np.where(layer > mod // 2, layer - mod, layer)
    return lift, int(np.abs(lift).max(initial=0))


def _support(nz_a: np.ndarray, nz_b: np.ndarray) -> tuple:
    """(rows, inner, cols) of a product by the non-zero patterns of its
    operands: the inner indices where a column of the left operand and the
    matching row of the right one are both non-zero, then the rows and
    columns non-zero on those.  The index arrays are read-only."""
    inner = np.flatnonzero(nz_a.any(axis=0) & nz_b.any(axis=1))
    rows = np.flatnonzero(nz_a[:, inner].any(axis=1))
    cols = np.flatnonzero(nz_b[inner].any(axis=0))
    for idx in (rows, inner, cols):
        idx.setflags(write=False)
    return rows, inner, cols


def _run(idx: np.ndarray):
    """idx as a slice when it is one contiguous run, so that indexing by it
    makes a view."""
    if idx.size and idx[-1] - idx[0] == idx.size - 1:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _block(rows: np.ndarray, cols: np.ndarray) -> tuple:
    """The index of the block rows x cols of a (rows, cols, ...) array."""
    rows, cols = _run(rows), _run(cols)
    if isinstance(rows, slice) or isinstance(cols, slice):
        return rows, cols
    return np.ix_(rows, cols)


def _general_product(a: np.ndarray, b: np.ndarray, context: PrecisionContext,
                     a1=None, b1=None) -> np.ndarray:
    """a @ b mod p^N for two non-constant operands, by the plan of its
    pattern (``_general_plan``), memoised when its key and index arrays
    take at most PLAN_MEMO_BYTES; a1, b1 may carry their t-ideal masks."""
    r, k, c = a.shape[0], a.shape[1], b.shape[1]
    a1 = a[:, :, 1:].any(axis=2) if a1 is None else a1
    b1 = b[:, :, 1:].any(axis=2) if b1 is None else b1
    key = ((r, k, c), (a[:, :, 0] != 0).tobytes(), a1.tobytes(),
           (b[:, :, 0] != 0).tobytes(), b1.tobytes())
    memo = 2 * (r * k + k * c) + 16 * (r + k + c) <= PLAN_MEMO_BYTES
    plan = (_general_plan if memo else _general_plan.__wrapped__)(*key)
    if plan is None:
        return _product(a, b, context)
    out = zeros_array(context, r, c)
    for n, (at, at_a, at_b) in enumerate(plan):
        term = _product(a[at_a], b[at_b], context)
        out[at] = term if n == 0 else reduce_mod(out[at] + term,
                                                 context.modulus, (0, 2))
    return out


@lru_cache(maxsize=64)
def _general_plan(shape: tuple, a0: bytes, a1: bytes, b0: bytes,
                  b1: bytes):
    """The plan of a product of (rows, inner, cols) `shape` by the bool
    masks, as bytes, of its degree-0 layers a0, b0 and t-ideal parts a1, b1:
    None to run it whole, or index triples (at, at_a, at_b), each the
    product of the blocks at_a of a and at_b of b into the block at, whose
    last index picks degree layers: all, 0 (a constant), or 1..M (the
    t-ideal part of a, whose product goes one degree up).  It holds 2 (r k
    + k c) bytes of key and at most 16 (r + k + c) of read-only indices:
    one term on the support, or two in layers."""
    every, zero, up = (slice(None),), (slice(0, 1),), (slice(1, None),)
    r, k, c = shape
    a0, a1 = (np.frombuffer(m, dtype=bool).reshape(r, k) for m in (a0, a1))
    b0, b1 = (np.frombuffer(m, dtype=bool).reshape(k, c) for m in (b0, b1))
    rows, inner, cols = _support(a0 | a1, b0 | b1)
    at_a, at_b = _block(rows, inner), _block(inner, cols)
    left = not a1[at_a].any()
    right = not left and not b1[at_b].any()
    if not (left or right or (a1.any(axis=0) & b1.any(axis=1)).any()):
        r0, i0, c0 = _support(a0, b0 | b1)
        r1, i1, c1 = _support(a1, b0)
        return ((_block(r0, c0) + every, _block(r0, i0) + zero,
                 _block(i0, c0) + every),
                (_block(r1, c1) + up, _block(r1, i1) + up,
                 _block(i1, c1) + zero))
    if (rows.size, inner.size, cols.size) == shape:
        return None
    return ((_block(rows, cols) + every, at_a + (zero if left else every),
             at_b + (zero if right else every)),)


@lru_cache(maxsize=64)
def _gather_plan(shape: tuple, signs: bytes) -> tuple:
    """(terms, width, plus, minus) of a signed gather by the (outputs,
    inner) 0/+-1 matrix whose int8 bytes are `signs`.

    Output o takes its k-th source, +1 entries first, in the k-th round;
    width counts the rounds, and plus and minus are the most +1 and -1
    sources of any output.  A term (outs, take, op) gathers the inner
    indices `take` for the outputs `outs` (None for every output, in
    order) of one round that share one sign, and op adds (+1) or
    subtracts (-1) them.  With the key, a plan holds at most outputs x
    inner + 16 x non-zeros bytes, pinning no argsort; ``_signed_gather``
    memoises it only within PLAN_MEMO_BYTES."""
    s = np.frombuffer(signs, dtype=np.int8).reshape(shape)
    # a stable sort by (+1, -1, 0) lists each output's sources in order
    order = np.argsort(np.where(s == 0, 2, s < 0), axis=1, kind="stable")
    outputs = np.arange(shape[0])
    plus, minus, width = (int(np.count_nonzero(m, axis=1).max())
                          for m in (s > 0, s < 0, s != 0))
    terms = []
    for k in range(width):
        sign = s[outputs, order[:, k]]
        for value, op in ((1, np.add), (-1, np.subtract)):
            outs = np.flatnonzero(sign == value)
            if outs.size == shape[0]:
                # a copy, so that the plan does not pin the whole argsort
                terms.append((None, order[:, k].copy(), op))
            elif outs.size:
                terms.append((outs, order[outs, k], op))
    # every caller shares the cached plan
    for outs, take, _ in terms:
        take.setflags(write=False)
        if outs is not None:
            outs.setflags(write=False)
    return tuple(terms), width, plus, minus


def _signed_gather(src: np.ndarray, signs: np.ndarray, axis: int, mod: int
                   ) -> np.ndarray:
    """The product of the 0/+-1 matrix `signs` (outputs x inner) with the
    residues src along `axis`: out[o] = sum_i signs[o, i] src[i] on the rows
    (axis 0, a left constant) or columns (axis 1, a right constant), mod
    p^N.

    With plus and minus the most +1 and -1 sources of any output, every
    sum lies in [-minus (mod - 1), plus (mod - 1)]: a residue for plus <= 1
    and minus = 0, folded (``reduce_mod`` with bands) for plus <= 2 and
    minus <= 1, and divided otherwise, which takes every entry >= -2^63 +
    mod.  On int64 a plan of width w with w (mod - 1) >= 2^63 - mod is
    divided after each term, so that no partial sum leaves (-2 mod, 2 mod)."""
    key = signs.astype(np.int8).tobytes()
    memo = len(key) + 16 * np.count_nonzero(signs) <= PLAN_MEMO_BYTES
    terms, width, plus, minus = (_gather_plan if memo else
                                 _gather_plan.__wrapped__)(signs.shape, key)
    each = src.dtype == np.int64 and width * (mod - 1) >= 2**63 - mod
    lead = (slice(None),) * axis
    outs, take, op = terms[0]
    if outs is None and op is np.add:
        out, terms = np.take(src, take, axis=axis), terms[1:]
    else:
        shape = list(src.shape)
        shape[axis] = signs.shape[0]
        out = np.zeros(shape, dtype=src.dtype)
    for outs, take, op in terms:
        part = np.take(src, take, axis=axis)
        if outs is None:
            op(out, part, out=out)
        else:
            # the outputs of one term are distinct, so this writes each once
            at = lead + (outs,)
            out[at] = op(out[at], part)
        if each:
            out = reduce_mod(out, mod)
    if each or (plus <= 1 and minus == 0):
        return out
    return reduce_mod(out, mod, (-minus, max(plus, 1))
                      if plus <= 2 and minus <= 1 else None)


def _float_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unreduced a @ b in float64, for integer arrays whose partial sums stay
    below 2^53 in magnitude.  With an operand of one layer, one GEMM over
    every degree at once; otherwise one GEMM per non-zero degree x of a,
    out[..., x:] += a[x] @ b[..., :D-x]."""
    if b.shape[2] == 1 < a.shape[2]:
        # (ab)^T = b^T a^T puts the one-layer operand on the left
        return _float_product(b.transpose(1, 0, 2),
                              a.transpose(1, 0, 2)).transpose(1, 0, 2)
    (r, k, d), c = a.shape, b.shape[1]
    if d == 1:
        # (r, k) x (k, c*D)
        bf = b.astype(np.float64, order="C").reshape(k, -1)
        return np.dot(a[:, :, 0].astype(np.float64), bf).reshape(r, c, -1)
    # degree-major a and degree-middle b make every operand a plain view
    af = np.empty((d, r, k))
    af[...] = a.transpose(2, 0, 1)
    bf = np.empty((k, d, c))
    bf[...] = b.transpose(0, 2, 1)
    out = np.zeros((r, d, c))
    for x in np.flatnonzero(af.any(axis=(1, 2))):
        n = d - x
        out[:, x:, :] += np.dot(af[x], bf[:, :n, :].reshape(k, n * c)
                                ).reshape(r, n, c)
    return out.transpose(0, 2, 1)


def _limb_product(a: np.ndarray, b: np.ndarray, terms: int,
                  context: PrecisionContext) -> np.ndarray:
    """a @ b mod p^N for int64 residues, where each output sums `terms`
    products of two residues.

    Residues are cut into L limbs of s bits with terms (2^s - 1)^2 < 2^53;
    terms counts elements of one operand, so it is far below 2^51 and
    s >= 1.  One float64 product of the stacked limbs, left limbs along rows
    and right limbs along columns, gives all L^2 limb products exactly.
    They are summed by weight i + j, each sum below L 2^53 < 2^59, and
    recombined by Horner's rule from the top weight: the accumulator is a
    residue below 2^62, shifted by at most 63 - bitlen(p^N - 1) bits at a
    time and reduced after each shift, so every intermediate stays below
    2^63."""
    mod = context.modulus
    r, c, d = a.shape[0], b.shape[1], max(a.shape[2], b.shape[2])
    s = (53 - terms.bit_length()) // 2
    count = -(-(mod - 1).bit_length() // s)
    mask = (1 << s) - 1
    al = np.concatenate([(a >> (s * i)) & mask for i in range(count)], axis=0)
    bl = np.concatenate([(b >> (s * i)) & mask for i in range(count)], axis=1)
    prod = _float_product(al, bl).astype(np.int64, order="C")
    prod = prod.reshape(count, r, count, c, d)
    shift = 63 - (mod - 1).bit_length()
    acc = None
    for w in range(2 * count - 2, -1, -1):
        part = sum(prod[i, :, w - i]
                   for i in range(max(0, w - count + 1), min(w, count - 1) + 1))
        if acc is not None:
            for todo in range(s, 0, -shift):
                acc <<= min(todo, shift)
                acc = reduce_mod(acc, mod)
            part += acc
        acc = reduce_mod(part, mod)
    return acc


def _convolve_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Degree convolution of two object coefficient arrays, unreduced: one
    product per pair of non-zero degrees whose sum stays in range.  Either
    operand may come as one layer, a constant."""
    d = max(a.shape[2], b.shape[2])
    out = np.zeros((a.shape[0], b.shape[1], d), dtype=object)
    nz_b = np.flatnonzero(b.any(axis=(0, 1)))
    for x in np.flatnonzero(a.any(axis=(0, 1))):
        for y in nz_b:
            if x + y >= d:
                break
            out[:, :, x + y] += np.dot(a[:, :, x], b[:, :, y])
    return out


def det_mod_p(rows, p) -> int:
    """Determinant mod p of an integer matrix given as a list of rows."""
    n = len(rows)
    if n == 0:
        return 1 % p
    a = [[x % p for x in row] for row in rows]
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] % p), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det = (det * a[k][k]) % p
        inv = pow(a[k][k], -1, p)
        for i in range(k + 1, n):
            f = (a[i][k] * inv) % p
            if f:
                for j in range(k, n):
                    a[i][j] = (a[i][j] - f * a[k][j]) % p
    return det % p
