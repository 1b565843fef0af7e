"""Dense matrices over the truncated series ring.

Entries are stored as a single (rows, cols, M+1) array of canonical
residues in the storage dtype of the context (``padic_series.storage_dtype``):
numpy int64 when p^N < 2^62, Python integers in an object array otherwise.
A matrix holds at most MAX_COEFFICIENTS coefficients; ``zeros_array``
checks this before it allocates.

A product picks its arithmetic per call, from a proven bound on the
magnitude of every partial sum it forms:

    inner dimension x degree pairs x (p^N - 1) x c.

When an operand is constant, it is lifted to balanced representatives in
(-p^N/2, p^N/2] (so p^N - 1 becomes -1), there is 1 degree pair, and c is
the largest absolute value of that lift.  Otherwise there are M+1 degree
pairs and c = p^N - 1.

* bound < 2^53: float64, through BLAS.  Every partial sum is an integer of
  magnitude below 2^53, and every such integer is a float64, so no rounding
  happens in any summation order and the result is bit-exact;
* otherwise, on int64 storage: limb splitting.  Each residue is cut into L
  limbs of s bits, with inner dimension x degree pairs x (2^s - 1)^2 <
  2^53.  One float64 product of the stacked limbs (left limbs along rows,
  right limbs along columns) gives all L^2 limb products exactly, and they
  are recombined mod p^N in int64 (``_limb_product``);
* otherwise (object storage): Python integers, one product per pair of
  non-zero degrees.

Scalar and series multiplies of stored residues go through
``padic_series.mul_mod``, which proves its own int64 bound.  Matrices of
one-form bodies reuse the same class; the degree-(M) body coefficient of
differentiated data is untrusted and the checkers compare through degree
M-1 explicitly.
"""

from __future__ import annotations

import numpy as np

from .errors import ContextMismatch
from .padic_series import (OneForm, PrecisionContext, TruncatedSeries,
                           mul_mod, storage_dtype)

_FLOAT64_EXACT = 2**53
# size cap of one matrix: 2^22 coefficients, 32 MiB as int64
MAX_COEFFICIENTS = 2**22


def zeros_array(context: PrecisionContext, rows: int, cols: int) -> np.ndarray:
    """A zero (rows, cols, M+1) coefficient array in the storage dtype.

    Raises ValueError, before allocating, beyond MAX_COEFFICIENTS."""
    if rows * cols * (context.M + 1) > MAX_COEFFICIENTS:
        raise ValueError(f"a {rows}x{cols} matrix at M={context.M} exceeds "
                         f"{MAX_COEFFICIENTS} coefficients")
    return np.zeros((rows, cols, context.M + 1), dtype=storage_dtype(context))


def product_dtype(bound: int, storage) -> type:
    """The arithmetic of a product whose partial sums stay below `bound`:
    float64 directly, int64 for recombined float64 limb products, or object."""
    if bound < _FLOAT64_EXACT:
        return np.float64
    if storage == np.int64:
        return np.int64
    return object


class SeriesMatrix:
    __slots__ = ("context", "rows", "cols", "arr", "_const")

    def __init__(self, context: PrecisionContext, arr: np.ndarray):
        self.context = context
        self.rows, self.cols = arr.shape[0], arr.shape[1]
        arr.setflags(write=False)
        self.arr = arr
        self._const = None

    # -- construction -----------------------------------------------------

    @classmethod
    def zeros(cls, context, rows, cols):
        return cls(context, zeros_array(context, rows, cols))

    @classmethod
    def identity(cls, context, n, scale=1):
        arr = zeros_array(context, n, n)
        arr[np.arange(n), np.arange(n), 0] = scale % context.modulus
        return cls(context, arr)

    @classmethod
    def from_int_rows(cls, context, rows):
        """Constant matrix from a list of rows of integers."""
        r = len(rows)
        c = len(rows[0]) if r else 0
        arr = zeros_array(context, r, c)
        mod = context.modulus
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                arr[i, j, 0] = int(x) % mod
        return cls(context, arr)

    @classmethod
    def from_series_rows(cls, context, rows):
        r = len(rows)
        c = len(rows[0]) if r else 0
        arr = zeros_array(context, r, c)
        for i, row in enumerate(rows):
            for j, s in enumerate(row):
                if isinstance(s, OneForm):
                    s = s.body
                if isinstance(s, TruncatedSeries):
                    if s.context != context:
                        raise ContextMismatch("entry context differs")
                    arr[i, j, :] = s._arr
                else:
                    arr[i, j, 0] = int(s) % context.modulus
        return cls(context, arr)

    @classmethod
    def block(cls, context, grid):
        """Assemble from a 2-D grid of SeriesMatrix blocks."""
        rows = sum(g[0].rows for g in grid)
        cols = sum(b.cols for b in grid[0])
        arr = zeros_array(context, rows, cols)
        i0 = 0
        for grow in grid:
            j0 = 0
            for blk in grow:
                arr[i0:i0 + blk.rows, j0:j0 + blk.cols, :] = blk.arr
                j0 += blk.cols
            i0 += grow[0].rows
        return cls(context, arr)

    # -- accessors ---------------------------------------------------------

    def entry(self, i, j) -> TruncatedSeries:
        a = np.array(self.arr[i, j], copy=True)
        return TruncatedSeries._from_array(self.context, a)

    def column(self, j) -> "SeriesMatrix":
        return SeriesMatrix(self.context, np.array(self.arr[:, j:j + 1], copy=True))

    def select_rows(self, indices) -> "SeriesMatrix":
        return SeriesMatrix(self.context, np.array(self.arr[list(indices)], copy=True))

    def is_zero(self) -> bool:
        return not self.arr.any()

    def is_zero_through(self, degree: int) -> bool:
        return not self.arr[:, :, :degree + 1].any()

    def is_constant(self) -> bool:
        if self._const is None:
            self._const = not self.arr[:, :, 1:].any()
        return self._const

    def max_nonzero_degree(self) -> int:
        nz = np.nonzero(self.arr)
        return int(nz[2].max()) if len(nz[2]) else -1

    # -- ring operations ----------------------------------------------------

    def _check(self, other):
        if self.context != other.context:
            raise ContextMismatch(f"{self.context} vs {other.context}")

    def __add__(self, other):
        self._check(other)
        return SeriesMatrix(self.context,
                            (self.arr + other.arr) % self.context.modulus)

    def __sub__(self, other):
        self._check(other)
        return SeriesMatrix(self.context,
                            (self.arr - other.arr) % self.context.modulus)

    def __neg__(self):
        return SeriesMatrix(self.context, (-self.arr) % self.context.modulus)

    def scale_int(self, k: int) -> "SeriesMatrix":
        return SeriesMatrix(self.context, mul_mod(
            self.arr, k % self.context.modulus, self.context))

    def scale_series(self, s: TruncatedSeries) -> "SeriesMatrix":
        """Entrywise multiplication by a fixed series."""
        ctx = self.context
        m = ctx.M
        out = np.zeros_like(self.arr)
        sarr = s._arr
        for d in range(m + 1):
            c = int(sarr[d])
            if c == 0:
                continue
            # two residues sum below 2^63, so reducing after each add is exact
            out[:, :, d:] += mul_mod(self.arr[:, :, :m + 1 - d], c, ctx)
            out[:, :, d:] %= ctx.modulus
        return SeriesMatrix(ctx, out)

    def __matmul__(self, other):
        self._check(other)
        ctx = self.context
        mod = ctx.modulus
        d = ctx.M + 1
        r, k, c = self.rows, self.cols, other.cols
        a, b = self.arr, other.arr
        left = self.is_constant()
        right = not left and other.is_constant()
        if left or right:
            const = _balanced((a if left else b)[:, :, :1], mod)
            top, pairs = int(np.abs(const).max(initial=0)), 1
        else:
            top, pairs = mod - 1, d
        bound = k * pairs * (mod - 1) * top
        if bound == 0 or r * c == 0:
            # an empty result or inner dimension, or a zero constant operand
            return SeriesMatrix.zeros(ctx, r, c)
        dtype = product_dtype(bound, storage_dtype(ctx))
        if dtype is np.float64:
            if left:
                a = const
            elif right:
                b = const
            out = _float_product(a, b, left, right).astype(np.int64, order="C")
            out %= mod
        elif dtype is np.int64:
            out = _limb_product(a, b, left, right, k * pairs, ctx)
        else:
            out = _convolve_pairs(a, b) % mod
        return SeriesMatrix(ctx, out)

    def transpose(self) -> "SeriesMatrix":
        return SeriesMatrix(self.context,
                            np.ascontiguousarray(self.arr.transpose(1, 0, 2)))

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
        """Entrywise derivative, returned as a matrix of one-form bodies."""
        m = self.context.M
        out = np.zeros_like(self.arr)
        if m >= 1:
            idx = np.arange(1, m + 1, dtype=self.arr.dtype)
            out[:, :, :m] = mul_mod(self.arr[:, :, 1:], idx, self.context, m)
        return SeriesMatrix(self.context, out)

    def phi_pullback(self) -> "SeriesMatrix":
        """Entrywise substitution t |-> t^p."""
        p = self.context.p
        m = self.context.M
        out = np.zeros_like(self.arr)
        top = m // p
        out[:, :, :(top * p) + 1:p] = self.arr[:, :, :top + 1]
        return SeriesMatrix(self.context, out)

    def oneform_pullback_bodies(self) -> "SeriesMatrix":
        """Entrywise pullback of one-form bodies: g |-> g(t^p) * p * t^(p-1)."""
        p = self.context.p
        out = np.zeros_like(self.arr)
        # degree n goes to p n + p - 1 for n <= n_top (n_top >= -1)
        n_top = (self.context.M - p + 1) // p
        out[:, :, p - 1::p] = mul_mod(self.arr[:, :, :n_top + 1], p, self.context)
        return SeriesMatrix(self.context, out)

    def truncate_degree(self, d: int) -> "SeriesMatrix":
        if d >= self.context.M:
            return self
        arr = self.arr.copy()
        arr[:, :, d + 1:] = 0
        return SeriesMatrix(self.context, arr)

    def reduce_precision(self, new_n: int) -> "SeriesMatrix":
        ctx = self.context.reduce_precision(new_n)
        if ctx is self.context:
            return self
        return SeriesMatrix(ctx, (self.arr % ctx.modulus).astype(
            storage_dtype(ctx), copy=False))

    # -- constant-layer helpers ----------------------------------------------

    def constant_layer(self) -> list:
        """The degree-0 coefficients as a list of rows of Python ints."""
        return [[int(x) for x in row] for row in self.arr[:, :, 0]]


def _balanced(layer: np.ndarray, mod: int) -> np.ndarray:
    """Residues lifted to (-mod/2, mod/2]; mod - 1 becomes -1."""
    return np.where(layer > mod // 2, layer - mod, layer)


def _float_product(a: np.ndarray, b: np.ndarray, left: bool, right: bool
                   ) -> np.ndarray:
    """Unreduced a @ b in float64, for integer arrays whose partial sums stay
    below 2^53 in magnitude.  A constant operand (left or right) contributes
    its degree-0 layer only."""
    r, k = a.shape[:2]
    c, d = b.shape[1], (b if left else a).shape[2]
    if left:
        # (r, k) x (k, c*D): one GEMM over every degree at once
        bf = b.astype(np.float64).reshape(k, c * d)
        return np.dot(a[:, :, 0].astype(np.float64), bf).reshape(r, c, d)
    if right:
        # (r*D, k) x (k, c), with the degree axis moved next to r
        af = np.empty((r, d, k))
        af[...] = a.transpose(0, 2, 1)
        out = np.dot(af.reshape(r * d, k), b[:, :, 0].astype(np.float64))
        return out.reshape(r, d, c).transpose(0, 2, 1)
    return _convolve_float(a, b)


def _limb_product(a: np.ndarray, b: np.ndarray, left: bool, right: bool,
                  terms: int, context: PrecisionContext) -> np.ndarray:
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
    r, c, d = a.shape[0], b.shape[1], a.shape[2]
    s = (53 - terms.bit_length()) // 2
    count = -(-(mod - 1).bit_length() // s)
    mask = (1 << s) - 1
    al = np.concatenate([(a >> (s * i)) & mask for i in range(count)], axis=0)
    bl = np.concatenate([(b >> (s * i)) & mask for i in range(count)], axis=1)
    prod = _float_product(al, bl, left, right).astype(np.int64, order="C")
    prod = prod.reshape(count, r, count, c, d)
    shift = 63 - (mod - 1).bit_length()
    acc = None
    for w in range(2 * count - 2, -1, -1):
        part = sum(prod[i, :, w - i]
                   for i in range(max(0, w - count + 1), min(w, count - 1) + 1))
        if acc is not None:
            for todo in range(s, 0, -shift):
                acc <<= min(todo, shift)
                acc %= mod
            part += acc
        acc = part % mod
    return acc


def _convolve_float(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Degree convolution of two coefficient arrays in float64, unreduced:
    one GEMM per non-zero degree x of a, out[..., x:] += a[x] @ b[..., :D-x]."""
    r, k, d = a.shape
    c = b.shape[1]
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


def _convolve_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Degree convolution of two object coefficient arrays, unreduced: one
    product per pair of non-zero degrees whose sum stays in range."""
    d = a.shape[2]
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
