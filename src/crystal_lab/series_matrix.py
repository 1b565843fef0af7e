"""Dense matrices over the truncated series ring.

Entries are stored as a single (rows, cols, M+1) integer array of canonical
residues, in numpy int64 when PrecisionContext.int64_safe holds and in an
object array of Python integers otherwise (``storage_dtype``).

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
* bound < 2^63 on int64 storage: numpy int64;
* otherwise: Python integers in an object array.

Matrices of one-form bodies reuse the same class; the degree-(M) body
coefficient of differentiated data is untrusted and the checkers compare
through degree M-1 explicitly.
"""

from __future__ import annotations

import numpy as np

from .errors import ContextMismatch
from .padic_series import (OneForm, PrecisionContext, TruncatedSeries,
                           p_valuation)

_FLOAT64_EXACT = 2**53
_INT64_EXACT = 2**63


def storage_dtype(context: PrecisionContext):
    """The dtype of every coefficient array over this context."""
    return np.int64 if context.int64_safe else object


def zeros_array(context: PrecisionContext, rows: int, cols: int) -> np.ndarray:
    """A zero (rows, cols, M+1) coefficient array in the storage dtype."""
    return np.zeros((rows, cols, context.M + 1), dtype=storage_dtype(context))


def product_dtype(bound: int, storage) -> type:
    """The arithmetic of a product whose partial sums stay below `bound`."""
    if bound < _FLOAT64_EXACT:
        return np.float64
    if bound < _INT64_EXACT and storage == np.int64:
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

    def entry_form(self, i, j) -> OneForm:
        return OneForm(self.entry(i, j))

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
        return SeriesMatrix(self.context,
                            (self.arr * (k % self.context.modulus))
                            % self.context.modulus)

    def scale_series(self, s: TruncatedSeries) -> "SeriesMatrix":
        """Entrywise multiplication by a fixed series."""
        mod = self.context.modulus
        m = self.context.M
        out = np.zeros_like(self.arr)
        sarr = s._arr
        for d in range(m + 1):
            c = int(sarr[d])
            if c == 0:
                continue
            out[:, :, d:] += self.arr[:, :, :m + 1 - d] * c
        return SeriesMatrix(self.context, out % mod)

    def __matmul__(self, other):
        self._check(other)
        mod = self.context.modulus
        d = self.context.M + 1
        r, k, c = self.rows, self.cols, other.cols
        left = self.is_constant()
        if left or other.is_constant():
            const = _balanced((self if left else other).arr[:, :, 0], mod)
            top = int(np.abs(const).max(initial=0))
            bound = k * (mod - 1) * top
        else:
            const = None
            bound = k * d * (mod - 1) ** 2
        if bound == 0:
            # an empty inner dimension or a zero constant operand
            return SeriesMatrix.zeros(self.context, r, c)
        dtype = product_dtype(bound, self.arr.dtype)
        if const is None:
            if dtype is np.float64:
                out = _convolve_float(self.arr, other.arr)
            else:
                out = _convolve_pairs(self.arr.astype(dtype, copy=False),
                                      other.arr.astype(dtype, copy=False))
        elif left:
            # (r, k) x (k, c*D): one GEMM over every degree at once
            b = other.arr.astype(dtype, copy=False).reshape(k, c * d)
            out = np.dot(const.astype(dtype, copy=False), b).reshape(r, c, d)
        else:
            # (r*D, k) x (k, c), with the degree axis moved next to r
            a = np.empty((r, d, k), dtype)
            a[...] = self.arr.transpose(0, 2, 1)
            out = np.dot(a.reshape(r * d, k), const.astype(dtype, copy=False))
            out = out.reshape(r, d, c).transpose(0, 2, 1)
        # every kernel's output is a fresh array, so reducing in place is safe
        out = out.astype(np.int64 if dtype is np.float64 else dtype,
                         order="C", copy=False)
        out %= mod
        return SeriesMatrix(self.context,
                            out.astype(storage_dtype(self.context), copy=False))

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
        mod = self.context.modulus
        m = self.context.M
        out = np.zeros_like(self.arr)
        if m >= 1:
            idx = np.arange(1, m + 1, dtype=self.arr.dtype)
            out[:, :, :m] = (self.arr[:, :, 1:] * idx) % mod
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
        m = self.context.M
        mod = self.context.modulus
        out = np.zeros_like(self.arr)
        n_top = (m - p + 1) // p
        for n in range(n_top + 1):
            out[:, :, p * n + p - 1] = (self.arr[:, :, n] * p) % mod
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
        return SeriesMatrix(ctx, self.arr % ctx.modulus)

    def reduce_mod_p_is_zero(self) -> bool:
        return not (self.arr % self.context.p).any()

    def min_valuation(self) -> int:
        v = self.context.N
        for x in self.arr.flat:
            x = int(x)
            if x:
                v = min(v, p_valuation(x, self.context.p))
                if v == 0:
                    break
        return v

    # -- constant-layer helpers ----------------------------------------------

    def constant_layer(self) -> list:
        """The degree-0 coefficients as a list of rows of Python ints."""
        return [[int(x) for x in row] for row in self.arr[:, :, 0]]

    def to_series_rows(self) -> list:
        return [[self.entry(i, j) for j in range(self.cols)]
                for i in range(self.rows)]


def _balanced(layer: np.ndarray, mod: int) -> np.ndarray:
    """Residues lifted to (-mod/2, mod/2]; mod - 1 becomes -1."""
    return np.where(layer > mod // 2, layer - mod, layer)


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
    """Degree convolution of two coefficient arrays, unreduced: one product
    per pair of non-zero degrees whose sum stays in range."""
    d = a.shape[2]
    out = np.zeros((a.shape[0], b.shape[1], d), dtype=a.dtype)
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
