"""Exact arithmetic in Z/p^N and in the truncated series ring W[[t]]/(p^N, t^(M+1)).

All values are immutable and all operations are pure functions, so objects
may be shared freely across threads.  Coefficients are canonical residues
in [0, p^N); equality is bit-exact.  The Frobenius lift is fixed as
t |-> t^p with the identity on coefficients, so the lift acts on series by
monomial substitution.

Coefficient arrays are numpy int64 when p^N < 2^62 and object arrays of
Python integers otherwise (``storage_dtype``).  On int64 storage a sum or
difference of two residues stays below 2^63, so add, sub and neg never
overflow.  A multiply by integers compares a bound on its result with a
constant of the PrecisionContext before it uses int64, and forms the product
in Python integers when int64 could overflow (``mul_mod``).

TruncatedSeries is a read-only view of one (M+1,) coefficient array.  Its
additive operations are single array operations; its products and inverse
run as 1x1 products of ``series_matrix.SeriesMatrix``, the one product
kernel.  The calculus (derivative, Frobenius and one-form pullbacks,
integration) is written once, on the last axis of a (..., M+1) array, for
series and matrices alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContextMismatch, NonIntegrable, PrecisionInsufficient

_INT64_MAX = 2**63 - 1
# int64 storage keeps 2(p^N - 1) < 2^63
_INT64_STORAGE_LIMIT = 2**62
# t-adic precision cap: one series holds at most MAX_M + 1 coefficients
MAX_M = 4096
# p-adic precision cap: N * bitlen(p) <= MAX_MODULUS_BITS, so p^N has at
# most that many bits; checked before p^N is formed
MAX_MODULUS_BITS = 1024

# Miller-Rabin with the first 13 prime bases is deterministic below this
# bound (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 2017); larger p are rejected rather than guessed at.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME = 3317044064679887385961981


def _is_odd_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for odd p below MAX_PRIME."""
    if p < 3 or p % 2 == 0:
        return False
    if p in _MR_BASES:
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def p_valuation(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is unbounded")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True)
class PrecisionContext:
    """Working precisions: odd prime p, residues mod p^N, series mod t^(M+1).

    Raises ValueError unless p is an odd prime below MAX_PRIME (about
    3.3e24, the range where the primality test is proven exact),
    2 <= N with N * bitlen(p) <= MAX_MODULUS_BITS (so N <= 512 at p = 3),
    and 0 <= M <= MAX_M.  The bound on N is checked first, before p^N is
    computed.

    The derived constants are computed once and take no part in equality:

    * ``int64_safe``: coefficients are stored as int64, i.e. p^N < 2^62;
    * ``int64_scalar_max``: the largest k with (p^N - 1) k < 2^63, so that
      an int64 residue array times any 0 <= k <= int64_scalar_max is exact.
    """

    p: int
    N: int
    M: int
    modulus: int = field(init=False, repr=False, compare=False)
    int64_safe: bool = field(init=False, repr=False, compare=False)
    int64_scalar_max: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.N * self.p.bit_length() > MAX_MODULUS_BITS:
            raise ValueError(
                f"N * bitlen(p) must be at most {MAX_MODULUS_BITS}, got "
                f"N={self.N} at p={self.p}")
        if self.p >= MAX_PRIME:
            raise ValueError(f"p must be below {MAX_PRIME}, got {self.p}")
        if not _is_odd_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.N < 2:
            raise ValueError(f"N must be at least 2, got {self.N}")
        if self.M < 0:
            raise ValueError(f"M must be non-negative, got {self.M}")
        if self.M > MAX_M:
            raise ValueError(f"M must be at most {MAX_M}, got {self.M}")
        top = self.p**self.N - 1
        for name, value in (("modulus", top + 1),
                            ("int64_safe", top < _INT64_STORAGE_LIMIT),
                            ("int64_scalar_max", _INT64_MAX // top)):
            object.__setattr__(self, name, value)

    def reduce_precision(self, new_n: int) -> "PrecisionContext":
        if new_n > self.N:
            raise PrecisionInsufficient(
                f"cannot raise precision from {self.N} to {new_n}")
        if new_n == self.N:
            return self
        return PrecisionContext(self.p, new_n, self.M)

    def to_json(self) -> dict:
        return {"p": self.p, "N": self.N, "M": self.M}


def storage_dtype(context: PrecisionContext):
    """The dtype of every coefficient array over this context."""
    return np.int64 if context.int64_safe else object


def mul_mod(arr: np.ndarray, k, context: PrecisionContext, k_max: int | None = None
            ) -> np.ndarray:
    """arr * k mod p^N, exactly, for a residue array arr and 0 <= k <= k_max.

    k is an int (k_max defaults to k) or an integer array that broadcasts
    against arr.  The product is formed in arr's dtype when
    (p^N - 1) k_max < 2^63, and in Python integers otherwise.
    """
    if k_max is None:
        k_max = k
    if k_max <= context.int64_scalar_max:
        return arr * k % context.modulus
    out = np.multiply(arr, k, dtype=object) % context.modulus
    return out.astype(arr.dtype, copy=False)


def _check_same_context(a, b):
    if a.context != b.context:
        raise ContextMismatch(f"{a.context} vs {b.context}")


class TruncatedSeries:
    """Element of W[[t]]/(p^N, t^(M+1)) with canonical integer coefficients:
    a read-only view of one (M+1,) coefficient array."""

    __slots__ = ("context", "_arr")

    def __init__(self, context: PrecisionContext, coefficients=()):
        self.context = context
        arr = np.zeros(context.M + 1, dtype=storage_dtype(context))
        for n, c in zip(range(context.M + 1), coefficients):
            arr[n] = int(c) % context.modulus
        arr.setflags(write=False)
        self._arr = arr

    @classmethod
    def _from_array(cls, context, arr):
        obj = object.__new__(cls)
        obj.context = context
        arr.setflags(write=False)
        obj._arr = arr
        return obj

    @classmethod
    def zero(cls, context):
        return cls(context)

    @classmethod
    def one(cls, context):
        return cls(context, (1,))

    @classmethod
    def constant(cls, context, c):
        return cls(context, (c,))

    @classmethod
    def monomial(cls, context, degree, c=1):
        return cls(context, [0] * degree + [c])  # empty beyond degree M

    def _matrix(self):
        """This series as a 1x1 SeriesMatrix over the same array."""
        from .series_matrix import SeriesMatrix
        return SeriesMatrix(self.context, self._arr[None, None])

    def coeffs(self) -> tuple:
        return tuple(self._arr.tolist())

    def is_zero(self) -> bool:
        return not self._arr.any()

    def reduce_precision(self, new_n: int) -> "TruncatedSeries":
        ctx = self.context.reduce_precision(new_n)
        if ctx is self.context:
            return self
        return TruncatedSeries._from_array(ctx, (self._arr % ctx.modulus).astype(
            storage_dtype(ctx), copy=False))

    def truncate_degree(self, d: int) -> "TruncatedSeries":
        """Reduce mod t^(d+1) inside the same ring (zero out degrees > d)."""
        if d >= self.context.M:
            return self
        arr = self._arr.copy()
        arr[d + 1:] = 0
        return TruncatedSeries._from_array(self.context, arr)

    def __add__(self, other):
        _check_same_context(self, other)
        return TruncatedSeries._from_array(
            self.context, (self._arr + other._arr) % self.context.modulus)

    def __sub__(self, other):
        _check_same_context(self, other)
        return TruncatedSeries._from_array(
            self.context, (self._arr - other._arr) % self.context.modulus)

    def __neg__(self):
        return TruncatedSeries._from_array(
            self.context, (-self._arr) % self.context.modulus)

    def __mul__(self, other):
        ctx = self.context
        if isinstance(other, int):
            return TruncatedSeries._from_array(
                ctx, mul_mod(self._arr, other % ctx.modulus, ctx))
        _check_same_context(self, other)
        product = self._matrix() @ other._matrix()
        return TruncatedSeries._from_array(ctx, product.arr[0, 0])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.context == other.context and bool(
            np.array_equal(self._arr, other._arr))

    def __hash__(self):
        return hash((self.context, self.coeffs()))

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; raises ZeroDivisionError unless the
        constant term is a unit."""
        from .series_matrix import series_inverse
        return TruncatedSeries._from_array(
            self.context, series_inverse(self._matrix()).arr[0, 0])

    def __str__(self):
        terms = [f"{int(c)}*t^{n}" for n, c in enumerate(self._arr) if c]
        return " + ".join(terms) if terms else "0"

    __repr__ = __str__


@dataclass(frozen=True)
class OneForm:
    """An element g*dt with g a truncated series.

    The body produced by differentiation is only trusted through degree
    M-1; comparisons of derived one-forms should use is_zero_through(M-1).
    """

    body: TruncatedSeries

    @property
    def context(self) -> PrecisionContext:
        return self.body.context

    @classmethod
    def zero(cls, context):
        return cls(TruncatedSeries.zero(context))

    def is_zero(self) -> bool:
        return self.body.is_zero()

    def is_zero_through(self, degree: int) -> bool:
        return not self.body._arr[:degree + 1].any()

    def __sub__(self, other):
        return OneForm(self.body - other.body)

    def __str__(self):
        return f"({self.body}) dt"


# -- the calculus, once, on the last axis of a (..., M+1) coefficient array --


def derivative_coeffs(arr: np.ndarray, context: PrecisionContext) -> np.ndarray:
    """d/dt along the last axis, as one-form bodies; the body coefficient at
    degree M is unknowable and set to 0."""
    m = context.M
    out = np.zeros_like(arr)
    if m >= 1:
        idx = np.arange(1, m + 1, dtype=arr.dtype)
        out[..., :m] = mul_mod(arr[..., 1:], idx, context, m)
    return out


def frobenius_coeffs(arr: np.ndarray, context: PrecisionContext) -> np.ndarray:
    """The substitution t |-> t^p along the last axis."""
    out = np.zeros_like(arr)
    out[..., ::context.p] = arr[..., :context.M // context.p + 1]
    return out


def oneform_pullback_coeffs(arr: np.ndarray, context: PrecisionContext
                            ) -> np.ndarray:
    """Pullback of one-form bodies along the last axis:
    g |-> g(t^p) * p * t^(p-1)."""
    p = context.p
    out = np.zeros_like(arr)
    # degree n goes to p n + p - 1, which is at most M for n < (M+1)/p
    out[..., p - 1::p] = mul_mod(arr[..., :(context.M + 1) // p], p, context)
    return out


def derivative(a: TruncatedSeries) -> OneForm:
    """Formal derivative; the body coefficient at degree M is unknowable and set to 0."""
    return OneForm(TruncatedSeries._from_array(
        a.context, derivative_coeffs(a._arr, a.context)))


def integrate(form):
    """Antiderivative with zero constant term, of a OneForm or, entrywise,
    of a matrix of one-form bodies (a SeriesMatrix).

    Works along the last axis of the (..., M+1) coefficient array.  Each
    body coefficient g_n (n <= M-1) must satisfy v_p(g_n) >= v_p(n+1);
    otherwise NonIntegrable is raised, naming the first failing entry in
    row-major order (``index``, empty for a OneForm) and its lowest failing
    body degree (``degree``).  Following the global-precision model, the
    whole result, every entry of a matrix alike, is returned at the one
    reduced precision N' = N - max v_p(n+1) over the nonzero g_n.  Raises
    PrecisionInsufficient when N' < 2; non-integrability of any entry is
    reported first.  Returns a TruncatedSeries for a OneForm, and a matrix
    of the argument's type otherwise.
    """
    ctx = form.context
    p, m = ctx.p, ctx.M
    body = (form.body._arr if isinstance(form, OneForm) else form.arr)[..., :m]
    # per body degree n: p^v with v = v_p(n+1), and the unit part (n+1)/p^v
    unit = np.arange(1, m + 1)
    pv = np.ones(m, dtype=np.int64)
    if p <= m:  # a larger p divides no n+1 <= M (and may exceed int64)
        while (hit := unit % p == 0).any():
            unit[hit] //= p
            pv[hit] *= p
    bad = (body % pv).astype(bool)
    if bad.any():
        *index, degree = (int(x) for x in np.argwhere(bad)[0])
        raise NonIntegrable(degree, tuple(index))
    used = body.any(axis=tuple(range(body.ndim - 1)))
    loss = p_valuation(int(pv[used].max(initial=1)), p)
    if ctx.N - loss < 2:
        raise PrecisionInsufficient(
            f"integration would exhaust the p-adic precision (loss {loss} "
            f"of N={ctx.N} digits)")
    new_ctx = ctx.reduce_precision(ctx.N - loss)
    mod = new_ctx.modulus
    dtype = storage_dtype(new_ctx)
    inv = np.array([pow(int(u), -1, mod) for u in unit], dtype=dtype)
    out = np.zeros(body.shape[:-1] + (m + 1,), dtype=dtype)
    # exact: p^v divides every coefficient it is applied to
    quot = (body // pv % mod).astype(dtype, copy=False)
    out[..., 1:] = mul_mod(quot, inv, new_ctx, int(inv.max(initial=0)))
    if isinstance(form, OneForm):
        return TruncatedSeries._from_array(new_ctx, out)
    return type(form)(new_ctx, out)


def frobenius_pullback(a: TruncatedSeries) -> TruncatedSeries:
    """Substitution t |-> t^p, a ring endomorphism of the quotient."""
    return TruncatedSeries._from_array(a.context,
                                       frobenius_coeffs(a._arr, a.context))


def oneform_pullback(form: OneForm) -> OneForm:
    """Pullback of g(t) dt along t |-> t^p, namely g(t^p) * p * t^(p-1) dt."""
    return OneForm(TruncatedSeries._from_array(
        form.context, oneform_pullback_coeffs(form.body._arr, form.context)))
