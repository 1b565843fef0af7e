"""Exact arithmetic in Z/p^N and in the truncated series ring W[[t]]/(p^N, t^(M+1)).

All values are immutable and all operations are pure functions, so objects
may be shared freely across threads.  Coefficients are canonical residues
in [0, p^N); equality is bit-exact.  The Frobenius lift is fixed as
t |-> t^p with the identity on coefficients, so the lift acts on series by
monomial substitution.

Coefficient arrays are numpy int64 when p^N < 2^62 and object arrays of
Python integers otherwise.  ``storage_dtype`` is the one switch: every
array of coefficients, in this module and the rest of the package, takes
its dtype from it, and no other code compares p^N with the limit.  On
int64 storage a sum or difference of two residues stays below 2^63, so
add, sub and neg never overflow, and ``reduce_mod`` folds them back to
residues without a division.  A multiply by integers compares a bound on
its result with a constant of the PrecisionContext before it uses int64,
and forms the product in Python integers when int64 could overflow
(``mul_mod``).

TruncatedSeries is a read-only view of one (M+1,) coefficient array, and
OneForm wraps one as a body.  Each of their operations, and the derivative
and the Frobenius and one-form pullbacks, is one call on the 1x1
``series_matrix.SeriesMatrix`` over the same array, the one ring core,
whose result ``_of`` wraps back as a series; this module states no band,
precision, truncation or calculus rule of its own.  Only ``integrate`` is
written here, on the last axis of a (..., M+1) array, for series and
matrices alike.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NonIntegrable, PrecisionInsufficient

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

    p, N and M pass through ``operator.index`` before any other check: a
    float, even 40.0, raises TypeError, and a numpy integer becomes a
    Python int, so that p^N is always exact.  Then ValueError is raised
    unless p is an odd prime below MAX_PRIME (about 3.3e24, the range where
    the primality test is proven exact), 2 <= N with N * bitlen(p) <=
    MAX_MODULUS_BITS (so N <= 512 at p = 3), and 0 <= M <= MAX_M.  The
    bound on N is checked first, before p^N is computed.

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
        for name in ("p", "N", "M"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
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


def reduce_mod(arr: np.ndarray, mod: int, bands: tuple | None = None
               ) -> np.ndarray:
    """arr mod `mod` as canonical residues in [0, mod), in arr's dtype.

    bands = (low, high), low in {-1, 0} and high in {1, 2}, states that
    every entry lies in [low mod, high mod): (0, 2) for a sum of two
    residues, (-1, 1) for a difference or negation.  On int64 such an arr
    must be the caller's fresh array: it is folded in place on its uint64
    view u, by min(u, u + mod) when low = -1 (a negative x is u = x + 2^64,
    and u + mod wraps to x + mod, while a non-negative u only grows), then
    min(u, u - mod) when high = 2 (u < mod wraps above u).  For mod < 2^62
    every true value lies in (-2^62, 3 2^62), so no step relies on signed
    overflow and the folds are exact (lazy reduction, as in Harvey, "Faster
    arithmetic for number-theoretic transforms", J. Symb. Comput. 2014).

    Otherwise, on int64 it is arr - (arr // mod) * mod: numpy divides by a
    scalar with a multiply and shift (Granlund and Montgomery, PLDI 1994),
    but takes a remainder element by element.  It is exact inside int64 for
    every entry arr >= -2^63 + mod, as then arr - mod < (arr // mod) * mod
    <= arr.  Object arrays use %, and keep Python integers.
    """
    if arr.dtype != np.int64:
        return arr % mod
    if bands is not None:
        u = arr.view(np.uint64)
        if bands[0] < 0:
            np.minimum(u, u + mod, out=u)
        if bands[1] > 1:
            np.minimum(u, u - mod, out=u)
        return arr
    q = arr // mod
    q *= mod
    # into q: a second fresh array of a large result can cost more in page
    # faults than the arithmetic itself
    return np.subtract(arr, q, out=q)


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
        return reduce_mod(arr * k, context.modulus)
    return residues(np.multiply(arr, k, dtype=object), context)


def residues(arr: np.ndarray, context: PrecisionContext) -> np.ndarray:
    """arr mod p^N in the storage dtype of the context: the one way an
    array of integers enters a context."""
    return reduce_mod(arr, context.modulus).astype(storage_dtype(context),
                                                   copy=False)


class TruncatedSeries:
    """Element of W[[t]]/(p^N, t^(M+1)) with canonical integer coefficients:
    a read-only view of one (M+1,) coefficient array."""

    __slots__ = ("context", "_arr")

    def __init__(self, context: PrecisionContext, coefficients=()):
        self.context = context
        arr = np.zeros(context.M + 1, dtype=storage_dtype(context))
        for n, c in zip(range(context.M + 1), coefficients):
            arr[n] = operator.index(c) % context.modulus
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
        if degree < 0:
            raise ValueError(f"a monomial of negative degree {degree}")
        return cls(context, [0] * degree + [c])  # empty beyond degree M

    def _matrix(self):
        """This series as a 1x1 SeriesMatrix over the same array."""
        return series_matrix.SeriesMatrix(self.context, self._arr[None, None])

    def coeffs(self) -> tuple:
        return tuple(self._arr.tolist())

    def is_zero(self) -> bool:
        return not self._arr.any()

    def reduce_precision(self, new_n: int) -> "TruncatedSeries":
        return _of(self._matrix().reduce_precision(new_n))

    def truncate_degree(self, d: int) -> "TruncatedSeries":
        """Reduce mod t^(d+1) inside the same ring (zero out degrees > d)."""
        return _of(self._matrix().truncate_degree(d))

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return _of(self._matrix() + other._matrix())

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return _of(self._matrix() - other._matrix())

    def __neg__(self):
        return _of(-self._matrix())

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return _of(self._matrix() @ other._matrix())
        try:
            k = operator.index(other)
        except TypeError:
            return NotImplemented
        return _of(self._matrix().scale_int(k))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._matrix() == other._matrix()

    def __hash__(self):
        return hash(self._matrix())

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; raises ZeroDivisionError unless the
        constant term is a unit."""
        return _of(series_matrix.series_inverse(self._matrix()))

    def __str__(self):
        terms = [f"{int(c)}*t^{n}" for n, c in enumerate(self._arr) if c]
        return " + ".join(terms) if terms else "0"

    __repr__ = __str__


def _of(matrix) -> TruncatedSeries:
    """The series of a 1x1 SeriesMatrix, over the same array."""
    return TruncatedSeries._from_array(matrix.context, matrix.arr[0, 0])


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
        return self.body._matrix().is_zero_through(degree)

    def __sub__(self, other):
        return OneForm(self.body - other.body)

    def __str__(self):
        return f"({self.body}) dt"


# -- the calculus: one call on the 1x1 SeriesMatrix, except integrate --


def derivative(a: TruncatedSeries) -> OneForm:
    """Formal derivative; the body coefficient at degree M is unknowable and set to 0."""
    return OneForm(_of(a._matrix().derivative_bodies()))


def integrate(form):
    """Antiderivative with zero constant term, of a OneForm or, entrywise,
    of a matrix of one-form bodies (a SeriesMatrix, with or without the
    leading sample axis).

    Works along the last axis of the (..., M+1) coefficient array.  Each
    body coefficient g_n (n <= M-1) must satisfy v_p(g_n) >= v_p(n+1);
    otherwise NonIntegrable is raised, naming the first failing entry in
    row-major order (``index``, empty for a OneForm) and its lowest failing
    body degree (``degree``).  Following the global-precision model, the
    result, all entries and samples alike, is one TruncatedSeries (for a
    OneForm) or matrix at N' = N - max v_p(n+1) over the nonzero g_n;
    PrecisionInsufficient is raised when N' < 2, after non-integrability.
    ``extension_group.trivialize`` decides each sample's precision, by
    integrating the samples of one loss together.
    """
    ctx, series = form.context, isinstance(form, OneForm)
    body = (form.body._arr if series else form.arr)[..., :ctx.M]
    cols, _, pv, _, _ = _integration_tables(ctx)
    part, bad, lost = _divisibility(body, ctx)
    if bad.any():
        *index, k = (int(x) for x in np.argwhere(bad)[0])
        raise NonIntegrable(int(cols[k]), tuple(index))
    loss = int(lost.max(initial=0))
    if ctx.N - loss < 2:
        raise PrecisionInsufficient(
            f"integration would exhaust the p-adic precision (loss "
            f"{loss} of N={ctx.N} digits)")
    top = ctx.reduce_precision(ctx.N - loss)
    _, _, _, inv, inv_max = _integration_tables(top)
    quot = body.copy()
    # exact: p^v divides every coefficient it is applied to
    quot[..., cols] = part // pv
    if top is not ctx:
        quot = residues(quot, top)
    out = np.zeros(body.shape[:-1] + (ctx.M + 1,), dtype=quot.dtype)
    out[..., 1:] = mul_mod(quot, inv, top, inv_max)
    return (TruncatedSeries._from_array if series else type(form))(top, out)


def _divisibility(body: np.ndarray, ctx: PrecisionContext) -> tuple:
    """(part, bad, lost) for the body coefficients g_n of ``integrate``:
    part holds them at the degrees n with p | n+1, the only ones that can
    fail v_p(g_n) >= v_p(n+1) or lose digits, bad marks where they fail,
    and lost is the largest v_p(n+1) over the nonzero ones, per sample: over
    the last three axes of part (entry rows, entry columns, degrees)."""
    cols, vp, pv, _, _ = _integration_tables(ctx)
    part = body[..., cols]
    used = part.any(axis=tuple(range(max(part.ndim - 3, 0), part.ndim - 1)))
    return part, (part % pv).astype(bool), (vp * used).max(axis=-1, initial=0)


@lru_cache(maxsize=64)
def _integration_tables(context: PrecisionContext) -> tuple:
    """(cols, v, p^v, inv, max inv) of ``integrate``: the body degrees n < M
    with v = v_p(n+1) >= 1, their v and p^v, and per body degree the inverse
    mod p^N of (n+1)/p^v.  Memoised by (p, N, M), so the arrays are
    read-only."""
    p, m = context.p, context.M
    unit = np.arange(1, m + 1)
    vp = np.zeros(m, dtype=np.int64)
    if p <= m:  # a larger p divides no n+1 <= M (and may exceed int64)
        while (hit := unit % p == 0).any():
            unit[hit] //= p
            vp[hit] += 1
    cols = np.flatnonzero(vp)
    inv = np.array([pow(int(u), -1, context.modulus) for u in unit],
                   dtype=storage_dtype(context))
    tables = (cols, vp[cols], np.array([p**v for v in vp[cols].tolist()],
                                       dtype=np.int64), inv)
    for arr in tables:
        arr.setflags(write=False)
    return (*tables, int(inv.max(initial=0)))


def frobenius_pullback(a: TruncatedSeries) -> TruncatedSeries:
    """Substitution t |-> t^p, a ring endomorphism of the quotient."""
    return _of(a._matrix().phi_pullback())


def oneform_pullback(form: OneForm) -> OneForm:
    """Pullback of g(t) dt along t |-> t^p, namely g(t^p) * p * t^(p-1) dt."""
    return OneForm(_of(form.body._matrix().oneform_pullback_bodies()))


# the ring core builds on the names above, so it is imported last
from . import series_matrix  # noqa: E402
