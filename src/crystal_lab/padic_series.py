"""Exact arithmetic in Z/p^N and in the truncated series ring W[[t]]/(p^N, t^(M+1)).

All values are immutable and all operations are pure functions, so objects
may be shared freely across threads.  Coefficients are canonical residues
in [0, p^N); equality is bit-exact.  The Frobenius lift is fixed as
t |-> t^p with the identity on coefficients, so the lift acts on series by
monomial substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContextMismatch, NonIntegrable, PrecisionInsufficient

_INT64_MAX = 2**63 - 1

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
    3.3e24, the range where the primality test is proven exact), N >= 2
    and M >= 0.
    """

    p: int
    N: int
    M: int

    def __post_init__(self):
        if self.p >= MAX_PRIME:
            raise ValueError(f"p must be below {MAX_PRIME}, got {self.p}")
        if not _is_odd_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.N < 2:
            raise ValueError(f"N must be at least 2, got {self.N}")
        if self.M < 0:
            raise ValueError(f"M must be non-negative, got {self.M}")

    @property
    def modulus(self) -> int:
        return _modulus(self.p, self.N)

    @property
    def int64_safe(self) -> bool:
        """Whether coefficients are stored as int64: every elementwise and
        series operation sums at most M+1 products of two residues, so it
        fits when (M+1)(p^N - 1)^2 < 2^63.  Matrix products choose their own
        arithmetic from their operand shapes (see series_matrix)."""
        return (self.M + 1) * (self.modulus - 1) ** 2 <= _INT64_MAX

    def reduce_precision(self, new_n: int) -> "PrecisionContext":
        if new_n > self.N:
            raise PrecisionInsufficient(
                f"cannot raise precision from {self.N} to {new_n}")
        if new_n == self.N:
            return self
        return PrecisionContext(self.p, new_n, self.M)

    def to_json(self) -> dict:
        return {"p": self.p, "N": self.N, "M": self.M}


@lru_cache(maxsize=None)
def _modulus(p: int, n: int) -> int:
    return p**n


def _check_same_context(a, b):
    if a.context != b.context:
        raise ContextMismatch(f"{a.context} vs {b.context}")


@dataclass(frozen=True)
class PAdicScalar:
    """A residue class mod p^N with precision-capped valuation."""

    context: PrecisionContext
    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", int(self.value) % self.context.modulus)

    def valuation(self) -> int:
        """min(v_p(value), N); the zero residue reports N."""
        if self.value == 0:
            return self.context.N
        return p_valuation(self.value, self.context.p)

    def is_unit(self) -> bool:
        return self.value % self.context.p != 0

    def inverse(self) -> "PAdicScalar":
        if not self.is_unit():
            raise ZeroDivisionError("not a unit mod p")
        return PAdicScalar(self.context, pow(self.value, -1, self.context.modulus))

    def reduce_precision(self, new_n: int) -> "PAdicScalar":
        ctx = self.context.reduce_precision(new_n)
        return PAdicScalar(ctx, self.value % ctx.modulus)

    def __add__(self, other):
        _check_same_context(self, other)
        return PAdicScalar(self.context, self.value + other.value)

    def __sub__(self, other):
        _check_same_context(self, other)
        return PAdicScalar(self.context, self.value - other.value)

    def __mul__(self, other):
        if isinstance(other, int):
            return PAdicScalar(self.context, self.value * other)
        _check_same_context(self, other)
        return PAdicScalar(self.context, self.value * other.value)

    __rmul__ = __mul__

    def __neg__(self):
        return PAdicScalar(self.context, -self.value)

    def __str__(self):
        return str(self.value)


class TruncatedSeries:
    """Element of W[[t]]/(p^N, t^(M+1)) with canonical integer coefficients."""

    __slots__ = ("context", "_arr")

    def __init__(self, context: PrecisionContext, coefficients=()):
        self.context = context
        arr = np.zeros(context.M + 1, dtype=np.int64 if context.int64_safe else object)
        mod = context.modulus
        for n, c in enumerate(coefficients):
            if n > context.M:
                break
            arr[n] = int(c) % mod
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
        if degree > context.M:
            return cls(context)
        coeffs = [0] * (degree + 1)
        coeffs[degree] = c
        return cls(context, coeffs)

    def coeffs(self) -> tuple:
        return tuple(int(c) for c in self._arr)

    def coefficient(self, n: int) -> PAdicScalar:
        return PAdicScalar(self.context, int(self._arr[n]))

    def constant_term(self) -> int:
        return int(self._arr[0])

    def in_t_ideal(self) -> bool:
        """True iff the series lies in tW[[t]], i.e. has zero constant term."""
        return int(self._arr[0]) == 0

    def is_zero(self) -> bool:
        return not self._arr.any()

    def support(self) -> tuple:
        return tuple(int(n) for n in np.nonzero(self._arr)[0])

    def min_valuation(self) -> int:
        """min over coefficients of v_p, capped at N (N for the zero series)."""
        v = self.context.N
        for c in self._arr:
            c = int(c)
            if c:
                v = min(v, p_valuation(c, self.context.p))
                if v == 0:
                    break
        return v

    def reduce_precision(self, new_n: int) -> "TruncatedSeries":
        ctx = self.context.reduce_precision(new_n)
        if ctx is self.context:
            return self
        return TruncatedSeries(ctx, self.coeffs())

    def truncate_degree(self, d: int) -> "TruncatedSeries":
        """Reduce mod t^(d+1) inside the same ring (zero out degrees > d)."""
        if d >= self.context.M:
            return self
        arr = self._arr.copy()
        arr[d + 1:] = 0
        return TruncatedSeries._from_array(self.context, arr)

    def reduce_mod_p_is_zero(self) -> bool:
        return not (self._arr % self.context.p).any()

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
        if isinstance(other, int):
            return TruncatedSeries._from_array(
                self.context, (self._arr * (other % self.context.modulus))
                % self.context.modulus)
        _check_same_context(self, other)
        m = self.context.M
        full = np.convolve(self._arr, other._arr)
        return TruncatedSeries._from_array(
            self.context, full[:m + 1] % self.context.modulus)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.context == other.context and bool(
            np.array_equal(self._arr, other._arr))

    def __hash__(self):
        return hash((self.context, self.coeffs()))

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires a unit constant term."""
        mod = self.context.modulus
        c0 = int(self._arr[0])
        if c0 % self.context.p == 0:
            raise ZeroDivisionError("constant term is not a unit mod p")
        inv0 = pow(c0, -1, mod)
        out = [0] * (self.context.M + 1)
        out[0] = inv0
        a = self._arr
        for n in range(1, self.context.M + 1):
            s = 0
            for k in range(1, n + 1):
                s += int(a[k]) * out[n - k]
            out[n] = (-inv0 * s) % mod
        return TruncatedSeries(self.context, out)

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

    def reduce_precision(self, new_n: int) -> "OneForm":
        return OneForm(self.body.reduce_precision(new_n))

    def __add__(self, other):
        return OneForm(self.body + other.body)

    def __sub__(self, other):
        return OneForm(self.body - other.body)

    def __neg__(self):
        return OneForm(-self.body)

    def __mul__(self, other):
        return OneForm(self.body * other)

    __rmul__ = __mul__

    def __str__(self):
        return f"({self.body}) dt"


def series_arith(a: TruncatedSeries, b: TruncatedSeries, op: str) -> TruncatedSeries:
    """Ring operation in W[[t]]/(p^N, t^(M+1)): op in {'add', 'sub', 'mul'}."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise ValueError(f"unknown op {op!r}")


def derivative(a: TruncatedSeries) -> OneForm:
    """Formal derivative; the body coefficient at degree M is unknowable and set to 0."""
    ctx = a.context
    mod = ctx.modulus
    arr = a._arr
    out = np.zeros_like(arr)
    if ctx.M >= 1:
        idx = np.arange(1, ctx.M + 1, dtype=arr.dtype)
        out[:ctx.M] = (arr[1:] * idx) % mod
    return OneForm(TruncatedSeries._from_array(ctx, out))


def integrate(form: OneForm) -> TruncatedSeries:
    """Antiderivative with zero constant term.

    Each body coefficient g_n (n <= M-1) must satisfy v_p(g_n) >= v_p(n+1);
    otherwise NonIntegrable(n) is raised.  The whole result is returned at
    the reduced precision N - max v_p(n+1) over the nonzero g_n, following
    the global-precision model.
    """
    ctx = form.context
    p = ctx.p
    body = form.body.coeffs()
    loss = 0
    for n in range(ctx.M):
        g = body[n]
        if g == 0:
            continue
        v = p_valuation(n + 1, p)
        if v:
            if p_valuation(g, p) < v:
                raise NonIntegrable(n)
            loss = max(loss, v)
    new_n = ctx.N - loss
    if new_n < 1:
        raise PrecisionInsufficient(
            f"integration would exhaust the p-adic precision (loss {loss})")
    new_ctx = ctx if loss == 0 else PrecisionContext(p, new_n, ctx.M)
    new_mod = new_ctx.modulus
    out = [0] * (ctx.M + 1)
    for n in range(ctx.M):
        g = body[n]
        if g == 0:
            continue
        k = n + 1
        v = p_valuation(k, p)
        if v:
            g //= p**v  # exact: divisibility was checked above
            k //= p**v
        out[n + 1] = (g * pow(k, -1, new_mod)) % new_mod
    return TruncatedSeries(new_ctx, out)


def frobenius_pullback(a: TruncatedSeries) -> TruncatedSeries:
    """Substitution t |-> t^p, a ring endomorphism of the quotient."""
    ctx = a.context
    out = np.zeros_like(a._arr)
    top = ctx.M // ctx.p
    out[:(top * ctx.p) + 1:ctx.p] = a._arr[:top + 1]
    return TruncatedSeries._from_array(ctx, out)


def oneform_pullback(form: OneForm) -> OneForm:
    """Pullback of g(t) dt along t |-> t^p, namely g(t^p) * p * t^(p-1) dt."""
    ctx = form.context
    p = ctx.p
    out = np.zeros_like(form.body._arr)
    src = form.body._arr
    for n in range(ctx.M + 1):
        d = p * n + p - 1
        if d > ctx.M:
            break
        out[d] = (int(src[n]) * p) % ctx.modulus
    return OneForm(TruncatedSeries._from_array(ctx, out))
