"""Array-native trivialization against the entry-by-entry loops it replaced.

The reference implementations below are the scalar forms of
``padic_series.integrate``, ``extension_group.trivialize`` and the congruence
chain of ``extension_group.p_torsion_check``: one antiderivative per entry
with a Python loop over degrees, one series comparison per entry and one
mod-p test per entry.  The array versions must return identical values:
the same Untrivializable triple, the same witness, and the same certificate
trace or Refuted step, in both storage regimes (int64 at N=8 and N=24,
Python integers at N=40).
"""

import random

import numpy as np
import pytest

from crystal_lab import (ExtensionContext, ExtensionData, OneForm,
                         PrecisionContext, Refuted, TorsionCertificate,
                         TrivializationWitness, TruncatedSeries,
                         Untrivializable, from_alpha, int_scale, integrate,
                         p_torsion_check, trivialize)
from crystal_lab.errors import (HypothesisMissing, NonIntegrable,
                                PrecisionInsufficient, WitnessInvalid)
from crystal_lab.extension_group import (TraceStep, _divide_matrix_by_p,
                                         _m_from_alpha, _v_from_alpha)
from crystal_lab.padic_series import p_valuation
from crystal_lab.sampling import (add_m_noise, add_v_noise, random_extension,
                                  random_witness, witness_support)
from crystal_lab.series_matrix import SeriesMatrix

DIGITS = [8, 24, 40]  # int64 desk scale, int64 near 2^38, object storage


# -- reference implementations: the entry loops ---------------------------------


def reference_integrate(form: OneForm) -> TruncatedSeries:
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
    new_ctx = ctx.reduce_precision(ctx.N - loss)
    new_mod = new_ctx.modulus
    out = [0] * (ctx.M + 1)
    for n in range(ctx.M):
        g = body[n]
        if g == 0:
            continue
        k = n + 1
        v = p_valuation(k, p)
        g //= p**v
        k //= p**v
        out[n + 1] = (g * pow(k, -1, new_mod)) % new_mod
    return TruncatedSeries(new_ctx, out)


def reference_trivialize(e: ExtensionData):
    ctx = e.context
    h = e.h
    alphas = []
    min_n = ctx.N
    for i in range(h):
        row = []
        for j in range(h):
            try:
                a = reference_integrate(OneForm(e.xi.entry(i, j)))
            except NonIntegrable as exc:
                return Untrivializable(
                    "xi", (i, j),
                    f"connection defect ({i},{j}) is not integrable at body "
                    f"degree {exc.degree}")
            row.append(a)
            min_n = min(min_n, a.context.N)
        alphas.append(row)
    red_ctx = ctx.reduce_precision(min_n)
    alpha = SeriesMatrix.from_series_rows(
        red_ctx, [[a.reduce_precision(min_n) for a in row] for row in alphas])
    v_expect = _v_from_alpha(alpha)
    v_given = e.v.reduce_precision(min_n)
    for i in range(h):
        for j in range(h):
            if v_expect.entry(i, j) != v_given.entry(i, j):
                return Untrivializable(
                    "v", (i, j), f"Frobenius equation ({i},{j}) fails")
    m_expect = _m_from_alpha(alpha)
    m_given = e.m.reduce_precision(min_n)
    for i in range(h):
        for j in range(h):
            if m_expect.entry(i, j) != m_given.entry(i, j):
                return Untrivializable(
                    "m", (i, j), f"pairing equation ({i},{j}) fails")
    return TrivializationWitness(ExtensionContext(red_ctx, h), alpha)


def reference_p_torsion_check(e: ExtensionData, w: TrivializationWitness):
    if not e.geometric_flag:
        raise HypothesisMissing("geometric_flag")
    ctx = e.context
    h = e.h
    p = ctx.p
    nc = min(ctx.N, w.context.N)
    if nc < 2:
        raise PrecisionInsufficient("need at least two p-digits to divide")
    pe = int_scale(e, p).reduce_precision(nc)
    alpha = w.alpha.reduce_precision(nc)
    if not (alpha.derivative_bodies() - pe.xi).is_zero_through(ctx.M - 1):
        raise WitnessInvalid("connection")
    if _v_from_alpha(alpha) != pe.v:
        raise WitnessInvalid("Frobenius")
    if _m_from_alpha(alpha) != pe.m:
        raise WitnessInvalid("pairing")

    trace = []

    def congruence(label, statement, series):
        ok = series.reduce_mod_p_is_zero()
        trace.append(TraceStep(label, statement, ok))
        return ok

    hyp_ok = not (e.v.arr[:, 1:, :] % p).any() if h > 1 else True
    trace.append(TraceStep("eq5-hypothesis",
                           "v columns 2..h of the extension vanish mod p",
                           hyp_ok))
    if not hyp_ok:
        return Refuted("eq5-hypothesis", "rank-1-mod-p condition fails on v")
    for i in range(h):
        if not congruence(f"diag({i})",
                          f"witness entry ({i},{i}) = p * m[{i}][{i}] "
                          "vanishes mod p", alpha.entry(i, i)):
            return Refuted(f"diag({i})", "diagonal congruence fails")
    for i in range(h):
        for j in range(i + 1, h):
            if not congruence(
                    f"sym({i},{j})",
                    f"witness entries ({i},{j}) + ({j},{i}) = p * m[{i}][{j}] "
                    "vanish mod p", alpha.entry(i, j) + alpha.entry(j, i)):
                return Refuted(f"sym({i},{j})", "symmetry congruence fails")
    for i in range(h):
        if not congruence(
                f"col-last({i})",
                f"witness entry ({i},{h - 1}) vanishes mod p (pullback "
                "faithfulness applied to the first Frobenius column)",
                alpha.entry(i, h - 1)):
            return Refuted(f"col-last({i})", "last-column congruence fails")
    for j in range(h - 2, -1, -1):
        for i in range(h):
            if not congruence(
                    f"descend({i},{j})",
                    f"witness entry ({i},{j}) vanishes mod p by downward "
                    f"column induction from column {j + 1}",
                    alpha.entry(i, j)):
                return Refuted(f"descend({i},{j})", "column induction fails")

    beta_mat = _divide_matrix_by_p(alpha)
    nb = beta_mat.context.N
    beta = TrivializationWitness(ExtensionContext(beta_mat.context, h), beta_mat)
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


# -- inputs -----------------------------------------------------------------------


def with_xi_unit(rng, e):
    """A unit added to one xi entry at a body degree n with p | n+1, so that
    entry has no antiderivative."""
    ctx = e.context
    p = ctx.p
    arr = e.xi.arr.copy()
    i, j = rng.randrange(e.h), rng.randrange(e.h)
    n = rng.choice(range(p - 1, ctx.M, p))
    arr[i, j, n] = (arr[i, j, n] + rng.randrange(1, p)) % ctx.modulus
    return ExtensionData(e.ectx, SeriesMatrix(ctx, arr), e.v, e.m)


def extensions(p, n_digits, h, seed):
    """Trivial, lossy, xi-perturbed, non-integrable, v-noise and m-noise
    extensions over one context."""
    ectx = ExtensionContext(PrecisionContext(p, n_digits, 32), h)
    rng = random.Random(seed)
    trivial = from_alpha(random_witness(rng, ectx, witness_support(ectx)))
    lossy = from_alpha(random_witness(rng, ectx, range(1, 33)))
    out = {"trivial": trivial, "lossy": lossy,
           "xi-unit": with_xi_unit(rng, trivial),
           "v-noise": add_v_noise(rng, trivial, p),
           "m-noise": add_m_noise(rng, trivial, p),
           "lossy-v-noise": add_v_noise(rng, lossy, p * p),
           "lossy-m-noise": add_m_noise(rng, lossy, p)}
    if h >= 3:
        out["xi-perturbed"] = random_extension(rng, ectx, nontrivial=True)
    return out


def corrupted_torsion_input(rng, ectx, columns):
    """A geometric extension e and a witness alpha for p*e whose defining
    equations hold, yet whose row 0 carries units at degree 2p^2, beyond the
    faithful range M/p, in the given columns (mirrored with the opposite
    sign into column 0, so that the pairing stays divisible by p)."""
    ctx = ectx.ctx
    p, mod = ctx.p, ctx.modulus
    gamma = random_witness(rng, ectx, witness_support(ectx)).alpha
    bad = np.zeros_like(gamma.arr)
    deg = 2 * p * p
    for j in columns:
        u = rng.randrange(1, p)
        bad[0, j, deg] = u
        bad[j, 0, deg] = (-u) % mod
    bad = SeriesMatrix(ctx, bad)
    alpha = SeriesMatrix(ctx, mul_p(gamma.arr, ctx)) + bad
    e_good = from_alpha(TrivializationWitness(ectx, gamma))
    e_bad = from_alpha(TrivializationWitness(ectx, bad))
    # every datum of e_bad is divisible by p, so dividing gives p*e = alpha's
    e = ExtensionData(ectx, e_good.xi + div_p(e_bad.xi),
                      e_good.v + div_p(e_bad.v), e_good.m + div_p(e_bad.m),
                      geometric_flag=True)
    return e, TrivializationWitness(ectx, alpha)


def mul_p(arr, ctx):
    return np.array(arr * ctx.p % ctx.modulus, dtype=arr.dtype)


def div_p(mat):
    assert not (mat.arr % mat.context.p).any()
    return SeriesMatrix(mat.context, mat.arr // mat.context.p)


def torsion_inputs(p, n_digits, h, seed):
    ectx = ExtensionContext(PrecisionContext(p, n_digits, 32), h)
    rng = random.Random(seed)
    out = {}
    geo = from_alpha(random_witness(rng, ectx,
                                    witness_support(ectx))).mark_geometric()
    for name, e in (("trivial", geo), ("m-noise", add_m_noise(rng, geo, p)),
                    ("v-noise", add_v_noise(rng, geo, p))):
        w = trivialize(int_scale(e, p))
        assert isinstance(w, TrivializationWitness)
        out[name] = (e, w)
    for columns in ([h - 1], [1], list(range(1, h))):
        out[f"corrupt{columns}"] = corrupted_torsion_input(rng, ectx, columns)
    return out


# -- the differential tests ---------------------------------------------------------


@pytest.mark.parametrize("n_digits", DIGITS)
@pytest.mark.parametrize("h", [2, 3, 5])
def test_trivialize_matches_entry_loop(n_digits, h):
    kinds = set()
    for seed in range(3):
        for kind, e in extensions(3, n_digits, h, 100 * h + seed).items():
            got, want = trivialize(e), reference_trivialize(e)
            assert type(got) is type(want), kind
            if isinstance(want, Untrivializable):
                assert (got.equation, got.index, got.reason) == \
                    (want.equation, want.index, want.reason), kind
                assert all(type(x) is int for x in got.index)
                kinds.add(want.equation)
            else:
                assert got == want, kind
                assert got.alpha.arr.dtype == want.alpha.arr.dtype
                kinds.add("split" if got.context.N == n_digits else "lossy")
    # every outcome occurs: a full-precision split, a lossy split, and a
    # failure of each of the three equations
    assert kinds == {"split", "lossy", "xi", "v", "m"}


@pytest.mark.parametrize("n_digits", DIGITS)
@pytest.mark.parametrize("h", [2, 3, 5])
def test_torsion_chain_matches_entry_loop(n_digits, h):
    steps = set()
    for kind, (e, w) in torsion_inputs(3, n_digits, h, 7 * h).items():
        got, want = p_torsion_check(e, w), reference_p_torsion_check(e, w)
        assert type(got) is type(want), kind
        if isinstance(want, Refuted):
            assert got == want, kind
            steps.add(want.step)
        else:
            assert got.trace == want.trace, kind
            assert all(type(s.ok) is bool for s in got.trace)
            assert (got.precision, got.beta) == (want.precision, want.beta)
            steps.add("certified")
    assert "certified" in steps and "col-last(0)" in steps
    if h > 2:
        assert "descend(0,1)" in steps


@pytest.mark.parametrize("n_digits", DIGITS)
def test_invalid_witness_rejected_like_entry_loop(n_digits):
    e, w = torsion_inputs(3, n_digits, 3, 5)["m-noise"]
    arr = w.alpha.arr.copy()
    arr[0, 2, 1] = (arr[0, 2, 1] + 1) % w.context.modulus
    bad = TrivializationWitness(w.ectx, SeriesMatrix(w.context, arr))
    for check in (p_torsion_check, reference_p_torsion_check):
        with pytest.raises(WitnessInvalid):
            check(e, bad)


# -- integrate on a matrix of one-form bodies ---------------------------------------


def random_bodies(rng, ctx, rows, cols, lossy):
    """Derivatives of random t-ideal series: integrable, and losing up to
    v_p(M) digits when lossy."""
    degrees = range(1, ctx.M + 1) if lossy else \
        [d for d in range(1, ctx.M + 1) if d % ctx.p]
    arr = np.zeros((rows, cols, ctx.M + 1),
                   dtype=np.int64 if ctx.int64_safe else object)
    for i in range(rows):
        for j in range(cols):
            for d in rng.sample(list(degrees), 4):
                arr[i, j, d] = rng.randrange(ctx.modulus)
    return SeriesMatrix(ctx, arr).derivative_bodies()


@pytest.mark.parametrize("n_digits", DIGITS)
@pytest.mark.parametrize("lossy", [False, True])
def test_integrate_matrix_equals_entrywise(n_digits, lossy):
    ctx = PrecisionContext(3, n_digits, 32)
    rng = random.Random(n_digits + lossy)
    for rows, cols in ((3, 4), (1, 1), (0, 2)):
        xi = random_bodies(rng, ctx, rows, cols, lossy)
        out = integrate(xi)
        assert isinstance(out, SeriesMatrix)
        assert (out.rows, out.cols) == (rows, cols)
        entries = [[reference_integrate(OneForm(xi.entry(i, j)))
                    for j in range(cols)] for i in range(rows)]
        common = min((a.context.N for row in entries for a in row),
                     default=n_digits)
        assert out.context == ctx.reduce_precision(common)
        assert out.arr.dtype == (np.int64 if out.context.int64_safe else object)
        for i in range(rows):
            for j in range(cols):
                assert out.entry(i, j) == entries[i][j].reduce_precision(common)
                assert integrate(OneForm(xi.entry(i, j))) == entries[i][j]


def test_integrate_matrix_names_first_failing_entry():
    ctx = PrecisionContext(3, 8, 32)
    arr = np.zeros((3, 3, 33), dtype=np.int64)
    arr[2, 0, 2] = 1      # later in row-major order, lower degree
    arr[1, 2, 8] = 1      # first failing entry, two failing degrees
    arr[1, 2, 5] = 3      # v_p(3) = 1 = v_p(6): integrable
    arr[1, 2, 17] = 2
    arr[0, 1, 1] = 1      # n + 1 = 2 is a unit: integrable
    with pytest.raises(NonIntegrable) as exc:
        integrate(SeriesMatrix(ctx, arr.copy()))
    assert exc.value.index == (1, 2) and exc.value.degree == 8
    assert all(type(x) is int for x in exc.value.index)
    # the entry loop finds the same entry and degree
    first = None
    for i in range(3):
        for j in range(3):
            try:
                reference_integrate(OneForm(TruncatedSeries(ctx, arr[i, j])))
            except NonIntegrable as ref:
                first = first or ((i, j), ref.degree)
    assert first == ((1, 2), 8)
    with pytest.raises(NonIntegrable) as exc:
        integrate(OneForm(TruncatedSeries(ctx, arr[1, 2])))
    assert exc.value.index == () and exc.value.degree == 8


def test_integrate_reports_non_integrability_before_exhaustion():
    ctx = PrecisionContext(3, 2, 5)
    arr = np.zeros((2, 2, 6), dtype=np.int64)
    arr[0, 0, 2] = 3      # integrable, but costs the second of two digits
    arr[1, 1, 2] = 1      # not integrable
    with pytest.raises(NonIntegrable) as exc:
        integrate(SeriesMatrix(ctx, arr.copy()))
    assert exc.value.index == (1, 1) and exc.value.degree == 2
    arr[1, 1, 2] = 0
    with pytest.raises(PrecisionInsufficient):
        integrate(SeriesMatrix(ctx, arr))
