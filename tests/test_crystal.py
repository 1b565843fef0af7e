import ast
import itertools
import pathlib
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import crystal_lab
from crystal_lab import (FCrystalPresentation, TruncatedSeries, check_horizontality,
                         check_pairing_compat, direct_sum, hom_crystal,
                         make_standard_crystal, newton_slopes,
                         orthogonal_complement)
from crystal_lab import crystal
from crystal_lab.crystal import (SlopeMultiset, charpoly_int, _adjugate,
                                 _charpoly_berkowitz,
                                 _charpoly_generalized_permutation,
                                 induced_maps)
from crystal_lab.errors import (ContextMismatch, NonInvertible, NotConstant,
                                NotPerfect, NotStable, PrecisionInsufficient,
                                UnsupportedHeight)
from crystal_lab.padic_series import PrecisionContext, p_valuation
from crystal_lab.series_matrix import SeriesMatrix, zeros_array
from test_series_matrix import naive_matmul, random_matrix

PACKAGE = pathlib.Path(crystal_lab.__file__).resolve().parent


def constant_crystal(ctx, rows, weight=2):
    n = len(rows)
    f = SeriesMatrix.from_series_rows(ctx, rows)
    z = SeriesMatrix.zeros(ctx, n, n)
    return FCrystalPresentation(ctx, n, f, z, z, weight)


def charpoly_leibniz(rows):
    """Independent characteristic polynomial via permutation expansion of
    det(xI - A); exponential, for small sizes only."""
    n = len(rows)
    poly = [0] * (n + 1)  # coefficient of x^k at index k

    def sign(perm):
        s = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    s = -s
        return s

    for perm in itertools.permutations(range(n)):
        fixed = [i for i in range(n) if perm[i] == i]
        moved = [i for i in range(n) if perm[i] != i]
        base = 1
        for i in moved:
            base *= -rows[i][perm[i]]
        # expand prod over fixed of (x - a_ii)
        expanded = {0: 1}
        for i in fixed:
            nxt = {}
            for deg, c in expanded.items():
                nxt[deg + 1] = nxt.get(deg + 1, 0) + c
                nxt[deg] = nxt.get(deg, 0) - c * rows[i][i]
            expanded = nxt
        s = sign(perm)
        for deg, c in expanded.items():
            poly[deg] += s * base * c
    return [poly[n - k] for k in range(n + 1)]  # high -> low


class TestStandardCrystals:
    def test_sub1_matrix_h2(self, ctx3):
        c = make_standard_crystal(ctx3, 2, "sub1")
        assert c.frobenius.constant_layer() == [[0, 1], [3, 0]]

    def test_super1_wraps_with_p_squared(self, ctx3):
        c = make_standard_crystal(ctx3, 3, "super1")
        layer = c.frobenius.constant_layer()
        assert layer[0][2] == 9
        assert layer[1][0] == layer[2][1] == 3

    def test_slope1_is_scalar(self, ctx3):
        c = make_standard_crystal(ctx3, 2, "slope1", rho=4)
        assert c.rank == 4
        assert c.frobenius == SeriesMatrix.identity(ctx3, 4, scale=3)
        rep = check_pairing_compat(c)
        assert rep.passed and rep.perfect

    def test_height_range(self, ctx3):
        for h in (1, 0, 11):
            with pytest.raises(UnsupportedHeight):
                make_standard_crystal(ctx3, h, "sub1")

    @pytest.mark.parametrize("kind", ["sub1", "super1", "slope1", "pair"])
    @pytest.mark.parametrize("h", range(2, 11))
    def test_checkers_pass(self, ctx3, h, kind):
        c = make_standard_crystal(ctx3, h, kind, rho=3 if kind == "slope1" else None)
        assert check_horizontality(c).passed
        rep = check_pairing_compat(c)
        assert rep.passed
        if kind in ("slope1", "pair"):
            assert rep.perfect

    def test_isotropic_blocks_are_not_perfect(self, ctx3):
        rep = check_pairing_compat(make_standard_crystal(ctx3, 2, "sub1"))
        assert rep.passed and not rep.perfect


@pytest.mark.parametrize("n_digits", [8, 40], ids=["int64", "object"])
@pytest.mark.parametrize("weight, shift", [(0, 1), (1, 1), (2, 2), (3, 5)])
def test_pairing_compat_below_weight_zero(n_digits, weight, shift):
    # at w = weight - 2 shift < 0 the check scales F^T G F by p^-w rather
    # than phi*(G) by p^w; the reference computes the residual directly
    ctx = PrecisionContext(3, n_digits, 7)
    rng = random.Random(f"{n_digits} {weight} {shift}")
    f, a, b = (random_matrix(rng, ctx, 2, 2) for _ in range(3))
    verdicts = []
    for g in (b + b.transpose(), SeriesMatrix.zeros(ctx, 2, 2)):
        rep = check_pairing_compat(
            FCrystalPresentation(ctx, 2, f, a, g, weight, shift))
        lhs = naive_matmul(naive_matmul(f.transpose(), g), f).arr
        phi = np.zeros_like(g.arr)
        phi[..., ::3] = g.arr[..., :ctx.M // 3 + 1]  # t |-> t^3
        want = (lhs * 3**(2 * shift - weight) - phi) % ctx.modulus
        assert np.array_equal(rep.residuals["frobenius"].arr, want)
        assert rep.frobenius_compatible == (not want.any())
        verdicts.append(rep.frobenius_compatible)
    assert verdicts == [False, True]


class TestInputErrors:
    def test_presentation_shapes_and_contexts(self, ctx3, ctx5):
        z = SeriesMatrix.zeros(ctx3, 2, 2)
        for name in ("frobenius", "connection", "pairing"):
            for bad, message in ((SeriesMatrix.zeros(ctx3, 2, 3), "be 2x2"),
                                 (SeriesMatrix.zeros(ctx3, 3, 2), "be 2x2"),
                                 (SeriesMatrix.zeros(ctx5, 2, 2),
                                  "context differs")):
                mats = {"frobenius": z, "connection": z, "pairing": z,
                        name: bad}
                with pytest.raises(ValueError, match=f"{name} .*{message}"):
                    FCrystalPresentation(ctx3, 2, weight=2, **mats)

    def test_unknown_kind(self, ctx3):
        with pytest.raises(ValueError, match="unknown kind 'slope2'"):
            make_standard_crystal(ctx3, 2, "slope2")

    def test_direct_sum_needs_matching_data(self, ctx3, ctx5):
        c = make_standard_crystal(ctx3, 2, "sub1")
        for other in (make_standard_crystal(ctx5, 2, "sub1"),
                      replace(c, weight=3), replace(c, frobenius_shift=1)):
            with pytest.raises(ValueError, match="matching context"):
                direct_sum(c, other)

    def test_hom_needs_one_context_and_constants(self, ctx3, ctx5):
        c = make_standard_crystal(ctx3, 2, "sub1")
        with pytest.raises(ContextMismatch, match="shared context"):
            hom_crystal(c, make_standard_crystal(ctx5, 2, "sub1"), 0)
        t = SeriesMatrix.from_series_rows(
            ctx3, [[TruncatedSeries.monomial(ctx3, 1), 0], [0, 1]])
        for moving in (replace(c, frobenius=c.frobenius + t),
                       replace(c, connection=t)):
            with pytest.raises(NotConstant):
                hom_crystal(c, moving, 0)
            with pytest.raises(NotConstant):
                hom_crystal(moving, c, 0)


def test_slope_multiset_str():
    assert str(SlopeMultiset.from_pairs([(1, 3), (Fraction(1, 2), 2)])) == \
        "{1/2 x2, 1 x3}"
    assert str(SlopeMultiset(())) == "{}"


class TestCharpoly:
    def test_cycle_fast_path_matches_berkowitz(self, ctx3):
        rng = random.Random(21)
        for n in (0, 1, 2, 3, 5):
            for _ in range(5):
                perm = list(range(n))
                rng.shuffle(perm)
                rows = [[0] * n for _ in range(n)]
                for j, i in enumerate(perm):
                    if rng.random() < 0.8:
                        rows[i][j] = rng.randrange(1, 50)
                assert _charpoly_generalized_permutation(rows) is not None
                assert charpoly_int(rows) == _charpoly_berkowitz(rows)
        # shapes the fast path must refuse
        for rows in ([[1, 0], [2, 0]], [[0, 3], [0, 4]],  # a column twice
                     [[1, 5], [0, 0]],                      # a row twice
                     [[0, 0, 2], [0, 0, 0], [7, 1, 0]],     # 2-cycle + entry
                     [[0, 1, 0], [0, 0, 0], [0, 1, 0]]):
            assert _charpoly_generalized_permutation(rows) is None
            assert charpoly_int(rows) == _charpoly_berkowitz(rows)

    def test_berkowitz_matches_leibniz(self):
        rng = random.Random(22)
        for n in (1, 2, 3, 4):
            for _ in range(5):
                rows = [[rng.randrange(-9, 10) for _ in range(n)]
                        for _ in range(n)]
                assert _charpoly_berkowitz(rows) == charpoly_leibniz(rows)

    @pytest.mark.parametrize("bits, cap", [(13, 48), (64, 48), (812, 17),
                                           (1024, 16)])
    def test_dense_budget_boundary(self, monkeypatch, bits, cap):
        # Berkowitz is stubbed: only the admission rule is under test
        monkeypatch.setattr(crystal, "_charpoly_berkowitz", lambda rows: "ran")
        for n in (cap, cap + 1):
            rows = [[(1 << (bits - 1)) + i + j for j in range(n)]
                    for i in range(n)]
            if n == cap:
                assert charpoly_int(rows) == "ran"
            else:
                with pytest.raises(ValueError, match="budget"):
                    charpoly_int(rows)
        # a generalized permutation of any size takes the cycle path
        big = [[1 << (bits - 1) if i == j else 0 for j in range(cap + 1)]
               for i in range(cap + 1)]
        assert charpoly_int(big)[0] == 1


class TestNewtonSlopes:
    @pytest.mark.parametrize("h", range(2, 11))
    def test_sub1(self, ctx3, h):
        s = newton_slopes(make_standard_crystal(ctx3, h, "sub1"))
        assert s.entries == ((Fraction(h - 1, h), h),)

    @pytest.mark.parametrize("h", range(2, 11))
    def test_super1(self, ctx5, h):
        s = newton_slopes(make_standard_crystal(ctx5, h, "super1"))
        assert s.entries == ((Fraction(h + 1, h), h),)

    def test_slope1(self, ctx3):
        s = newton_slopes(make_standard_crystal(ctx3, 3, "slope1", rho=5))
        assert s.entries == ((Fraction(1), 5),)

    def test_requires_constant(self, ctx3):
        f = SeriesMatrix.from_series_rows(
            ctx3, [[TruncatedSeries(ctx3, (0, 1))]])
        z = SeriesMatrix.zeros(ctx3, 1, 1)
        c = FCrystalPresentation(ctx3, 1, f, z, z, 2)
        with pytest.raises(NotConstant):
            newton_slopes(c)

    def test_zero_frobenius_is_precision_capped(self, ctx3):
        c = constant_crystal(ctx3, [[0, 0], [0, 0]])
        assert newton_slopes(c).entries == ((Fraction(ctx3.N), 2),)

    def test_slope_beyond_precision_raises(self, ctx3):
        c = constant_crystal(ctx3, [[0, 3**7], [3**7, 3**5]])
        with pytest.raises(PrecisionInsufficient):
            newton_slopes(c)

    def test_rank_zero(self, ctx3):
        c = FCrystalPresentation(ctx3, 0, SeriesMatrix.zeros(ctx3, 0, 0),
                                 SeriesMatrix.zeros(ctx3, 0, 0),
                                 SeriesMatrix.zeros(ctx3, 0, 0), 2)
        assert newton_slopes(c).entries == ()


class TestHomCrystal:
    def test_twist_two_h2(self, ctx3):
        hom = hom_crystal(make_standard_crystal(ctx3, 2, "super1"),
                          make_standard_crystal(ctx3, 2, "sub1"), 2)
        assert newton_slopes(hom).entries == ((Fraction(1), 4),)

    @pytest.mark.parametrize("h", [2, 3, 5])
    def test_twist_zero_slopes(self, ctx3, h):
        hom = hom_crystal(make_standard_crystal(ctx3, h, "super1"),
                          make_standard_crystal(ctx3, h, "sub1"), 0)
        assert newton_slopes(hom).entries == ((Fraction(-2, h), h * h),)

    def test_endomorphisms_contain_slope_zero(self, ctx3):
        c = make_standard_crystal(ctx3, 3, "sub1")
        hom = hom_crystal(c, c, 0)
        slopes = dict(newton_slopes(hom).entries)
        assert slopes.get(Fraction(0), 0) >= c.rank

    @pytest.mark.parametrize("k1,k2", [("sub1", "super1"), ("super1", "sub1"),
                                       ("sub1", "sub1")])
    def test_weighted_sum_rule(self, ctx5, k1, k2):
        c1 = make_standard_crystal(ctx5, 3, k1)
        c2 = make_standard_crystal(ctx5, 4, k2)
        tw = 2
        hom = hom_crystal(c1, c2, tw)
        lhs = newton_slopes(hom).weighted_sum()
        s1 = newton_slopes(c1).weighted_sum()
        s2 = newton_slopes(c2).weighted_sum()
        assert lhs == c1.rank * c2.rank * tw + c1.rank * s2 - c2.rank * s1

    def test_non_invertible(self, ctx3):
        c = constant_crystal(ctx3, [[0, 0], [0, 0]])
        ok = make_standard_crystal(ctx3, 2, "sub1")
        with pytest.raises(NonInvertible):
            hom_crystal(c, ok, 2)


def fraction_inverse(rows):
    """The former crystal._fraction_inverse, Gauss-Jordan over Fractions:
    it shares no code with the adjugate that hom_crystal inverts by."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            raise NonInvertible("zero determinant at the working precision")
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            inv[k], inv[piv] = inv[piv], inv[k]
        f = a[k][k]
        a[k] = [x / f for x in a[k]]
        inv[k] = [x / f for x in inv[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                g = a[i][k]
                a[i] = [x - g * y for x, y in zip(a[i], a[k])]
                inv[i] = [x - g * y for x, y in zip(inv[i], inv[k])]
    return inv


def loop_hom_crystal(c1, c2, twist):
    """The former hom_crystal, a four-deep loop over the entries of F1^-T
    and F2 over the fraction field: the reference for the adjugate form."""
    ctx = c1.context
    p = ctx.p
    f2 = c2.frobenius.constant_layer()
    inv1 = fraction_inverse(c1.frobenius.constant_layer())
    r1, r2 = c1.rank, c2.rank
    n = r1 * r2
    tw = Fraction(p) ** twist if twist >= 0 else Fraction(1, p ** (-twist))
    entries = {}
    min_v = 0
    for i in range(r1):
        for k in range(r1):
            base = inv1[k][i] * tw  # (F1^-T)[i][k] = F1^-1[k][i]
            if base == 0:
                continue
            for j in range(r2):
                for l in range(r2):
                    x = base * f2[j][l]
                    if x == 0:
                        continue
                    entries[(i * r2 + j, k * r2 + l)] = x
                    v = p_valuation(x.numerator, p) - p_valuation(x.denominator, p)
                    min_v = min(min_v, v)
    scale = p ** (-min_v)
    mod = ctx.modulus
    rows = [[0] * n for _ in range(n)]
    for (i, j), x in entries.items():
        y = x * scale
        rows[i][j] = (y.numerator % mod) * pow(y.denominator, -1, mod) % mod
    z = SeriesMatrix.zeros(ctx, n, n)
    return FCrystalPresentation(ctx, n, SeriesMatrix.from_series_rows(ctx, rows),
                                z, z, 0, min_v)


def random_constant_rows(rng, p, rank, singular):
    """Rows of p^k * u (k in 0..2, u a unit below p^3) or 0; singular
    repeats row 0 as row 1, or zeroes it at rank 1."""
    units = [u for u in range(1, p ** 3) if u % p]
    rows = [[rng.choice([0, 1, p, p * p]) * rng.choice(units)
             for _ in range(rank)] for _ in range(rank)]
    if singular and rank:
        rows[min(1, rank - 1)] = list(rows[0]) if rank > 1 else [0]
    return rows


def hom_outcome(hom, c1, c2, twist):
    try:
        c = hom(c1, c2, twist)
    except NonInvertible as err:
        return str(err)
    return c.rank, c.frobenius.arr, c.frobenius_shift


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n_digits", [8, 40])
def test_kron_hom_matches_the_loop(p, n_digits):
    # random constant pairs of ranks 0-4 by 0-3, some with a singular F1,
    # at twists -3, 0 and 2: the same Frobenius residues and shift, or the
    # same NonInvertible message
    ctx = PrecisionContext(p, n_digits, 4)
    rng = random.Random(p * n_digits)
    seen = Counter()
    for r1, r2, twist in itertools.product(range(5), range(4), (-3, 0, 2)):
        for singular in (False, False, True):
            c1 = constant_crystal(ctx, random_constant_rows(rng, p, r1, singular))
            c2 = constant_crystal(ctx, random_constant_rows(rng, p, r2, False))
            got = hom_outcome(hom_crystal, c1, c2, twist)
            want = hom_outcome(loop_hom_crystal, c1, c2, twist)
            if isinstance(want, str):
                assert got == want
                seen["singular"] += 1
                continue
            assert got[0] == want[0] and got[2] == want[2]
            assert np.array_equal(got[1], want[1])
            assert got[1].dtype == want[1].dtype
            seen["shifted" if want[2] else "integral"] += 1
            seen["rank 0"] += want[0] == 0
    assert min(seen[k] for k in ("singular", "shifted", "integral",
                                 "rank 0")) > 0


def fraction_det(rows):
    """Determinant by elimination over Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        piv = next((i for i in range(k, len(a)) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            g = a[i][k] / a[k][k]
            a[i] = [x - g * y for x, y in zip(a[i], a[k])]
    return det


def random_integer_rows(rng, n, kind):
    """An n x n integer matrix with negative entries: "dense" (Berkowitz),
    "permutation" (a generalized permutation, the cycle fast path, singular
    when one of its entries is zero) or "singular" (a dense matrix whose
    last row is an integer combination of the others)."""
    def entry():
        return rng.randrange(-99, 100)

    if kind == "permutation":
        perm = rng.sample(range(n), n)
        return [[entry() if j == perm[i] else 0 for j in range(n)]
                for i in range(n)]
    rows = [[entry() for _ in range(n)] for _ in range(n)]
    if kind == "singular" and n:
        coeffs = [rng.randrange(-3, 4) for _ in range(n - 1)]
        rows[-1] = [sum(c * row[j] for c, row in zip(coeffs, rows))
                    for j in range(n)]
    return rows


@pytest.mark.parametrize("kind", ["dense", "permutation", "singular"])
def test_adjugate_against_fractions(kind):
    # A adj = adj A = det I on ranks 0-12; adj = det A^-1 against the
    # Gauss-Jordan reference when det != 0, and every entry is its cofactor
    # (by elimination over Fractions) up to rank 6
    rng = random.Random(kind)
    seen = Counter()
    for n in range(13):
        for _ in range(4):
            rows = random_integer_rows(rng, n, kind)
            fast = _charpoly_generalized_permutation(rows) is not None
            assert fast == (kind == "permutation" or n <= 1)
            adj, det = _adjugate(rows)
            assert det == fraction_det(rows)
            a = np.array(rows, dtype=object).reshape(n, n)
            eye = np.identity(n, dtype=object) * det
            assert np.array_equal(a @ adj, eye)
            assert np.array_equal(adj @ a, eye)
            if det:
                assert adj.tolist() == [[det * x for x in row]
                                        for row in fraction_inverse(rows)]
            if n <= 6:
                assert adj.tolist() == [
                    [(-1) ** (i + j) * fraction_det(
                        [r[:i] + r[i + 1:] for k, r in enumerate(rows)
                         if k != j]) for j in range(n)] for i in range(n)]
            seen["singular" if det == 0 else "invertible"] += 1
    if kind == "permutation":  # singular where an entry drew 0
        assert min(seen["singular"], seen["invertible"]) > 0
    else:  # rank 0 has det 1
        assert seen["singular"] == (48 if kind == "singular" else 0)


@pytest.mark.parametrize("twist", [-3, 2])
def test_dense_hom_matches_the_loop(twist):
    # a dense rank-20 F1 with 64-bit residues at N=40, far past the ranks
    # of the generator above: the same residues and shift
    ctx = PrecisionContext(3, 40, 0)
    rng = random.Random(twist)
    c1 = constant_crystal(ctx, [[rng.randrange(ctx.modulus) for _ in range(20)]
                                for _ in range(20)])
    c2 = constant_crystal(ctx, random_constant_rows(rng, 3, 2, False))
    got = hom_outcome(hom_crystal, c1, c2, twist)
    want = hom_outcome(loop_hom_crystal, c1, c2, twist)
    assert got[0] == want[0] == 40 and got[2] == want[2]
    assert np.array_equal(got[1], want[1])
    assert got[1].dtype == want[1].dtype


# the slope code, the only code of the package that names Fraction
FRACTION_SCOPES = {("crystal.py", "SlopeMultiset"),
                   ("crystal.py", "newton_slopes"),
                   ("moduli.py", "SlopeReport")}


def fraction_names(file_name: str, source: str) -> list:
    """Where a module names Fraction outside its imports and the slope code."""
    found = []
    for top in ast.parse(source).body:
        if (isinstance(top, (ast.Import, ast.ImportFrom))
                or (file_name, getattr(top, "name", None)) in FRACTION_SCOPES):
            continue
        found += [f"{getattr(top, 'name', '?')} (line {node.lineno})"
                  for node in ast.walk(top)
                  if "Fraction" in (getattr(node, "id", None),
                                    getattr(node, "attr", None))]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_slope_code_takes_fractions(path):
    assert fraction_names(path.name, path.read_text()) == []


def test_the_fraction_rule_is_reported():
    source = ("from fractions import Fraction\n"
              "import fractions\n"
              "def newton_slopes(c):\n"
              "    return Fraction(1)\n"
              "def hom_crystal(c1, c2, twist):\n"
              "    return fractions.Fraction(c1) ** twist\n"
              "class SlopeReport:\n"
              "    slope: Fraction\n")
    assert fraction_names("crystal.py", source) == [
        "hom_crystal (line 6)", "SlopeReport (line 8)"]
    assert fraction_names("moduli.py", source) == [
        "newton_slopes (line 4)", "hom_crystal (line 6)"]


class TestOrthogonalComplement:
    def build(self, ctx, h=2, rho=3):
        pair = make_standard_crystal(ctx, h, "pair")
        sl = make_standard_crystal(ctx, h, "slope1", rho=rho)
        return pair, sl, direct_sum(pair, sl)

    def test_block_perp(self, ctx3):
        pair, sl, c = self.build(ctx3)
        vecs = []
        for k in range(sl.rank):
            v = [0] * c.rank
            v[pair.rank + k] = 1
            vecs.append(v)
        res = orthogonal_complement(c, vecs)
        assert res.presentation.frobenius == pair.frobenius
        assert res.presentation.pairing == pair.pairing
        assert check_horizontality(res.presentation).passed
        assert check_pairing_compat(res.presentation).passed

    def test_whole_space(self, ctx3):
        _, _, c = self.build(ctx3)
        vecs = [[int(i == k) for i in range(c.rank)] for k in range(c.rank)]
        res = orthogonal_complement(c, vecs)
        assert res.presentation.rank == 0
        assert check_horizontality(res.presentation).passed
        assert check_pairing_compat(res.presentation).passed

    def test_involution_recovers_span(self, ctx3):
        pair, sl, c = self.build(ctx3)
        vecs = []
        for k in range(sl.rank):
            v = [0] * c.rank
            v[pair.rank + k] = 1
            vecs.append(v)
        res = orthogonal_complement(c, vecs)
        res2 = orthogonal_complement(
            c, [[res.basis.entry(i, j) for i in range(c.rank)]
                for j in range(res.basis.cols)])
        assert res2.presentation.rank == sl.rank
        assert newton_slopes(res2.presentation).entries == ((Fraction(1), sl.rank),)
        # every original generator lies in the double-perp span
        for vec in vecs:
            target = SeriesMatrix.from_series_rows(
                c.context, [[x] for x in vec])
            coords = SeriesMatrix(c.context, target.arr[list(res2.free_rows)])
            assert res2.basis @ coords == target

    def test_conjugated_block(self, ctx3):
        # a unit change of basis must not change the perp's invariants
        rng = random.Random(31)
        pair, sl, c = self.build(ctx3, h=2, rho=2)
        n = c.rank
        while True:
            rows = [[rng.randrange(ctx3.modulus) for _ in range(n)]
                    for _ in range(n)]
            from crystal_lab.series_matrix import det_mod_p
            if det_mod_p(rows, 3) != 0:
                break
        t = SeriesMatrix.from_series_rows(ctx3, rows)
        adj, det = _adjugate(rows)
        mod = ctx3.modulus
        t_inv = SeriesMatrix.from_series_rows(
            ctx3, (adj * pow(det, -1, mod) % mod).tolist())
        assert t_inv @ t == SeriesMatrix.identity(ctx3, n)
        conj = FCrystalPresentation(
            ctx3, n, t_inv @ c.frobenius @ t, SeriesMatrix.zeros(ctx3, n, n),
            t.transpose() @ c.pairing @ t, c.weight)
        assert check_horizontality(conj).passed
        assert check_pairing_compat(conj).passed
        # the slope1 block, expressed in the new coordinates
        vecs = [[t_inv.entry(i, pair.rank + k) for i in range(n)]
                for k in range(sl.rank)]
        res = orthogonal_complement(conj, vecs)
        assert res.presentation.rank == pair.rank
        assert newton_slopes(res.presentation) == newton_slopes(pair)
        assert check_horizontality(res.presentation).passed
        rep = check_pairing_compat(res.presentation)
        assert rep.passed and rep.perfect

    def test_empty_subspace_and_rank_zero(self, ctx3):
        # nothing to annihilate: the crystal itself, on the identity basis
        _, _, c = self.build(ctx3)
        zero = make_standard_crystal(ctx3, 2, "slope1", rho=0)
        for pres, vecs in ((c, []), (zero, []), (zero, [[]])):
            res = orthogonal_complement(pres, vecs)
            assert res.presentation is pres
            assert res.basis == SeriesMatrix.identity(ctx3, pres.rank)
            assert res.free_rows == tuple(range(pres.rank))

    def test_subspace_vectors_have_the_rank(self, ctx3):
        _, _, c = self.build(ctx3)
        with pytest.raises(ValueError, match="wrong length"):
            orthogonal_complement(c, [[1] * c.rank, [1] * (c.rank - 1)])

    def test_degenerate_subspace_rejected(self, ctx3):
        _, _, c = self.build(ctx3)
        vec = [0] * c.rank
        vec[0] = 1  # isotropic direction in the antidiagonal pairing block
        with pytest.raises(NotPerfect):
            orthogonal_complement(c, [vec])


def full_check_induced_maps(frobenius, connection, basis, pivot_rows):
    """The former induced_maps, which checks both closure equations on
    every row: the reference for the pivot-row rule."""
    ctx = basis.context
    pivot_rows = list(pivot_rows)
    rhs_f = frobenius @ basis.phi_pullback()
    f = SeriesMatrix(ctx, rhs_f.arr[pivot_rows])
    if basis @ f != rhs_f:
        raise NotStable("span is not Frobenius-stable")
    rhs_a = connection @ basis
    if not basis.is_constant():
        rhs_a = basis.derivative_bodies() + rhs_a
    a = SeriesMatrix(ctx, rhs_a.arr[pivot_rows])
    if not (basis @ a - rhs_a).is_zero_through(ctx.M - 1):
        raise NotStable("span is not connection-stable")
    return f, (a.truncate_degree(ctx.M - 1) if ctx.M >= 1 else a)


def outcome(read_off, *args):
    try:
        return read_off(*args)
    except NotStable as err:
        return str(err)


def random_span(rng, ctx, n, k, lead, others, broken):
    """(frobenius, connection, basis, pivot_rows, (f, a)) for a rank-k span
    in rank n.  The basis is lead on its pivot rows (in a random order):
    "identity", "swap" (two columns exchanged) or "tail" (the identity plus
    t at one off-diagonal entry); others ("random", "constant" or "zero")
    fills its other rows.  The maps are T X T^-1 for T = (basis | unit
    columns of the other rows), with X block upper triangular, so the span
    is stable, and (f, a) are X's top-left blocks, unless broken names the
    equation ("frobenius" or "connection") whose X gets one entry below
    the blocks."""
    pivots = rng.sample(range(n), k)
    rest = [r for r in range(n) if r not in pivots]
    p_arr = SeriesMatrix.identity(ctx, k).arr.copy()
    p_inv = p_arr.copy()
    if lead == "swap":
        p_arr, p_inv = p_arr[[1, 0, *range(2, k)]], p_inv[:, [1, 0, *range(2, k)]]
    elif lead == "tail":
        p_arr[0, 1, 1], p_inv[0, 1, 1] = 1, ctx.modulus - 1
    lead_m, lead_inv = SeriesMatrix(ctx, p_arr), SeriesMatrix(ctx, p_inv)
    low = (SeriesMatrix.zeros(ctx, n - k, k) if others == "zero" else
           random_matrix(rng, ctx, n - k, k, constant=others == "constant"))
    t = zeros_array(ctx, n, n)
    t_inv = zeros_array(ctx, n, n)
    t[np.ix_(pivots, range(k))] = lead_m.arr
    t[np.ix_(rest, range(k))] = low.arr
    t[rest, range(k, n), 0] = 1
    t_inv[np.ix_(range(k), pivots)] = lead_inv.arr
    t_inv[np.ix_(range(k, n), pivots)] = (-(low @ lead_inv)).arr
    t_inv[range(k, n), rest, 0] = 1
    t, t_inv = SeriesMatrix(ctx, t), SeriesMatrix(ctx, t_inv)
    x = {}
    for name in ("frobenius", "connection"):
        arr = random_matrix(rng, ctx, n, n).arr.copy()
        arr[k:, :k] = 0
        if broken == name:
            arr[rng.randrange(k, n), rng.randrange(k), rng.randrange(ctx.M)] = 1
        x[name] = SeriesMatrix(ctx, arr)
    frobenius = t @ x["frobenius"] @ t_inv.phi_pullback()
    connection = (t @ x["connection"] - t.derivative_bodies()) @ t_inv
    basis = SeriesMatrix(ctx, t.arr[:, :k].copy())
    return frobenius, connection, basis, pivots, \
        tuple(m.arr[:k, :k] for m in x.values())


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("n_digits", [8, 40])
def test_pivot_row_rule_matches_the_full_check(p, n_digits):
    # the closure checks skip the pivot rows where the basis is the
    # identity; over stable and unstable spans, with bases that are and
    # are not the identity there, the full check on every row gives the
    # same (f, a) or the same NotStable message
    ctx = PrecisionContext(p, n_digits, 4)
    rng = random.Random(p * n_digits)
    seen = Counter()
    for lead, others, broken in itertools.product(
            ("identity", "swap", "tail"), ("random", "constant", "zero"),
            (None, "frobenius", "connection")):
        for n, k in ((4, 2), (6, 3)):
            args = random_span(rng, ctx, n, k, lead, others, broken)
            expected = outcome(full_check_induced_maps, *args[:4])
            assert outcome(induced_maps, *args[:4]) == expected
            seen[expected if isinstance(expected, str) else "stable"] += 1
            if lead == "identity":
                # the construction: stable exactly when nothing is broken
                assert isinstance(expected, str) == (broken is not None)
                if broken is None:
                    f, a = expected
                    top = args[4][1].copy()
                    top[..., ctx.M] = 0
                    assert np.array_equal(f.arr, args[4][0])
                    assert np.array_equal(a.arr, top)
    assert seen.keys() == {"stable", "span is not Frobenius-stable",
                           "span is not connection-stable"}
