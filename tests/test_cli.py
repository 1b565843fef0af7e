import json
import os
import pathlib
import random
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from crystal_lab import (ExtensionContext, ExtensionData, FCrystalPresentation,
                         PrecisionContext, Refuted, from_alpha, int_scale,
                         make_standard_crystal, trivialize)
from crystal_lab import cli, moduli, serialize
from crystal_lab.cli import run
from crystal_lab.errors import SchemaError
from crystal_lab.sampling import random_witness, witness_support
from crystal_lab.series_matrix import SeriesMatrix

from test_moduli import untrimmed


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def ectx2(ctx3):
    return ExtensionContext(ctx3, 2)


def make_extension_file(tmp_path, ectx, name, e):
    return write_json(tmp_path / name, serialize.extension_to_json(e))


class TestGenAndSlopes:
    def test_sub1_pipeline(self, capsys, tmp_path):
        out = tmp_path / "sub1.json"
        code, text, _ = run_cli(capsys, "gen", "--p", "3", "--h", "2",
                                "--N", "8", "--M", "32", "--kind", "sub1",
                                "--out", str(out))
        assert code == 0
        doc = json.loads(text)
        assert doc["rank"] == 2 and doc["schema"] == "crystal-lab/1"
        code, text, _ = run_cli(capsys, "slopes", str(out))
        assert code == 0
        assert json.loads(text)["slopes"] == [["1/2", 2]]

    def test_slope1_requires_rho(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--p", "3", "--h", "2",
                               "--kind", "slope1")
        assert code == 2 and "rho" in err

    def test_pair_checks_pass(self, capsys, tmp_path):
        out = tmp_path / "pair.json"
        run_cli(capsys, "gen", "--p", "5", "--h", "3", "--kind", "pair",
                "--out", str(out))
        code, text, _ = run_cli(capsys, "check", "horizontality", str(out))
        assert code == 0 and json.loads(text)["passed"]
        code, text, _ = run_cli(capsys, "check", "pairing", str(out))
        assert code == 0
        doc = json.loads(text)
        assert doc["passed"] and doc["perfect"]

    @pytest.mark.parametrize("argv, expected", [
        (("check", "horizontality"),
         '{"check":"horizontality","context":{"M":4,"N":8,"p":3},'
         '"passed":true,"schema":"crystal-lab/1"}'),
        (("check", "pairing"),
         '{"check":"pairing","context":{"M":4,"N":8,"p":3},"flat":true,'
         '"frobenius_compatible":true,"passed":true,"perfect":true,'
         '"schema":"crystal-lab/1","symmetric":true}'),
        (("slopes",),
         '{"context":{"M":4,"N":8,"p":3},"rank":0,"schema":"crystal-lab/1",'
         '"slopes":[]}')])
    def test_rank_zero_crystal(self, capsys, tmp_path, argv, expected):
        # the general checkers and slopes on a 0x0 crystal: an empty
        # residual, a unit empty determinant and no slopes
        out = tmp_path / "rank0.json"
        run_cli(capsys, "gen", "--M", "4", "--h", "2", "--kind", "slope1",
                "--rho", "0", "--out", str(out))
        code, text, _ = run_cli(capsys, *argv, str(out))
        assert (code, text) == (0, expected + "\n")

    def test_check_failure_exits_one(self, capsys, tmp_path):
        out = tmp_path / "pair.json"
        run_cli(capsys, "gen", "--p", "3", "--h", "2", "--kind", "pair",
                "--out", str(out))
        doc = json.loads(out.read_text())
        doc["frobenius"][0][0][1] = "1"  # t-term breaks horizontality
        bad = write_json(tmp_path / "bad.json", doc)
        code, text, _ = run_cli(capsys, "check", "horizontality", bad)
        assert code == 1
        assert json.loads(text)["passed"] is False


class TestExtensionVerbs:
    def test_baer_sum_identity(self, capsys, tmp_path, ectx2):
        rng = random.Random(1)
        e = from_alpha(random_witness(rng, ectx2, witness_support(ectx2)))
        fe = make_extension_file(tmp_path, ectx2, "e.json", e)
        fz = make_extension_file(tmp_path, ectx2, "zero.json",
                                 ExtensionData.zero(ectx2))
        code, text, _ = run_cli(capsys, "baer-sum", fe, fz, "--mode", "pp")
        assert code == 0
        assert serialize.extension_from_json(json.loads(text)) == e

    def test_trivialize_witness(self, capsys, tmp_path, ectx2):
        rng = random.Random(2)
        e = from_alpha(random_witness(rng, ectx2, witness_support(ectx2)))
        fe = make_extension_file(tmp_path, ectx2, "e.json", e)
        code, text, _ = run_cli(capsys, "trivialize", fe)
        assert code == 0
        doc = json.loads(text)
        assert doc["trivializable"] is True
        w = serialize.witness_from_json(doc)
        assert from_alpha(w) == e

    def test_trivialize_failure(self, capsys, tmp_path, ectx2):
        doc = serialize.extension_to_json(ExtensionData.zero(ectx2))
        doc["xi"][0][0][2] = "1"  # unit t^2 dt is not integrable at p=3
        f = write_json(tmp_path / "bad.json", doc)
        code, text, _ = run_cli(capsys, "trivialize", f)
        assert code == 1
        out = json.loads(text)
        assert out["trivializable"] is False and out["equation"] == "xi"

    def test_ptorsion_roundtrip(self, capsys, tmp_path, ectx2):
        rng = random.Random(3)
        gamma = random_witness(rng, ectx2, witness_support(ectx2))
        e = from_alpha(gamma).mark_geometric()
        w = trivialize(int_scale(e, 3))
        fe = make_extension_file(tmp_path, ectx2, "e.json", e)
        fw = write_json(tmp_path / "w.json", serialize.witness_to_json(w))
        code, text, _ = run_cli(capsys, "ptorsion", fe, fw)
        assert code == 0
        doc = json.loads(text)
        assert doc["certified"] and doc["precision"] == 7
        assert all(step["ok"] for step in doc["trace"])

    def test_ptorsion_refuted_report(self, capsys, monkeypatch, tmp_path,
                                     ectx2):
        # no recorded input is refuted, so the check is replaced
        rng = random.Random(3)
        e = from_alpha(random_witness(rng, ectx2, witness_support(ectx2)))
        e = e.mark_geometric()
        fe = make_extension_file(tmp_path, ectx2, "e.json", e)
        w = trivialize(int_scale(e, 3))
        fw = write_json(tmp_path / "w.json", serialize.witness_to_json(w))
        checked = []

        def refuted(*args):
            checked.append(args)
            return Refuted("congruence", "p*beta differs from alpha")

        monkeypatch.setattr(cli, "p_torsion_check", refuted)
        code, text, err = run_cli(capsys, "ptorsion", fe, fw)
        assert (code, err) == (1, "")
        assert checked == [(e, w)]
        assert json.loads(text) == {
            **serialize.header(ectx2.ctx), "certified": False,
            "step": "congruence", "detail": "p*beta differs from alpha"}

    def test_ptorsion_missing_hypothesis_is_usage_error(self, capsys, tmp_path, ectx2):
        rng = random.Random(4)
        e = from_alpha(random_witness(rng, ectx2, witness_support(ectx2)))
        w = trivialize(int_scale(e, 3))
        fe = make_extension_file(tmp_path, ectx2, "e.json", e)
        fw = write_json(tmp_path / "w.json", serialize.witness_to_json(w))
        code, _, err = run_cli(capsys, "ptorsion", fe, fw)
        assert code == 2 and "hypothesis" in err.lower()


    def test_xi_at_degree_m_is_usage_error(self, capsys, tmp_path):
        # xi[0][1] = t^M: the fast route would keep it, the diagrams drop it
        ectx = ExtensionContext(PrecisionContext(3, 8, 4), 2)
        doc = serialize.extension_to_json(ExtensionData.zero(ectx))
        doc["xi"][0][1][4] = "1"
        path = write_json(tmp_path / "e.json", doc)
        for argv in [("baer-sum", path, path, "--mode", mode)
                     for mode in ("fast", "pp", "pop")] + [("trivialize", path)]:
            code, text, err = run_cli(capsys, *argv)
            assert code == 2 and text == "" and "degree M" in err, argv

    def test_ptorsion_at_two_digits_is_usage_error(self, capsys, tmp_path):
        ectx = ExtensionContext(PrecisionContext(3, 2, 6), 2)
        e = ExtensionData.zero(ectx)
        fe = make_extension_file(tmp_path, ectx, "e.json", e)
        fw = write_json(tmp_path / "w.json", serialize.witness_to_json(
            trivialize(int_scale(e, 3))))
        code, text, err = run_cli(capsys, "ptorsion", fe, fw)
        assert code == 2 and text == "" and "quotient by p" in err

    def test_ptorsion_witness_over_another_context_names_both(
            self, capsys, tmp_path, ectx2):
        ctx5 = PrecisionContext(5, ectx2.ctx.N, ectx2.ctx.M)
        fe = make_extension_file(tmp_path, ectx2, "e.json",
                                 ExtensionData.zero(ectx2))
        fw = write_json(tmp_path / "w.json", serialize.witness_to_json(
            trivialize(ExtensionData.zero(ExtensionContext(ctx5, 2)))))
        code, text, err = run_cli(capsys, "ptorsion", fe, fw)
        assert code == 2 and text == ""
        assert str(ctx5) in err and str(ectx2.ctx) in err


class TestSamplingVerbs:
    def test_probe_at_two_digits_is_usage_error(self, capsys):
        code, text, err = run_cli(capsys, "probe", "--p", "3", "--h", "3",
                                  "--n", "4", "--N", "2", "--samples", "6",
                                  "--seed", "1")
        assert code == 2 and text == "" and "quotient by p" in err

    def test_probe_report(self, capsys):
        code, text, _ = run_cli(capsys, "probe", "--p", "3", "--h", "2",
                                "--n", "6", "--N", "8", "--samples", "10",
                                "--seed", "7")
        assert code == 0
        doc = json.loads(text)
        assert doc["samples"] == 10 and doc["counterexamples"] == []
        assert doc["seed"] == 7

    def test_probe_determinism(self, capsys):
        args = ["probe", "--p", "3", "--h", "2", "--n", "6", "--samples",
                "8", "--seed", "11"]
        _, text1, _ = run_cli(capsys, *args)
        _, text2, _ = run_cli(capsys, *args)
        assert text1 == text2

    def test_grouplaw(self, capsys):
        code, text, _ = run_cli(capsys, "grouplaw", "--p", "3", "--h", "3",
                                "--n", "5", "--samples", "5", "--seed", "13")
        assert code == 0
        doc = json.loads(text)
        assert doc["passed"] and doc["failures"] == []
        assert doc["tangent_dimension"] == 2
        # the stepwise view: one level per truncation of the base
        assert [lvl["level"] for lvl in doc["successive_levels"]] == [2, 3, 4, 5]
        assert all(lvl["agrees"] for lvl in doc["successive_levels"])

    def test_default_prime(self, capsys):
        code, text, _ = run_cli(capsys, "probe", "--h", "2", "--n", "6",
                                "--samples", "3", "--seed", "1")
        assert code == 0
        assert json.loads(text)["context"]["p"] == 3

    @pytest.mark.parametrize("verb", ["probe", "grouplaw"])
    def test_negative_samples_is_usage_error(self, capsys, verb):
        code, text, err = run_cli(capsys, verb, "--p", "3", "--h", "2",
                                  "--n", "4", "--samples", "-2", "--seed", "1")
        assert code == 2 and text == ""
        assert err == "error: --samples must be non-negative, got -2\n"

    @pytest.mark.parametrize("verb", ["probe", "grouplaw"])
    def test_zero_samples_is_valid(self, capsys, verb):
        code, text, _ = run_cli(capsys, verb, "--p", "3", "--h", "2",
                                "--n", "4", "--samples", "0", "--seed", "1")
        assert code == 0 and json.loads(text)["samples"] == 0

    @pytest.mark.parametrize("verb", ["probe", "grouplaw"])
    @pytest.mark.parametrize("n, err", [
        ("1", "error: base degree must be at least 2\n"),
        ("20", "error: need p*(n-1) <= M for a faithful coefficient lift "
               "(p=3, n=20, M=32)\n")])
    def test_zero_samples_check_the_base_degree(self, capsys, verb, n, err):
        assert run_cli(capsys, verb, "--h", "2", "--n", n, "--samples", "0",
                       "--seed", "1") == (2, "", err)

    # the base degree per prime; the report must not depend on the caller's
    # M, nor on whether the verb trims to p(n-1)
    BASE = {3: 6, 5: 4, 7: 3}

    @pytest.mark.parametrize("h", [2, 3, 10])
    @pytest.mark.parametrize("N", [8, 24, 40])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_reports_do_not_depend_on_the_callers_degree(
            self, capsys, monkeypatch, p, N, h):
        n = self.BASE[p]
        top = p * (n - 1)
        for verb in ("probe", "grouplaw"):
            def report(M):
                code, text, err = run_cli(
                    capsys, verb, "--p", str(p), "--N", str(N), "--M", str(M),
                    "--h", str(h), "--n", str(n), "--samples", "1",
                    "--seed", str(p * N + h))
                assert (code, err) == (0, "")
                head = f'"context":{{"M":{M},'
                assert text.count(head) == 1
                return text.replace(head, '"context":{"M":null,')

            wide = report(32)
            assert report(top) == wide
            with monkeypatch.context() as patch:
                # both verbs take their context from moduli
                patch.setattr(moduli, "_point_context", untrimmed)
                assert report(32) == wide

    def test_grouplaw_determinism(self, capsys):
        args = ["grouplaw", "--p", "5", "--h", "2", "--n", "4",
                "--samples", "4", "--seed", "17"]
        _, text1, _ = run_cli(capsys, *args)
        _, text2, _ = run_cli(capsys, *args)
        assert text1 == text2

    # p^N <= min(n - 1, M // p): a noise degree d with v_p(d) >= N exists,
    # and these seeds drew one, which added a unit to v
    @pytest.mark.parametrize("argv", [
        ["grouplaw", "--p", "3", "--N", "2", "--M", "32", "--h", "3",
         "--n", "10", "--samples", "0", "--seed", "19"],
        ["probe", "--p", "3", "--N", "3", "--M", "81", "--h", "3",
         "--n", "28", "--samples", "4", "--seed", "36"],
    ], ids=["grouplaw", "probe"])
    def test_noise_degree_below_the_precision(self, capsys, argv):
        code, text, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        doc = json.loads(text)
        assert doc.get("passed", True) and not doc.get("counterexamples")


class TestUsageErrors:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "slopes", "/nonexistent.json")
        assert code == 2 and "cannot read" in err

    @pytest.mark.parametrize("argv", [
        ["gen", "--h", "2", "--kind", "sub1"],
        ["probe", "--p", "3", "--h", "2", "--n", "6", "--N", "8",
         "--samples", "2", "--seed", "0"],
    ], ids=["gen", "probe"])
    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unwritable_out(self, capsys, tmp_path, argv, where):
        out = tmp_path / "no" / "x.json" if where == "missing" else tmp_path
        code, text, err = run_cli(capsys, *argv, "--out", str(out))
        assert (code, text) == (2, "")
        assert err.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in err

    def test_bad_json(self, capsys, tmp_path):
        f = tmp_path / "junk.json"
        f.write_text("{not json")
        code, _, err = run_cli(capsys, "slopes", str(f))
        assert code == 2

    def test_bad_schema(self, capsys, tmp_path):
        f = write_json(tmp_path / "doc.json", {"schema": "other/9"})
        code, _, err = run_cli(capsys, "slopes", str(f))
        assert code == 2 and "schema" in err

    def test_height_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--p", "3", "--h", "11",
                               "--kind", "sub1")
        assert code == 2

    def test_large_prime_is_quick(self, capsys):
        t0 = time.perf_counter()
        code, text, _ = run_cli(capsys, "gen", "--kind", "sub1", "--p",
                                "1000000000000000003", "--h", "2", "--N", "8",
                                "--M", "4")
        assert time.perf_counter() - t0 < 1.0
        assert code == 0 and json.loads(text)["context"]["p"] == 10**18 + 3

    def test_prime_beyond_proven_range(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--kind", "sub1", "--p",
                               str(10**25 + 13), "--h", "2")
        assert code == 2 and "below" in err

    def test_hostile_m_is_quick_and_allocates_nothing(self, capsys, tmp_path):
        doc = serialize.crystal_to_json(
            make_standard_crystal(PrecisionContext(3, 8, 4), 2, "sub1"))
        doc["context"]["M"] = 10**15
        path = write_json(tmp_path / "hostile.json", doc)
        for argv in (("gen", "--kind", "sub1", "--h", "2", "--M", str(10**15)),
                     ("check", "horizontality", path),
                     ("gen", "--kind", "slope1", "--h", "2", "--rho", "10000")):
            tracemalloc.start()
            t0 = time.perf_counter()
            code, _, err = run_cli(capsys, *argv)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert code == 2 and err.startswith("error:"), argv
            assert elapsed < 1.0, argv
            assert peak < 2**20, (argv, peak)

    @pytest.mark.parametrize("n", [100, 10**9])
    def test_probe_base_beyond_faithful_range(self, capsys, n):
        # a base degree past M fails the point's check: no index error,
        # and no work that grows with n
        t0 = time.perf_counter()
        code, text, err = run_cli(capsys, "probe", "--h", "2", "--n", str(n),
                                  "--samples", "1", "--seed", "0")
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and text == ""
        assert err.startswith("error: need p*(n-1) <= M"), err

    @pytest.mark.parametrize("seed", range(5))
    def test_probe_unfaithful_at_every_seed(self, capsys, seed):
        # p > M leaves no noise degree; the range is checked before any
        # draw, so no seed reaches the noise and its index error
        code, text, err = run_cli(capsys, "probe", "--p", "37", "--M", "32",
                                  "--N", "4", "--n", "2", "--h", "3",
                                  "--samples", "3", "--seed", str(seed))
        assert code == 2 and text == ""
        assert err == ("error: need p*(n-1) <= M for a faithful coefficient "
                       "lift (p=37, n=2, M=32)\n")

    def test_hostile_n_is_quick(self, capsys, tmp_path):
        doc = serialize.crystal_to_json(
            make_standard_crystal(PrecisionContext(3, 8, 4), 2, "sub1"))
        doc["context"]["N"] = 10**9
        path = write_json(tmp_path / "hostile.json", doc)
        for argv in (("check", "horizontality", path),
                     ("gen", "--kind", "sub1", "--h", "2", "--N", str(10**9)),
                     ("probe", "--h", "2", "--n", "2", "--samples", "1",
                      "--seed", "0", "--N", str(10**9))):
            t0 = time.perf_counter()
            code, text, err = run_cli(capsys, *argv)
            assert time.perf_counter() - t0 < 1.0, argv
            assert code == 2 and text == "" and "bitlen" in err, argv

    @pytest.mark.parametrize("n_digits, rank", [(8, 49), (512, 18)])
    def test_dense_slopes_above_the_budget_is_quick(self, capsys, tmp_path,
                                                     n_digits, rank):
        # one rank above the dense characteristic-polynomial budget: rank 48
        # at entries below 2^64, rank 17 at the 812-bit residues of 3^512
        ctx = PrecisionContext(3, n_digits, 0)
        rng = random.Random(rank)
        f = SeriesMatrix.from_series_rows(
            ctx, [[rng.randrange(ctx.modulus) for _ in range(rank)]
                  for _ in range(rank)])
        z = SeriesMatrix.zeros(ctx, rank, rank)
        path = write_json(tmp_path / "dense.json", serialize.crystal_to_json(
            FCrystalPresentation(ctx, rank, f, z, z, 2)))
        t0 = time.perf_counter()
        code, text, err = run_cli(capsys, "slopes", path)
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and text == "" and "budget" in err

    def test_boolean_context_field_exits_two(self, capsys, tmp_path):
        doc = serialize.crystal_to_json(
            make_standard_crystal(PrecisionContext(3, 8, 4), 2, "sub1"))
        doc["context"]["M"] = True
        path = write_json(tmp_path / "bool.json", doc)
        code, text, err = run_cli(capsys, "check", "horizontality", path)
        assert code == 2 and text == "" and "integer" in err

    def test_unknown_verb_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2


def test_entry_point_runs_a_verb(capsys):
    # the console script named in pyproject.toml resolves and runs a verb
    import importlib
    import pathlib
    import tomllib
    root = pathlib.Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["crystal-lab"]
    module, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module), attr)
    code = entry(["gen", "--p", "3", "--h", "2", "--N", "8", "--M", "4",
                  "--kind", "sub1"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["rank"] == 2


# -- fuzzing the JSON-reading verbs ---------------------------------------------

FUZZ_CTX = PrecisionContext(3, 8, 6)


def fuzz_documents():
    ectx = ExtensionContext(FUZZ_CTX, 2)
    rng = random.Random(0)
    e = from_alpha(random_witness(rng, ectx, witness_support(ectx))
                   ).mark_geometric()
    w = trivialize(int_scale(e, 3))
    return {"crystal": serialize.crystal_to_json(
                make_standard_crystal(FUZZ_CTX, 2, "pair")),
            "extension": serialize.extension_to_json(e),
            "witness": serialize.witness_to_json(w)}


FUZZ_DOCS = fuzz_documents()
# each JSON-reading verb, and the documents its file arguments hold
FUZZ_VERBS = [(("check", "horizontality"), ("crystal",)),
              (("check", "pairing"), ("crystal",)),
              (("slopes",), ("crystal",)),
              (("trivialize",), ("extension",)),
              (("baer-sum",), ("extension", "extension")),
              (("baer-sum", "--mode", "pp"), ("extension", "extension")),
              (("baer-sum", "--mode", "pop"), ("extension", "extension")),
              (("ptorsion",), ("extension", "witness"))]


def node_paths(doc, path=()):
    """The path to every node of a JSON document, the root included."""
    yield path
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from node_paths(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from node_paths(v, path + (i,))


FUZZ_PATHS = {kind: list(node_paths(doc)) for kind, doc in FUZZ_DOCS.items()}


def replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


HOSTILE_STRINGS = ["", " ", "abc", "0x10", "1e3", "1.5", "--1", "1 2", "9" * 5000,
                   "1_000", " 12 ", "+5", "-3", "٣", "0012", "\t7\n"]
HOSTILE_INTS = [-1, 0, 1, 2, 5, 11, 4097, 10**6, -10**30, 10**30, 10**1000]
hostile_leaf = st.one_of(
    st.booleans(), st.none(), st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(HOSTILE_INTS), st.sampled_from(HOSTILE_STRINGS),
    st.text(max_size=8))
hostile_value = st.one_of(
    hostile_leaf,
    st.recursive(hostile_leaf, lambda inner: st.lists(inner, max_size=4)
                 | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                 max_leaves=12),
    # oversize rows and cells: too many entries, or too many coefficients
    st.integers(3, 40).map(lambda n: [["1"] * 7] * n),
    st.integers(8, 5000).map(lambda n: ["1"] * n))


def run_hostile(capsys, tmp_path, argv, kinds, target, path, value):
    files = []
    for k, kind in enumerate(kinds):
        doc = FUZZ_DOCS[kind]
        if k == target:
            doc = replaced(doc, path, value)
        fh = tmp_path / f"doc{k}.json"
        fh.write_text(json.dumps(doc))
        files.append(str(fh))
    t0 = time.perf_counter()
    code, _, err = run_cli(capsys, *argv, *files)
    elapsed = time.perf_counter() - t0
    assert code in (0, 1, 2), (argv, path, value)
    assert "Traceback" not in err
    assert code != 2 or err.startswith("error:")
    assert elapsed < 1.0, (argv, path, elapsed)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(verb=st.integers(0, len(FUZZ_VERBS) - 1), target=st.integers(0, 1),
       pick=st.integers(0, 10**9), value=hostile_value)
def test_hostile_json_exits_cleanly(capsys, tmp_path, verb, target, pick, value):
    argv, kinds = FUZZ_VERBS[verb]
    target %= len(kinds)
    paths = FUZZ_PATHS[kinds[target]]
    run_hostile(capsys, tmp_path, argv, kinds, target,
                paths[pick % len(paths)], value)


@pytest.mark.parametrize("field, value", [
    ("weight", 10**30), ("frobenius_shift", -10**30), ("rank", 10**30),
    ("weight", True), ("rank", 4.0)])
def test_hostile_crystal_fields_exit_cleanly(capsys, tmp_path, field, value):
    for argv, kinds in FUZZ_VERBS[:3]:
        run_hostile(capsys, tmp_path, argv, kinds, 0, (field,), value)


@pytest.mark.parametrize("text", [s for s in HOSTILE_STRINGS if s != "9" * 5000])
def test_decimal_strings_parse_as_int_does(text):
    # every string int() accepts keeps its value; the others are schema errors
    try:
        expected = int(text) % FUZZ_CTX.modulus
    except ValueError:
        with pytest.raises(SchemaError, match="decimal"):
            serialize.matrix_from_json(FUZZ_CTX, [[[text]]], 1, 1)
        return
    m = serialize.matrix_from_json(FUZZ_CTX, [[["0", text]]], 1, 1)
    assert m.arr[0, 0].tolist() == [0, expected] + [0] * (FUZZ_CTX.M - 1)


# -- one parser per process ------------------------------------------------------

PROBE = ["probe", "--p", "3", "--h", "10", "--n", "6", "--N", "8",
         "--samples", "5", "--seed", "3"]
GROUPLAW = ["grouplaw", "--p", "3", "--h", "3", "--n", "4", "--samples", "2",
            "--seed", "3"]


def fresh_run(argv):
    """stdout and exit code of the command in a new interpreter."""
    root = pathlib.Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-m", "crystal_lab.cli", *argv],
                          capture_output=True, text=True, env=env)
    return done.stdout, done.returncode


def test_shared_parser_gives_the_bytes_of_fresh_runs(capsys):
    fresh = {tuple(argv): fresh_run(argv) for argv in (PROBE, GROUPLAW)}
    for argv in (PROBE, GROUPLAW, PROBE):
        code = run(argv)
        assert (capsys.readouterr().out, code) == fresh[tuple(argv)]
    assert cli.build_parser.cache_info().currsize == 1


def test_a_usage_error_leaves_the_next_run_unaffected(capsys):
    run(PROBE)
    before = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        run(["probe", "--p", "3", "--h", "10", "--samples", "x"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(PROBE) == 0
    assert capsys.readouterr().out == before


def test_importing_the_cli_builds_no_parser():
    code = ("import crystal_lab.cli as cli; "
            "print(cli.build_parser.cache_info().currsize)")
    root = pathlib.Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert done.stdout == "0\n"


@pytest.mark.parametrize("verb, attr", [
    ("probe", "multiply_by_p_injectivity_probe"),
    ("grouplaw", "group_law_check")])
def test_the_built_parser_reaches_a_rebound_verb(capsys, monkeypatch, verb,
                                                 attr):
    # the parser is cached, and an outside-in tracer rebinds the module
    # attribute after it is built: the verb is looked up at each run
    cli.build_parser()
    calls = []
    real = getattr(cli, attr)

    def wrapped(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, attr, wrapped)
    assert run([verb, "--h", "2", "--n", "4", "--samples", "1",
                "--seed", "1"]) == 0
    capsys.readouterr()
    assert calls == [(4, 1)]
