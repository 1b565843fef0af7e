import json
import random
import time
import tracemalloc

import pytest

from crystal_lab import (ExtensionContext, ExtensionData, PrecisionContext,
                         from_alpha, int_scale, make_standard_crystal, trivialize)
from crystal_lab import serialize
from crystal_lab.cli import main
from crystal_lab.sampling import random_witness, witness_support


def run_cli(capsys, *argv):
    code = main(list(argv))
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

    def test_ptorsion_missing_hypothesis_is_usage_error(self, capsys, tmp_path, ectx2):
        rng = random.Random(4)
        e = from_alpha(random_witness(rng, ectx2, witness_support(ectx2)))
        w = trivialize(int_scale(e, 3))
        fe = make_extension_file(tmp_path, ectx2, "e.json", e)
        fw = write_json(tmp_path / "w.json", serialize.witness_to_json(w))
        code, _, err = run_cli(capsys, "ptorsion", fe, fw)
        assert code == 2 and "hypothesis" in err.lower()


class TestSamplingVerbs:
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

    def test_grouplaw_determinism(self, capsys):
        args = ["grouplaw", "--p", "5", "--h", "2", "--n", "4",
                "--samples", "4", "--seed", "17"]
        _, text1, _ = run_cli(capsys, *args)
        _, text2, _ = run_cli(capsys, *args)
        assert text1 == text2


class TestUsageErrors:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "slopes", "/nonexistent.json")
        assert code == 2 and "cannot read" in err

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

    def test_boolean_context_field_exits_two(self, capsys, tmp_path):
        doc = serialize.crystal_to_json(
            make_standard_crystal(PrecisionContext(3, 8, 4), 2, "sub1"))
        doc["context"]["M"] = True
        path = write_json(tmp_path / "bool.json", doc)
        code, text, err = run_cli(capsys, "check", "horizontality", path)
        assert code == 2 and text == "" and "integer" in err

    def test_unknown_verb_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
