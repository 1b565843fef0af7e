import json
import random

import pytest

from crystal_lab import (ExtensionContext, PrecisionContext, hom_crystal,
                         make_standard_crystal, newton_slopes,
                         random_geometric_point, serialize)
from crystal_lab.errors import SchemaError
from crystal_lab.sampling import random_extension, random_witness, witness_support


@pytest.fixture
def ectx3(ctx3):
    return ExtensionContext(ctx3, 3)


def roundtrip(doc):
    return json.loads(json.dumps(doc))


def test_crystal_roundtrip(ctx3):
    for kind in ("sub1", "super1", "pair"):
        c = make_standard_crystal(ctx3, 3, kind)
        back = serialize.crystal_from_json(roundtrip(serialize.crystal_to_json(c)))
        assert back == c


def test_crystal_roundtrip_with_shift(ctx3):
    hom = hom_crystal(make_standard_crystal(ctx3, 2, "super1"),
                      make_standard_crystal(ctx3, 2, "sub1"), 0)
    assert hom.frobenius_shift == -2
    back = serialize.crystal_from_json(roundtrip(serialize.crystal_to_json(hom)))
    assert back == hom
    assert newton_slopes(back) == newton_slopes(hom)


def test_extension_and_witness_roundtrip(ectx3):
    rng = random.Random(1)
    e = random_extension(rng, ectx3, nontrivial=True)
    back = serialize.extension_from_json(roundtrip(serialize.extension_to_json(e)))
    assert back == e
    w = random_witness(rng, ectx3, witness_support(ectx3))
    wb = serialize.witness_from_json(roundtrip(serialize.witness_to_json(w)))
    assert wb == w


def test_geometric_flag_survives(ectx3):
    rng = random.Random(2)
    e = random_geometric_point(rng, ectx3, 6).extension
    doc = serialize.extension_to_json(e)
    assert doc["geometric"] is True
    assert serialize.extension_from_json(roundtrip(doc)).geometric_flag


@pytest.mark.parametrize("what", ["crystal", "extension", "witness"])
def test_document_envelope_rejections(what):
    # object first, then schema, then context, each with its own message
    reader = getattr(serialize, f"{what}_from_json")
    with pytest.raises(SchemaError) as exc:
        reader([])
    assert str(exc.value) == f"{what} document must be an object"
    with pytest.raises(SchemaError) as exc:
        reader({"schema": "crystal-lab/0", "context": []})
    assert str(exc.value) == "schema must be 'crystal-lab/1'"
    with pytest.raises(SchemaError) as exc:
        reader({"schema": "crystal-lab/1"})
    assert str(exc.value) == "context must be an object"


def test_schema_rejections(ctx3):
    with pytest.raises(SchemaError):
        serialize.crystal_from_json({"schema": "crystal-lab/1"})
    with pytest.raises(SchemaError):
        serialize.context_from_json({"p": 3, "N": 8})
    with pytest.raises(SchemaError):
        serialize.context_from_json({"p": 4, "N": 8, "M": 2})
    with pytest.raises(SchemaError):
        serialize.matrix_from_json(ctx3, [[["12", 13]]], 1, 1)
    with pytest.raises(SchemaError):
        serialize.matrix_from_json(ctx3, [[["pi"]]], 1, 1)
    with pytest.raises(SchemaError):
        serialize.matrix_from_json(ctx3, [[["1"] * 40]], 1, 1)


def test_booleans_rejected_where_an_int_is_expected(ctx3, ectx3):
    # bool subclasses int, so true/false would otherwise pass as 1/0
    for key in ("p", "N", "M"):
        doc = {"p": 3, "N": 8, "M": 32, key: True}
        with pytest.raises(SchemaError):
            serialize.context_from_json(doc)
    crystal = serialize.crystal_to_json(make_standard_crystal(ctx3, 2, "sub1"))
    for key, value in (("rank", True), ("weight", False),
                       ("frobenius_shift", True)):
        with pytest.raises(SchemaError):
            serialize.crystal_from_json({**crystal, key: value})
    rng = random.Random(5)
    ext = serialize.extension_to_json(random_extension(rng, ectx3))
    with pytest.raises(SchemaError):
        serialize.extension_from_json({**ext, "h": True})
    wit = serialize.witness_to_json(
        random_witness(rng, ectx3, witness_support(ectx3)))
    with pytest.raises(SchemaError):
        serialize.witness_from_json({**wit, "h": True})


def test_oversized_documents_rejected_before_allocation(ctx3):
    with pytest.raises(SchemaError, match="M must be at most"):
        serialize.context_from_json({"p": 3, "N": 8, "M": 10**15})
    crystal = serialize.crystal_to_json(make_standard_crystal(ctx3, 2, "sub1"))
    # rank 400 at M=32 is 5.28e6 coefficients per matrix; the matrices are
    # never read, so short rows cannot be what rejects it
    with pytest.raises(SchemaError, match="rank"):
        serialize.crystal_from_json({**crystal, "rank": 400})


@pytest.mark.parametrize("n_digits", [8, 40])
def test_serialized_bytes_match_per_entry_conversion(n_digits):
    # matrix_to_json reads m.arr.tolist() once; on int64 and on object
    # storage it must produce the strings of a per-coefficient conversion
    ectx = ExtensionContext(PrecisionContext(3, n_digits, 12), 3)
    rng = random.Random(9)
    e = random_extension(rng, ectx, nontrivial=True)
    for m in (e.xi, e.v, e.m):
        per_entry = [[[str(int(c)) for c in m.arr[i, j]] for j in range(m.cols)]
                     for i in range(m.rows)]
        assert json.dumps(serialize.matrix_to_json(m)) == json.dumps(per_entry)


# (p, N, the table's bound, whether the table is read): 127^2 = 16129 is
# the largest p^N (N >= 2, p odd) below 2^14, and none is 2^14 itself, so
# the edge is checked by moving the bound onto 16129 and one below it
DECIMAL_CASES = [(127, 2, 2**14, True), (127, 2, 16129, True),
                 (127, 2, 16128, False), (3, 9, 2**14, False),
                 (3, 40, 2**14, False)]


@pytest.mark.parametrize("p, n, bound, table", DECIMAL_CASES)
def test_decimal_table_matches_str(monkeypatch, p, n, bound, table):
    # just below 2^14, at and just above the bound, above 2^14 (3^9 =
    # 19683) and on Python-integer storage (3^40): the strings equal str()
    # of each residue
    from crystal_lab.series_matrix import SeriesMatrix, zeros_array
    ctx = PrecisionContext(p, n, 3)
    mod = ctx.modulus
    rng = random.Random(mod)
    arr = zeros_array(ctx, 3, 2)
    for i in range(3):
        for j in range(2):
            arr[i, j] = [0, 1, mod - 1, rng.randrange(mod)]
    m = SeriesMatrix(ctx, arr)
    built = []
    real = serialize._decimals
    monkeypatch.setattr(serialize, "DECIMAL_TABLE_MAX", bound)
    monkeypatch.setattr(serialize, "_decimals",
                        lambda modulus: built.append(modulus) or real(modulus))
    doc = serialize.matrix_to_json(m)
    assert doc == [[[str(c) for c in cell] for cell in row]
                   for row in arr.tolist()]
    assert built == ([mod] if table else [])
    assert serialize.matrix_from_json(ctx, roundtrip(doc), 3, 2) == m
