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


def test_point_roundtrip(ectx3):
    rng = random.Random(3)
    pt = random_geometric_point(rng, ectx3, 6, nontrivial=True)
    back = serialize.point_from_json(roundtrip(serialize.point_to_json(pt)))
    assert back == pt


def test_schema_rejections(ctx3):
    with pytest.raises(SchemaError):
        serialize.crystal_from_json({"schema": "crystal-lab/1"})
    with pytest.raises(SchemaError):
        serialize.context_from_json({"p": 3, "N": 8})
    with pytest.raises(SchemaError):
        serialize.context_from_json({"p": 4, "N": 8, "M": 2})
    with pytest.raises(SchemaError):
        serialize.series_from_json(ctx3, ["12", 13])
    with pytest.raises(SchemaError):
        serialize.series_from_json(ctx3, ["pi"])
    with pytest.raises(SchemaError):
        serialize.series_from_json(ctx3, ["1"] * 40)


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
    point = serialize.point_to_json(random_geometric_point(rng, ectx3, 2))
    for key in ("h", "n"):
        with pytest.raises(SchemaError):
            serialize.point_from_json({**point, key: True})


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
