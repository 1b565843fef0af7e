"""JSON interchange: decimal-string coefficients, one context per document.

There are three documents, crystal, extension and witness, and the CLI
reports share their header.  Each carries {"schema": "crystal-lab/1"} and a
context object {"p": int, "N": int, "M": int}.  A matrix is an array of rows
of series, and a series an array of decimal strings ["c0", "c1", ...].  JSON
booleans are rejected wherever an integer is expected, and a crystal whose
rank^2 (M+1) exceeds series_matrix.MAX_COEFFICIENTS is rejected before any
matrix is read.
"""

from __future__ import annotations

import sys
from functools import lru_cache

import numpy as np

from .crystal import FCrystalPresentation
from .errors import SchemaError
from .extension_group import (ExtensionContext, ExtensionData,
                              TrivializationWitness)
from .padic_series import PrecisionContext
from .series_matrix import MAX_COEFFICIENTS, SeriesMatrix, zeros_array

SCHEMA = "crystal-lab/1"


def _expect(cond, msg):
    if not cond:
        raise SchemaError(msg)


def _is_int(x) -> bool:
    """A JSON integer; bool subclasses int but true and false are not integers."""
    return isinstance(x, int) and not isinstance(x, bool)


def context_from_json(obj) -> PrecisionContext:
    _expect(isinstance(obj, dict), "context must be an object")
    _expect(set(obj) == {"p", "N", "M"}, "context must have keys p, N, M")
    for k in ("p", "N", "M"):
        _expect(_is_int(obj[k]), f"context field {k} must be an integer")
    try:
        return PrecisionContext(obj["p"], obj["N"], obj["M"])
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def header(ctx: PrecisionContext) -> dict:
    """The schema and context every document and report starts with."""
    return {"schema": SCHEMA, "context": ctx.to_json()}


def _document(obj, what: str) -> PrecisionContext:
    """Check the envelope of a document and return its context."""
    _expect(isinstance(obj, dict), f"{what} document must be an object")
    _expect(obj.get("schema") == SCHEMA, f"schema must be {SCHEMA!r}")
    return context_from_json(obj.get("context"))


def _coefficients(ctx: PrecisionContext, obj) -> list:
    """The residues of a JSON series, padded with zeros to M+1."""
    _expect(isinstance(obj, list), "series must be an array of decimal strings")
    _expect(len(obj) <= ctx.M + 1, "series has more coefficients than M+1")
    out = []
    for c in obj:
        _expect(isinstance(c, str), "series coefficients must be decimal strings")
        try:
            out.append(int(c) % ctx.modulus)
        except ValueError:
            # a bounded quote: the string may be any length
            quote = f"{c[:64]!r}" + (
                f"... ({len(c)} characters)" if len(c) > 64 else "")
            limit = sys.get_int_max_str_digits()
            if limit and sum(map(str.isdigit, c)) > limit:
                raise SchemaError(f"decimal string {quote} is too long: int() "
                                  f"reads at most {limit} digits") from None
            raise SchemaError(f"bad decimal string {quote}") from None
    return out + [0] * (ctx.M + 1 - len(out))


# the largest modulus whose decimal strings are read from one table
DECIMAL_TABLE_MAX = 2**14


@lru_cache(maxsize=4)
def _decimals(modulus: int) -> np.ndarray:
    """The decimal strings of the residues 0 .. modulus - 1, indexed by the
    residue."""
    return np.array([str(c) for c in range(modulus)], dtype=object)


def matrix_to_json(m: SeriesMatrix) -> list:
    if m.context.modulus <= DECIMAL_TABLE_MAX:
        # the residues index the table in int64 whatever their storage
        return _decimals(m.context.modulus)[
            m.arr.astype(np.int64, copy=False)].tolist()
    # only the non-zero residues are formatted: the zeros share "0"
    return [[[str(c) if c else "0" for c in cell] for cell in row]
            for row in m.arr.tolist()]


def matrix_from_json(ctx: PrecisionContext, obj, rows, cols) -> SeriesMatrix:
    _expect(isinstance(obj, list) and len(obj) == rows,
            f"matrix must have {rows} rows")
    cells = []
    for row in obj:
        _expect(isinstance(row, list) and len(row) == cols,
                f"matrix rows must have {cols} entries")
        cells.extend(_coefficients(ctx, cell) for cell in row)
    arr = zeros_array(ctx, rows, cols)
    if cells:
        arr[...] = np.array(cells, dtype=object).reshape(arr.shape)
    return SeriesMatrix(ctx, arr)


def crystal_to_json(c: FCrystalPresentation) -> dict:
    out = {
        **header(c.context),
        "rank": c.rank,
        "weight": c.weight,
        "frobenius": matrix_to_json(c.frobenius),
        "connection": matrix_to_json(c.connection),
        "pairing": matrix_to_json(c.pairing),
    }
    if c.frobenius_shift:
        out["frobenius_shift"] = c.frobenius_shift
    return out


def crystal_from_json(obj) -> FCrystalPresentation:
    ctx = _document(obj, "crystal")
    rank = obj.get("rank")
    _expect(_is_int(rank) and rank >= 0, "rank must be a non-negative int")
    _expect(rank * rank * (ctx.M + 1) <= MAX_COEFFICIENTS,
            f"rank^2 (M+1) must be at most {MAX_COEFFICIENTS}")
    weight = obj.get("weight")
    _expect(_is_int(weight) and weight >= 0,
            "weight must be a non-negative int")
    shift = obj.get("frobenius_shift", 0)
    _expect(_is_int(shift), "frobenius_shift must be an int")
    mats = {}
    for key in ("frobenius", "connection", "pairing"):
        mats[key] = matrix_from_json(ctx, obj.get(key), rank, rank)
    return FCrystalPresentation(ctx, rank, mats["frobenius"], mats["connection"],
                                mats["pairing"], weight, shift)


def extension_to_json(e: ExtensionData) -> dict:
    return {
        **header(e.context),
        "h": e.h,
        "xi": matrix_to_json(e.xi),
        "v": matrix_to_json(e.v),
        "m": matrix_to_json(e.m),
        "geometric": e.geometric_flag,
    }


def extension_from_json(obj) -> ExtensionData:
    ctx = _document(obj, "extension")
    h = obj.get("h")
    _expect(_is_int(h), "h must be an integer")
    geometric = obj.get("geometric", False)
    _expect(isinstance(geometric, bool), "geometric must be a boolean")
    ectx = ExtensionContext(ctx, h)
    xi = matrix_from_json(ctx, obj.get("xi"), h, h)
    v = matrix_from_json(ctx, obj.get("v"), h, h)
    m = matrix_from_json(ctx, obj.get("m"), h, h)
    return ExtensionData(ectx, xi, v, m, geometric)


def witness_to_json(w: TrivializationWitness) -> dict:
    return {
        **header(w.context),
        "h": w.h,
        "alpha": matrix_to_json(w.alpha),
    }


def witness_from_json(obj) -> TrivializationWitness:
    ctx = _document(obj, "witness")
    h = obj.get("h")
    _expect(_is_int(h), "h must be an integer")
    alpha = matrix_from_json(ctx, obj.get("alpha"), h, h)
    return TrivializationWitness(ExtensionContext(ctx, h), alpha)
