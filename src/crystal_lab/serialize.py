"""JSON interchange: decimal-string coefficients, one context per document.

Every document carries {"schema": "crystal-lab/1"} and a context object
{"p": int, "N": int, "M": int}.  A series is an array of decimal strings
["c0", "c1", ...]; matrices are arrays of rows of series.  JSON booleans are
rejected wherever an integer is expected, and a crystal whose rank^2 (M+1)
exceeds series_matrix.MAX_COEFFICIENTS is rejected before any matrix is read.
"""

from __future__ import annotations

from .crystal import FCrystalPresentation
from .errors import SchemaError
from .extension_group import (ExtensionContext, ExtensionData,
                              TrivializationWitness)
from .moduli import DeformationPoint
from .padic_series import PrecisionContext, TruncatedSeries
from .series_matrix import MAX_COEFFICIENTS, SeriesMatrix

SCHEMA = "crystal-lab/1"


def _expect(cond, msg):
    if not cond:
        raise SchemaError(msg)


def _is_int(x) -> bool:
    """A JSON integer; bool subclasses int but true and false are not integers."""
    return isinstance(x, int) and not isinstance(x, bool)


def context_to_json(ctx: PrecisionContext) -> dict:
    return ctx.to_json()


def context_from_json(obj) -> PrecisionContext:
    _expect(isinstance(obj, dict), "context must be an object")
    _expect(set(obj) == {"p", "N", "M"}, "context must have keys p, N, M")
    for k in ("p", "N", "M"):
        _expect(_is_int(obj[k]), f"context field {k} must be an integer")
    try:
        return PrecisionContext(obj["p"], obj["N"], obj["M"])
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def series_to_json(s: TruncatedSeries) -> list:
    return [str(c) for c in s.coeffs()]


def series_from_json(ctx: PrecisionContext, obj) -> TruncatedSeries:
    _expect(isinstance(obj, list), "series must be an array of decimal strings")
    _expect(len(obj) <= ctx.M + 1, "series has more coefficients than M+1")
    coeffs = []
    for c in obj:
        _expect(isinstance(c, str), "series coefficients must be decimal strings")
        try:
            coeffs.append(int(c))
        except ValueError:
            raise SchemaError(f"bad decimal string {c!r}") from None
    return TruncatedSeries(ctx, coeffs)


def matrix_to_json(m: SeriesMatrix) -> list:
    return [[[str(c) for c in cell] for cell in row] for row in m.arr.tolist()]


def matrix_from_json(ctx: PrecisionContext, obj, rows, cols) -> SeriesMatrix:
    _expect(isinstance(obj, list) and len(obj) == rows,
            f"matrix must have {rows} rows")
    grid = []
    for row in obj:
        _expect(isinstance(row, list) and len(row) == cols,
                f"matrix rows must have {cols} entries")
        grid.append([series_from_json(ctx, cell) for cell in row])
    if rows == 0 or cols == 0:
        return SeriesMatrix.zeros(ctx, rows, cols)
    return SeriesMatrix.from_series_rows(ctx, grid)


def crystal_to_json(c: FCrystalPresentation) -> dict:
    out = {
        "schema": SCHEMA,
        "context": context_to_json(c.context),
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
    _expect(isinstance(obj, dict), "crystal document must be an object")
    _expect(obj.get("schema") == SCHEMA, f"schema must be {SCHEMA!r}")
    ctx = context_from_json(obj.get("context"))
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
        "schema": SCHEMA,
        "context": context_to_json(e.context),
        "h": e.h,
        "xi": matrix_to_json(e.xi),
        "v": matrix_to_json(e.v),
        "m": matrix_to_json(e.m),
        "geometric": e.geometric_flag,
    }


def extension_from_json(obj) -> ExtensionData:
    _expect(isinstance(obj, dict), "extension document must be an object")
    _expect(obj.get("schema") == SCHEMA, f"schema must be {SCHEMA!r}")
    ctx = context_from_json(obj.get("context"))
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
        "schema": SCHEMA,
        "context": context_to_json(w.context),
        "h": w.h,
        "alpha": matrix_to_json(w.alpha),
    }


def witness_from_json(obj) -> TrivializationWitness:
    _expect(isinstance(obj, dict), "witness document must be an object")
    _expect(obj.get("schema") == SCHEMA, f"schema must be {SCHEMA!r}")
    ctx = context_from_json(obj.get("context"))
    h = obj.get("h")
    _expect(_is_int(h), "h must be an integer")
    alpha = matrix_from_json(ctx, obj.get("alpha"), h, h)
    return TrivializationWitness(ExtensionContext(ctx, h), alpha)


def point_to_json(pt: DeformationPoint) -> dict:
    return {
        "schema": SCHEMA,
        "context": context_to_json(pt.ectx.ctx),
        "h": pt.h,
        "n": pt.base_degree,
        "extension": extension_to_json(pt.extension),
        "hodge": [series_to_json(s) for s in pt.hodge],
    }


def point_from_json(obj) -> DeformationPoint:
    _expect(isinstance(obj, dict), "point document must be an object")
    _expect(obj.get("schema") == SCHEMA, f"schema must be {SCHEMA!r}")
    ctx = context_from_json(obj.get("context"))
    h = obj.get("h")
    n = obj.get("n")
    _expect(_is_int(h) and _is_int(n), "h and n must be integers")
    ext = extension_from_json(obj.get("extension"))
    _expect(ext.h == h and ext.context == ctx,
            "extension block disagrees with the point header")
    hodge_json = obj.get("hodge")
    _expect(isinstance(hodge_json, list) and len(hodge_json) == h,
            "hodge must be an array of h series")
    hodge = tuple(series_from_json(ctx, s) for s in hodge_json)
    return DeformationPoint(ExtensionContext(ctx, h), n, ext, hodge)
