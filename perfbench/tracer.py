"""Outside-in tracer for crystal_lab.

The program carries no instrumentation of its own, so the tracer wraps
public functions and methods from the outside.  A function is replaced at
every module attribute that holds it (``trivialize`` is bound in
``extension_group``, ``moduli``, ``cli`` and the package), and a method is
replaced on its class under every name that holds it (``__rmul__`` is the
same function as ``__mul__``).  ``uninstall`` puts every original back.

Each wrapped call is a span.  A span's self time is its duration minus the
time its child spans cover.  Totals are aggregated on the fly; the spans
themselves are kept in memory up to ``span_cap`` and written out once, at
the end of the run.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from crystal_lab.extension_group import TorsionCertificate, TrivializationWitness


def _matmul_kind(args, kwargs, result):
    a, b = args[0], args[1]
    # the product has already computed and cached the flags read here
    return "const" if a.is_constant() or b.is_constant() else "general"


def _baer_mode(args, kwargs, result):
    return kwargs.get("mode", args[2] if len(args) > 2 else "fast")


def _nonzero_layers(arr):
    return np.flatnonzero((arr != 0).any(axis=(0, 1)))


def _matmul_work(kind, args, result):
    """Multiply-adds and bytes of one product, computed from the operand
    shapes and their non-zero degree layers (not measured)."""
    a, b = args[0].arr, args[1].arr
    r, k, c, d = a.shape[0], a.shape[1], b.shape[1], a.shape[2]
    item = 8  # int64 word, or one object pointer
    if kind == "const":
        return r * k * c * d, item * (a.size + b.size + result.arr.size)
    top = d - 1
    nz_b = _nonzero_layers(b)
    pairs = sum(int(np.count_nonzero(nz_b <= top - x)) for x in _nonzero_layers(a))
    return pairs * r * k * c, pairs * item * (r * k + k * c + r * c)


# (metric prefix, module, attribute path, classifier of the call or None)
TARGETS = [
    ("padic_series.integrate", "padic_series", "integrate", None),
    *[("padic_series.series_ops", "padic_series", f"TruncatedSeries.{m}", None)
      for m in ("__init__", "_from_array", "__add__", "__sub__", "__neg__",
                "__mul__", "__eq__", "truncate_degree", "reduce_precision")],
    ("series_matrix.matmul", "series_matrix", "SeriesMatrix.__matmul__",
     _matmul_kind),
    ("series_matrix.entry", "series_matrix", "SeriesMatrix.entry", None),
    *[("series_matrix.calculus", "series_matrix", f"SeriesMatrix.{m}", None)
      for m in ("derivative_bodies", "phi_pullback", "oneform_pullback_bodies")],
    *[("series_matrix.elementwise", "series_matrix", f"SeriesMatrix.{m}", None)
      for m in ("__add__", "__sub__", "__neg__", "__eq__", "scale_int",
                "scale_series", "transpose", "truncate_degree",
                "reduce_precision")],
    ("crystal.check_horizontality", "crystal", "check_horizontality", None),
    ("crystal.check_pairing_compat", "crystal", "check_pairing_compat", None),
    ("crystal.direct_sum", "crystal", "direct_sum", None),
    ("extension_group.baer_sum", "extension_group", "baer_sum", _baer_mode),
    ("extension_group.assemble_crystal", "extension_group", "assemble_crystal",
     None),
    ("extension_group.ExtensionData.validate", "extension_group",
     "ExtensionData.__init__", None),
    ("extension_group.trivialize", "extension_group", "trivialize", None),
    ("extension_group.p_torsion_check", "extension_group", "p_torsion_check",
     None),
    ("moduli.DeformationPoint.validate", "moduli",
     "DeformationPoint.__post_init__", None),
    ("moduli.add_points", "moduli", "add_points", None),
    ("moduli.truncate_point", "moduli", "truncate_point", None),
    ("moduli.random_geometric_point", "moduli", "random_geometric_point", None),
    ("moduli.probe", "moduli", "multiply_by_p_injectivity_probe", None),
    ("sampling.random_extension", "sampling", "random_extension", None),
    ("serialize.extension_to_json", "serialize", "extension_to_json", None),
    ("cli.run", "cli", "run", None),
]


class Tracer:
    """Wraps the TARGETS while installed; aggregates spans per layer."""

    def __init__(self, span_cap: int = 5000):
        self.span_cap = span_cap
        self.missing = []
        self._plan = None      # (owner, name, original, wrapper)
        self._stack = []       # open spans: [child seconds, span id]
        self._depth = {}       # layer -> open spans of that layer
        self.reset()

    def reset(self):
        self.agg = {}          # layer -> [calls, self s, outermost total s]
        self.extra = {}        # derived counters (madds, digits lost, ...)
        self.spans = []        # (id, parent, unit, layer, start, end)
        self.unit = 0
        self.origin = time.perf_counter()
        self._stack.clear()
        self._depth.clear()
        self._next_id = 0

    # -- patching ---------------------------------------------------------

    def install(self):
        if self._plan is None:
            self._plan = self._resolve()
        for owner, name, _, wrapper in self._plan:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original, _ in reversed(self._plan or ()):
            setattr(owner, name, original)

    def _resolve(self):
        """Every (owner, name) binding of every target, with its wrapper."""
        pkg = "crystal_lab"
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == pkg or n.startswith(pkg + "."))]
        plan = []
        for prefix, module, path, classify in TARGETS:
            owner = sys.modules.get(f"{pkg}.{module}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(f"{module}.{path}")
                continue
            if cls_path:
                # a method is looked up on its class, under every alias
                func = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapper = self._wrap(func, prefix, classify)
                if isinstance(raw, classmethod):
                    wrapper = classmethod(wrapper)
                owners = [owner]
            else:
                # a function is looked up in every module that imported it
                wrapper = self._wrap(raw, prefix, classify)
                owners = modules
            for own in owners:
                for name, value in list(vars(own).items()):
                    if value is raw:
                        plan.append((own, name, raw, wrapper))
        return plan

    # -- spans ----------------------------------------------------------------

    def _wrap(self, fn, prefix, classify):
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter
        after = _AFTER.get(prefix)

        def wrapper(*args, **kwargs):
            frame = [0.0, self._next_id]
            self._next_id += 1
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            nested = depth.get(prefix, 0)
            depth[prefix] = nested + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                depth[prefix] = nested
                self._close(prefix, frame, parent, t0, t1, 0.0, not nested)
                raise
            t1 = clock()
            stack.pop()
            depth[prefix] = nested
            layer, book = prefix, 0.0
            if classify is not None:
                layer = f"{prefix}.{classify(args, kwargs, result)}"
            if after is not None:
                after(self, layer, args, result)
            if classify is not None or after is not None:
                book = clock() - t1
            self._close(layer, frame, parent, t0, t1, book, not nested)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", prefix)
        wrapper.__qualname__ = getattr(fn, "__qualname__", prefix)
        return wrapper

    def _close(self, layer, frame, parent, t0, t1, book, outermost):
        dur = t1 - t0
        rec = self.agg.get(layer)
        if rec is None:
            rec = self.agg[layer] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur - frame[0]
        if outermost:
            rec[2] += dur
        if self._stack:
            # tracer bookkeeping is nobody's self time
            self._stack[-1][0] += dur + book
        if len(self.spans) < self.span_cap:
            self.spans.append((frame[1], parent, self.unit, layer, t0, t1))

    def count(self, key, n=1):
        self.extra[key] = self.extra.get(key, 0) + n

    # -- results ----------------------------------------------------------------

    def calls(self, layer) -> int:
        return self.agg.get(layer, (0, 0.0, 0.0))[0]

    def self_s(self, layer) -> float:
        return self.agg.get(layer, (0, 0.0, 0.0))[1]

    def total_s(self, layer) -> float:
        """Inclusive time of the outermost spans of the layer."""
        return self.agg.get(layer, (0, 0.0, 0.0))[2]

    def total_self_s(self) -> float:
        return sum(rec[1] for rec in self.agg.values())

    def write_spans(self, path):
        """One JSON object per line; times in microseconds since reset."""
        with open(path, "w") as fh:
            for sid, parent, unit, layer, t0, t1 in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "unit": unit, "name": layer,
                    "start_us": round((t0 - self.origin) * 1e6, 1),
                    "end_us": round((t1 - self.origin) * 1e6, 1)}) + "\n")


def _after_matmul(tracer, layer, args, result):
    madds, nbytes = _matmul_work(layer.rsplit(".", 1)[1], args, result)
    tracer.count(layer + ".madds", madds)
    tracer.count(layer + ".bytes", nbytes)
    if result.arr.dtype == object:
        tracer.count("series_matrix.matmul.object_calls")


def _after_integrate(tracer, layer, args, result):
    tracer.count(layer + ".digits_lost", args[0].context.N - result.context.N)


def _after_trivialize(tracer, layer, args, result):
    if isinstance(result, TrivializationWitness):
        tracer.count(layer + ".split")


def _after_torsion(tracer, layer, args, result):
    if isinstance(result, TorsionCertificate):
        tracer.count(layer + ".certified")


_AFTER = {
    "series_matrix.matmul": _after_matmul,
    "padic_series.integrate": _after_integrate,
    "extension_group.trivialize": _after_trivialize,
    "extension_group.p_torsion_check": _after_torsion,
}
