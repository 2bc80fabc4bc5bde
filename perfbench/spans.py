"""Spans and counts at mrbleib's module boundaries, recorded from outside.

``Tracer.install()`` wraps the public boundary functions listed in
``BOUNDARIES`` and rebinds every alias of each one in every loaded
``mrbleib.*`` namespace (``cli`` and ``cohomology`` import most of them by
name), then fails loudly if any alias is still the unwrapped object.
Per-basis-cochain evaluators such as ``apply_delta`` are deliberately left
alone: they run thousands of times per matrix and wrapping them would
measure the tracer instead of the program.

A span records its name, start, end, parent span and request id.  Spans
stay in memory until the run ends.  Work the tracer does for its counters
(hashing arguments, scanning matrices) is timed and removed from every
enclosing span, so it does not show up as self time of the caller.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# (layer, module, function); the layer names the metric prefix
BOUNDARIES = (
    ("cli", "mrbleib.cli", "execute"),
    *(("documents", "mrbleib.documents", f) for f in (
        "parse_document", "parse_deformation", "parse_cocycle", "parse_extension",
        "document_json", "deformation_json", "extension_json", "cocycle_json")),
    *(("algebra", "mrbleib.algebra", f) for f in (
        "leibniz_defect", "mrb_defect", "derived_algebra", "grid_search_operators")),
    *(("representations", "mrbleib.representations", f) for f in (
        "regular_rep", "induced_rep", "rep_defect", "mrb_rep_defect")),
    *(("cohomology", "mrbleib.cohomology", f) for f in (
        "cohomology_dimensions", "delta_matrix", "phi_matrix", "cone_differential",
        "classify_cochain")),
    *(("linalg", "mrbleib.linalg", f) for f in (
        "rank", "rref", "kernel_basis", "solve_with_free_zero")),
    ("kernels_py", "mrbleib._kernels_py", "rref"),
    *(("deformation", "mrbleib.deformation", f) for f in (
        "deformation_residuals", "infinitesimal", "gauge_step")),
    *(("extensions", "mrbleib.extensions", f) for f in (
        "extension_from_cocycle", "validate_extension", "extract_cocycle",
        "section_from_proj", "iso_from_gamma")),
)
LAYERS = ("cli", "documents", "algebra", "representations", "cohomology", "linalg",
          "deformation", "extensions")
REQUEST = "cli.main"


def layer_of(span_name: str) -> str:
    """The layer a span belongs to; the elimination kernel is part of linalg."""
    prefix = span_name.split(".")[0]
    return "linalg" if prefix == "kernels_py" else prefix


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int


def self_times(spans) -> dict:
    """Total self time per span name: duration minus the time covered by
    direct children.  Spans come from one thread, so children never overlap."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    out = defaultdict(float)
    for idx, s in enumerate(spans):
        out[s.name] += s.end - s.start - child[idx]
    return dict(out)


class Tracer:
    """Records spans for the wrapped functions; one per process at a time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.request = -1
        self.excluded = 0.0  # tracer bookkeeping time, removed from spans
        self.counts = defaultdict(int)
        self.distinct = defaultdict(set)
        self.max_bits = 0
        self._undo: list = []

    # -- spans

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, self.clock() - self.excluded, 0.0, parent, self.request))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, idx: int):
        self.stack.pop()
        self.spans[idx].end = self.clock() - self.excluded

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span named ``name``; ``count(args, result)`` runs
        after the span closes and its time is excluded from all spans."""
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                t0 = tracer.clock()
                count(args, result)
                tracer.excluded += tracer.clock() - t0
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def request_span(self, request_id: int, call, *args):
        """Run one CLI request under a root span named ``cli.main``."""
        self.request = request_id
        idx = self._open(REQUEST)
        try:
            return call(*args)
        finally:
            self._close(idx)

    # -- counters

    def _count_key(self, name, key):
        t0 = self.clock()
        self.distinct[name].add((self.request, key))
        self.excluded += self.clock() - t0

    def _assembled(self, args, m):
        self.counts["cohomology.assembled_entries"] += m.rows * m.cols
        self.counts["cohomology.nnz"] += sum(1 for i in range(m.rows) for x in m.row(i) if x)

    def _bits(self, args, result):
        rows, _ = result
        best = self.max_bits
        for row in rows:
            for x in row:
                if x:
                    best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
        self.max_bits = best

    # -- installation

    def install(self):
        """Wrap every boundary function and rebind all of its aliases."""
        mods = {name: m for name, m in sys.modules.items()
                if name == "mrbleib" or name.startswith("mrbleib.")}
        originals = {}
        for layer, modname, fname in BOUNDARIES:
            fn = getattr(mods[modname], fname)
            name = f"{layer}.{fname}"
            count = None
            if name in ("cohomology.delta_matrix", "cohomology.phi_matrix"):
                count = self._assembled
            elif name == "kernels_py.rref":
                count = self._bits
            wrapped = self.wrap(name, fn, count)
            if name == "algebra.leibniz_defect":
                wrapped = self._keyed(wrapped, name, lambda a: a[0])
            elif name == "cohomology.delta_matrix":
                wrapped = self._keyed(wrapped, name, lambda a: (a[0], a[1], a[2]))
            originals[id(fn)] = (fn, wrapped)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, value))
        for mod in mods.values():
            for attr, value in vars(mod).items():
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    raise RuntimeError(f"{mod.__name__}.{attr} is still unwrapped")
        matrix = mods["mrbleib.linalg"].Matrix
        init = matrix.__init__
        counts = self.counts

        def counting_init(m, data):
            init(m, data)
            counts["linalg.Matrix.entries"] += m.rows * m.cols

        matrix.__init__ = counting_init
        self._undo.append((matrix, "__init__", init))

    def _keyed(self, wrapped, name, key):
        tracer = self

        def keyed(*args, **kwargs):
            tracer._count_key(name, key(args))
            return wrapped(*args, **kwargs)

        keyed.__wrapped__ = wrapped.__wrapped__
        return keyed

    def uninstall(self):
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()

    # -- results

    def metrics(self) -> dict:
        """Per-layer metrics of the recorded spans: ``name -> (value, unit)``."""
        selfs = self_times(self.spans)
        calls = defaultdict(int)
        for s in self.spans:
            calls[s.name] += 1
        out = {}
        for layer, _mod, fname in BOUNDARIES:
            name = f"{layer}.{fname}"
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (selfs.get(name, 0.0), "s")
        out["cli.emit_s"] = (selfs.get(REQUEST, 0.0), "s")
        for layer in LAYERS:
            total = sum((v for k, v in selfs.items() if layer_of(k) == layer), 0.0)
            out[f"{layer}.self_s"] = (total, "s")
        for name in ("algebra.leibniz_defect", "cohomology.delta_matrix"):
            n = calls[name]
            out[f"{name}.distinct_ratio"] = (len(self.distinct[name]) / n if n else 1.0, "ratio")
        for name in ("cohomology.assembled_entries", "cohomology.nnz", "linalg.Matrix.entries"):
            out[name] = (self.counts[name], "count")
        out["linalg.max_bits"] = (self.max_bits, "bits")
        return out
