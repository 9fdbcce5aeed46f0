"""Outside-in tracing of plumb's public calls.

While a Tracer is installed, each public function listed in TARGETS is
replaced, in every plumb module that refers to it, by a wrapper that
records a span (name, start, end, parent) and, for some calls, notes
work counts read from the arguments and the returned object. Nothing
inside plumb is changed; a target missing from the package is skipped
and its metrics read 0.

Per-layer times are summed over spans and are inclusive (a span
contains its children) except the *_self_s metrics, which subtract the
time covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import weakref
from collections import Counter, defaultdict
from time import perf_counter

# What a traced call leaves for counting, read from its arguments and
# result when it returns. Only small values are kept, so that the trace
# does not hold plumb's objects alive.


def _note_spinc_classes(tracer, args, kwargs, result):
    ctx = args[0]
    if ctx in tracer.seen_contexts:  # classes are computed once per context
        return None
    tracer.seen_contexts.add(ctx)
    return ctx.box_size, len(result)


def _note_basic_vectors(tracer, args, kwargs, result):
    ctx = args[0]
    tracer.basic_totals[ctx] = result.total
    return ctx.forest, ctx.budget, result.box_size, result.overflow_count, result.total


def _note_ar_status(tracer, args, kwargs, result):
    ctx = args[0]
    if not result.found:
        return 0, result.bound * ctx.n
    if result.vertex is None:  # the empty graph
        return 1, 0
    return 1, (result.delta - 1) * ctx.n + ctx.forest.ids.index(result.vertex) + 1


def _note_d_invariants(tracer, args, kwargs, result):
    basics = kwargs.get("basics", args[1] if len(args) > 1 else None)
    return (basics.total if basics is not None else tracer.basic_totals[args[0]],)


def _note_hf_summary(tracer, args, kwargs, result):
    return len(result.classes), sum(len(t.rows) for t in result.classes)


def _note_census_scan(tracer, args, kwargs, result):
    return args[0], args[1], 0


def _note_verify_classification(tracer, args, kwargs, result):
    return args[0], args[1], result.unimodular_checked + result.case3_checked


def _note_enumerate_weighted(tracer, args, kwargs, result):
    cap = sys.modules["plumb.census"].CENSUS_BOX_CAP
    return len(result), sum(math.prod(abs(w) for w in f.weights) > cap for f in result)


def _note_rationality(tracer, args, kwargs, result):
    return (bool(result),)


def _note_verify_e8(tracer, args, kwargs, result):
    return (result.trees_scanned,)


# (module, attribute, span name, note)
TARGETS = (
    ("exact", "determinant", "exact.det", None),
    ("exact", "adjugate", "exact.adjugate", None),
    ("lattice", "QFormContext.__init__", "lattice.context", None),
    ("lattice", "QFormContext.spinc_classes", "lattice.spinc_classes", _note_spinc_classes),
    ("engine", "basic_vectors", "engine.basic_vectors", _note_basic_vectors),
    ("engine", "verdicts", "engine.verdicts", None),
    ("engine", "ar_status", "engine.ar_status", _note_ar_status),
    ("engine", "d_invariants", "engine.d_invariants", _note_d_invariants),
    ("relations", "hf_summary", "relations.hf_summary", _note_hf_summary),
    ("forest", "canonical_code", "forest.canonical_code", None),
    ("census", "census_scan", "census.census_scan", _note_census_scan),
    ("census", "enumerate_weighted", "census.enumerate_weighted", _note_enumerate_weighted),
    ("census", "classify", "census.classify", None),
    ("census", "fast_is_rational", "census.rationality", _note_rationality),
    ("census", "verify_classification", "census.verify_classification", _note_verify_classification),
    ("census", "verify_e8_unique", "census.verify_e8", _note_verify_e8),
)

CLI_SPAN = "cli.main"

# per-layer metric -> unit; the order is the order of BENCHMARK.json
LAYER_METRICS = {
    "exact.det_s": "s",
    "exact.adjugate_s": "s",
    "exact.forms": "count",
    "lattice.context_s": "s",
    "lattice.spinc_classes_s": "s",
    "lattice.box_vectors": "count",
    "lattice.spinc_count": "count",
    "engine.basic_vectors_s": "s",
    "engine.path_runs": "count",
    "engine.path_steps": "count",
    "engine.overflows": "count",
    "engine.basic_total": "count",
    "engine.basic_frac": "ratio",
    "engine.verdicts_self_s": "s",
    "engine.ar_status_s": "s",
    "engine.ar_candidates": "count",
    "engine.ar_found": "count",
    "engine.d_invariants_s": "s",
    "engine.k_square_evals": "count",
    "relations.hf_summary_s": "s",
    "relations.hf_classes": "count",
    "relations.hf_rows": "count",
    "relations.hf_class_ms": "ms",
    "forest.canonical_code_s": "s",
    "forest.canonical_codes": "count",
    "census.enumerate_s": "s",
    "census.assignments": "count",
    "census.distinct_codes": "count",
    "census.box_capped": "count",
    "census.scan_self_s": "s",
    "census.classify_s": "s",
    "census.graphs_classified": "count",
    "census.rationality_s": "s",
    "census.rationality_checks": "count",
    "census.rational_found": "count",
    "census.verify_e8_s": "s",
    "census.trees_scanned": "count",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}


def is_count(metric: str) -> bool:
    return LAYER_METRICS[metric] == "count"


class Tracer:
    CLI_SPAN = CLI_SPAN

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.events: list[tuple] = []  # (span name, note)
        self.seen_contexts = weakref.WeakSet()
        self.basic_totals = weakref.WeakKeyDictionary()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # ------------------------------------------------------------ recording

    def wrap(self, name, fn, note=None, materialize=False):
        spans, stack, events = self.spans, self._stack, self.events

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if note is not None:
                kept = note(self, args, kwargs, result)
                if kept is not None:
                    events.append((name, kept))
            return iter(result) if materialize else result

        return traced

    def call(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    # ------------------------------------------------------------ patching

    def install(self):
        """Replace every target, wherever a plumb module refers to it."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "plumb"]
        for modname, attr, name, note in TARGETS:
            mod = importlib.import_module(f"plumb.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                orig = getattr(cls, meth, None) if cls is not None else None
                if orig is None:
                    continue
                setattr(cls, meth, self.wrap(name, orig, note))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            wrapper = self.wrap(name, orig, note, materialize=attr == "enumerate_weighted")
            for m in modules:
                if getattr(m, attr, None) is orig:
                    setattr(m, attr, wrapper)
                    self._undo.append((m, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # ------------------------------------------------------------ reading

    def times(self):
        """Inclusive and self seconds per span name, call counts, and the
        seconds covered by root spans."""
        incl, self_t, calls = defaultdict(float), defaultdict(float), Counter()
        child = [0.0] * len(self.spans)
        root = 0.0
        for i in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent = self.spans[i]
            dur = end - start
            incl[name] += dur
            self_t[name] += dur - child[i]
            calls[name] += 1
            if parent >= 0:
                child[parent] += dur
            else:
                root += dur
        return incl, self_t, calls, root


def _sweep(plumb, forest, budget):
    """Steps and overflows of run_path over the box, counted outside
    every span."""
    ctx = plumb.lattice.QFormContext(forest, budget=budget)
    steps = overflowed = 0
    for k in ctx.iter_box():
        r = plumb.engine.run_path(ctx, k)
        steps += r.steps
        overflowed += not r.basic
    return steps, overflowed


def layer_metrics(tracer: Tracer, plumb, pass_s: float) -> dict:
    """Per-layer metrics of one traced pass; counts are read from the
    returned objects (plus one run_path sweep, outside every span)."""
    incl, self_t, calls, root = tracer.times()
    m = dict.fromkeys(LAYER_METRICS, 0)
    m["exact.det_s"] = incl["exact.det"]
    m["exact.adjugate_s"] = incl["exact.adjugate"]
    m["exact.forms"] = calls["exact.det"]
    m["lattice.context_s"] = incl["lattice.context"]
    m["lattice.spinc_classes_s"] = incl["lattice.spinc_classes"]
    m["engine.basic_vectors_s"] = incl["engine.basic_vectors"]
    m["engine.verdicts_self_s"] = self_t["engine.verdicts"]
    m["engine.ar_status_s"] = incl["engine.ar_status"]
    m["engine.d_invariants_s"] = incl["engine.d_invariants"]
    m["relations.hf_summary_s"] = incl["relations.hf_summary"]
    m["forest.canonical_code_s"] = incl["forest.canonical_code"]
    m["forest.canonical_codes"] = calls["forest.canonical_code"]
    # the grid of verify_classification is its own (self) time
    m["census.enumerate_s"] = incl["census.enumerate_weighted"] + self_t["census.verify_classification"]
    m["census.scan_self_s"] = self_t["census.census_scan"]
    m["census.classify_s"] = incl["census.classify"]
    m["census.graphs_classified"] = calls["census.classify"]
    m["census.rationality_s"] = incl["census.rationality"]
    m["census.rationality_checks"] = calls["census.rationality"]
    m["census.verify_e8_s"] = incl["census.verify_e8"]
    m["cli.self_s"] = self_t[CLI_SPAN]

    for name, kept in tracer.events:
        if name == "lattice.spinc_classes":
            m["lattice.box_vectors"] += kept[0]
            m["lattice.spinc_count"] += kept[1]
        elif name == "engine.basic_vectors":
            forest, budget, box, overflows, total = kept
            m["engine.path_runs"] += box
            m["engine.overflows"] += overflows
            m["engine.basic_total"] += total
            steps, overflowed = _sweep(plumb, forest, budget)
            if overflowed != overflows:
                raise AssertionError("run_path sweep disagrees with BasicSet.overflow_count")
            m["engine.path_steps"] += steps
        elif name == "engine.ar_status":
            m["engine.ar_found"] += kept[0]
            m["engine.ar_candidates"] += kept[1]
        elif name == "engine.d_invariants":
            m["engine.k_square_evals"] += kept[0]
        elif name == "relations.hf_summary":
            m["relations.hf_classes"] += kept[0]
            m["relations.hf_rows"] += kept[1]
        elif name in ("census.census_scan", "census.verify_classification"):
            nmax, wmin, codes = kept
            m["census.assignments"] += sum(
                len(plumb.census.enumerate_trees(n)) * abs(wmin) ** n for n in range(1, nmax + 1)
            )
            m["census.distinct_codes"] += codes
        elif name == "census.enumerate_weighted":
            m["census.distinct_codes"] += kept[0]
            m["census.box_capped"] += kept[1]
        elif name == "census.rationality":
            m["census.rational_found"] += kept[0]
        elif name == "census.verify_e8":
            m["census.trees_scanned"] += kept[0]
    if m["engine.path_runs"]:
        m["engine.basic_frac"] = m["engine.basic_total"] / m["engine.path_runs"]
    if m["relations.hf_classes"]:
        m["relations.hf_class_ms"] = 1000 * m["relations.hf_summary_s"] / m["relations.hf_classes"]
    m["trace.coverage"] = root / pass_s if pass_s else 0.0
    return m


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each timed metric over traced passes; counts must agree."""
    out = {}
    for key in LAYER_METRICS:
        values = [p[key] for p in per_pass]
        if is_count(key):
            if len(set(values)) != 1:
                raise AssertionError(f"count {key} differs between passes: {values}")
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    return out
