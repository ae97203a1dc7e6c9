"""In-memory spans around trialbayes' layer boundaries, from outside the package.

Tracer.install replaces the names that each trialbayes module imports from
the layer below (and the engine's and meta's own entry points) with thin
wrappers that record a span: name, binding module, start, end, parent and
operation. Nothing under src/ changes. The noncentral t density is called
hundreds of times per integral, so its calls are folded into the enclosing
span as a count and a total time instead of one span each. Spans stay in
memory until write() at the end of a run.
"""

from __future__ import annotations

import importlib
import json
import time

# (module, bound name, span name, record the call count and time on the parent)
BOUNDARIES = (
    ("trialbayes.engine", "integrate", "numerics.integrate", False),
    ("trialbayes.engine", "noncentral_t_logpdf", "numerics.noncentral_t_logpdf", True),
    ("trialbayes.engine", "student_t_quantile", "numerics.student_t_quantile", False),
    ("trialbayes.engine", "central_t_pdf", "numerics.central_t_pdf", False),
    ("trialbayes.engine", "summarize", "engine.summarize", False),
    ("trialbayes.engine", "analyze_study", "engine.analyze_study", False),
    ("trialbayes.engine", "jzs_bf_g_form", "engine.jzs_bf_g_form", False),
    ("trialbayes.engine", "jzs_bf_delta_form", "engine.jzs_bf_delta_form", False),
    ("trialbayes.meta", "integrate", "numerics.integrate", False),
    ("trialbayes.meta", "noncentral_t_logpdf", "numerics.noncentral_t_logpdf", True),
    ("trialbayes.meta", "central_t_logpdf", "numerics.central_t_logpdf", False),
    ("trialbayes.meta", "meta_bf", "meta.meta_bf", False),
    ("trialbayes.io", "analyze_study", "engine.analyze_study", False),
    ("trialbayes.io", "meta_bf", "meta.meta_bf", False),
    ("trialbayes.io", "parse_dataset", "io.parse_dataset", False),
    ("trialbayes.cli", "analyze_study", "engine.analyze_study", False),
    ("trialbayes.cli", "analyze_summary", "engine.analyze_summary", False),
    ("trialbayes.cli", "summarize", "engine.summarize", False),
    ("trialbayes.cli", "classify_evidence", "engine.classify_evidence", False),
    ("trialbayes.cli", "meta_bf", "meta.meta_bf", False),
    ("trialbayes.cli", "parse_dataset", "io.parse_dataset", False),
    ("trialbayes.cli", "load_bundled_dataset", "io.load_bundled_dataset", False),
    ("trialbayes.cli", "run_reanalysis", "io.run_reanalysis", False),
    ("trialbayes.cli", "render_report", "io.render_report", False),
    ("trialbayes.cli", "emit_charts", "io.emit_charts", False),
)

# The package's own exception types; anything else escaping is untyped.
_TYPED = (
    ("trialbayes.numerics", "DomainError"),
    ("trialbayes.numerics", "NonConvergenceError"),
    ("trialbayes.engine", "InternalConsistencyError"),
    ("trialbayes.io", "DatasetError"),
)


def typed_errors():
    found = []
    for module, name in _TYPED:
        cls = getattr(importlib.import_module(module), name, None)
        if cls is not None:
            found.append(cls)
    return tuple(found)


class Span:
    __slots__ = ("id", "parent", "name", "at", "op", "start", "end",
                 "error", "typed", "evaluations", "studies", "leaf")

    def __init__(self, id, parent, name, at, op):
        self.id, self.parent, self.name, self.at, self.op = id, parent, name, at, op
        self.start = self.end = 0.0
        self.error = None
        self.typed = None
        self.evaluations = None
        self.studies = None
        self.leaf = {}

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None
        self._typed = ()

    def install(self):
        """Wrap every boundary in BOUNDARIES that exists."""
        self._typed = typed_errors()
        for module_name, attr, name, leaf in BOUNDARIES:
            at = module_name.rsplit(".", 1)[1]
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._leaf(original, name) if leaf else self._wrap(original, name, at)
            setattr(module, attr, wrapper)

    def begin(self, name, at="bench"):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, at, self.op)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span, exc=None):
        span.end = time.perf_counter()
        self._stack.pop()
        if exc is not None:
            span.error = type(exc).__name__
            span.typed = isinstance(exc, self._typed)

    def _wrap(self, fn, name, at):
        def traced(*args, **kwargs):
            span = self.begin(name, at)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(span, exc)
                raise
            self.end(span)
            span.evaluations = getattr(result, "evaluations", None)
            studies = getattr(args[0], "studies", None) if args else None
            if studies is not None:
                span.studies = len(studies)
            return result

        traced.__wrapped__ = fn
        return traced

    def _leaf(self, fn, name):
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                if stack:
                    stats = stack[-1].leaf.setdefault(name, [0, 0.0])
                    stats[0] += 1
                    stats[1] += clock() - start

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def read_spans(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Summary:
    """Per-layer totals over the spans below root spans named `root`.

    `processes` is a list of span lists, one per traced process, since span
    ids are only unique within a process. Totals are kept per span name and
    per (span name, binding module).
    """

    def __init__(self, processes, root):
        self.root = root
        self.total = {}       # (name, at or None) -> seconds
        self.self_time = {}   # (name, None) -> seconds
        self.calls = {}       # (name, at or None) -> calls
        self.evaluations = {}  # (name, at or None) -> integrand evaluations
        self.errors = {"typed": 0, "untyped": 0}
        self.studies = 0
        for spans in processes:
            self._add(spans)

    def _bump(self, table, name, at, value):
        for key in ((name, None), (name, at)):
            table[key] = table.get(key, 0) + value

    def _add(self, spans):
        by_id = {s["id"]: s for s in spans}
        children = {}
        roots = {}
        for s in spans:  # parents precede their children
            if s["parent"] is None:
                roots[s["id"]] = s["name"]
            else:
                children.setdefault(s["parent"], []).append(s)
                roots[s["id"]] = roots[s["parent"]]
        for s in spans:
            if s["at"] == "bench" or roots[s["id"]] != self.root:
                continue
            duration = s["end"] - s["start"]
            leaf_time = sum(v[1] for v in s["leaf"].values())
            child_time = sum(c["end"] - c["start"] for c in children.get(s["id"], ()))
            self._bump(self.total, s["name"], s["at"], duration)
            self._bump(self.calls, s["name"], s["at"], 1)
            key = (s["name"], None)
            self.self_time[key] = self.self_time.get(key, 0.0) + duration - child_time - leaf_time
            if s["evaluations"] is not None:
                self._bump(self.evaluations, s["name"], s["at"], s["evaluations"])
            if s["name"] == "meta.meta_bf" and s["studies"]:
                self.studies += s["studies"]
            for leaf, (calls, seconds) in s["leaf"].items():
                self._bump(self.calls, leaf, s["at"], calls)
                self._bump(self.total, leaf, s["at"], seconds)
            parent = by_id.get(s["parent"])
            leaves_engine = s["name"].startswith("engine.") and not (
                parent is not None and parent["name"].startswith("engine.")
            )
            if s["error"] is not None and leaves_engine:
                self.errors["typed" if s["typed"] else "untyped"] += 1
