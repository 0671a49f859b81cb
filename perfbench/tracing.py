"""Span tracing of the mvmetric layers from outside the package.

Tracing never edits the package.  It swaps public functions in the module
namespaces that call them (``mvmetric.solver.compute_scatter``,
``mvmetric.eval.knn_classify``, ...) for wrappers that record a span around
each call, then restores the originals.  Call sites inside the package look
these names up in their module globals at call time, so the wrappers see every
call.  Spans form a tree through their parent id; a layer's self time is its
span durations minus the durations of their direct children.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (home module, function name, span name).  Several functions may share a span
# name when they make up one layer.
TRACED_FUNCTIONS = (
    ("mvmetric.constraints", "build_constraints", "constraints.build"),
    ("mvmetric.scatter", "compute_scatter", "scatter.scatter"),
    ("mvmetric.scatter", "compute_cross", "scatter.cross"),
    ("mvmetric.solver", "assemble_block_matrix", "solver.assemble"),
    ("mvmetric.solver", "top_eigenpairs", "solver.eigh"),
    ("mvmetric.solver", "compute_view_gains", "solver.gains_weights"),
    ("mvmetric.solver", "update_view_weights", "solver.gains_weights"),
    ("mvmetric.solver", "train", "solver.train"),
    ("mvmetric.eval", "knn_classify", "eval.knn"),
    ("mvmetric.eval", "run_benchmark", "eval.run_benchmark"),
)

# per-layer metric -> the span whose self time it reports.  The self time of
# ``solver.train`` is the polar projection and refine sweeps (everything in
# train that no other wrapped layer covers), and the self time of
# ``eval.run_benchmark`` is almost entirely Euclidean baseline scoring.
LAYER_SPANS = {
    "dataset.generate_s": "dataset.generate",
    "dataset.write_s": "dataset.write",
    "dataset.load_s": "dataset.load",
    "constraints.build_s": "constraints.build",
    "scatter.scatter_s": "scatter.scatter",
    "scatter.cross_s": "scatter.cross",
    "solver.assemble_s": "solver.assemble",
    "solver.eigh_s": "solver.eigh",
    "solver.polar_refine_s": "solver.train",
    "solver.gains_weights_s": "solver.gains_weights",
    "eval.knn_s": "eval.knn",
    "eval.baseline_s": "eval.run_benchmark",
    "metric.check_s": "metric.check",
    "model.save_s": "model.save",
    "model.load_s": "model.load",
}

# per-layer counts and their units; model.bytes and metric.check_triples are
# read from the round's outputs rather than from spans
COUNT_UNITS = {
    "constraints.pairs": "count",
    "scatter.diff_bytes": "bytes-computed",
    "solver.eigh_calls": "count",
    "solver.svd_calls": "count",
    "solver.iterations": "count",
    "solver.max_iter_stops": "count",
    "solver.padded_views": "count",
    "eval.knn_calls": "count",
    "metric.check_triples": "count",
    "model.bytes": "bytes",
}


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()

    def set_operation(self, op: str) -> None:
        pass


class Tracer:
    """Records spans (id, name, start, end, parent, operation) in memory.

    ``op_weights`` scales the self time and counts of each operation in the
    layer totals; an operation repeated n times in a round gets 1/n, so the
    totals describe one pass of each operation.
    """

    enabled = True

    def __init__(self, op_weights=None):
        self.spans = []
        self.counts = Counter()
        self._op_weights = op_weights or {}
        self._stack = []
        self._next_id = 0
        self._op = None
        self._train_depth = 0

    def _weight(self, op) -> float:
        return self._op_weights.get(op, 1.0)

    def set_operation(self, op: str) -> None:
        self._op = op

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(
                {"id": span_id, "name": name, "start_ns": start, "end_ns": end,
                 "parent": parent, "op": self._op}
            )

    def _wrap(self, func, span_name: str):
        observe = _OBSERVERS.get(span_name)
        in_train = int(span_name == "solver.train")

        @functools.wraps(func)
        def traced(*args, **kwargs):
            self._train_depth += in_train
            try:
                with self.span(span_name):
                    result = func(*args, **kwargs)
            finally:
                self._train_depth -= in_train
            if observe is not None:
                for name, value in observe(args, result).items():
                    self.counts[name] += value * self._weight(self._op)
            return result

        return traced

    def _counted_svd(self, svd):
        @functools.wraps(svd)
        def counted(*args, **kwargs):
            if self._train_depth:
                self.counts["solver.svd_calls"] += self._weight(self._op)
            return svd(*args, **kwargs)

        return counted

    def installed(self):
        """Swap the traced functions (and ``numpy.linalg.svd``) for wrappers."""
        return swapped(
            [("numpy.linalg", "svd", self._counted_svd)]
            + [(home, name, functools.partial(self._wrap, span_name=span_name))
               for home, name, span_name in TRACED_FUNCTIONS]
        )

    def layer_totals(self) -> dict:
        """Per-layer self seconds and counts over every span recorded so far."""
        child_ns = defaultdict(int)
        for s in self.spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
        self_ns = Counter()
        calls = Counter()
        for s in self.spans:
            weight = self._weight(s["op"])
            self_ns[s["name"]] += (s["end_ns"] - s["start_ns"] - child_ns[s["id"]]) * weight
            calls[s["name"]] += weight
        totals = {metric: self_ns[name] / 1e9 for metric, name in LAYER_SPANS.items()}
        totals["solver.eigh_calls"] = calls["solver.eigh"]
        totals["eval.knn_calls"] = calls["eval.knn"]
        totals.update(self.counts)
        return totals


def package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "mvmetric" or n.startswith("mvmetric."))]


@contextlib.contextmanager
def swapped(replacements):
    """Swap functions for wrappers, then restore them.

    ``replacements`` holds (home module, function name, make wrapper).  A
    package function is swapped in every package module that holds it, a
    numpy function in its home module, so call sites that look the name up
    at call time see the wrapper.
    """
    done = []
    try:
        for home, name, make in replacements:
            original = getattr(sys.modules[home], name)
            wrapper = make(original)
            modules = [sys.modules[home]] if home.startswith("numpy") else package_modules()
            for module in modules:
                if getattr(module, name, None) is original:
                    done.append((module, name, original))
                    setattr(module, name, wrapper)
        yield
    finally:
        for module, name, original in reversed(done):
            setattr(module, name, original)


def _observe_constraints(args, result):
    return {"constraints.pairs": result.n_similar + result.n_dissimilar}


def _observe_scatter(args, result):
    view, constraints = args[0], args[1]
    pairs = constraints.n_similar + constraints.n_dissimilar
    # computed, not measured: the float64 pair-difference matrices D_v x pairs
    return {"scatter.diff_bytes": 8 * view.n_features * pairs}


_OBSERVERS = {
    "constraints.build": _observe_constraints,
    "scatter.scatter": _observe_scatter,
    "solver.train": lambda args, result: _fit_counts(result),
}


def _fit_counts(model) -> dict:
    """Counts read from a fitted model's training trace."""
    trace = model.trace
    last = trace[-1]["residual"] if trace else None
    hit_cap = len(trace) >= model.hyper.max_iters and (last is None or last >= model.hyper.tol)
    return {
        "solver.iterations": len(trace),
        "solver.max_iter_stops": int(hit_cap),
        "solver.padded_views": sum(len(t["padded_views"]) for t in trace),
    }
