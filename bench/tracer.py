"""Span tracer that wraps library functions at their call sites.

The tracer replaces module attributes (for example ``boresight.relax.gjk_min_sq_dist``)
with wrappers that record one span per call: name, start, end and the span
that was open when the call began. Spans stay in memory; self time is a span's
duration minus the durations of its direct children, so the self times of all
spans under a root add up to the root's duration.

A target that no longer exists (after a refactor moved or renamed it) is
recorded as missing instead of raising, and so is a counter whose call no
longer has the expected arguments or result ("<span name>:counts"). Metrics
built on either are reported as missing rather than as zero.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, attribute path, span name). The attribute path is looked up on the
# module; a dotted path such as "NnIndex.query_many" wraps a class attribute.
TARGETS = [
    ("boresight.gopt", "compute_pair_set", "relax.compute_pair_set"),
    ("boresight.gopt", "reduce_pairs", "reduce.reduce_pairs"),
    ("boresight.gopt", "evaluate_ub", "gopt.evaluate_ub"),
    ("boresight.gopt", "node_lower_bound", "gopt.node_lower_bound"),
    ("boresight.relax", "build_polytope", "relax.build_polytope"),
    ("boresight.relax", "rotation_interval", "rotation.interval"),
    ("boresight.relax", "gjk_min_sq_dist", "spatial.gjk"),
    ("boresight.relax", "max_vertex_sq_dist", "spatial.max_vertex"),
    ("boresight.search", "evaluate_ub", "search.evaluate_ub"),
    ("boresight.search", "georeference", "cloud.georeference"),
    ("boresight.search", "NnIndex", "spatial.kdtree_build"),
    ("boresight.spatial", "NnIndex.query_many", "spatial.kdtree_query"),
]


def _pairs_arg(args, kwargs):
    return args[3] if len(args) > 3 else kwargs.get("pairs")


def _count_pair_set(counters, args, kwargs, result):
    counters["relax.boxes"] += 1
    counters["relax.pairs_in"] += result.size
    if _pairs_arg(args, kwargs) is not None:
        counters["gopt.child_boxes"] += 1  # the root box starts from the dense set


def _count_reduce(counters, args, kwargs, result):
    pairs = args[0] if args else kwargs["pairs"]
    counters["reduce.pairs_in"] += pairs.size
    counters["reduce.pairs_out"] += result.pairs.size


# Counts taken from the arguments and result of a wrapped call.
COUNTERS = {
    "relax.compute_pair_set": _count_pair_set,
    "reduce.reduce_pairs": _count_reduce,
}


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Summary:
    """Per-name totals of one root span and everything under it."""

    root_s: float
    layers: dict[str, LayerTotals]
    counters: dict[str, int]
    missing: list[str] = field(default_factory=list)

    def self_sum_s(self) -> float:
        return sum(t.self_s for t in self.layers.values())


def _resolve(module_name: str, path: str):
    """(owner, attribute name) for a target, or None when it no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Records spans for the targets while installed (``with tracer.installed():``)."""

    def __init__(self, targets=TARGETS):
        self.targets = list(targets)
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, fn, name: str):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None and name + ":counts" not in self.missing:
                try:
                    count(self.counters, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the call's signature or result changed: its counts are
                    # unknown from here on, not zero
                    self.missing.append(name + ":counts")
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Replace every target that exists with its wrapper; restore on exit."""
        saved = []
        self.missing = []
        try:
            for module_name, path, name in self.targets:
                found = _resolve(module_name, path)
                if found is None:
                    self.missing.append(name)
                    continue
                owner, attr = found
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()

    def summarize(self) -> Summary:
        """Calls, inclusive time and self time per span name; the first span
        recorded since the last reset is the root of all others."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        layers: dict[str, LayerTotals] = defaultdict(LayerTotals)
        for k, (name, start, end, _) in enumerate(spans):
            t = layers[name]
            t.calls += 1
            t.total_s += end - start
            t.self_s += end - start - child_s[k]
        _, start, end, _ = spans[0]
        return Summary(root_s=end - start, layers=dict(layers),
                       counters=dict(self.counters), missing=list(self.missing))
