"""Spans recorded at the package's module boundaries, from outside the package.

A traced run replaces public names of the layer modules (``flexdp.parser``,
``flexdp.mechanism``, ``flexdp.cli`` ...) with wrappers that record a span per
call, keeps every span in memory and writes them out when the run ends. A
name that no longer exists is recorded as absent instead of failing the run,
and the layer metrics that need it are reported as absent (``None``).
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from typing import Dict, List, Optional

# (span name, module, attribute) of every wrapped call. A span name listed
# twice wraps one function that a second module imported under its own name.
BOUNDARIES = (
    ("parser.parse_query", "flexdp.parser", "parse_query"),
    ("parser.parse_query", "flexdp.cli", "parse_query"),
    ("sensitivity.elastic_sensitivity", "flexdp.sensitivity", "elastic_sensitivity"),
    ("sensitivity.elastic_sensitivity", "flexdp.cli", "elastic_sensitivity"),
    ("mechanism.release", "flexdp.mechanism", "release_count"),
    ("mechanism.release", "flexdp.mechanism", "release_histogram"),
    ("mechanism.release", "flexdp.cli", "release_count"),
    ("mechanism.release", "flexdp.cli", "release_histogram"),
    ("mechanism.smooth_bound", "flexdp.mechanism", "smooth_bound"),
    ("mechanism.smooth_bound", "flexdp.cli", "smooth_bound"),
    ("mechanism.sensitivity_log_profile", "flexdp.mechanism", "sensitivity_log_profile"),
    ("metrics.load_metrics", "flexdp.metrics", "load_metrics"),
    ("metrics.load_metrics", "flexdp.cli", "load_metrics"),
    ("oracle.from_csv_dir", "flexdp.oracle", "MicroDatabase.from_csv_dir"),
    ("oracle.eval_query", "flexdp.cli", "eval_query"),
    ("cli.main", "flexdp.cli", "main"),
)

# Counts read off a smoothing result: k_max, k_star and values_scanned.
_COUNTS = ("k_max", "k_star", "values_scanned")


class Tracer:
    """In-memory span recorder; ``op`` is the id shared by one operation's spans.

    A span is [op, name, start, end, parent index, counts], where counts are
    the _COUNTS fields of the call's result when it has all of them.
    """

    def __init__(self):
        self.spans: List[list] = []
        self.absent = set()
        self.op = -1
        self._stack: List[int] = []
        self._patched = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.op, name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int, result=None):
        span = self.spans[index]
        span[3] = time.perf_counter()
        if all(hasattr(result, n) for n in _COUNTS):
            span[5] = [getattr(result, n) for n in _COUNTS]
        self._stack.pop()

    def install(self, modules):
        """Wrap every boundary in ``modules``; record the names that are missing."""
        for span_name, module_name, path in BOUNDARIES:
            if module_name not in modules:
                continue
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.add(span_name)
                continue
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.absent.add(span_name)
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, span_name))
            else:
                wrapped = self._wrap(raw, span_name)
            setattr(owner, attr, wrapped)
            self._patched.append((owner, attr, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def _wrap(self, fn, span_name):
        def traced(*args, **kwargs):
            index = self.begin(span_name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(index, result)

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"absent": sorted(self.absent), "spans": self.spans}, handle)


def layer_metrics(tracer: Tracer) -> Dict[str, Optional[float]]:
    """Layer metrics from the spans of the operations (spans named ``op``).

    ``_ms`` values are medians, over the operations that call the layer, of
    the summed span time, or of the self time (span minus its children) where
    the name says ``self``;
    ``_share`` values are the run total of that time over total operation
    time. A metric whose wrapped name was absent is None.
    """
    children = [0.0] * len(tracer.spans)
    for span in tracer.spans:
        if span[4] >= 0:
            children[span[4]] += span[3] - span[2]
    per_op: Dict[int, Dict[str, float]] = {}
    op_total = 0.0
    k_max, k_ratio, points = [], [], {}
    for i, (op, name, start, end, _parent, counts) in enumerate(tracer.spans):
        took = end - start
        bucket = per_op.setdefault(op, {})
        bucket[name] = bucket.get(name, 0.0) + took
        bucket[name + ":self"] = bucket.get(name + ":self", 0.0) + took - children[i]
        if name == "op":
            op_total += took
        if counts is not None:
            k_max.append(counts[0])
            if counts[0] > 0:
                k_ratio.append(counts[1] / counts[0])
            points[op] = points.get(op, 0) + counts[2]
    ops = [op for op, b in per_op.items() if "op" in b]

    def median_ms(key):
        calls = [per_op[op][key] for op in ops if key in per_op[op]]
        return 1e3 * statistics.median(calls) if calls else 0.0

    def share(key):
        return sum(per_op[op].get(key, 0.0) for op in ops) / op_total

    parse, exact = "parser.parse_query", "sensitivity.elastic_sensitivity"
    profile, smooth, release = (
        "mechanism.sensitivity_log_profile", "mechanism.smooth_bound", "mechanism.release")
    # smoothing ran but its result lacks the counted fields: the counts are absent
    scanned = any(b.get(smooth) for b in per_op.values())
    counted = not scanned or bool(k_max)
    values = {
        "parser.parse_ms": (median_ms(parse), parse),
        "parser.parse_share": (share(parse), parse),
        "sensitivity.exact_k0_ms": (median_ms(exact), exact),
        "sensitivity.exact_k0_share": (share(exact), exact),
        "sensitivity.log_profile_ms": (median_ms(profile), profile),
        "sensitivity.log_profile_share": (share(profile), profile),
        "sensitivity.log_profile_points": (
            (statistics.median(points.values()) if points else 0) if counted else None, smooth),
        "mechanism.scan_self_ms": (median_ms(smooth + ":self"), smooth),
        "mechanism.scan_self_share": (share(smooth + ":self"), smooth),
        "mechanism.k_max_p50": (
            (statistics.median(k_max) if k_max else 0) if counted else None, smooth),
        "mechanism.k_star_ratio": (
            (statistics.median(k_ratio) if k_ratio else 0.0) if counted else None, smooth),
        "mechanism.sample_ms": (median_ms(release + ":self"), release),
        "metrics.load_ms": (median_ms("metrics.load_metrics"), "metrics.load_metrics"),
        "oracle.csv_load_ms": (median_ms("oracle.from_csv_dir"), "oracle.from_csv_dir"),
        "oracle.eval_ms": (median_ms("oracle.eval_query"), "oracle.eval_query"),
        "cli.self_ms": (median_ms("cli.main:self"), "cli.main"),
    }
    return {
        metric: (None if needs in tracer.absent else value)
        for metric, (value, needs) in values.items()
    }
