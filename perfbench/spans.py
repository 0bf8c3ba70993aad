"""Spans around calls into each nncift module, recorded from outside.

`install` wraps module attributes: each listed function is replaced, in
every loaded nncift module that holds it, by a wrapper that records a
span (name, start, end, parent). Provider methods are wrapped on their
classes. Nothing in the program changes; only a traced run installs the
wrappers, so the end-to-end numbers of untraced runs carry no tracing
cost.

A span's self time is its duration minus the part of it that its child
spans cover. Every wrapped call happens inside the root span (the CLI's
`main`, wrapped as "cli.pipeline"), so the
self times of all spans add up to the root's duration: `layer_metrics`
names every span in exactly one self-time metric, which is why the
per-layer times account for the traced pipeline time.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    parent: int  # 0 for the root
    name: str
    start: float
    end: float
    count: float = 0.0  # work done inside the span, where the wrapper can tell

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn, count=None):
        """fn with a span around every call; count(result) gives the span's work."""
        spans, ids, stack_of = self.spans, self._ids, self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = Span(sid, parent, name, start, time.perf_counter())
                stack.pop()
                spans.append(span)
            if count is not None:
                span.count = count(result)
            return result

        traced.__wrapped__ = fn
        return traced


def _cells(matrix) -> float:
    return float(matrix.mask.sum())


def _points(scores) -> float:
    return float(len(scores.indices))


def _nbytes(array) -> float:
    return float(array.nbytes)


# (module, attribute, span name, work count). Dotted attributes are
# methods, wrapped on their class.
TRACED = [
    ("nncift.cli", "cmd_valuate", "cli.valuate", None),
    ("nncift.cli", "cmd_train_estimate", "cli.train_estimate", None),
    ("nncift.cli", "cmd_select", "cli.select", None),
    ("nncift.cli", "_emit_final_report", "cli.report", None),
    ("nncift.cli", "_load_inputs", "datasets.load_inputs", None),
    ("nncift.datasets", "load_embeddings", "datasets.load_file", None),
    ("nncift.datasets", "load_texts", "datasets.load_file", None),
    ("nncift.datasets", "partition", "datasets.partition", None),
    ("nncift.influence", "compute_influence", "influence.compute", _cells),
    ("nncift.influence", "compute_pointwise", "influence.compute", _points),
    ("nncift.influence", "save_influence", "cli.artifact_io", None),
    ("nncift.influence", "load_influence", "cli.artifact_io", None),
    ("nncift.network", "save_params", "cli.artifact_io", None),
    ("nncift.probes", "build_provider", "probes.build", None),
    ("nncift.probes", "SyntheticProvider.target_logprobs", "probes.call", None),
    ("nncift.probes", "SyntheticProvider.token_max_probs", "probes.call", None),
    ("nncift.probes", "FileProvider.target_logprobs", "probes.call", None),
    ("nncift.probes", "FileProvider.token_max_probs", "probes.call", None),
    ("nncift.probes", "HttpProvider.target_logprobs", "probes.call", None),
    ("nncift.probes", "HttpProvider.token_max_probs", "probes.call", None),
    ("nncift.network", "train", "network.train", None),
    ("nncift.network", "build_pair_features", "network.features", _nbytes),
    ("nncift.network", "estimate_pairwise", "network.estimate", _cells),
    ("nncift.network", "estimate_pointwise", "network.estimate", _points),
    ("nncift.network", "mse_by_quadrant", "network.evaluate", None),
    ("nncift.network", "baseline_estimates", "network.evaluate", None),
    ("nncift.selection", "normalize_kernel", "selection.select", None),
    ("nncift.selection", "facility_location_greedy", "selection.select", None),
    ("nncift.selection", "topk_rowmax", "selection.select", None),
    ("nncift.selection", "topk_pointwise", "selection.select", None),
    ("nncift.reporting", "build_cost_report", "reporting.report", None),
    ("nncift.reporting", "verify_ledger", "reporting.report", None),
    ("nncift.reporting", "emit_report", "reporting.report", None),
]


def install(tracer: Tracer) -> None:
    """Wrap every TRACED function wherever a loaded nncift module holds it."""
    import nncift.cli  # noqa: F401  (loads every module the pipeline uses)

    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "nncift" or name.startswith("nncift."))]
    for module_name, attr, span_name, count in TRACED:
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, tracer.wrap(span_name, getattr(cls, method), count))
            continue
        original = getattr(owner, attr)
        traced = tracer.wrap(span_name, original, count)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)


def covered_length(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.sid: span.duration - covered_length(children.get(span.sid, []), span.start, span.end)
        for span in spans
    }


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# Self-time metrics and the span names each one sums. Every span name
# appears in exactly one entry; `layer_metrics` checks that.
SELF_TIME_METRICS = {
    "datasets.load_s": ("datasets.load_inputs", "datasets.load_file"),
    "datasets.partition_s": ("datasets.partition",),
    "influence.corner_s": (),  # influence.compute under cli.valuate
    "influence.truth_s": (),  # influence.compute anywhere else
    "probes.wait_s": ("probes.call",),
    "probes.build_s": ("probes.build",),
    "network.train_s": ("network.train",),
    "network.features_s": ("network.features",),
    "network.estimate_s": ("network.estimate",),
    "network.evaluate_s": ("network.evaluate",),
    "selection.select_s": ("selection.select",),
    "reporting.report_s": ("reporting.report",),
    "cli.artifact_io_s": ("cli.artifact_io",),
    "cli.self_s": ("cli.pipeline", "cli.valuate", "cli.train_estimate", "cli.select",
                   "cli.report"),
}
STEP_METRICS = {
    "cli.valuate_s": "cli.valuate",
    "cli.train_estimate_s": "cli.train_estimate",
    "cli.select_s": "cli.select",
    "cli.report_s": "cli.report",
}


def layer_metrics(spans: list[Span], root: str = "cli.pipeline") -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run whose root span is `root`."""
    by_id = {span.sid: span for span in spans}
    own = self_times(spans)
    metric_of = {name: metric for metric, names in SELF_TIME_METRICS.items() for name in names}
    out = {metric: 0.0 for metric in SELF_TIME_METRICS}
    for span in spans:
        if span.name == "influence.compute":
            parent = by_id.get(span.parent)
            metric = ("influence.corner_s" if parent is not None and parent.name == "cli.valuate"
                      else "influence.truth_s")
        elif span.name in metric_of:
            metric = metric_of[span.name]
        else:
            raise ValueError(f"span {span.name!r} belongs to no self-time metric")
        out[metric] += own[span.sid]

    def named(name):
        return [span for span in spans if span.name == name]

    for metric, name in STEP_METRICS.items():
        out[metric] = sum(span.duration for span in named(name))
    out["trace.pipeline_s"] = sum(span.duration for span in named(root))
    out["trace.unaccounted_s"] = out["trace.pipeline_s"] - sum(
        out[metric] for metric in SELF_TIME_METRICS)
    out["datasets.load_calls"] = float(len(named("datasets.load_inputs")))

    valuation = named("influence.compute")
    out["influence.cells"] = sum(span.count for span in valuation)
    valuation_s = sum(span.duration for span in valuation)
    out["influence.cells_per_s"] = out["influence.cells"] / valuation_s if valuation_s else 0.0

    latencies_ms = [1000.0 * span.duration for span in named("probes.call")]
    out["probes.calls"] = float(len(latencies_ms))
    out["probes.latency_p50_ms"] = statistics.median(latencies_ms) if latencies_ms else 0.0
    out["probes.latency_p99_ms"] = _percentile(latencies_ms, 99)
    out["probes.builds"] = float(len(named("probes.build")))

    estimates = named("network.estimate")
    out["network.estimator_forwards"] = sum(span.count for span in estimates)
    estimate_s = sum(span.duration for span in estimates)
    out["network.estimates_per_s"] = (out["network.estimator_forwards"] / estimate_s
                                      if estimate_s else 0.0)
    out["network.feature_bytes"] = max((span.count for span in named("network.features")),
                                       default=0.0)
    return out
