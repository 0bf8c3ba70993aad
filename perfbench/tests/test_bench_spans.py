import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Span, Tracer, covered_length, layer_metrics, self_times  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, 0, "root", 0.0, 10.0),
        Span(2, 1, "a", 1.0, 4.0),
        Span(3, 1, "b", 3.0, 6.0),  # overlaps a, as spans of two threads can
        Span(4, 1, "c", 7.0, 8.0),
        Span(5, 4, "d", 7.25, 7.5),
    ]
    own = self_times(spans)
    assert own == {1: 4.0, 2: 3.0, 3: 3.0, 4: 0.75, 5: 0.25}


def test_covered_length_clips_to_the_parent():
    assert covered_length([(-1.0, 2.0), (5.0, 20.0)], 0.0, 10.0) == 7.0
    assert covered_length([], 0.0, 10.0) == 0.0


def _pipeline_tree():
    return [
        Span(1, 0, "cli.pipeline", 0.0, 20.0),
        Span(2, 1, "cli.valuate", 0.5, 6.0),
        Span(3, 2, "datasets.load_inputs", 0.5, 1.5),
        Span(4, 3, "datasets.load_file", 0.75, 1.25),
        Span(5, 2, "influence.compute", 2.0, 5.0, count=10),
        Span(6, 5, "probes.call", 2.0, 3.0),
        Span(7, 5, "probes.call", 3.0, 4.5),
        Span(8, 1, "cli.train_estimate", 6.0, 16.0),
        Span(9, 8, "network.train", 6.0, 8.0),
        Span(10, 8, "network.estimate", 8.0, 11.0, count=40),
        Span(11, 10, "network.features", 8.0, 10.0, count=4096),
        Span(12, 8, "influence.compute", 11.0, 15.0, count=50),
        Span(13, 1, "cli.select", 16.0, 17.0),
        Span(14, 13, "selection.select", 16.0, 16.5),
        Span(15, 1, "cli.report", 17.0, 19.5),
        Span(16, 15, "reporting.report", 17.5, 19.0),
        Span(17, 8, "cli.artifact_io", 15.0, 15.5),
    ]


def test_self_times_account_for_the_pipeline():
    metrics = layer_metrics(_pipeline_tree())
    assert metrics["trace.pipeline_s"] == 20.0
    assert metrics["trace.unaccounted_s"] == 0.0
    assert metrics["influence.corner_s"] == 0.5  # 3.0 minus 2.5 of probe calls
    assert metrics["influence.truth_s"] == 4.0
    assert metrics["probes.wait_s"] == 2.5
    assert metrics["datasets.load_s"] == 1.0
    assert metrics["network.estimate_s"] == 1.0
    assert metrics["network.features_s"] == 2.0
    assert metrics["cli.artifact_io_s"] == 0.5
    # root 1.0 + valuate 1.5 + train_estimate 0.5 + select 0.5 + report 1.0
    assert metrics["cli.self_s"] == 4.5
    assert metrics["cli.valuate_s"] == 5.5
    assert metrics["influence.cells"] == 60
    assert metrics["influence.cells_per_s"] == 60 / 7.0
    assert metrics["network.estimator_forwards"] == 40
    assert metrics["network.feature_bytes"] == 4096
    assert metrics["probes.calls"] == 2
    assert metrics["probes.latency_p50_ms"] == 1250.0
    assert metrics["probes.latency_p99_ms"] == 1500.0
    assert metrics["datasets.load_calls"] == 1


def test_unknown_span_names_are_rejected():
    with pytest.raises(ValueError, match="no self-time metric"):
        layer_metrics([Span(1, 0, "cli.pipeline", 0.0, 1.0), Span(2, 1, "mystery", 0.1, 0.2)])


def test_tracer_records_nesting_and_failed_calls():
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return [x]

    def body():
        assert outer(3) == [3]
        with pytest.raises(ValueError):
            traced_inner(-1)

    traced_inner = tracer.wrap("inner", inner, count=len)
    outer = tracer.wrap("outer", lambda x: traced_inner(x))
    tracer.wrap("root", body)()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    root = by_name["root"][0]
    assert by_name["outer"][0].parent == root.sid
    assert by_name["inner"][0].parent == by_name["outer"][0].sid
    assert by_name["inner"][0].count == 1
    assert by_name["inner"][1].parent == root.sid  # the failed call still has its span
    assert sum(self_times(tracer.spans).values()) == pytest.approx(root.duration)
