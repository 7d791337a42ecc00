"""Order statistics and span arithmetic of the benchmark harness."""

import statistics
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import spans, stats  # noqa: E402


def test_percentile_interpolates_linearly():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile(values, 50) == 2.5
    assert stats.median(values) == statistics.median(values)
    assert stats.percentile(list(range(101)), 95) == 95
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_quartiles_follow_statistics_quantiles():
    values = [10.0, 10.4, 9.8, 10.1, 10.9, 9.9, 10.2, 10.0, 10.3, 10.6]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q2, q3)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert stats.spread([5.0]) == 0.0


def test_more_reps_needs_minimum_then_respects_seconds():
    assert stats.more_reps([], 3, 0.0)
    assert stats.more_reps([5.0, 5.0], 3, 0.0)
    assert not stats.more_reps([5.0, 5.0, 5.0], 3, 10.0)
    assert stats.more_reps([1.0, 1.0, 1.0], 3, 10.0)
    assert not stats.more_reps([1.0] * 10, 3, 10.0)


def _span(ident, parent, start, end, name="x"):
    return {"id": ident, "parent": parent, "name": name, "start": start,
            "end": end, "op": None, "workload": "w", "thread": 0}


def test_self_time_is_duration_minus_child_cover():
    tree = [_span(1, None, 0.0, 10.0, "root"),
            _span(2, 1, 1.0, 4.0, "a"),
            _span(3, 1, 3.0, 6.0, "a"),      # overlaps its sibling
            _span(4, 1, 8.0, 12.0, "b"),     # runs past the parent
            _span(5, 2, 1.5, 2.0, "leaf")]
    own = spans.self_times(tree)
    assert own[1] == pytest.approx(10.0 - (3.0 + 2.0 + 2.0))
    assert own[2] == pytest.approx(3.0 - 0.5)
    assert own[5] == pytest.approx(0.5)
    table = spans.totals_by_name(tree)
    assert table["a"]["count"] == 2
    assert table["a"]["total_s"] == pytest.approx(6.0)
    assert table["a"]["self_s"] == pytest.approx(5.5)


def test_tracer_nests_per_thread_and_null_tracer_records_nothing():
    tracer = spans.Tracer("w")

    def work():
        with tracer.span("outer", 7):
            with tracer.span("inner", 7):
                pass

    threads = [threading.Thread(target=work) for _ in range(2)]
    with tracer.span("main"):
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    by_id = {span["id"]: span for span in tracer.spans}
    assert len(by_id) == 5
    for span in tracer.spans:
        assert span["end"] >= span["start"]
        if span["name"] == "inner":
            parent = by_id[span["parent"]]
            assert parent["name"] == "outer"
            assert parent["thread"] == span["thread"]
        if span["name"] in ("outer", "main"):
            assert span["parent"] is None  # other threads start afresh
    quiet = spans.NullTracer()
    with quiet.span("anything"):
        pass
    assert quiet.spans == [] and not quiet.enabled
