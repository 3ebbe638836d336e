"""Tests of the benchmark's own helpers: the percentile rule, span self time
and the calibration scaling.

Run with ``python3 -m pytest bench``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Span, Tracer, highest_reportable, percentile, samples_beyond, self_times  # noqa: E402


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(reversed(values), 90) == 90
    assert percentile([7.0], 90) == 7.0
    assert percentile([1, 2], 50) == 1
    with pytest.raises(ValueError):
        percentile([], 50)


def test_reportable_percentile_needs_ten_samples_beyond():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(100, 99) == 1
    assert highest_reportable(100) == 90.0
    assert highest_reportable(99) == 50.0  # p90 would leave only 9 beyond
    assert highest_reportable(1000) == 99.0
    assert highest_reportable(10000) == 99.9
    assert highest_reportable(20) == 50.0
    assert highest_reportable(19) is None


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span("root", 0.0, 10.0, -1, 1),
        Span("a", 1.0, 3.0, 0, 1),
        Span("b", 2.0, 5.0, 0, 1),  # overlaps a: 1..5 covered once, not twice
        Span("c", 6.0, 7.0, 0, 1),
        Span("grandchild", 6.2, 6.5, 3, 1),  # covered by c, not by root directly
        Span("other", 11.0, 12.0, -1, 2),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 0.7, 0.3, 1.0])


def test_self_time_clips_children_to_the_parent_interval():
    spans = [Span("root", 0.0, 4.0, -1, 1), Span("late", 3.0, 6.0, 0, 1)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_wrapped_calls_nest_and_share_a_group():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    traced_leaf = tracer.wrap(leaf, "leaf", hook=lambda tr, args, result: tr.counts.update(leaf_in=args[0]))
    traced_root = tracer.wrap(lambda: traced_leaf(1) + traced_leaf(2), "root")

    assert traced_root() == 5
    assert traced_root() == 5
    assert [s.name for s in tracer.spans] == ["root", "leaf", "leaf"] * 2
    assert [s.parent for s in tracer.spans] == [-1, 0, 0, -1, 3, 3]
    assert [s.group for s in tracer.spans] == [1, 1, 1, 2, 2, 2]
    assert tracer.calls("leaf") == 4
    assert tracer.counts["leaf_in"] == 6
    assert tracer.self_total("root") == pytest.approx(tracer.total("root") - tracer.total("leaf"))


def test_calibration_scales_by_the_mean_of_the_ticks_on_either_side(monkeypatch):
    import workloads

    clock = [0.0]
    loop_s = iter([2.0, 4.0, 1.0, 3.0, 3.0, 9.0])

    def loop():
        clock[0] += next(loop_s)

    monkeypatch.setattr(workloads.time, "perf_counter", lambda: clock[0])
    cal = workloads.Calibration(loop, ref_s=1.5)
    cal.tick()
    assert cal.factor() == pytest.approx(1.5 / 3.0)
    assert cal.factor() == pytest.approx(1.5 / 2.5)  # the tick after a job is the tick before the next
    assert cal.samples == [2.0, 4.0, 1.0]
    burst = workloads.Calibration(loop, ref_s=1.0, burst=3)
    burst.tick()
    assert burst.samples == [3.0]  # the median of 3, 3 and 9
