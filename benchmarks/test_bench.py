"""Tests for the benchmark's own arithmetic: percentiles, self time, ratios.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import stats
from spans import Patches, Tracer, spanned


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_p90_needs_ten_samples_above_it():
    assert stats.min_samples(90) == 100
    assert stats.min_samples(50) == 20
    with pytest.raises(ValueError):
        stats.percentile(range(99), 90)
    samples = list(range(1, 101))  # 1..100
    p90 = stats.percentile(samples, 90)
    assert p90 == 90
    assert sum(x > p90 for x in samples) == 10


def test_percentile_is_nearest_rank_and_order_free():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 20  # 20 of each of 1..5
    assert stats.percentile(samples, 50) == 3.0  # rank 50 of 100
    assert stats.percentile(samples, 90) == 5.0  # rank 90 falls among the 5s
    assert stats.percentile(list(range(200)), 90) == 179


def test_median_odd_and_even():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])


def test_rescale_divides_each_time_by_its_own_kernel_sample():
    times = [[(2.0, 6.0)], [(4.0, 3.0)]]  # [pass][op][part]
    kernel = [[(1.0, 2.0)], [(4.0, 0.5)]]
    assert stats.rescale(times, kernel, 0.5) == [[(1.0, 1.5)], [(0.5, 3.0)]]


def test_op_medians_take_each_part_over_the_passes():
    passes = [
        [(3.0, 5.0), (1.0, 2.0)],  # pass 1: op 0, op 1
        [(2.0, 6.0), (4.0, 1.5)],  # pass 2
        [(2.5, 4.0), (1.5, 9.0)],  # pass 3
    ]
    assert stats.op_medians(passes) == [(2.5, 5.0), (1.5, 2.0)]
    assert stats.op_medians([[(7.0,)], [(8.0,)]]) == [(7.5,)]
    assert stats.op_medians([]) == []


def test_ratio_is_zero_without_a_base():
    assert stats.ratio(30, 10) == 3.0
    assert stats.ratio(0, 0) == 0.0


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    outer = tracer.enter("outer")  # t=0
    clock.now = 1.0
    mid = tracer.enter("mid")  # t=1
    clock.now = 2.0
    inner = tracer.enter("inner")  # t=2
    clock.now = 5.0
    tracer.exit(inner)  # inner 3 s
    clock.now = 6.0
    tracer.exit(mid)  # mid 5 s, 3 of them in inner
    clock.now = 7.0
    again = tracer.enter("inner")
    clock.now = 8.0
    tracer.exit(again)  # inner directly under outer, 1 s
    clock.now = 10.0
    tracer.exit(outer)  # outer 10 s, 6 of them in children
    assert tracer.self_s == {"inner": 4.0, "mid": 2.0, "outer": 4.0}
    assert tracer.calls == {"inner": 2, "mid": 1, "outer": 1}
    assert sum(tracer.self_s.values()) == 10.0  # self times partition the root span


def test_spans_must_close_in_order():
    tracer = Tracer(FakeClock())
    outer = tracer.enter("outer")
    tracer.enter("inner")
    with pytest.raises(RuntimeError):
        tracer.exit(outer)


def test_decode_ratio_uses_scored_positions_as_base():
    tracer = Tracer(FakeClock())
    tracer.count("decode.positions", 60)
    tracer.count("decode.scored_positions", 20)
    metrics = tracer.metrics()
    assert metrics["decode.positions_per_scored"] == 3.0
    assert Tracer(FakeClock()).metrics()["decode.positions_per_scored"] == 0.0


def test_wrapped_function_is_timed_counted_and_restored():
    class Owner:
        @staticmethod
        def work(x):
            return x * 2

    clock = FakeClock()
    tracer = Tracer(clock)
    seen = []
    patches = Patches()
    original = Owner.work
    patches.wrap(Owner, "work", spanned(tracer, "owner.work", lambda result, x: seen.append((x, result))))
    assert Owner.work(3) == 6
    assert tracer.calls == {"owner.work": 1}
    assert seen == [(3, 6)]
    patches.restore()
    assert Owner.work is original


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    produced = set(Tracer(FakeClock()).metrics()) | {"trace.overhead_s", "trace.untraced_s"}
    assert declared == produced
