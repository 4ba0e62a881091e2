"""Tests for the benchmark's own arithmetic: python3 -m pytest perfbench"""

import json
import os

import run
from summary import adjusted, disagreements, nearest_rank, smooth_median, tail
from tracing import Span, Tracer, self_time, union_length


def span(sid, start, end, parent=None):
    return Span(sid, f"s{sid}", start, end, parent, 0)


def test_tail_picks_highest_percentile_with_ten_beyond():
    assert tail(range(1, 10001)) == ("99.9", 9990, 10000)
    assert tail(range(1, 1001)) == ("99", 990, 1000)
    assert tail(range(1, 201)) == ("95", 190, 200)
    assert tail(range(1, 101)) == ("90", 90, 100)


def test_tail_is_none_with_too_few_samples():
    assert tail(range(99)) is None
    assert tail([]) is None


def test_tail_ignores_input_order():
    values = list(range(1, 121))
    assert tail(values[::-1]) == tail(values) == ("90", 108, 120)


def test_nearest_rank():
    assert nearest_rank([1, 2, 3, 4], "50") == 2
    assert nearest_rank([1, 2, 3, 4], "99.9") == 4
    assert nearest_rank([7], "90") == 7


def test_smooth_median_of_symmetric_and_constant_samples():
    assert abs(smooth_median([1, 2, 3, 4, 5]) - 3) < 1e-12
    assert abs(smooth_median(range(1, 101)) - 50.5) < 1e-9
    assert abs(smooth_median([0.25] * 7) - 0.25) < 1e-15
    assert abs(smooth_median([7]) - 7) < 1e-12


def test_smooth_median_moves_little_when_middle_samples_swap_clusters():
    # 40 samples at 1.0 and 41 at 1.1: the plain median jumps by 10% when
    # one sample changes sides, the smooth estimate by a fraction of that.
    low, high = [1.0] * 40 + [1.1] * 41, [1.0] * 41 + [1.1] * 40
    assert nearest_rank(sorted(low), "50") == 1.1 and nearest_rank(sorted(high), "50") == 1.0
    assert abs(smooth_median(low) - smooth_median(high)) < 0.01


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 10), (2, 3)]) == 10
    assert union_length([]) == 0


def test_self_time_counts_overlapping_children_once():
    parent = span(0, 0.0, 10.0)
    children = [span(1, 1.0, 4.0, 0), span(2, 3.0, 6.0, 0), span(3, 8.0, 9.0, 0)]
    assert self_time(parent, children) == 10.0 - 5.0 - 1.0


def test_self_time_clips_children_to_the_parent():
    parent = span(0, 2.0, 6.0)
    children = [span(1, 0.0, 3.0, 0), span(2, 5.0, 9.0, 0), span(3, 7.0, 8.0, 0)]
    assert self_time(parent, children) == 4.0 - 1.0 - 1.0


def test_tracer_records_parents_and_operation():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.op = 7
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (None, outer.id)
    assert (outer.start, inner.start, inner.end, outer.end) == (0, 1, 2, 3)
    assert outer.op == inner.op == 7


def test_patched_rebinds_only_inside_the_block():
    class Module:
        @staticmethod
        def work(x):
            return x + 1

    tracer = Tracer()
    original = Module.work
    with tracer.patched([(Module, "work", "m.work", lambda r: {"result": r})]):
        assert Module.work(1) == 2
    assert Module.work is original
    assert [(s.name, s.attrs) for s in tracer.spans] == [("m.work", {"result": 2})]


def test_agreement_accepts_identical_counts():
    counts = {"solver.calls": 1344, "solver.nodes": 44837}
    assert disagreements(counts, dict(counts)) == {}


def test_agreement_reports_changed_and_missing_counts():
    first = {"solver.calls": 1344, "solver.nodes": 44837, "frontier.points": 307}
    second = {"solver.calls": 1344, "solver.nodes": 44838, "cli.files_written": 475}
    assert disagreements(first, second) == {
        "cli.files_written": (None, 475),
        "frontier.points": (307, None),
        "solver.nodes": (44837, 44838),
    }


def test_declared_metrics_and_seeds_match_the_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    with open(os.path.join(run.HERE, "baseline.json")) as handle:
        baseline = json.load(handle)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.SHARED_LAYER_UNITS
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
    for name, workload in run.WORKLOADS.items():
        entry = baseline["workloads"][name]
        assert (entry["base_seed"], entry["instances_per_pass"]) == (
            workload.base_seed, workload.size)


class FakeSampler:
    def call(self, fn):
        return fn(), None, (1.0, 1.0, 1.0, 1.0)


def test_adjusted_rescales_to_the_nominal_reference_speed():
    # A host at half speed: the reference takes twice its nominal time.
    assert adjusted(0.3, 0.008, 0.004) == 0.15
    assert adjusted(0.3, 0.004, 0.004) == 0.3
    assert adjusted(0.3, 0.002, 0.004) == 0.6


def test_paired_passes_alternate_which_variant_goes_first():
    workload = run.Workload("t", None, 4, False, (), 1, 0)
    bench = run.Run(None, workload, 0, 0, None, FakeSampler())
    calls = []
    bench.operation = lambda index, tracer, batch: calls.append((index, batch))
    results = bench.timed_ops([(1, None, "a"), (2, None, "b")])
    assert [batch for _, batch in calls] == ["a", "b", "b", "a", "a", "b", "b", "a"]
    assert [index for index, _ in calls[::2]] == bench.order
    assert sorted(bench.order) == [0, 1, 2, 3]
    assert [(n, i) for n, i, _ in bench.samples] == [
        (1 if batch == "a" else 2, index) for index, batch in calls]
    assert results == [[None] * 4, [None] * 4]
    assert bench.attempted == 8 and not bench.failures
