"""Tests of the benchmark harness itself (not of ergolock).

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

import measure
import tracing
from tracing import Span, Target, Tracer, covered_ns, self_times

HERE = Path(__file__).resolve().parent


def test_tail_takes_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]  # 1..100, shuffled order must not matter
    t = measure.tail(values[::-1])
    assert (t.value, t.percentile, t.samples, t.beyond) == (90.0, 90.0, 100, 10)
    assert sum(v > t.value for v in values) == 10


def test_tail_with_few_samples_sits_below_the_median():
    t = measure.tail([5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0, 12.0, 13.0, 14.0])
    assert (t.value, t.samples) == (4.0, 14)
    assert t.percentile == pytest.approx(100 * 4 / 14)


def test_tail_needs_more_samples_than_beyond():
    assert measure.tail([1.0] * 11).percentile == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        measure.tail([1.0] * 10)


def _span(sid, start, end, parent=None, name="x"):
    return Span(sid, name, start, end, parent, 0, 0, 0)


def test_self_time_subtracts_nested_children():
    spans = [
        _span(1, 0, 100),
        _span(2, 10, 40, parent=1),
        _span(3, 20, 30, parent=2),
        _span(4, 50, 90, parent=1),
    ]
    own = self_times(spans)
    assert own == {1: 30, 2: 20, 3: 10, 4: 40}
    assert sum(own.values()) == 100  # self times tile the root


def test_self_time_counts_overlapping_children_once():
    # Two pool threads running children at the same time.
    spans = [_span(1, 0, 100), _span(2, 10, 60, parent=1), _span(3, 40, 80, parent=1)]
    assert self_times(spans)[1] == 100 - 70
    assert covered_ns([(10, 60), (40, 80), (95, 120)], 0, 100) == 75


def test_closed_loop_counts_every_failure():
    def run(i):
        if i == 3:
            raise RuntimeError("forced")
        return i

    def check(i, out):
        if i == 5:
            raise AssertionError("wrong value")

    loop = measure.closed_loop(run, check, seconds=0.0, min_ops=20)
    assert loop.attempted == 20
    assert loop.failed == {3, 5}
    assert loop.error_ratio == pytest.approx(2 / 20)
    assert len(loop.failures) == 2 and "forced" in loop.failures[0]
    assert loop.indices == list(range(20))
    assert len(loop.references) >= 20 and min(loop.references) > 0


def test_normalised_metrics_scale_op_times_by_the_reference_speed():
    import run

    loop = measure.LoopResult(
        latencies=[0.1, 0.2, 0.3] * 4,
        references=[run.REFERENCE_NOMINAL_MS / 2e3] * 12,  # machine twice as fast
        indices=list(range(12)),
        duration=2.4 + 12 * run.REFERENCE_NOMINAL_MS / 2e3,
    )
    probes = [(0.05, run.REFERENCE_NOMINAL_MS / 1e3), (0.04, run.REFERENCE_NOMINAL_MS / 2e3)]
    metrics, tail, raw = run.end_to_end(loop, probes)
    assert raw["setup_s"]["value"] == pytest.approx(0.045)
    assert metrics["setup_s"]["value"] == pytest.approx(0.065)
    assert raw["op_p50_ms"]["value"] == pytest.approx(200.0)
    assert metrics["op_p50_ms_norm"]["value"] == pytest.approx(400.0)
    assert metrics["op_tail_ms_norm"]["value"] == pytest.approx(2 * tail.value)
    assert metrics["ops_per_s_norm"]["value"] == pytest.approx(5.0 / 2)


def _fake_package(monkeypatch):
    """A package ``fakepkg`` whose ``user`` module imported ``leaf`` by name."""
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    core = types.ModuleType("fakepkg.core")

    def leaf(n):
        return list(range(n))

    core.leaf = leaf

    def outer(n):
        return len(user.leaf(n))

    core.outer = outer
    user = types.ModuleType("fakepkg.user")
    user.leaf = leaf
    for name, mod in (("fakepkg", pkg), ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    return core, user


def test_tracer_wraps_every_alias_and_nests_spans(monkeypatch):
    core, user = _fake_package(monkeypatch)
    original = core.leaf
    targets = (
        Target("core", "outer", "core.outer"),
        Target("core", "leaf", "core.leaf", (*tracing.TIMED, "elements"), lambda a, r: len(r)),
        Target("core", "gone", "core.gone"),
        Target("missing", "f", "missing.f"),
    )
    tracer = Tracer("fakepkg", targets)
    tracer.install()
    try:
        core.leaf(3)  # outside an op: not recorded
        with tracer.op(7):
            assert core.outer(4) == 4
    finally:
        tracer.uninstall()
    assert core.leaf is original and user.leaf is original
    names = {s.name: s for s in tracer.spans}
    assert set(names) == {"op", "core.outer", "core.leaf"}
    assert names["core.leaf"].parent == names["core.outer"].id
    assert names["core.outer"].parent == names["op"].id
    assert all(s.op == 7 for s in tracer.spans)
    assert len(tracer.warnings) == 2

    metrics = tracing.layer_metrics(tracer, self_times(tracer.spans), ops=1)
    assert metrics["core.leaf.calls"] == (1.0, "count/op")
    assert metrics["core.leaf.elements"] == (4.0, "count/op")
    assert metrics["core.gone.calls"][0] == 0 and metrics["missing.f.self_ms"][0] == 0


def test_benchmark_json_lists_the_end_to_end_metrics():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    loop = measure.LoopResult(latencies=[0.1] * 11, references=[0.01] * 11, duration=1.1)
    metrics, _, _ = run.end_to_end(loop, [(0.05, 0.01)])
    assert {m["name"] for m in spec["end_to_end"]} == set(metrics)


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    traced = {f"{t.name}.{stat}" for t in tracing.TARGETS for stat in t.stats}
    traced |= {"trace.overhead_ratio", "trace.report_child_share"}
    assert {m["name"] for m in spec["per_layer"]} == traced
