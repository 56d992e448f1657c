"""Tests of the benchmark's own code: spans, percentiles, a smoke run.

    python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tracing
import worker
import workloads

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # outer [0, 10] holds a [1, 4] (which holds b [2, 3]) and a second a [5, 9]
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    tracer.enter("outer")
    tracer.enter("a")
    tracer.enter("b")
    tracer.exit()
    tracer.exit()
    tracer.enter("a")
    tracer.exit()
    tracer.exit()
    assert dict(tracer.calls) == {"outer": 1, "a": 2, "b": 1}
    assert dict(tracer.self_s) == {"outer": 3, "a": 6, "b": 1}
    assert not tracer.stack


def test_generator_spans_count_items_not_calls():
    tracer = tracing.Tracer()
    gen = tracer.wrap("g", lambda n: (i for i in range(n)))
    tracer.active = True
    assert list(gen(3)) == [0, 1, 2]
    assert tracer.calls["g"] == 1
    assert tracer.counters["g.items"] == 3


def test_inactive_tracer_records_nothing():
    tracer = tracing.Tracer()
    assert tracer.wrap("f", lambda x: x + 1)(1) == 2
    assert not tracer.calls


def test_install_wraps_every_reference_and_restores(monkeypatch):
    from ucyclic import gray, oracle

    orig = oracle.span_code
    assert gray.span_code is orig     # gray imports it by name
    monkeypatch.setattr(tracing, "ENTRY_POINTS",
                        {"oracle": ("span_code", "no_such_entry"),
                         "no_such_module": ("f",)})
    tracer = tracing.Tracer()
    undo, absent = tracing.install(tracer)
    try:
        assert gray.span_code is oracle.span_code is not orig
        assert sorted(absent) == ["no_such_module.f", "oracle.no_such_entry"]
        tracer.active = True
        gray.span_code(1, 1, 2, [1])
    finally:
        tracing.uninstall(undo)
    assert gray.span_code is oracle.span_code is orig
    assert tracer.calls["oracle.span_code"] == 1


def test_percentile_rule_on_known_sample():
    sample = list(range(100, 0, -1))
    assert worker.percentile(sample, 50) == 50
    assert worker.percentile(sample, 90) == 90
    assert worker.percentile(list(range(1, 11)), 90) == 9
    assert worker.percentile([7.5], 90) == 7.5


def test_times_are_scaled_by_the_calibration_kernel():
    # a host running the kernel at half its nominal speed halves every time
    nominal = 1e-3
    items = [workloads.Item("sleep", lambda: time.sleep(0.01),
                            lambda out: True) for _ in range(3)]
    acc = worker.Tally((lambda: 2 * nominal, nominal))
    acc.run(items)
    assert acc.failed == 0
    assert acc.scaled == pytest.approx([t / 2 for t in acc.latencies])


# Kinds whose one item takes several seconds; the full run covers them.
HEAVY = {"family-60-30-8"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_one_item_of_each_kind(name):
    items = workloads.WORKLOADS[name](0, 2)
    firsts = {}
    for item in items:
        if item.kind not in HEAVY:
            firsts.setdefault(item.kind, item)
    small = list(firsts.values())
    tracer = tracing.Tracer()
    undo, _ = tracing.install(tracer)
    try:
        acc = worker.Tally()
        acc.run(small, tracer)
    finally:
        tracing.uninstall(undo)
    assert acc.failed == 0
    assert len(acc.latencies) == len(small)
    assert sum(tracer.calls.values()) > 0


def test_lee_census_matches_library_lee_distribution():
    import ucyclic as uc

    fd = uc.factor_xn_minus_1(3, 2)
    for code in list(uc.enumerate_selfdual(3, 2, 2, fd))[:3]:
        assert workloads.lee_census(code) == uc.lee_distribution(code)


def test_run_refuses_a_tree_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog-30",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
