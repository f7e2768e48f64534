"""Tests for the benchmark's own helpers (no program run needed).

    python3 -m pytest perfbench/tests -q
"""

import json
import threading
import time
from pathlib import Path

import pytest

from perfbench import inputs, layers
from perfbench import percentiles as pct
from perfbench.ledger import Ledger, attribute, closure_error, diff_snapshots, merge_snapshots

ROOT = Path(__file__).resolve().parents[2]


# -- percentiles ------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [
        (10, None),     # p50 of 10 leaves 5 beyond
        (20, 50.0),     # p50 leaves 10 beyond; p90 leaves 2
        (99, 50.0),
        (100, 90.0),    # p90 leaves exactly 10
        (199, 90.0),    # p95 -> rank 190, 9 beyond
        (200, 95.0),
        (999, 95.0),    # p99 -> rank 990, 9 beyond
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_highest_supported_percentile(n, expected):
    assert pct.highest_supported(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert pct.percentile(values, 50) == 50
    assert pct.percentile(values, 99) == 99
    assert pct.percentile(values[::-1], 90) == 90
    assert pct.beyond(99, 100) == 1


# -- ledger self times --------------------------------------------------------


class _Clock:
    """A fake perf_counter the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(time, "perf_counter", clock)
    ledger = Ledger()
    ledger.enter("flow")           # t=0
    clock.now = 1.0
    ledger.enter("engine.run")     # t=1
    clock.now = 2.0
    ledger.enter("decode")         # t=2
    clock.now = 2.5
    ledger.exit()                  # decode: 0.5
    clock.now = 4.0
    ledger.exit()                  # engine.run: 3.0 total, 2.5 self
    ledger.enter("cache.put")      # t=4
    clock.now = 4.25
    ledger.exit()                  # cache.put: 0.25
    clock.now = 5.0
    ledger.exit()                  # flow: 5.0 total, 1.75 self
    layers_ = ledger.snapshot()["layers"]
    assert layers_["decode"] == {"self_s": 0.5, "total_s": 0.5, "calls": 1}
    assert layers_["engine.run"]["self_s"] == pytest.approx(2.5)
    assert layers_["engine.run"]["total_s"] == pytest.approx(3.0)
    assert layers_["cache.put"]["self_s"] == pytest.approx(0.25)
    assert layers_["flow"]["self_s"] == pytest.approx(1.75)
    selfs = [v["self_s"] for k, v in layers_.items() if k != "flow"]
    assert closure_error(selfs, layers_["flow"]["self_s"], 5.0) == pytest.approx(0.0)


def test_wrapped_calls_close_over_the_wall_time():
    ledger = Ledger()

    class Worker:
        def inner(self):
            time.sleep(0.002)

        def outer(self):
            time.sleep(0.001)
            self.inner()
            self.inner()

    ledger.wrap_method(Worker, "outer", "outer")
    ledger.wrap_method(Worker, "inner", "inner")
    started = time.perf_counter()
    ledger.enter("flow")
    for _ in range(3):
        Worker().outer()
    ledger.exit()
    wall = time.perf_counter() - started
    ledger.unwrap_all()
    snap = ledger.snapshot()["layers"]
    assert snap["inner"]["calls"] == 6 and snap["outer"]["calls"] == 3
    assert snap["inner"]["self_s"] >= 6 * 0.002
    root = snap.pop("flow")["self_s"]
    assert closure_error([v["self_s"] for v in snap.values()], root, wall) < 0.01
    assert "__wrapped__" not in vars(Worker.outer)  # restored


def test_threads_keep_separate_stacks():
    ledger = Ledger()

    def work():
        for _ in range(50):
            ledger.enter("a")
            ledger.enter("b")
            ledger.exit()
            ledger.exit()

    threads = [threading.Thread(target=work) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
    assert not any(thread.is_alive() for thread in threads)
    snap = ledger.snapshot()["layers"]
    assert snap["a"]["calls"] == 200 and snap["b"]["calls"] == 200
    assert snap["a"]["total_s"] >= snap["b"]["total_s"]


def test_snapshot_arithmetic():
    one = {"layers": {"x": {"self_s": 1.0, "total_s": 2.0, "calls": 1}}, "counters": {"n": 3.0}}
    two = {"layers": {"x": {"self_s": 0.5, "total_s": 0.5, "calls": 2},
                      "y": {"self_s": 1.0, "total_s": 1.0, "calls": 1}},
           "counters": {"n": 1.0}}
    total = merge_snapshots([one, two])
    assert total["layers"]["x"] == {"self_s": 1.5, "total_s": 2.5, "calls": 3}
    assert total["counters"]["n"] == 4.0
    assert diff_snapshots(total, one)["layers"]["x"] == {"self_s": 0.5, "total_s": 0.5, "calls": 2}


def test_attribute_splits_overlapping_spans_without_double_counting():
    spans = [
        ("client.submit", 0.0, 1.0, 1),
        ("client.wait", 1.0, 9.0, 1),
        ("client.result", 9.0, 10.0, 1),
        ("http.submit", 0.2, 0.8, 2),
        ("queue", 0.8, 3.0, 2),       # starts inside the client's submit
        ("ipc", 3.0, 8.0, 2),
        ("execute", 3.5, 7.5, 3),     # nested in ipc, wins by priority
        ("outside", 11.0, 12.0, 3),   # beyond the root: ignored
    ]
    split, uncovered = attribute((0.0, 10.5), spans)
    assert split["execute"] == pytest.approx(4.0)
    assert split["ipc"] == pytest.approx(1.0)
    assert split["queue"] == pytest.approx(2.2)
    assert split["http.submit"] == pytest.approx(0.6)
    assert split["client.submit"] == pytest.approx(0.2)
    assert split["client.wait"] == pytest.approx(1.0)
    assert split["client.result"] == pytest.approx(1.0)
    assert uncovered == pytest.approx(0.5)
    assert sum(split.values()) + uncovered == pytest.approx(10.5)


# -- seeded inputs ---------------------------------------------------------------


def test_same_seed_same_inputs():
    assert inputs.sweep_input(7) == inputs.sweep_input(7)
    assert inputs.serve_stream(7, 500) == inputs.serve_stream(7, 500)
    assert inputs.serve_stream(7, 500)[:100] == inputs.serve_stream(7, 100)


def test_seeds_vary_values_not_work():
    grids = {inputs.sweep_input(seed) for seed in range(20)}
    assert len(grids) > 10
    for grid in grids:
        assert grid.points() == 96
        assert grid.workloads == inputs.SWEEP_WORKLOADS and grid.bars == inputs.SWEEP_BARS
        (core_axis, cores), (latency_axis, latencies) = grid.axes
        assert core_axis == "num_cores" and cores == inputs.CORES
        assert latency_axis == "forward_latency" and {2.0, 10.0, 35.0} <= set(latencies)
        assert len(set(latencies)) == 6
    assert inputs.serve_stream(1, 300) != inputs.serve_stream(2, 300)


def test_serve_stream_mix_and_unique_fresh_requests():
    stream = inputs.serve_stream(3, 5000)
    fresh = [r for r in stream if r.fresh]
    assert 0.25 < len(fresh) / len(stream) < 0.35
    keys = {(r.workload, r.bar, r.machine) for r in fresh}
    assert len(keys) == len(fresh)
    paper = (("forward_latency", 10.0), ("num_cores", 4), ("spawn_cost", 5.0))
    assert all(r.machine != paper for r in fresh)  # would be a hot-set hit
    assert all(0.0 <= r.poll_phase < inputs.POLL_S for r in stream)
    assert {(r.workload, r.bar) for r in stream if not r.fresh} == set(inputs.HOT_SET)


# -- BENCHMARK.json agrees with the code -------------------------------------------


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == list(layers.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == {"report-cold", "sweep-warm", "serve-mixed"}
