"""Simulator throughput microbenchmarks (not a paper figure).

These measure the reproduction's own performance — compilation and
simulation rate on the PARSER workload (the paper's Figure 4 example) —
so regressions in the engine or pipeline are visible.  Unlike the
figure benchmarks these use repeated rounds: each round constructs
fresh state, so timings are genuine.
"""

from repro.compiler.pipeline import compile_workload
from repro.experiments.runner import bundle_for
from repro.obs.bus import CollectorSink, EventBus
from repro.obs.registry import MetricsRegistry, MetricsSink
from repro.tlssim.config import SimConfig
from repro.tlssim.engine import TLSEngine
from repro.workloads import get_workload


def test_engine_baseline_throughput(benchmark):
    bundle = bundle_for("parser")
    module = bundle.compiled.baseline

    def run():
        return TLSEngine(module, config=SimConfig()).run()

    result = benchmark(run)
    assert result.regions[0].epochs_committed > 0


def test_engine_synchronized_throughput(benchmark):
    bundle = bundle_for("parser")
    module = bundle.compiled.sync_ref

    def run():
        return TLSEngine(module, config=SimConfig()).run()

    result = benchmark(run)
    assert result.regions[0].epochs_committed > 0


def test_engine_obs_detached_throughput(benchmark):
    # The default serving/batch configuration: no bus attached.  The
    # pair with test_engine_obs_attached_throughput quantifies the
    # observability overhead; this cell must stay within noise of
    # test_engine_synchronized_throughput (the detached-bus guarantee —
    # `bench --compare` gates it like any other warm cell).
    bundle = bundle_for("parser")
    module = bundle.compiled.sync_ref

    def run():
        return TLSEngine(module, config=SimConfig(), obs=None).run()

    result = benchmark(run)
    assert result.regions[0].epochs_committed > 0


def test_engine_obs_attached_throughput(benchmark):
    # Full telemetry: collector + metrics sinks on a live EventBus,
    # exactly what `repro trace` / serve events=true jobs attach.
    bundle = bundle_for("parser")
    module = bundle.compiled.sync_ref

    def run():
        bus = EventBus()
        collector = bus.attach(CollectorSink())
        bus.attach(MetricsSink(MetricsRegistry(), scheme="C"))
        result = TLSEngine(module, config=SimConfig(), obs=bus).run()
        return result, collector

    result, collector = benchmark(run)
    assert result.regions[0].epochs_committed > 0
    assert collector.events


def test_engine_slow_path_throughput(benchmark):
    # The original object-walking scheduler; compare against
    # test_engine_baseline_throughput for the fast-path speedup.
    bundle = bundle_for("parser")
    module = bundle.compiled.baseline

    def run():
        return TLSEngine(module, config=SimConfig(fast_path=False)).run()

    result = benchmark(run)
    assert result.regions[0].epochs_committed > 0


def test_pipeline_compile_time(benchmark):
    workload = get_workload("parser")

    def compile_once():
        return compile_workload(
            workload.name,
            workload.build,
            workload.train_input,
            workload.ref_input,
        )

    compiled = benchmark.pedantic(compile_once, rounds=1, iterations=1)
    assert compiled.sync_ref.sync_loads
