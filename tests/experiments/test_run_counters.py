"""Simulator counters flowing into run metrics (``--metrics-out``)."""

from repro.experiments import metrics as metrics_mod
from repro.experiments.runner import bundle_for
from repro.obs.registry import engine_counters
from repro.tlssim.engine import TLSEngine

from tests.tlssim.conftest import make_counted_loop


class TestEngineCounters:
    def test_snapshot_covers_every_subsystem(self):
        engine = TLSEngine(make_counted_loop(iters=10, filler=20))
        engine.run()
        counters = engine_counters(engine)
        for name in (
            "cache_hits{level=l1}", "cache_misses{level=l1}",
            "cache_hits{level=l2}", "cache_misses{level=l2}",
            "epochs_committed", "epochs_squashed",
            "signal_buffer_high_water", "hwsync_insertions",
            "hwsync_resets", "predictions_used", "mispredictions",
        ):
            assert name in counters, name
        assert counters["epochs_committed"] == 10

    def test_result_carries_counters(self):
        result = TLSEngine(make_counted_loop(iters=10, filler=20)).run()
        assert result.counters["epochs_committed"] == 10
        assert result.counters == {
            k: v for k, v in result.to_state()["counters"].items()
        }


class TestRunMetricsAggregation:
    def test_record_attaches_counters(self):
        run = metrics_mod.reset()
        run.record("w", "C", "bar", metrics_mod.SOURCE_COMPUTED, 0.5,
                   counters={"epochs_committed": 10.0})
        run.record("w", "U", "bar", metrics_mod.SOURCE_CACHE, 0.0,
                   counters={"epochs_committed": 7.0, "violations{reason=store}": 2.0})
        assert run.sim_counters() == {
            "epochs_committed": 17.0,
            "violations{reason=store}": 2.0,
        }
        payload = run.to_dict()
        assert payload["sim"]["epochs_committed"] == 17.0
        assert payload["per_job"][0]["counters"] == {"epochs_committed": 10.0}

    def test_summary_includes_sim_lines(self):
        run = metrics_mod.reset()
        run.record("w", "C", "bar", metrics_mod.SOURCE_COMPUTED, 0.5,
                   counters={"cache_misses{level=l2}": 3.0,
                             "epochs_committed": 5.0})
        run.stop()
        summary = run.format_summary()
        assert "sim cache misses" in summary
        assert "sim epochs committed" in summary

    def test_summary_omits_sim_lines_without_counters(self):
        run = metrics_mod.reset()
        run.record("w", "compile", "compile", metrics_mod.SOURCE_COMPUTED, 1.0)
        run.stop()
        assert "sim " not in run.format_summary()

    def test_runner_records_counters_on_compute_and_cache(self):
        bundle = bundle_for("go")
        bundle._memo.clear()  # force at least a memo/disk round
        run = metrics_mod.reset()
        bundle.simulate("C")
        jobs = [j for j in metrics_mod.current().jobs if j.label == "C"]
        assert jobs, "simulate() recorded nothing"
        assert jobs[-1].counters.get("epochs_committed", 0) > 0
        totals = metrics_mod.current().sim_counters()
        assert totals["epochs_committed"] > 0
