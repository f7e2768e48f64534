"""The parallel runner: planning, determinism, and run metrics."""

import json
import os

import pytest

from repro.experiments import cache as cache_mod
from repro.experiments import metrics as metrics_mod
from repro.experiments import runner
from repro.experiments.scheduler import JobSpec

WORKLOADS = ["go", "mcf", "perlbmk"]
BARS = ("U", "C", "H", "B")


class TestPlanning:
    def test_plan_bar_jobs_shape(self):
        specs = runner.plan_bar_jobs(WORKLOADS, BARS)
        # one spec per (workload, bar) plus SEQ per workload
        assert len(specs) == len(WORKLOADS) * (len(BARS) + 1)
        assert all(spec.kind == "bar" for spec in specs)

    def test_graph_compile_dependencies(self):
        specs = runner.plan_bar_jobs(["go"], ("U", "C"))
        graph = runner.JobGraph.build(specs)
        sims = graph.sim_nodes()
        assert len(sims) == len(specs)
        for node in sims:
            assert node.deps, "every sim node depends on its compile node"

    def test_groups_are_per_workload(self):
        specs = runner.plan_bar_jobs(WORKLOADS, BARS)
        graph = runner.JobGraph.build(specs)
        groups = graph.groups(specs)
        assert len(groups) == len(WORKLOADS)
        for name, _threshold, members in groups:
            assert {spec.workload for spec in members} == {name}


class TestDeterminism:
    def _collect(self):
        state = {}
        for name in WORKLOADS:
            bundle = runner.bundle_for(name)
            for bar in BARS + ("SEQ",):
                state[(name, bar)] = bundle.simulate(bar).to_state()
        return state

    def test_parallel_matches_serial(self, fresh_bundles):
        """Fan-out over 2 workers is bit-identical to the serial path."""
        serial = self._collect()

        runner.clear_cache()
        metrics_mod.reset(workers=2)
        specs = runner.plan_bar_jobs(WORKLOADS, BARS)
        runner.execute_plan(specs, jobs=2)

        # Results were computed in workers and merged back: the parent's
        # bundles serve them from memo without ever compiling.
        for name in WORKLOADS:
            assert not runner.bundle_for(name).is_compiled
        assert self._collect() == serial

        run = metrics_mod.current()
        sources = {job.source for job in run.jobs}
        assert sources == {metrics_mod.SOURCE_COMPUTED}
        # ...and every one of them was simulated in a worker process
        assert all(job.worker != os.getpid() for job in run.jobs)
        # one metric per sim spec, plus one compile record per workload
        # (the artifact store was disabled, so every compile really ran)
        sims = [job for job in run.jobs if job.kind not in ("compile", "oracle")]
        compiles = [job for job in run.jobs if job.kind == "compile"]
        assert len(sims) == len(specs)
        assert {job.workload for job in compiles} == set(WORKLOADS)


class TestPersistAsGroupsLand:
    def test_finished_groups_survive_a_failed_group(
        self, tmp_path, fresh_bundles
    ):
        """Each group reaches the result cache as soon as it lands, so
        a fan-out that fails (or is killed) keeps every finished group."""
        cache_mod.configure(True, str(tmp_path / "c"))
        broken = JobSpec(
            workload="mcf", kind="custom", label="broken",
            program="no_such_program",
        )
        good = runner.plan_bar_jobs(["go"], ("U",))
        with pytest.raises(AttributeError, match="no_such_program"):
            runner.execute_plan([broken] + good, jobs=2)

        runner.clear_cache()
        metrics_mod.reset()
        runner.execute_plan(good, jobs=1)
        warm = metrics_mod.current()
        assert warm.cache_misses == 0
        assert warm.cache_hits == len(good)
        assert not runner.bundle_for("go").is_compiled


class TestExecuteMetrics:
    def test_cold_then_warm_hits(self, tmp_path, fresh_bundles):
        cache_mod.configure(True, str(tmp_path / "c"))
        specs = runner.plan_bar_jobs(["go"], ("U", "C"))

        metrics_mod.reset()
        runner.execute_plan(specs, jobs=1)
        cold = metrics_mod.current()
        assert cold.cache_misses > 0 and cold.cache_hits == 0

        runner.clear_cache()
        metrics_mod.reset()
        runner.execute_plan(specs, jobs=1)
        warm = metrics_mod.current()
        assert warm.cache_misses == 0
        assert warm.cache_hits == len(specs)
        assert warm.hit_rate == 1.0
        assert not runner.bundle_for("go").is_compiled

    def test_run_metrics_json(self, tmp_path, fresh_bundles):
        cache_mod.configure(True, str(tmp_path / "c"))
        specs = runner.plan_bar_jobs(["go"], ("U",))
        metrics_mod.reset()
        runner.execute_plan(specs, jobs=1)
        run = metrics_mod.current()
        run.stop()

        out = tmp_path / "run_metrics.json"
        run.write(str(out))
        data = json.loads(out.read_text())
        assert data["schema"] == 1
        assert data["jobs"] == len(run.jobs)
        assert data["cache"]["misses"] == run.cache_misses
        assert len(data["per_job"]) == len(run.jobs)
        assert data["wall_s"] > 0

    def test_summary_table_renders(self):
        metrics_mod.reset(workers=2)
        metrics_mod.current().record("go", "C", "bar", metrics_mod.SOURCE_CACHE, 0.0)
        metrics_mod.current().stop()
        text = metrics_mod.current().format_summary()
        assert "run metrics" in text
        assert "cache hit rate" in text
        assert "100%" in text
