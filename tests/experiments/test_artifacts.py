"""The compiled-artifact store: round trips, keys, and warm starts.

The hard acceptance criterion is byte-identity: a deserialized
:class:`CompiledWorkload` must be indistinguishable from a fresh
compile — same serialized state, same simulation results, same typed
event stream — across the whole suite.  Corruption and version drift
must degrade to recompilation, never to a crash or a wrong result.
"""

import io
import json
import os

import pytest

from repro.experiments import artifacts as artifacts_mod
from repro.experiments import cache as cache_mod
from repro.experiments import metrics as metrics_mod
from repro.experiments import runner
from repro.experiments.runner import bundle_for, config_for, plan_bar_jobs
from repro.ir.serialize import SerializeError, module_from_state, module_to_state
from repro.obs.bus import CollectorSink, EventBus
from repro.tlssim.engine import TLSEngine
from repro.tlssim.oracle import collect_oracle
from repro.workloads import all_workloads, get_workload

WORKLOADS = tuple(w.name for w in all_workloads())


def _store(tmp_path) -> artifacts_mod.ArtifactStore:
    return artifacts_mod.ArtifactStore(str(tmp_path / "store"))


def _stream(program, config, oracle=None, parallel=True):
    bus = EventBus()
    collector = bus.attach(CollectorSink())
    result = TLSEngine(
        program, config=config, oracle=oracle, parallel=parallel, obs=bus
    ).run()
    return [e.key() for e in collector.events], result


class TestModuleSerialization:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_state_roundtrip_every_binary(self, name):
        compiled = bundle_for(name).compiled
        for attr in ("seq", "baseline", "sync_ref", "sync_train"):
            state = module_to_state(getattr(compiled, attr))
            json.dumps(state)  # must be JSON-serializable
            assert module_to_state(module_from_state(state)) == state

    def test_iids_preserved_exactly(self):
        module = bundle_for("go").compiled.sync_ref
        restored = module_from_state(module_to_state(module))
        for fn in module.functions.values():
            twin = restored.functions[fn.name]
            for label, block in fn.blocks.items():
                for a, b in zip(block.instructions, twin.blocks[label].instructions):
                    assert (a.iid, a.origin_iid) == (b.iid, b.origin_iid)

    def test_bad_state_raises_serialize_error(self):
        with pytest.raises(SerializeError):
            module_from_state({"functions": "nope"})


class TestArtifactKey:
    def test_stable_and_sensitive(self):
        base = artifacts_mod.artifact_key("compiled", "go", 0.05, 1, 2)
        assert artifacts_mod.artifact_key("compiled", "go", 0.05, 1, 2) == base
        assert artifacts_mod.artifact_key("oracle", "go", 0.05, 1, 2) != base
        assert artifacts_mod.artifact_key("compiled", "mcf", 0.05, 1, 2) != base
        assert artifacts_mod.artifact_key("compiled", "go", 0.15, 1, 2) != base
        assert artifacts_mod.artifact_key("compiled", "go", 0.05, 9, 2) != base
        assert artifacts_mod.artifact_key("compiled", "go", 0.05, 1, 9) != base

    def test_includes_pipeline_fingerprint(self, monkeypatch):
        before = artifacts_mod.artifact_key("compiled", "go", 0.05, 1, 2)
        monkeypatch.setattr(
            artifacts_mod, "pipeline_fingerprint", lambda: "deadbeef"
        )
        assert artifacts_mod.artifact_key("compiled", "go", 0.05, 1, 2) != before


class TestArtifactRoundTrip:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_compiled_state_and_event_stream_identical(self, name, tmp_path):
        """Loaded artifacts simulate byte-identically to fresh compiles."""
        workload = get_workload(name)
        compiled = bundle_for(name).compiled
        store = _store(tmp_path)
        store.save_compiled(workload, 0.05, compiled)
        loaded = store.load_compiled(workload, 0.05)
        assert loaded is not None
        assert artifacts_mod.compiled_to_state(loaded) == (
            artifacts_mod.compiled_to_state(compiled)
        )
        config = config_for("C").with_mode(fast_path=True)
        fresh_stream, fresh_result = _stream(compiled.sync_ref, config)
        loaded_stream, loaded_result = _stream(loaded.sync_ref, config)
        assert loaded_result.to_state() == fresh_result.to_state()
        assert loaded_stream == fresh_stream

    def test_entry_text_is_what_json_dump_writes(self, tmp_path):
        """The store encodes with json.dumps; the bytes on disk must be
        the ones the streaming json.dump wrote before."""
        workload = get_workload("go")
        compiled = bundle_for("go").compiled
        store = _store(tmp_path)
        store.save_compiled(workload, 0.05, compiled)
        path = store._path(
            store.compiled_key(workload, 0.05), artifacts_mod.KIND_COMPILED
        )
        expected = io.StringIO()
        json.dump(
            {
                "schema": artifacts_mod.ARTIFACT_SCHEMA_VERSION,
                "pipeline": artifacts_mod.pipeline_fingerprint(),
                "payload": artifacts_mod.compiled_to_state(compiled),
            },
            expected,
        )
        assert path.read_bytes() == expected.getvalue().encode()

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_oracle_state_roundtrip(self, name, tmp_path):
        workload = get_workload(name)
        oracle = collect_oracle(bundle_for(name).compiled.baseline)
        store = _store(tmp_path)
        store.save_oracle(workload, 0.05, "baseline", oracle)
        loaded = store.load_oracle(workload, 0.05, "baseline")
        assert loaded is not None
        assert artifacts_mod.oracle_to_state(loaded) == (
            artifacts_mod.oracle_to_state(oracle)
        )

    def test_oracle_bar_identical_through_engine(self, tmp_path):
        """A stored oracle drives the O bar exactly like a fresh one."""
        workload = get_workload("go")
        compiled = bundle_for("go").compiled
        oracle = collect_oracle(compiled.baseline)
        store = _store(tmp_path)
        store.save_oracle(workload, 0.05, "baseline", oracle)
        loaded = store.load_oracle(workload, 0.05, "baseline")
        config = config_for("O").with_mode(fast_path=True)
        fresh_stream, fresh_result = _stream(compiled.baseline, config, oracle)
        loaded_stream, loaded_result = _stream(compiled.baseline, config, loaded)
        assert loaded_result.to_state() == fresh_result.to_state()
        assert loaded_stream == fresh_stream


class TestCorruptionTolerance:
    def _warm_store(self, tmp_path):
        store = _store(tmp_path)
        workload = get_workload("go")
        compiled = bundle_for("go").compiled
        store.save_compiled(workload, 0.05, compiled)
        path = store._path(store.compiled_key(workload, 0.05), "compiled")
        return store, workload, compiled, path

    def test_truncated_entry_falls_back(self, tmp_path):
        store, workload, compiled, path = self._warm_store(tmp_path)
        path.write_bytes(path.read_bytes()[:100])
        artifacts_mod.reset_counters()
        assert store.load_compiled(workload, 0.05) is None
        assert not path.exists()  # dropped, not retried forever
        stats = artifacts_mod.counters()
        assert stats["corrupt"] == 1 and stats["misses"] == 1

    def test_garbage_payload_falls_back(self, tmp_path):
        store, workload, compiled, path = self._warm_store(tmp_path)
        entry = json.loads(path.read_text())
        entry["payload"] = {"name": "go", "seq": ["not", "a", "module"]}
        path.write_text(json.dumps(entry))
        artifacts_mod.reset_counters()
        assert store.load_compiled(workload, 0.05) is None
        assert not path.exists()
        assert artifacts_mod.counters()["corrupt"] == 1

    def test_version_mismatch_is_miss_but_kept(self, tmp_path):
        store, workload, compiled, path = self._warm_store(tmp_path)
        entry = json.loads(path.read_text())
        entry["pipeline"] = "deadbeef"
        path.write_text(json.dumps(entry))
        artifacts_mod.reset_counters()
        assert store.load_compiled(workload, 0.05) is None
        assert path.exists()  # foreign artifact left in place
        stats = artifacts_mod.counters()
        assert stats["version_mismatch"] == 1 and stats["misses"] == 1

    def test_corrupt_store_recompiles_identically(self, tmp_path, fresh_bundles):
        artifacts_mod.configure(True, str(tmp_path / "store"))
        reference = bundle_for("go").compiled  # miss: compiles and saves
        store = artifacts_mod.active_store()
        for path in store.root.rglob("*.json"):
            path.write_text("truncated garbag")
        runner.clear_cache()
        recompiled = bundle_for("go").compiled
        assert artifacts_mod.compiled_to_state(recompiled) == (
            artifacts_mod.compiled_to_state(reference)
        )


class TestWarmStartProvenance:
    def test_store_hit_records_cache_source(self, tmp_path, fresh_bundles):
        artifacts_mod.configure(True, str(tmp_path / "store"))
        bundle_for("go").compiled
        runner.clear_cache()
        metrics_mod.reset()
        bundle_for("go").compiled
        [job] = [j for j in metrics_mod.current().jobs if j.kind == "compile"]
        assert job.source == metrics_mod.SOURCE_CACHE
        assert job.wall_s > 0.0

    def test_cold_compile_records_computed_source(self, tmp_path, fresh_bundles):
        artifacts_mod.configure(True, str(tmp_path / "store"))
        metrics_mod.reset()
        bundle_for("go").compiled
        [job] = [j for j in metrics_mod.current().jobs if j.kind == "compile"]
        assert job.source == metrics_mod.SOURCE_COMPUTED

    def test_oracle_store_hit_records_cache_source(self, tmp_path, fresh_bundles):
        artifacts_mod.configure(True, str(tmp_path / "store"))
        bundle_for("go").oracle_for("baseline")
        runner.clear_cache()
        metrics_mod.reset()
        bundle_for("go").oracle_for("baseline")
        oracle_jobs = [
            j for j in metrics_mod.current().jobs if j.kind == "oracle"
        ]
        assert [j.source for j in oracle_jobs] == [metrics_mod.SOURCE_CACHE]


class TestCrossProcessWarmStart:
    def test_prewarmed_store_serves_fresh_workers(self, tmp_path, fresh_bundles):
        """A store warmed by one process feeds pool workers compile-free."""
        artifacts_mod.configure(True, str(tmp_path / "store"))
        cache_mod.configure(False)  # force the simulations to really run
        for name in ("go", "mcf"):
            bundle_for(name).compiled  # warm the store in this process
        runner.clear_cache()
        metrics_mod.reset(workers=2)
        artifacts_mod.reset_counters()  # drop the warm-up's miss counts
        runner.execute_plan(
            plan_bar_jobs(["go", "mcf"], ["C"], include_seq=False), jobs=2
        )
        compile_jobs = [
            j for j in metrics_mod.current().jobs if j.kind == "compile"
        ]
        assert {j.workload for j in compile_jobs} == {"go", "mcf"}
        for job in compile_jobs:
            assert job.source == metrics_mod.SOURCE_CACHE
            assert job.worker != os.getpid()  # loaded inside a pool worker
        # worker-side store hits are folded back into the parent's counters
        counts = artifacts_mod.counters()
        assert counts["hits"] >= len(compile_jobs)
        assert counts["misses"] == 0


class TestStoreManagement:
    def test_info_and_clear(self, tmp_path):
        store = _store(tmp_path)
        workload = get_workload("go")
        compiled = bundle_for("go").compiled
        store.save_compiled(workload, 0.05, compiled)
        store.save_oracle(
            workload, 0.05, "baseline", collect_oracle(compiled.baseline)
        )
        info = store.info()
        assert info["compiled"] == 1 and info["oracles"] == 1
        assert info["entries"] == 2 and info["bytes"] > 0
        assert store.clear() == 2
        assert store.info()["entries"] == 0

    def test_info_counts_lowered_artifacts(self, tmp_path):
        store = _store(tmp_path)
        workload = get_workload("go")
        compiled = bundle_for("go").compiled
        store.save_compiled(workload, 0.05, compiled)
        module = compiled.baseline
        store.save_lowered(module, (4.0, 1.0), {"regions": []})
        store.save_lowered(module, (8.0, 1.0), {"regions": []})
        info = store.info()
        assert info["lowered"] == 2
        assert info["entries"] == 3  # compiled + 2 lowered tables

    def test_clear_only_lowered(self, tmp_path):
        """`repro cache clear --only lowered` keeps compiled binaries."""
        store = _store(tmp_path)
        workload = get_workload("go")
        compiled = bundle_for("go").compiled
        store.save_compiled(workload, 0.05, compiled)
        store.save_lowered(compiled.baseline, (4.0, 1.0), {"regions": []})
        removed = store.clear(kinds=(artifacts_mod.KIND_LOWERED,))
        assert removed == 1
        info = store.info()
        assert info["lowered"] == 0 and info["compiled"] == 1

    def test_result_cache_ignores_artifacts(self, tmp_path):
        """Result-cache info/clear must not touch the sibling store."""
        root = str(tmp_path / "shared")
        cache = cache_mod.ResultCache(root)
        store = artifacts_mod.ArtifactStore(root)
        cache.put("ab" + "0" * 62, {"x": 1})
        store.save_compiled(get_workload("go"), 0.05, bundle_for("go").compiled)
        assert cache.info()["entries"] == 1
        assert cache.clear() == 1
        assert store.info()["entries"] == 1  # artifact survived
