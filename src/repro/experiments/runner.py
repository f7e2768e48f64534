"""Shared experiment machinery: compile once, simulate any bar.

Every figure/table experiment works from the same per-workload bundle:
the compiled binaries (sequential / U / C / T), their dependence
profiles, and memoized simulation results.  A simulation result
depends on its identity alone — (program attribute, resolved
:class:`SimConfig`, parallel) — so a bar and a custom run that resolve
to one identity (Figure 11's C and B stall modes are bars C and B)
share one result.  Bar names and custom labels only name jobs in run
metrics.  Compilation and simulation are deterministic, so results are
memoized by identity at three levels:

* **in-process** — one memo dict per bundle;
* **on disk** — the persistent result cache
  (:mod:`repro.experiments.cache`), when the CLI enables it;
* **across cores** — :func:`execute_plan` schedules a plan of
  :class:`JobSpec` simulation jobs (a report, or a whole ``repro
  sweep`` grid) as an explicit DAG (one compile node per workload,
  bar-simulation nodes depending on it) over a
  ``ProcessPoolExecutor``.  Each group's results reach the persistent
  cache as soon as the group lands; memos and run metrics are merged
  back in plan order so downstream rendering is byte-identical to a
  serial run.  A job simulated in a worker is recorded as
  ``computed`` with the worker's pid, exactly like a serial one.

Scheduling policy: a workload's pending simulation nodes are
co-scheduled with their compile dependency in a single worker task, so
compiled binaries never cross a process boundary and each workload is
compiled (or loaded from the artifact store) at most once per run.
Parallelism is across workloads — the report matrix is 15 workloads
wide, which saturates typical machines.

Compilation is lazy: a bundle only compiles when a simulation misses
every cache level or when profile/compile artifacts are requested, so
a warm-cache run never compiles at all.  When compilation *is* needed,
the persistent artifact store (:mod:`repro.experiments.artifacts`)
is consulted first: a stored :class:`CompiledWorkload` (or value
oracle) deserializes in a fraction of the compile time and is byte-
identical to recompiling, so each workload is compiled once per
machine rather than once per process.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler.pipeline import CompiledWorkload, compile_workload
from repro.experiments import artifacts as artifacts_mod
from repro.experiments import cache as cache_mod
from repro.experiments import metrics as metrics_mod
from repro.experiments.scheduler import JobGraph, JobNode, JobSpec, spec_id
from repro.ir.module import Module
from repro.tlssim.config import SimConfig
from repro.tlssim.engine import TLSEngine
from repro.tlssim.oracle import ValueOracle, collect_oracle
from repro.tlssim.stats import SimResult
from repro.workloads.base import Workload, get_workload

#: program choice per bar label: which compiled binary runs.
BAR_PROGRAM = {
    "U": "baseline",
    "O": "baseline",
    "H": "baseline",
    "P": "baseline",
    "PS": "baseline",
    "PC": "baseline",
    "C": "sync_ref",
    "T": "sync_train",
    "B": "sync_ref",
    "E": "sync_ref",
    "L": "sync_ref",
    "SEQ": "seq",
}

#: dependence-frequency thresholds whose load sets are part of the
#: cached profile summary (the Figure 6 sweep).
PROFILE_SET_THRESHOLDS = (0.25, 0.15, 0.05)


def config_for(bar: str, base: Optional[SimConfig] = None) -> SimConfig:
    """Machine configuration for one bar label."""
    config = base or SimConfig()
    if bar in ("U", "T", "C", "SEQ"):
        return config
    if bar == "O":
        return config.with_mode(oracle_mode="all")
    if bar == "E":
        return config.with_mode(oracle_mode="sync")
    if bar == "L":
        return config.with_mode(l_mode_stall=True)
    if bar == "H":
        return config.with_mode(hw_sync=True)
    if bar == "P":
        # keeps config.predictor, so a swept predictor axis composes
        return config.with_mode(prediction=True)
    if bar == "PS":
        return config.with_mode(prediction=True, predictor="stride")
    if bar == "PC":
        return config.with_mode(prediction=True, predictor="context")
    if bar == "B":
        return config.with_mode(hw_sync=True)
    raise ValueError(f"unknown bar {bar!r}")


#: What a simulation result depends on: (program attribute, resolved
#: config, parallel).  Whether an oracle is attached follows from the
#: config (``oracle_mode != "off"``), so it is not a fourth part.
SimIdentity = Tuple[str, SimConfig, bool]


def bar_identity(bar: str, base: Optional[SimConfig] = None) -> SimIdentity:
    """The simulation identity of one bar on top of ``base``."""
    return BAR_PROGRAM[bar], config_for(bar, base), bar != "SEQ"


def profile_key(workload: str, threshold: float) -> str:
    """The persistent-cache key of a workload's profile summary."""
    return cache_mod.result_key(workload, threshold, "profile", "", None)


@dataclass
class WorkloadBundle:
    """Compiled binaries plus memoized simulations for one workload."""

    workload: Workload
    threshold: float = 0.05
    _compiled: Optional[CompiledWorkload] = None
    _oracles: Dict[str, ValueOracle] = field(default_factory=dict)
    _memo: Dict[SimIdentity, SimResult] = field(default_factory=dict)
    _profile_summary: Optional[Dict] = None
    #: compile/oracle provenance records, kept so worker processes can
    #: ship them back to the parent's metrics collector.
    _pipeline_jobs: List[Dict] = field(default_factory=list)

    def _record_pipeline(
        self, label: str, kind: str, source: str, wall_s: float
    ) -> None:
        self._pipeline_jobs.append(
            {"label": label, "kind": kind, "source": source, "wall_s": wall_s}
        )
        metrics_mod.current().record(
            self.workload.name, label, kind, source, wall_s
        )

    @property
    def compiled(self) -> CompiledWorkload:
        """The compiled binaries; served from the artifact store when
        warm, compiled (and stored) on first access otherwise."""
        if self._compiled is None:
            store = artifacts_mod.active_store()
            if store is not None:
                started = time.perf_counter()
                loaded = store.load_compiled(self.workload, self.threshold)
                if loaded is not None:
                    self._compiled = loaded
                    self._record_pipeline(
                        "compile", "compile", metrics_mod.SOURCE_CACHE,
                        time.perf_counter() - started,
                    )
                    return self._compiled
            started = time.perf_counter()
            self._compiled = compile_workload(
                self.workload.name,
                self.workload.build,
                self.workload.train_input,
                self.workload.ref_input,
                threshold=self.threshold,
            )
            self._record_pipeline(
                "compile", "compile", metrics_mod.SOURCE_COMPUTED,
                time.perf_counter() - started,
            )
            if store is not None:
                store.save_compiled(self.workload, self.threshold, self._compiled)
        return self._compiled

    @property
    def is_compiled(self) -> bool:
        return self._compiled is not None

    def program(self, bar: str) -> Module:
        return getattr(self.compiled, BAR_PROGRAM[bar])

    def oracle_for(self, program_attr: str) -> ValueOracle:
        oracle = self._oracles.get(program_attr)
        if oracle is None:
            store = artifacts_mod.active_store()
            if store is not None:
                started = time.perf_counter()
                oracle = store.load_oracle(
                    self.workload, self.threshold, program_attr
                )
                if oracle is not None:
                    self._oracles[program_attr] = oracle
                    self._record_pipeline(
                        program_attr, "oracle", metrics_mod.SOURCE_CACHE,
                        time.perf_counter() - started,
                    )
                    return oracle
            started = time.perf_counter()
            oracle = collect_oracle(getattr(self.compiled, program_attr))
            self._oracles[program_attr] = oracle
            self._record_pipeline(
                program_attr, "oracle", metrics_mod.SOURCE_COMPUTED,
                time.perf_counter() - started,
            )
            if store is not None:
                store.save_oracle(
                    self.workload, self.threshold, program_attr, oracle
                )
        return oracle

    # -- simulation ------------------------------------------------------
    def sim_key(self, identity: SimIdentity) -> str:
        """The persistent-cache key of one simulation identity."""
        program, config, parallel = identity
        return cache_mod.result_key(
            self.workload.name,
            self.threshold,
            "sim",
            program,
            cache_mod.config_to_state(config),
            extra={"parallel": parallel},
        )

    def _lookup(
        self, identity: SimIdentity, label: str, kind: str
    ) -> Optional[SimResult]:
        """Memo, then disk, never computing; a disk hit seeds the memo
        and is recorded under ``label``/``kind``."""
        result = self._memo.get(identity)
        if result is not None:
            return result
        cache = cache_mod.active_cache()
        payload = cache.get(self.sim_key(identity)) if cache is not None else None
        if payload is None:
            return None
        try:
            result = SimResult.from_state(payload)
        except (KeyError, TypeError):
            return None
        self._memo[identity] = result
        metrics_mod.current().record(
            self.workload.name, label, kind, metrics_mod.SOURCE_CACHE, 0.0,
            counters=result.counters,
        )
        return result

    def _simulate(self, identity: SimIdentity, label: str, kind: str) -> SimResult:
        """One simulation through memo, disk, then the engine.

        ``label`` and ``kind`` only name the job in run metrics.
        """
        result = self._lookup(identity, label, kind)
        if result is not None:
            return result
        started = time.perf_counter()
        program, config, parallel = identity
        oracle = self.oracle_for(program) if config.oracle_mode != "off" else None
        result = TLSEngine(
            getattr(self.compiled, program), config=config, oracle=oracle,
            parallel=parallel,
        ).run()
        self._memo[identity] = result
        cache = cache_mod.active_cache()
        if cache is not None:
            cache.put(self.sim_key(identity), result.to_state())
        metrics_mod.current().record(
            self.workload.name, label, kind, metrics_mod.SOURCE_COMPUTED,
            time.perf_counter() - started, counters=result.counters,
        )
        return result

    def simulate(self, bar: str, base: Optional[SimConfig] = None) -> SimResult:
        """Run one bar on top of ``base``."""
        return self._simulate(bar_identity(bar, base), bar, "bar")

    def simulate_custom(
        self,
        program_attr: str,
        config: SimConfig,
        oracle_needed: bool = False,
        label: Optional[str] = None,
    ) -> SimResult:
        """Run ``program_attr`` in parallel under a bespoke config.

        ``label`` names the job in run metrics (defaults to the program
        attribute).  ``oracle_needed`` is ignored: an oracle is attached
        exactly when ``config.oracle_mode != "off"``.  It is still
        accepted because ``perfbench/flows.py`` passes it.
        """
        return self._simulate(
            (program_attr, config, True), label or program_attr, "custom"
        )

    # -- profile artifacts (compile-free on a warm cache) ----------------
    def _cached_profile_summary(self) -> Optional[Dict]:
        """The profile summary from memo or disk, never computing."""
        if self._profile_summary is None:
            cache = cache_mod.active_cache()
            if cache is None:
                return None
            payload = cache.get(profile_key(self.workload.name, self.threshold))
            if payload is None:
                return None
            self._profile_summary = payload
            metrics_mod.current().record(
                self.workload.name, "profile", "profile",
                metrics_mod.SOURCE_CACHE, 0.0,
            )
        return self._profile_summary

    def profile_summary(self) -> Dict:
        """Profile-derived data the figure harnesses need.

        ``{"load_sets": {percent: [iids]}, "distance_hist": {d: n}}``;
        served from memory or the persistent cache so that Figures 6
        and 7 can render on a warm cache without recompiling.
        """
        summary = self._cached_profile_summary()
        if summary is None:
            summary = self._profile_summary = self._compute_profile_summary()
            cache = cache_mod.active_cache()
            if cache is not None:
                cache.put(profile_key(self.workload.name, self.threshold), summary)
        return summary

    def _compute_profile_summary(self) -> Dict:
        load_sets: Dict[str, List[int]] = {}
        for threshold in PROFILE_SET_THRESHOLDS:
            loads: set = set()
            for profile in self.compiled.profile_ref.values():
                loads |= set(profile.loads_above(threshold))
            load_sets[_pct_key(threshold)] = sorted(loads)
        hist: Dict[str, int] = {}
        for profile in self.compiled.profile_ref.values():
            for distance, count in profile.distance_hist.items():
                key = str(distance)
                hist[key] = hist.get(key, 0) + count
        return {"load_sets": load_sets, "distance_hist": hist}

    def profile_load_set(self, threshold: float) -> frozenset:
        """Loads with dependences in more than ``threshold`` of epochs."""
        key = _pct_key(threshold)
        summary = self.profile_summary()
        if key not in summary["load_sets"]:
            # Not one of the canonical thresholds: derive directly.
            loads: set = set()
            for profile in self.compiled.profile_ref.values():
                loads |= set(profile.loads_above(threshold))
            return frozenset(loads)
        return frozenset(summary["load_sets"][key])

    def distance_histogram(self) -> Dict[int, int]:
        """Aggregate dependence-distance histogram across loops."""
        summary = self.profile_summary()
        return {int(k): v for k, v in summary["distance_hist"].items()}

    def normalized_region(
        self, bar: str, base: Optional[SimConfig] = None
    ) -> Tuple[float, Dict[str, float]]:
        """(normalized region time, busy/fail/sync/other segments)."""
        from repro.tlssim.stats import normalized_region_time

        return normalized_region_time(self.simulate(bar, base), self.simulate("SEQ"))

    def normalized_attribution(
        self, bar: str, base: Optional[SimConfig] = None
    ) -> Dict[str, float]:
        """Fine-grained cause -> height on the stacked-bar scale."""
        from repro.tlssim.stats import normalized_attribution

        return normalized_attribution(
            self.simulate(bar, base), self.simulate("SEQ")
        )


def _pct_key(threshold: float) -> str:
    return str(int(round(threshold * 100)))


_BUNDLES: Dict[str, WorkloadBundle] = {}


def bundle_for(name: str, threshold: float = 0.05) -> WorkloadBundle:
    """The (lazily compiled) bundle for workload ``name``."""
    key = f"{name}@{threshold}"
    bundle = _BUNDLES.get(key)
    if bundle is None:
        bundle = WorkloadBundle(workload=get_workload(name), threshold=threshold)
        _BUNDLES[key] = bundle
    return bundle


def clear_cache() -> None:
    """Drop all memoized bundles (tests use this for isolation)."""
    _BUNDLES.clear()


# ---------------------------------------------------------------------------
# the job DAG
# ---------------------------------------------------------------------------
#
# JobSpec / JobNode / JobGraph moved to repro.experiments.scheduler so
# the serve daemon can plan work with the same vocabulary; re-exported
# here (and from repro.experiments) for existing callers.

_spec_id = spec_id


def _resolve_config(spec: JobSpec, bundle: WorkloadBundle) -> SimIdentity:
    """The simulation identity of a ``bar``/``custom``/``fig06`` spec.

    ``fig06`` resolution touches the profile summary and may compile.
    """
    if spec.kind == "bar":
        base = SimConfig(**dict(spec.overrides)) if spec.overrides else None
        return bar_identity(spec.label, base)
    if spec.kind == "custom":
        return spec.program, SimConfig().with_mode(**dict(spec.overrides)), True
    if spec.kind == "fig06":
        load_set = bundle.profile_load_set(spec.param)
        config = SimConfig().with_mode(oracle_mode="set", oracle_set=load_set)
        return spec.program or "baseline", config, True
    raise ValueError(f"unknown job kind {spec.kind!r}")


def _run_spec(spec: JobSpec, bundle: WorkloadBundle) -> Optional[SimResult]:
    """Execute one spec against a bundle (any cache level may serve it)."""
    if spec.kind == "profile":
        bundle.profile_summary()
        return None
    return bundle._simulate(_resolve_config(spec, bundle), spec.label, spec.kind)


def _try_resolve_from_cache(spec: JobSpec, bundle: WorkloadBundle) -> bool:
    """Serve a spec from memo/disk without computing; False on miss.

    Never compiles: a ``fig06`` spec whose profile summary is absent
    from every cache level is reported as a miss.
    """
    if spec.kind in ("profile", "fig06") and bundle._cached_profile_summary() is None:
        return False
    if spec.kind == "profile":
        return True
    identity = _resolve_config(spec, bundle)
    memo_hit = bundle._memo.get(identity)
    if memo_hit is not None:
        metrics_mod.current().record(
            spec.workload, spec.label, spec.kind, metrics_mod.SOURCE_MEMO, 0.0,
            counters=memo_hit.counters,
        )
        return True
    return bundle._lookup(identity, spec.label, spec.kind) is not None


# ---------------------------------------------------------------------------
# parallel execution
# ---------------------------------------------------------------------------


def _execute_group(payload: Tuple[str, float, List[JobSpec], Optional[str]]) -> Dict:
    """Worker-side: compile one workload, run its pending simulations.

    Runs in a pool worker; the persistent cache and metrics collector
    are parent-side concerns, so results travel back as serialized
    state and the parent does all bookkeeping.  The artifact store *is*
    enabled worker-side (when the parent has one): loading a compiled
    workload is cheaper than recompiling it, and a cold worker persists
    its compile so no other process ever repeats it.
    """
    name, threshold, specs, artifact_root = payload
    cache_mod.configure(False)
    artifacts_mod.configure(artifact_root is not None, artifact_root)
    artifacts_mod.reset_counters()  # forked workers inherit parent counts
    metrics_mod.reset()
    bundle = bundle_for(name, threshold)
    out: List[Dict] = []
    for spec in specs:
        started = time.perf_counter()
        result = _run_spec(spec, bundle)
        job: Dict = {"spec_id": _spec_id(spec), "kind": spec.kind}
        if result is not None:
            job["identity"] = identity = _resolve_config(spec, bundle)
            job["disk_key"] = bundle.sim_key(identity)
            job["result"] = result.to_state()
        job["wall_s"] = time.perf_counter() - started
        out.append(job)
    return {
        "workload": name,
        "threshold": threshold,
        "pid": os.getpid(),
        "profile_summary": bundle._profile_summary,
        "pipeline": bundle._pipeline_jobs,
        "artifact_counters": artifacts_mod.counters(),
        "jobs": out,
    }


def _persist_group(group: Dict) -> None:
    """Parent-side, as soon as a group lands: store its results in the
    persistent cache, so a run killed later keeps every finished group."""
    cache = cache_mod.active_cache()
    if cache is None:
        return
    if group["profile_summary"] is not None:
        cache.put(
            profile_key(group["workload"], group["threshold"]),
            group["profile_summary"],
        )
    for job in group["jobs"]:
        if "result" in job:
            cache.put(job["disk_key"], job["result"])


def _merge_group(group: Dict, specs_by_id: Dict[str, JobSpec]) -> None:
    """Parent-side, in plan order: seed memos and record metrics.

    Work the worker did is recorded as ``computed`` under the worker's
    pid; artifact-store hits keep their cache provenance so warm runs
    are visibly compile-free.
    """
    bundle = bundle_for(group["workload"], group["threshold"])
    record = metrics_mod.current().record
    for job in group.get("pipeline", ()):
        record(
            group["workload"], job["label"], job["kind"], job["source"],
            job["wall_s"], worker=group["pid"],
        )
    if bundle._profile_summary is None:
        bundle._profile_summary = group["profile_summary"]
    for job in group["jobs"]:
        spec = specs_by_id[job["spec_id"]]
        counters = None
        if "result" in job:
            result = bundle._memo[job["identity"]] = SimResult.from_state(
                job["result"]
            )
            counters = result.counters
        record(
            group["workload"], spec.label, spec.kind,
            metrics_mod.SOURCE_COMPUTED, job["wall_s"], worker=group["pid"],
            counters=counters,
        )


def execute_plan(specs: Sequence[JobSpec], jobs: int = 1) -> JobGraph:
    """Run a sweep of jobs, fanning out across ``jobs`` processes.

    Builds the explicit DAG, serves whatever it can from the memo and
    the persistent cache, then dispatches each remaining per-workload
    subgraph (compile node + its pending simulations) to a worker.
    Each group's results reach the persistent cache as soon as that
    group lands; a failed group is re-raised only after every other
    group has landed and been persisted.  Memos are then seeded and
    metrics recorded deterministically — in spec order, independent of
    completion order — so subsequent rendering never recomputes.
    """
    if jobs < 1:
        jobs = os.cpu_count() or 1
    graph = JobGraph.build(specs)
    pending: List[JobSpec] = []
    for node in graph.sim_nodes():
        if not _try_resolve_from_cache(node.spec, bundle_for(
            node.spec.workload, node.spec.threshold
        )):
            pending.append(node.spec)
    if not pending:
        return graph
    groups = graph.groups(pending)
    specs_by_id = {_spec_id(s): s for s in pending}
    if jobs == 1 or len(groups) == 1:
        # Serial path: run in-process, same memo/disk/metric bookkeeping.
        for _name, _threshold, group_specs in groups:
            for spec in group_specs:
                _run_spec(spec, bundle_for(_name, _threshold))
        return graph
    results: Dict[str, Dict] = {}
    failure: Optional[BaseException] = None
    artifact_root = artifacts_mod.active_root()
    with ProcessPoolExecutor(max_workers=min(jobs, len(groups))) as pool:
        futures = {
            pool.submit(
                _execute_group, (name, threshold, group_specs, artifact_root)
            ): name
            for name, threshold, group_specs in groups
        }
        for future in as_completed(futures):
            try:
                group = future.result()
            except Exception as exc:  # re-raised once the others landed
                failure = failure or exc
                continue
            results[futures[future]] = group
            # Fold the worker's artifact-store counters in as soon as
            # its group lands (not at pool shutdown): commutative sums,
            # and a long-lived parent — the serve daemon uses the same
            # discipline — reports accurate hit/fallback counts while
            # other groups are still running.
            artifacts_mod.merge_counters(group.get("artifact_counters", {}))
            _persist_group(group)
    if failure is not None:
        raise failure
    # Deterministic merge: group submission order, spec order within.
    for name, _threshold, _group_specs in groups:
        _merge_group(results[name], specs_by_id)
    return graph


def plan_bar_jobs(
    workloads: Sequence[str],
    bars: Sequence[str],
    threshold: float = 0.05,
    include_seq: bool = True,
) -> List[JobSpec]:
    """Bar-simulation specs for a (workload x bar) sweep."""
    specs: List[JobSpec] = []
    for name in workloads:
        wanted = list(bars)
        if include_seq and "SEQ" not in wanted:
            wanted.append("SEQ")
        for bar in wanted:
            specs.append(
                JobSpec(workload=name, kind="bar", label=bar, threshold=threshold)
            )
    return specs
