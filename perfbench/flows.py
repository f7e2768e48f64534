"""The three workloads: what each runs, times, checks and reports.

Each ``run_*`` function returns a :class:`Outcome`.  With ``trace``
false it measures the end-to-end metrics with nothing wrapped; with
``trace`` true it runs the same inputs once untraced and once with the
layers wrapped (:mod:`perfbench.layers`) and reports the per-layer
ledger, its closure and the tracing overhead.

All stores live under ``WORK`` in the current directory, one fresh
directory per set-up, so every repetition starts from the state its
workload describes.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from perfbench import correctness, inputs, layers
from perfbench import percentiles as pct
from perfbench.correctness import Tally
from perfbench.ledger import Ledger, attribute, closure_error, diff_snapshots, merge_snapshots

#: scratch root, relative to the checkout the benchmark runs in
WORK = Path(".perfbench_work")

#: worker processes for the batch flows, as ``make report`` runs them
JOBS = os.cpu_count() or 1

#: percentiles reported per latency class, and the samples they need
MEMO_PCTS = (50.0, 99.0)
COMPUTED_PCTS = (50.0, 95.0)

#: memo samples a batch run collects: a cache read takes tens of
#: microseconds, so its p99 needs far more than ten samples beyond it
#: to read the same from run to run
BATCH_MEMO_SAMPLES = 5000

#: a run keeps measuring past ``--seconds`` until its percentiles have
#: ten samples beyond them, but never past this multiple of it
OVERRUN = 3.0


@dataclass
class Outcome:
    """What a workload run reports."""

    metrics: Dict[str, Tuple[float, str]]
    tally: Tally
    lines: List[str] = field(default_factory=list)


def fresh_dir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def percentile_line(name: str, samples: List[float], p: float) -> str:
    n = len(samples)
    top = pct.highest_supported(n)
    return (
        f"  {name}: p{p:g} over n={n} samples, {pct.beyond(p, n)} beyond it "
        f"(highest supported: {'p%g' % top if top else 'none'})"
    )


def latency_metrics(
    prefix: str, samples: List[float], pcts: Tuple[float, ...], tally: Tally, lines: List[str]
) -> Dict[str, Tuple[float, str]]:
    """``<prefix>_p<N>_ms`` metrics; an unsupported percentile is a failure."""
    out = {}
    for p in pcts:
        name = f"{prefix}_p{p:g}_ms"
        if not samples:
            tally.fail(f"{name}: no samples")
            out[name] = (float("nan"), "ms")
            continue
        tally.check(pct.supported(p, len(samples)), f"{name}: fewer than ten samples beyond")
        out[name] = (pct.percentile(samples, p) * 1000.0, "ms")
        lines.append(percentile_line(name, samples, p))
    return out


def enough(samples: Dict[str, Tuple[List[float], Tuple[float, ...]]]) -> bool:
    return all(
        all(pct.supported(p, len(values)) for p in pcts) for values, pcts in samples.values()
    )


def configure_stores(root: Optional[Path]) -> None:
    """Point the process-wide result cache and artifact store at ``root``."""
    from repro.experiments import artifacts as artifacts_mod
    from repro.experiments import cache as cache_mod
    from repro.experiments.runner import clear_cache

    enabled = root is not None
    cache_mod.configure(enabled, str(root) if root else None)
    artifacts_mod.configure(enabled, str(root) if root else None)
    clear_cache()


def quiet_logs() -> None:
    from repro.obs import log as obs_log

    obs_log.configure(level="warning", stream=sys.stderr)


# ---------------------------------------------------------------------------
# report-cold
# ---------------------------------------------------------------------------

#: what a fresh ``repro`` command does before its first job: import the
#: command line and open the stores (argv: store root)
_STARTUP = (
    "import sys; sys.path.insert(0, 'src'); import repro.cli; "
    "from repro.experiments import artifacts, cache; "
    "cache.configure(True, sys.argv[1]); artifacts.configure(True, sys.argv[1])"
)


def startup_s(root: Path) -> float:
    """Wall time of a fresh interpreter's imports and store set-up."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", _STARTUP, str(root / "startup")], check=True)
    return time.perf_counter() - started


def _report_setup(rep: int) -> Tuple[Path, float]:
    """Fresh empty stores, after a fresh interpreter's start-up."""
    from repro.experiments import metrics as metrics_mod

    root = fresh_dir(f"report-{rep}")
    startup = startup_s(root)
    started = time.perf_counter()
    configure_stores(root)
    metrics_mod.reset(workers=JOBS)
    return root, startup + time.perf_counter() - started


def _measure_batch(one_rep, top_up, seconds: float, jobs: int):
    """Repeat ``one_rep`` for ``seconds``, topping up the memo samples.

    ``one_rep(rep, memo, computed) -> (setup, wall, run)`` runs one set-up
    and flow; ``top_up(memo)`` re-requests every job once more, after
    each repetition, in step with the elapsed time, so a slow moment of
    the machine touches only a share of the memo samples.  Returns the
    medians' inputs: setups, walls, job rates (``jobs`` per wall), and
    memo and computed latency samples.
    """
    setups, walls, rates = [], [], []
    memo: List[float] = []
    computed: List[float] = []
    started = time.perf_counter()
    deadline = started + seconds
    hard_stop = started + seconds * OVERRUN
    while not walls or time.perf_counter() < deadline or (
        not enough({"c": (computed, COMPUTED_PCTS)}) and time.perf_counter() < hard_stop
    ):
        gc.collect()  # each repetition starts from a collected heap, as a fresh process
        setup, wall, _run = one_rep(len(walls), memo, computed)
        setups.append(setup)
        walls.append(wall)
        rates.append(jobs / wall)
        share = min(1.0, (time.perf_counter() - started) / seconds)
        while len(memo) < BATCH_MEMO_SAMPLES * share:
            top_up(memo)
    while len(memo) < BATCH_MEMO_SAMPLES and time.perf_counter() < hard_stop:
        top_up(memo)
    return setups, walls, rates, memo, computed


def _sim_specs():
    from repro.experiments.report import SECTIONS, plan_report_jobs
    from repro.workloads import all_workloads

    names = [w.name for w in all_workloads()]
    specs = plan_report_jobs(names, [title for title, *_ in SECTIONS])
    return names, [spec for spec in specs if spec.kind != "profile"]


def resolve_spec(spec):
    """A report job's result through the public bundle API."""
    from repro.experiments.runner import bundle_for
    from repro.tlssim.config import SimConfig

    bundle = bundle_for(spec.workload, spec.threshold)
    if spec.kind == "bar":
        return bundle.simulate(spec.label)
    if spec.kind == "fig06":
        config = SimConfig().with_mode(
            oracle_mode="set", oracle_set=bundle.profile_load_set(spec.param)
        )
        return bundle.simulate_custom(
            spec.program or "baseline", config, oracle_needed=True, label=spec.label
        )
    config = SimConfig().with_mode(**dict(spec.overrides))
    return bundle.simulate_custom(
        spec.program, config, oracle_needed=spec.oracle_needed, label=spec.label
    )


def _sim_jobs(run) -> List:
    return [job for job in run.jobs if job.kind in ("bar", "custom", "fig06")]


def _memo_probe(
    specs, refs, pins: Optional[Dict], tally: Tally, samples: List[float]
) -> List[str]:
    """Re-request every job from the warm result cache, timing each.

    This is what a second ``repro report`` does per job.  Each result
    must come from the cache, compute the reference answer and, when
    ``pins`` is given, match its pinned digest.  Returns the digests.
    """
    from repro.experiments import metrics as metrics_mod
    from repro.experiments.runner import clear_cache

    clear_cache()
    gc.collect()
    metrics_mod.reset(workers=JOBS)
    digests = []
    for spec in specs:
        started = time.perf_counter()
        result = resolve_spec(spec)
        samples.append(time.perf_counter() - started)
        digest = correctness.result_digest(result)
        digests.append(digest)
        key = correctness.job_id(spec)
        ok = correctness.matches_reference(refs, spec.workload, result.to_state())
        if pins is not None:
            ok = ok and pins["jobs"].get(key) == digest
        tally.check(ok, f"{key}: result differs from reference or pin")
    recomputed = [
        job for job in _sim_jobs(metrics_mod.current())
        if job.source not in (metrics_mod.SOURCE_CACHE, metrics_mod.SOURCE_MEMO)
    ]
    tally.check(not recomputed, f"memo probe recomputed {len(recomputed)} job(s)")
    return digests


def _check_report(text: str, run, specs, pins: Dict, tally: Tally) -> None:
    """Pinned report digest; with workers, every job simulated exactly once.

    (A serial report simulates lazily while rendering, under other
    labels, so only the fan-out's job records can be matched to the plan.)
    """
    from collections import Counter

    tally.check(
        correctness.digest_bytes(text.encode()) == pins["report"],
        "rendered report differs from its pinned digest",
    )
    if run.workers == 1:
        return
    done = Counter(
        f"{job.workload}/{job.kind}/{job.label}"
        for job in _sim_jobs(run)
        if job.source in ("worker", "computed")
    )
    planned = {correctness.job_id(spec) for spec in specs}
    tally.check(set(done) == planned, "simulated jobs differ from the plan")
    tally.check(all(n == 1 for n in done.values()), "a job was simulated twice")


def report_pins() -> Dict:
    """Digests for ``pins.json`` from one serial cold report."""
    from repro.experiments.report import generate_report

    names, specs = _sim_specs()
    refs = correctness.references(names)
    configure_stores(fresh_dir("pin"))
    text = generate_report(jobs=1)
    tally = Tally()
    digests = _memo_probe(specs, refs, None, tally, [])
    if tally.failed:
        raise SystemExit(f"refusing to pin wrong results: {tally.notes}")
    jobs = {correctness.job_id(spec): d for spec, d in zip(specs, digests)}
    per_workload = {
        name: correctness.combined_digest(
            d for spec, d in zip(specs, digests) if spec.workload == name
        )
        for name in names
    }
    return {
        "report": correctness.digest_bytes(text.encode()),
        "workloads": per_workload,
        "jobs": jobs,
    }


def run_report_cold(seed: int, seconds: float, trace: bool) -> Outcome:
    """Full ``generate_report`` from empty stores; the seed is unused."""
    from repro.experiments import metrics as metrics_mod
    from repro.experiments.report import generate_report

    del seed  # the paper's fixed suite is the input
    names, specs = _sim_specs()
    refs = correctness.references(names)
    pins = correctness.load_pins()
    tally = Tally()
    lines: List[str] = []

    def one_rep(rep: int, jobs: int, memo: List[float], computed: List[float]):
        _root, setup = _report_setup(rep)
        metrics_mod.reset(workers=jobs)
        started = time.perf_counter()
        text = generate_report(jobs=jobs)
        wall = time.perf_counter() - started
        run = metrics_mod.current()
        run.stop()
        _check_report(text, run, specs, pins, tally)
        computed.extend(job.wall_s for job in _sim_jobs(run))
        digests = _memo_probe(specs, refs, pins, tally, memo)
        for name in names:
            mine = [d for spec, d in zip(specs, digests) if spec.workload == name]
            tally.check(
                correctness.combined_digest(mine) == pins["workloads"][name],
                f"{name}: simulated statistics differ from their pinned digest",
            )
        return setup, wall, run

    if trace:
        return _report_traced(one_rep, tally, lines)

    setups, walls, rates, memo, computed = _measure_batch(
        lambda rep, memo, computed: one_rep(rep, JOBS, memo, computed),
        lambda memo: _memo_probe(specs, refs, pins, tally, memo),
        seconds, len(specs),
    )
    lines.append(f"  {len(walls)} cold reports of {len(specs)} simulation jobs, {JOBS} workers")
    return _batch_outcome(setups, walls, rates, memo, computed, tally, lines)


def _batch_outcome(setups, walls, rates, memo, computed, tally, lines) -> Outcome:
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "throughput_rps": (statistics.median(rates), "1/s"),
    }
    metrics.update(latency_metrics("memo", memo, MEMO_PCTS, tally, lines))
    metrics.update(latency_metrics("computed", computed, COMPUTED_PCTS, tally, lines))
    return Outcome(metrics, tally, lines)


def _traced(flow: Callable[[], object], wall_untraced: float, extra: Dict):
    """Run ``flow`` once with every layer wrapped, under a root span.

    Its set-up must already be done, so the ledger covers the flow
    alone.  Adds the unattributed time, the closure error and the
    tracing overhead to ``extra``; returns the snapshot, the traced
    wall time and the flow's result.
    """
    gc.collect()
    ledger = Ledger()
    for target in layers.install(ledger):
        print(f"perfbench: layer target {target} not found; it reads zero", file=sys.stderr)
    compiles_before = layers.codegen_compiles()
    started = time.perf_counter()
    ledger.enter("flow")
    try:
        result = flow()
    finally:
        ledger.exit()
        wall = time.perf_counter() - started
        ledger.unwrap_all()
    ledger.count("codegen.compiles", layers.codegen_compiles() - compiles_before)
    snap = ledger.snapshot()
    root_self = snap["layers"].pop("flow")["self_s"]
    self_times = [entry["self_s"] for entry in snap["layers"].values()]
    extra.update({
        "ledger.unattributed_s": root_self,
        "ledger.closure_error": closure_error(self_times, root_self, wall),
        "ledger.trace_overhead": wall / wall_untraced - 1.0,
    })
    return snap, wall, result


def _report_traced(one_rep, tally: Tally, lines: List[str]) -> Outcome:
    """Fan-out layer from a parallel rep; the ledger from serial reps.

    The traced report runs its job matrix in this process (``jobs=1``)
    so every layer is seen and self times add up to one wall time; the
    runner's fan-out is read from the parallel rep's run metrics.
    """
    from repro.experiments import report as report_mod

    _setup, _wall, run = one_rep(0, JOBS, [], [])
    busy = run.serial_estimate_s()
    utilization = run.worker_utilization()

    gc.collect()
    _setup, wall_u, _run = one_rep(1, 1, [], [])
    _report_setup(2)
    extra = {
        "experiments.runner.worker_busy_s": busy,
        "experiments.runner.utilization": utilization,
    }
    # looked up at call time, so the wrapped function runs
    snap, wall_t, text = _traced(lambda: report_mod.generate_report(jobs=1), wall_u, extra)
    tally.check(
        correctness.digest_bytes(text.encode()) == correctness.load_pins()["report"],
        "traced report differs from its pinned digest",
    )
    lines.append(f"  traced serial report {wall_t:.3f}s, untraced {wall_u:.3f}s")
    return _layer_outcome(snap, extra, tally, lines)


def _layer_outcome(snap: Dict, extra: Dict, tally: Tally, lines: List[str]) -> Outcome:
    values = layers.per_layer_values(snap, extra)
    tally.check(values["ledger.closure_error"] < 0.01, "ledger does not add up to the wall time")
    units = {name: unit for name, unit, _better in layers.PER_LAYER}
    return Outcome({name: (value, units[name]) for name, value in values.items()}, tally, lines)


# ---------------------------------------------------------------------------
# sweep-warm
# ---------------------------------------------------------------------------


def _sweep_setup(rep: int, workloads) -> Tuple[Path, float]:
    """Start-up, an empty result cache, and compiled artifacts warmed
    into a fresh store."""
    from repro.experiments import metrics as metrics_mod
    from repro.experiments.runner import bundle_for, clear_cache

    root = fresh_dir(f"sweep-{rep}")
    startup = startup_s(root)
    started = time.perf_counter()
    configure_stores(root)
    for name in workloads:
        bundle_for(name).compiled  # compile once, saved to the store
    clear_cache()  # the flow must load the artifacts, not reuse memory
    metrics_mod.reset(workers=JOBS)
    return root, startup + time.perf_counter() - started


def _sweep_jobs(grid):
    """(workload, label, overrides) of every simulation a sweep runs.

    Each point runs its bar, plus a SEQ baseline on the point's machine
    (SEQ ignores scheme axes, so points share it).
    """
    from repro.tlssim.config import MACHINE_FIELDS

    seen, jobs = set(), []
    for point in grid.expand():
        machine = tuple((name, value) for name, value in point.overrides if name in MACHINE_FIELDS)
        for job in ((point.workload, point.bar, point.overrides), (point.workload, "SEQ", machine)):
            if job not in seen:
                seen.add(job)
                jobs.append(job)
    return jobs


def run_sweep_warm(seed: int, seconds: float, trace: bool) -> Outcome:
    """A seeded machine-model grid from warm artifacts and an empty cache."""
    from repro.experiments import artifacts as artifacts_mod
    from repro.experiments import metrics as metrics_mod
    from repro.experiments.runner import BAR_PROGRAM, bundle_for, clear_cache, config_for
    from repro.sweep import run as sweep_run
    from repro.sweep.grid import build_grid
    from repro.tlssim.config import SimConfig
    from repro.tlssim.engine import TLSEngine

    spec = inputs.sweep_input(seed)
    grid = build_grid(workloads=spec.workloads, bars=spec.bars, axes=spec.axes)
    jobs = _sweep_jobs(grid)
    refs = correctness.references(spec.workloads)
    pins = correctness.load_pins()
    tally = Tally()
    lines = [
        f"  grid: {len(grid.expand())} points, {len(jobs)} simulations; "
        + ", ".join(f"{name}={list(values)}" for name, values in spec.axes)
    ]
    check_rng = random.Random(f"sweep-check:{seed}")
    default = SimConfig()

    def probe(memo: List[float]) -> Dict:
        """Every job again, from the warm result cache, timed."""
        clear_cache()
        gc.collect()
        metrics_mod.reset(workers=JOBS)
        results = {}
        for workload, label, overrides in jobs:
            base = SimConfig(**dict(overrides)) if overrides else None
            started = time.perf_counter()
            result = bundle_for(workload).simulate(label, base)
            memo.append(time.perf_counter() - started)
            results[(workload, label, overrides)] = result
            ok = correctness.matches_reference(refs, workload, result.to_state())
            if label != "SEQ" and all(getattr(default, k) == v for k, v in overrides):
                # the paper's machine: the report's own bar, pinned
                pinned = pins["jobs"][f"{workload}/bar/{label}"]
                ok = ok and correctness.result_digest(result) == pinned
            tally.check(ok, f"{workload}/{label}{overrides}: wrong result")
        tally.check(
            all(j.source == metrics_mod.SOURCE_CACHE
                for j in metrics_mod.current().jobs if j.kind == "bar"),
            "memo probe recomputed a job",
        )
        return results

    def one_rep(rep: int, memo: List[float], computed: List[float]):
        root, setup = _sweep_setup(rep, spec.workloads)
        before = artifacts_mod.counters()
        started = time.perf_counter()
        outcome = sweep_run.run_sweep(grid, out_dir=str(root / "sweep_out"), jobs=JOBS, fresh=True)
        wall = time.perf_counter() - started
        run = metrics_mod.current()
        run.stop()
        after = artifacts_mod.counters()
        tally.check(outcome.complete and len(outcome.records) == len(grid.expand()),
                    "sweep did not complete every point")
        tally.check(
            after["hits"] - before["hits"] == len(spec.workloads)
            and after["misses"] == before["misses"],
            "sweep did not load exactly its warmed artifacts",
        )
        tally.check(
            not [j for j in run.jobs if j.kind == "compile" and j.source == "computed"],
            "the compiler ran during the sweep",
        )
        sims = [j for j in run.jobs if j.kind == "bar" and j.source == "computed"]
        tally.check(len(sims) == len(jobs), "sweep simulated a different job count")
        computed.extend(j.wall_s for j in sims)
        results = probe(memo)
        # two seeded points re-simulated by a fresh engine, byte for byte
        for workload, label, overrides in check_rng.sample(jobs, 2):
            bundle = bundle_for(workload)
            base = SimConfig(**dict(overrides)) if overrides else None
            config = config_for(label, base)
            program = BAR_PROGRAM[label]
            oracle = bundle.oracle_for(program) if config.oracle_mode != "off" else None
            direct = TLSEngine(
                bundle.program(label), config=config, oracle=oracle, parallel=(label != "SEQ")
            ).run()
            tally.check(
                correctness.result_digest(direct)
                == correctness.result_digest(results[(workload, label, overrides)]),
                f"{workload}/{label}{overrides}: sweep result differs from a fresh engine",
            )
        return setup, wall, run

    if trace:
        gc.collect()
        _setup, wall_u, run = one_rep(0, [], [])
        root, _setup = _sweep_setup(1, spec.workloads)
        extra = {
            "experiments.runner.worker_busy_s": run.serial_estimate_s(),
            "experiments.runner.utilization": run.worker_utilization(),
        }
        # looked up at call time, so the wrapped function runs
        snap, wall_t, outcome = _traced(
            lambda: sweep_run.run_sweep(grid, out_dir=str(root / "sweep_out"), jobs=JOBS, fresh=True),
            wall_u, extra,
        )
        tally.check(outcome.complete, "traced sweep did not complete every point")
        probe([])  # the traced sweep's results, checked like any other
        lines.append(f"  traced sweep {wall_t:.3f}s, untraced {wall_u:.3f}s")
        return _layer_outcome(snap, extra, tally, lines)

    setups, walls, rates, memo, computed = _measure_batch(one_rep, probe, seconds, len(jobs))
    lines.append(f"  {len(walls)} sweeps, {JOBS} workers")
    return _batch_outcome(setups, walls, rates, memo, computed, tally, lines)


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------

#: the daemon's default worker count, at most one per core
SERVE_WORKERS = min(2, JOBS)

#: closed-loop client connections
CLIENTS = 2

#: daemons per untraced run; each boots, warms and serves a share of
#: the window, so a run sets up several times
DAEMONS = 5

#: ``wall_s`` of serve-mixed is the traffic time per this many completions
BLOCK = 100

#: requests generated per run: more than the longest run can consume
STREAM_LENGTH = 20_000

#: requests per pass of a traced run (untraced, then traced)
TRACE_REQUESTS = 300


@dataclass
class _Done:
    """One completed (or failed) request, as its client saw it."""

    index: int
    request: inputs.ServeRequest
    ok: bool
    latency: float = 0.0
    finished: float = 0.0
    source: str = ""
    job: str = ""
    digest: str = ""
    #: response bytes, kept for fresh requests only (hot ones keep a digest)
    data: bytes = b""
    codegen: int = 0
    error: str = ""
    #: wall-clock stamps: start, submitted, done, fetched
    stamps: Tuple[float, ...] = ()


class _Stream:
    """The shared request stream both clients draw from, in order."""

    def __init__(self, requests: List[inputs.ServeRequest], start: int, stop: int):
        self._requests = requests
        self._next = start
        self._stop = stop
        self._lock = threading.Lock()

    def take(self) -> Optional[Tuple[int, inputs.ServeRequest]]:
        with self._lock:
            if self._next >= self._stop:
                return None
            index = self._next
            self._next += 1
        return index, self._requests[index]


def _job_request(request: inputs.ServeRequest):
    from repro.serve.protocol import JobRequest

    return JobRequest(workload=request.workload, bar=request.bar, machine=request.machine)


def _client(url: str, stream: _Stream, deadline: float, out: List[_Done], span: List[float]):
    """One closed-loop client: next request only after the last completed."""
    from repro.serve.client import JobRejected, ServeClient, ServeError
    from repro.serve.protocol import DONE

    started = time.perf_counter()
    try:
        with ServeClient(url) as client:
            while time.perf_counter() < deadline:
                taken = stream.take()
                if taken is None:
                    break
                index, request = taken
                t0 = time.perf_counter()
                w0 = time.time()
                try:
                    job = client.submit(_job_request(request))
                    w1 = time.time()
                    time.sleep(request.poll_phase)
                    status = client.wait(job, timeout=60.0)
                    w2 = time.time()
                    if status["state"] != DONE:
                        error = status.get("error", "")[:200]
                        out.append(_Done(index, request, False, error=error))
                        continue
                    data = client.result_bytes(job)
                    w3 = time.time()
                except JobRejected:
                    out.append(_Done(index, request, False, error="refused (429)"))
                    time.sleep(0.01)
                    continue
                except (ServeError, TimeoutError, OSError) as exc:
                    out.append(_Done(index, request, False, error=repr(exc)[:200]))
                    continue
                t1 = time.perf_counter()
                out.append(_Done(
                    index, request, True, latency=t1 - t0, finished=t1,
                    source=status.get("source", ""), job=job,
                    digest=correctness.digest_bytes(data),
                    data=data if request.fresh else b"",
                    codegen=int(status.get("codegen", {}).get("compiles", 0)),
                    stamps=(w0, w1, w2, w3),
                ))
    finally:
        span.append(time.perf_counter() - started)


def _traffic(url: str, requests, start: int, stop: int, seconds: float):
    """Drive the daemon with CLIENTS closed loops; returns (done, wall, thread spans)."""
    stream = _Stream(requests, start, stop)
    outs: List[List[_Done]] = [[] for _ in range(CLIENTS)]
    spans: List[float] = []
    started = time.perf_counter()
    deadline = started + seconds
    threads = [
        threading.Thread(target=_client, args=(url, stream, deadline, outs[i], spans),
                         name=f"perfbench-client-{i}")
        for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 120.0)
    wall = time.perf_counter() - started
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a serve client did not finish")
    done = sorted((d for out in outs for d in out), key=lambda d: d.index)
    return done, wall, spans


def _boot(name: str, tally: Tally, hot_pins: Dict[Tuple[str, str], str]):
    """Start-up, daemon boot and the cold first (hot-set) requests."""
    from repro.serve.client import ServeClient
    from repro.serve.daemon import EmbeddedDaemon, ServeConfig
    from repro.serve.protocol import DONE, JobRequest

    root = fresh_dir(name)
    startup = startup_s(root)
    started = time.perf_counter()
    daemon = EmbeddedDaemon(ServeConfig(
        port=0, workers=SERVE_WORKERS, cache_root=str(root), log_level="warning",
    ))
    url = daemon.start()
    try:
        with ServeClient(url) as client:
            jobs = [(key, client.submit(JobRequest(workload=key[0], bar=key[1])))
                    for key in inputs.HOT_SET]
            for key, job in jobs:
                status = client.wait(job, timeout=120.0)
                ok = status["state"] == DONE and correctness.digest_bytes(
                    client.result_bytes(job)) == hot_pins[key]
                tally.check(ok, f"cold request {key} wrong or failed")
    except BaseException:
        daemon.stop()
        raise
    return daemon, url, startup + time.perf_counter() - started


def _check_responses(done: List[_Done], refs, hot_pins, tally: Tally, rng: random.Random) -> None:
    """Hot responses must equal the pinned bytes; fresh ones must be computed,
    compute the reference answer and, on a seeded sample, equal the
    in-process encoding byte for byte."""
    from repro.experiments.runner import bundle_for
    from repro.serve.protocol import canonical_result_bytes
    from repro.tlssim.config import SimConfig

    fresh = []
    for d in done:
        if not d.ok:
            tally.fail(f"request {d.index}: {d.error}")
            continue
        if not d.request.fresh:
            tally.check(
                d.source != "computed"
                and d.digest == hot_pins[(d.request.workload, d.request.bar)],
                f"request {d.index}: hot-set response wrong",
            )
            continue
        state = json.loads(d.data)
        tally.check(
            d.source == "computed" and correctness.matches_reference(refs, d.request.workload, state),
            f"request {d.index}: fresh response wrong",
        )
        fresh.append(d)
    configure_stores(fresh_dir("serve-check"))
    for d in rng.sample(fresh, min(8, len(fresh))):
        result = bundle_for(d.request.workload).simulate(
            d.request.bar, SimConfig(**dict(d.request.machine))
        )
        tally.check(
            canonical_result_bytes(result.to_state()) == d.data,
            f"request {d.index}: serve bytes differ from the in-process encoding",
        )
    # daemon workers fork from this process: leave them no warm memos
    configure_stores(None)


def _hot_pins() -> Dict[Tuple[str, str], str]:
    pins = correctness.load_pins()
    return {key: pins["jobs"][f"{key[0]}/bar/{key[1]}"] for key in inputs.HOT_SET}


def run_serve_mixed(seed: int, seconds: float, trace: bool) -> Outcome:
    """Two closed-loop clients against an embedded daemon with 2 workers."""
    requests = inputs.serve_stream(seed, STREAM_LENGTH)
    refs = correctness.references(sorted({w for w, _b in inputs.HOT_SET}))
    hot_pins = _hot_pins()
    tally = Tally()
    lines: List[str] = []
    rng = random.Random(f"serve-check:{seed}")
    if trace:
        return _serve_traced(requests, refs, hot_pins, tally, lines, rng)

    from repro.serve.client import ServeClient

    setups = []
    done_all: List[_Done] = []
    window_s = 0.0
    rejected = 0
    hard_stop = time.perf_counter() + seconds * OVERRUN

    def short() -> bool:
        ok = [x for x in done_all if x.ok]
        return not enough({
            "memo": ([x for x in ok if not x.request.fresh], MEMO_PCTS),
            "computed": ([x for x in ok if x.request.fresh], COMPUTED_PCTS),
        })

    while len(setups) < DAEMONS or (short() and time.perf_counter() < hard_stop):
        daemon, url, setup = _boot(f"serve-{len(setups)}", tally, hot_pins)
        setups.append(setup)
        cursor = done_all[-1].index + 1 if done_all else 0
        try:
            done, wall, _spans = _traffic(
                url, requests, cursor, len(requests), seconds / DAEMONS
            )
            with ServeClient(url) as client:
                rejected += client.stats()["queue"]["rejected"]
        finally:
            daemon.stop()
        window_s += wall
        done_all.extend(done)
        _check_responses(done, refs, hot_pins, tally, rng)
    ok = [d for d in done_all if d.ok]
    memo = [d.latency for d in ok if not d.request.fresh]
    computed = [d.latency for d in ok if d.request.fresh]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (window_s / len(ok) * BLOCK, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "throughput_rps": (len(ok) / window_s, "1/s"),
    }
    metrics.update(latency_metrics("memo", memo, MEMO_PCTS, tally, lines))
    metrics.update(latency_metrics("computed", computed, COMPUTED_PCTS, tally, lines))
    for label, hi, lo in (("submit", 1, 0), ("wait", 2, 1), ("result", 3, 2)):
        mean = statistics.fmean(d.stamps[hi] - d.stamps[lo] for d in ok)
        lines.append(f"  client {label}: mean {mean * 1000:.2f} ms per request")
    lines.append(
        f"  {len(done_all)} requests over {len(setups)} daemons x {SERVE_WORKERS} workers, "
        f"{CLIENTS} closed-loop clients; {len(memo)} memo, {len(computed)} computed, "
        f"{rejected} refused; wall_s = traffic time per {BLOCK} completed requests"
    )
    return Outcome(metrics, tally, lines)


#: daemon span -> (layer, priority); higher priority wins an instant
_SERVER_SPANS = {
    "http.submit": ("serve.http.submit", 2),
    "job.queued": ("serve.daemon.queue", 2),
    "batch.execute": ("serve.pool.ipc", 2),
    "worker.execute": ("serve.pool.execute", 3),
}


def _dump_worker_ledgers(ledger: Ledger, directory: Path) -> None:
    """Make each forked pool worker write its ledger after every job.

    Every dump is a new file (``worker-<pid>-<n>.json``): replacing an
    existing file costs a data flush on ext4 (tens of milliseconds),
    which would land inside the measured requests.
    """
    from repro.serve import pool

    original = pool.execute_request
    dumps = [0]

    def execute_request(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        finally:
            dumps[0] += 1
            path = directory / f"worker-{os.getpid()}-{dumps[0]:06d}.json"
            path.write_text(json.dumps(ledger.snapshot()))

    ledger.patch(pool, "execute_request", execute_request)


def _worker_ledgers(directory: Path) -> Dict:
    """Sum of each worker's latest dump."""
    latest: Dict[str, Path] = {}
    for path in sorted(directory.glob("worker-*.json")):
        latest[path.name.rsplit("-", 1)[0]] = path
    return merge_snapshots(json.loads(path.read_text()) for path in latest.values())


def _serve_traced(requests, refs, hot_pins, tally: Tally, lines: List[str], rng) -> Outcome:
    """The same requests untraced, then traced with the layers wrapped.

    Client time is the ledger's total: each request's interval is split
    between the client's own calls and the daemon's spans for the job
    (:func:`perfbench.ledger.attribute`); the worker's share is split
    further by the layers the forked workers recorded.
    """
    from repro.serve.client import ServeClient

    daemon, url, _setup = _boot("serve-untraced", tally, hot_pins)
    try:
        done_u, wall_u, _spans = _traffic(url, requests, 0, TRACE_REQUESTS, 600.0)
    finally:
        daemon.stop()
    _check_responses(done_u, refs, hot_pins, tally, rng)

    ledger = Ledger()
    for target in layers.install(ledger):
        print(f"perfbench: layer target {target} not found; it reads zero", file=sys.stderr)
    dumps = fresh_dir("worker-ledgers")
    _dump_worker_ledgers(ledger, dumps)
    try:
        daemon, url, _setup = _boot("serve-traced", tally, hot_pins)
        try:
            workers_before = _worker_ledgers(dumps)
            client_before = ledger.snapshot()
            done_t, wall_t, thread_spans = _traffic(
                url, requests, 0, TRACE_REQUESTS, 600.0
            )
            client_after = ledger.snapshot()
            with ServeClient(url) as client:
                job_spans = {d.job: client.spans(d.job)["spans"] for d in done_t if d.ok}
                rejected = client.stats()["queue"]["rejected"]
        finally:
            daemon.stop()
        workers = diff_snapshots(_worker_ledgers(dumps), workers_before)
    finally:
        ledger.unwrap_all()
    _check_responses(done_t, refs, hot_pins, tally, rng)

    attributed: Dict[str, float] = {}
    uncovered = 0.0
    requests_s = 0.0
    for d in done_t:
        if not d.ok:
            continue
        start, submitted, finished, fetched = d.stamps
        spans = [
            ("serve.client.submit", start, submitted, 1),
            ("serve.client.wait", submitted, finished, 1),
            ("serve.client.result", finished, fetched, 1),
        ]
        for span in job_spans[d.job]:
            if span["name"] in _SERVER_SPANS and span.get("end_s"):
                layer, priority = _SERVER_SPANS[span["name"]]
                spans.append((layer, span["start_s"], span["end_s"], priority))
        split, rest = attribute((start, fetched), spans)
        for layer, seconds in split.items():
            attributed[layer] = attributed.get(layer, 0.0) + seconds
        uncovered += rest
        requests_s += fetched - start
    total = sum(thread_spans)
    # the worker layers ran inside worker.execute: take them out of it
    worker_self = sum(entry["self_s"] for entry in workers["layers"].values())
    attributed["serve.pool.execute"] = attributed.get("serve.pool.execute", 0.0) - worker_self
    tally.check(attributed["serve.pool.execute"] >= 0.0,
                "worker layers add up to more than the worker.execute spans")
    snap = merge_snapshots([
        workers,
        {"layers": {layer: {"self_s": s, "total_s": s, "calls": 0}
                    for layer, s in attributed.items()},
         "counters": diff_snapshots(client_after, client_before)["counters"]},
    ])
    ok = [d for d in done_t if d.ok]
    snap["counters"]["codegen.compiles"] = float(sum(d.codegen for d in ok))
    snap["counters"]["daemon.rejected"] = float(rejected)
    unattributed = uncovered + (total - requests_s)
    self_times = [entry["self_s"] for entry in snap["layers"].values()]
    extra = {
        "ledger.unattributed_s": unattributed,
        "ledger.closure_error": closure_error(self_times, unattributed, total),
        "ledger.trace_overhead": wall_t / wall_u - 1.0,
        "serve.pool.memo_ratio": sum(d.source == "memo" for d in ok) / len(ok) if ok else 0.0,
    }
    lines.append(
        f"  {len(ok)} traced requests in {wall_t:.3f}s, untraced {wall_u:.3f}s; "
        f"ledger total = client time of {CLIENTS} clients = {total:.3f}s"
    )
    return _layer_outcome(snap, extra, tally, lines)


WORKLOADS: Dict[str, Callable[[int, float, bool], Outcome]] = {
    "report-cold": run_report_cold,
    "sweep-warm": run_sweep_warm,
    "serve-mixed": run_serve_mixed,
}
