"""``repro loadgen``: drive the serve daemon and report latency.

Two phases against one daemon (embedded by default, or an external
``--url``):

* **cold** — one request per (workload, threshold) key against the
  just-booted daemon; the observed latency includes whatever the
  worker had to do to warm the key (compile or artifact load).
* **warm** — ``--concurrency`` client threads submit jobs round-robin
  over the (workload, bar) matrix for ``--duration``, optionally paced
  to ``--rate`` requests/second, recording submit-to-done latency in
  the metrics registry's fixed-bucket histograms
  (:class:`repro.obs.registry.Histogram`), which supply the
  p50/p95/p99 summary; the exact ``max`` comes from the raw samples.

Warm samples are tallied **per provenance source**: the first warm
request for a (workload, bar) cell the cold phase didn't touch comes
back ``source: computed`` — a cold compile in disguise — and folding
it into the warm percentiles contaminates the tail (a lone 57ms
first-touch outlier once inflated a cell's p99 over 2x).  The payload
therefore splits percentiles by source (``latency_by_source``, and
``by_source`` inside each ``latency_by_cell`` entry), and the
acceptance gate reads only memo-hit samples.

The payload written by ``--out`` (the checked-in ``BENCH_serve.json``
baseline) carries a ``speedups`` section shaped exactly like the
engine benchmark's, so ``repro loadgen --compare`` (and the CI
bench-smoke job) reuse :func:`repro.experiments.bench.compare_bench`
unchanged: ``fast_instrs_per_sec`` is warm requests/second for the
cell, ``slow_instrs_per_sec`` the cold request's 1/wall — the ratio
is the serve tier's whole point, warm submits must beat cold ones.

Acceptance (ISSUE 6): the warm p50 must be below one cold request's
wall time; the payload's ``acceptance`` section records the check.
"""

from __future__ import annotations

import json
import platform
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.registry import MetricsRegistry
from repro.serve.client import DaemonDraining, JobRejected, ServeClient
from repro.serve.daemon import LATENCY_BUCKETS, EmbeddedDaemon, ServeConfig
from repro.serve.pool import SOURCE_MEMO
from repro.serve.protocol import DONE, JobRequest
from repro.workloads import get_workload

#: Default request matrix: the fig10 bar sample on the two quickest
#: workloads (overridable from the CLI).
DEFAULT_WORKLOADS = ("go", "gzip_comp")
DEFAULT_BARS = ("U", "C")

_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "ms": 0.001}


def parse_duration(text: str) -> float:
    """``"10s"``/``"2m"``/``"500ms"``/bare seconds -> seconds."""
    text = text.strip().lower()
    for suffix in ("ms", "s", "m", "h"):
        if text.endswith(suffix):
            try:
                return float(text[: -len(suffix)]) * _UNITS[suffix]
            except ValueError:
                break
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"cannot parse duration {text!r}") from None


@dataclass
class LoadgenConfig:
    """Everything one ``repro loadgen`` run needs."""

    workloads: Sequence[str] = DEFAULT_WORKLOADS
    bars: Sequence[str] = DEFAULT_BARS
    threshold: float = 0.05
    duration_s: float = 10.0
    concurrency: int = 4
    #: target total requests/second; 0 means open throttle.
    rate: float = 0.0
    #: external daemon URL; empty boots an embedded daemon.
    url: str = ""
    #: embedded-daemon knobs (ignored with --url).
    workers: int = 2
    queue_size: int = 256
    cache_enabled: bool = True
    cache_root: Optional[str] = None


@dataclass
class _WarmStats:
    """Shared warm-phase tally (lock-protected)."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    completed: int = 0
    rejected: int = 0
    errors: int = 0
    failures: List[str] = field(default_factory=list)
    sources: Dict[str, int] = field(default_factory=dict)
    #: (workload, bar, source) -> [latency seconds, ...] — keyed by
    #: provenance so first-touch ``computed`` samples (cold compiles in
    #: disguise) never blur into memo-hit warm percentiles.
    latencies: Dict[Tuple[str, str, str], List[float]] = field(
        default_factory=dict
    )

    def record(self, workload: str, bar: str, latency: float, source: str) -> None:
        with self.lock:
            self.completed += 1
            self.sources[source] = self.sources.get(source, 0) + 1
            self.latencies.setdefault(
                (workload, bar, source), []
            ).append(latency)


def _warm_worker(
    base_url: str,
    matrix: Sequence[JobRequest],
    deadline: float,
    interval: float,
    offset: int,
    stats: _WarmStats,
) -> None:
    """One warm-phase client thread (its own keep-alive connection)."""
    index = offset
    with ServeClient(base_url) as client:
        next_send = time.monotonic()
        while True:
            now = time.monotonic()
            if now >= deadline:
                return
            if interval > 0.0 and now < next_send:
                time.sleep(min(next_send - now, deadline - now))
                if time.monotonic() >= deadline:
                    return
            next_send += interval
            request = matrix[index % len(matrix)]
            index += 1
            started = time.perf_counter()
            try:
                status = client.run(request)
            except JobRejected:
                with stats.lock:
                    stats.rejected += 1
                time.sleep(0.01)
                continue
            except DaemonDraining:
                return
            except Exception as exc:
                with stats.lock:
                    stats.errors += 1
                    if len(stats.failures) < 10:
                        stats.failures.append(repr(exc))
                continue
            latency = time.perf_counter() - started
            if status["state"] == DONE:
                stats.record(
                    request.workload, request.bar, latency,
                    status.get("source", ""),
                )
            else:
                with stats.lock:
                    stats.errors += 1
                    if len(stats.failures) < 10:
                        stats.failures.append(
                            status.get("error", "job failed")[:500]
                        )


def _summary_of(latencies: Sequence[float]) -> Dict[str, float]:
    """p50/p95/p99/mean/count via the registry's fixed-bucket estimate.

    ``max`` is exact (taken from the raw samples, not the buckets) —
    the tail above p99 is precisely what bucket estimates blur.
    """
    registry = MetricsRegistry()
    histogram = registry.histogram("loadgen_seconds", buckets=LATENCY_BUCKETS)
    for value in latencies:
        histogram.observe(value)
    summary = histogram.summary()
    summary["mean"] = histogram.mean()
    summary["count"] = histogram.count
    summary["max"] = max(latencies) if latencies else 0.0
    return summary


def run_loadgen(config: LoadgenConfig) -> Dict:
    """Run both phases and return the ``BENCH_serve`` payload."""
    for name in config.workloads:
        get_workload(name)  # an unknown name fails before any daemon boots
    embedded: Optional[EmbeddedDaemon] = None
    if config.url:
        base_url = config.url
    else:
        embedded = EmbeddedDaemon(
            ServeConfig(
                port=0,
                workers=config.workers,
                queue_size=config.queue_size,
                cache_enabled=config.cache_enabled,
                cache_root=config.cache_root,
            )
        )
        base_url = embedded.start()
    try:
        return _run_against(base_url, config)
    finally:
        if embedded is not None:
            embedded.stop()


def _run_against(base_url: str, config: LoadgenConfig) -> Dict:
    matrix = [
        JobRequest(workload=workload, bar=bar, threshold=config.threshold)
        for workload in config.workloads
        for bar in config.bars
    ]

    # Cold phase: the first request per key pays the warm-up.
    cold: List[Dict] = []
    with ServeClient(base_url) as client:
        for workload in config.workloads:
            request = JobRequest(
                workload=workload, bar=config.bars[0],
                threshold=config.threshold,
            )
            started = time.perf_counter()
            status = client.run(request)
            wall = time.perf_counter() - started
            if status["state"] != DONE:
                raise RuntimeError(
                    f"cold request for {workload} failed: "
                    f"{status.get('error', '')[:500]}"
                )
            cold.append(
                {
                    "workload": workload,
                    "bar": request.bar,
                    "wall_s": wall,
                    "source": status.get("source", ""),
                }
            )

    # Warm phase: concurrent clients for the duration.
    stats = _WarmStats()
    deadline = time.monotonic() + config.duration_s
    interval = (
        config.concurrency / config.rate if config.rate > 0 else 0.0
    )
    warm_started = time.perf_counter()
    threads = [
        threading.Thread(
            target=_warm_worker,
            args=(base_url, matrix, deadline, interval, i, stats),
            name=f"loadgen-{i}",
            daemon=True,
        )
        for i in range(max(1, config.concurrency))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    warm_elapsed = time.perf_counter() - warm_started

    with ServeClient(base_url) as client:
        daemon_stats = client.stats()

    all_latencies = [
        value for values in stats.latencies.values() for value in values
    ]
    overall = _summary_of(all_latencies)

    by_source: Dict[str, List[float]] = {}
    cells: Dict[Tuple[str, str], Dict[str, List[float]]] = {}
    for (workload, bar, source), values in stats.latencies.items():
        by_source.setdefault(source, []).extend(values)
        cells.setdefault((workload, bar), {}).setdefault(
            source, []
        ).extend(values)
    latency_by_source = {
        source: _summary_of(values)
        for source, values in sorted(by_source.items())
    }
    per_cell = {}
    for (workload, bar), cell_sources in sorted(cells.items()):
        merged = [v for values in cell_sources.values() for v in values]
        summary = _summary_of(merged)
        summary["by_source"] = {
            source: _summary_of(values)
            for source, values in sorted(cell_sources.items())
        }
        per_cell[f"{workload}/{bar}"] = summary

    cold_by_workload = {entry["workload"]: entry["wall_s"] for entry in cold}
    speedups: List[Dict] = []
    for (workload, bar), cell_sources in sorted(cells.items()):
        values = [v for vals in cell_sources.values() for v in vals]
        warm_rps = len(values) / warm_elapsed if warm_elapsed > 0 else 0.0
        cold_wall = cold_by_workload.get(workload, 0.0)
        cold_rps = 1.0 / cold_wall if cold_wall > 0 else 0.0
        speedups.append(
            {
                "workload": workload,
                "scheme": f"serve-{bar}",
                "phase": "serve",
                "instructions": len(values),
                "fast_instrs_per_sec": warm_rps,
                "slow_instrs_per_sec": cold_rps,
                "speedup": warm_rps / cold_rps if cold_rps > 0 else 0.0,
            }
        )

    worst_cold = max((e["wall_s"] for e in cold), default=0.0)
    # Gate only on memo-hit samples: first-touch computed samples are
    # cold compiles that happened to land in the warm window, and a
    # daemon that never reaches memo-hit steady state should not pass
    # on the strength of those.  (No memo samples at all -> fall back
    # to every sample, honestly labelled, rather than passing
    # vacuously on an empty summary.)
    memo_samples = by_source.get(SOURCE_MEMO, [])
    gate = (
        latency_by_source[SOURCE_MEMO] if memo_samples else overall
    )
    acceptance = {
        "warm_p50_s": gate["p50"],
        "cold_wall_s": worst_cold,
        "gated_on": SOURCE_MEMO if memo_samples else "all",
        "gate_count": int(gate["count"]),
        "warm_p50_below_cold": (
            gate["count"] > 0 and gate["p50"] < worst_cold
        ),
    }
    return {
        "benchmark": "serve-loadgen",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "duration_s": config.duration_s,
        "concurrency": config.concurrency,
        "rate": config.rate,
        "workers": config.workers if not config.url else None,
        "workloads": list(config.workloads),
        "bars": list(config.bars),
        "threshold": config.threshold,
        "cold": cold,
        "warm": {
            "elapsed_s": warm_elapsed,
            "completed": stats.completed,
            "rejected": stats.rejected,
            "errors": stats.errors,
            "failures": stats.failures,
            "throughput_rps": (
                stats.completed / warm_elapsed if warm_elapsed > 0 else 0.0
            ),
            "sources": dict(stats.sources),
        },
        "latency": overall,
        "latency_by_source": latency_by_source,
        "latency_by_cell": per_cell,
        "speedups": speedups,
        "acceptance": acceptance,
        "daemon": {
            "queue": daemon_stats.get("queue", {}),
            "artifacts": daemon_stats.get("artifacts", {}),
        },
    }


def format_loadgen(payload: Dict) -> str:
    """Human-readable report for the CLI."""
    warm = payload["warm"]
    latency = payload["latency"]
    lines = [
        f"loadgen: {warm['completed']} warm request(s) in "
        f"{warm['elapsed_s']:.1f}s "
        f"({warm['throughput_rps']:.1f} req/s, "
        f"{warm['rejected']} rejected, {warm['errors']} error(s))",
        f"latency: p50={latency['p50'] * 1000:.1f}ms "
        f"p95={latency['p95'] * 1000:.1f}ms "
        f"p99={latency['p99'] * 1000:.1f}ms "
        f"max={latency.get('max', 0.0) * 1000:.1f}ms "
        f"mean={latency['mean'] * 1000:.1f}ms",
    ]
    for entry in payload["cold"]:
        lines.append(
            f"cold {entry['workload']}/{entry['bar']}: "
            f"{entry['wall_s'] * 1000:.0f}ms ({entry['source']})"
        )
    if warm["sources"]:
        sources = ", ".join(
            f"{name}={count}" for name, count in sorted(warm["sources"].items())
        )
        lines.append(f"sources: {sources}")
    acceptance = payload["acceptance"]
    verdict = "ok" if acceptance["warm_p50_below_cold"] else "FAILED"
    gated = acceptance.get("gated_on", "all")
    lines.append(
        f"acceptance: warm p50 {acceptance['warm_p50_s'] * 1000:.1f}ms "
        f"({gated} samples) vs "
        f"cold {acceptance['cold_wall_s'] * 1000:.0f}ms -> {verdict}"
    )
    return "\n".join(lines)


def write_loadgen(payload: Dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
