"""Run metrics for the experiment harness.

Every simulation job — whether served from the persistent cache, the
in-process memo, or computed fresh (serially or in a worker process) —
is recorded here with its wall time and provenance.  The collected
:class:`RunMetrics` powers two outputs:

* a human-readable summary table appended (on stderr) to ``repro
  report`` runs, and
* a machine-readable ``run_metrics.json`` consumed by CI, which
  asserts e.g. that a warm-cache run is 100% cache hits.

``speedup_vs_serial`` compares the observed wall time of the run
against the sum of individual job times — the time a one-core serial
sweep would have needed for the same work.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Where a job's result came from.
SOURCE_COMPUTED = "computed"   # simulated in this run (see JobMetric.worker)
SOURCE_CACHE = "cache"         # served from the persistent disk cache
SOURCE_MEMO = "memo"           # served from the in-process memo


@dataclass
class JobMetric:
    """One simulation (or compile) job."""

    workload: str
    label: str               # bar label or experiment-specific tag
    kind: str                # 'bar' | 'custom' | 'profile' | 'compile' | 'oracle'
    source: str              # SOURCE_* above
    wall_s: float
    worker: int = 0          # pid of the process that did the work
    #: flat simulator counters carried by the job's SimResult (see
    #: repro.obs.registry.engine_counters); empty for compile/profile
    #: jobs and for results cached before counters existed.
    counters: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "workload": self.workload,
            "label": self.label,
            "kind": self.kind,
            "source": self.source,
            "wall_s": self.wall_s,
            "worker": self.worker,
            "counters": dict(self.counters),
        }


@dataclass
class RunMetrics:
    """Aggregate metrics for one harness invocation."""

    workers: int = 1
    jobs: List[JobMetric] = field(default_factory=list)
    wall_s: float = 0.0          # observed wall time of the whole run
    _started: float = field(default=0.0, repr=False)

    # -- collection ------------------------------------------------------
    def start(self) -> None:
        self._started = time.perf_counter()

    def stop(self) -> None:
        self.wall_s = time.perf_counter() - self._started

    def record(
        self,
        workload: str,
        label: str,
        kind: str,
        source: str,
        wall_s: float,
        worker: int = 0,
        counters: Optional[Dict[str, float]] = None,
    ) -> None:
        self.jobs.append(
            JobMetric(
                workload, label, kind, source, wall_s,
                worker or os.getpid(), dict(counters or {}),
            )
        )

    # -- aggregation -----------------------------------------------------
    @property
    def cache_hits(self) -> int:
        return sum(1 for j in self.jobs if j.source in (SOURCE_CACHE, SOURCE_MEMO))

    @property
    def cache_misses(self) -> int:
        return sum(1 for j in self.jobs if j.source == SOURCE_COMPUTED)

    @property
    def hit_rate(self) -> float:
        total = len(self.jobs)
        return self.cache_hits / total if total else 0.0

    def serial_estimate_s(self) -> float:
        """Wall time a one-worker run would have needed: sum of jobs."""
        return sum(j.wall_s for j in self.jobs)

    def speedup_vs_serial(self) -> float:
        estimate = self.serial_estimate_s()
        if self.wall_s <= 0 or estimate <= 0:
            return 1.0
        return estimate / self.wall_s

    def worker_utilization(self) -> float:
        """Fraction of worker-seconds spent inside jobs."""
        if self.wall_s <= 0 or self.workers < 1:
            return 0.0
        return min(1.0, self.serial_estimate_s() / (self.wall_s * self.workers))

    def distinct_workers(self) -> int:
        return len({j.worker for j in self.jobs}) if self.jobs else 0

    def sim_counters(self) -> Dict[str, float]:
        """Simulator counters summed across every recorded job.

        Cache hit/miss totals, violations by reason, epoch commit and
        squash counts, slot-attribution gauges — the sum of each job's
        ``SimResult.counters`` snapshot.  Percentile gauges
        (``*_p50``/``*_p95``/``*_p99``) are not summable across jobs
        and aggregate by max (the worst job) instead.  Jobs without
        counters (compiles, profiles, stale cache entries) contribute
        nothing.
        """
        totals: Dict[str, float] = {}
        for job in self.jobs:
            for name, value in job.counters.items():
                if name.endswith(("_p50", "_p95", "_p99")):
                    totals[name] = max(totals.get(name, 0.0), value)
                else:
                    totals[name] = totals.get(name, 0.0) + value
        return dict(sorted(totals.items()))

    # -- output ----------------------------------------------------------
    def to_dict(self) -> Dict:
        # Imported lazily: artifacts depends on the compiler pipeline,
        # which this module must not pull in at import time.
        from repro.experiments import artifacts as artifacts_mod

        return {
            "schema": 1,
            "workers": self.workers,
            "jobs": len(self.jobs),
            "wall_s": self.wall_s,
            "serial_estimate_s": self.serial_estimate_s(),
            "speedup_vs_serial": self.speedup_vs_serial(),
            "worker_utilization": self.worker_utilization(),
            "distinct_workers": self.distinct_workers(),
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": self.hit_rate,
            },
            "artifacts": artifacts_mod.counters(),
            "sim": self.sim_counters(),
            "per_job": [j.to_dict() for j in self.jobs],
        }

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")

    def format_summary(self) -> str:
        """Aligned text summary (appended to ``repro report`` output)."""
        from repro.experiments.reporting import format_table

        rows = [
            {"metric": "jobs", "value": str(len(self.jobs))},
            {"metric": "workers", "value": str(self.workers)},
            {"metric": "wall time (s)", "value": f"{self.wall_s:.3f}"},
            {
                "metric": "serial estimate (s)",
                "value": f"{self.serial_estimate_s():.3f}",
            },
            {
                "metric": "speedup vs serial",
                "value": f"{self.speedup_vs_serial():.2f}x",
            },
            {
                "metric": "worker utilization",
                "value": f"{100.0 * self.worker_utilization():.0f}%",
            },
            {"metric": "cache hits", "value": str(self.cache_hits)},
            {"metric": "cache misses", "value": str(self.cache_misses)},
            {
                "metric": "cache hit rate",
                "value": f"{100.0 * self.hit_rate:.0f}%",
            },
        ]
        from repro.experiments import artifacts as artifacts_mod

        stats = artifacts_mod.counters()
        if any(stats.values()):
            rows.append(
                {
                    "metric": "artifact loads",
                    "value": f"{stats['hits']} hit(s), {stats['misses']} miss(es)",
                }
            )
            if stats["corrupt"] or stats["version_mismatch"]:
                rows.append(
                    {
                        "metric": "artifact fallbacks",
                        "value": (
                            f"{stats['corrupt']} corrupt, "
                            f"{stats['version_mismatch']} version mismatch"
                        ),
                    }
                )
        sim = self.sim_counters()
        if sim:
            def total(prefix: str) -> float:
                return sum(
                    v for k, v in sim.items()
                    if k == prefix or k.startswith(prefix + "{")
                )

            rows.extend(
                [
                    {
                        "metric": "sim cache hits",
                        "value": f"{total('cache_hits'):.0f}",
                    },
                    {
                        "metric": "sim cache misses",
                        "value": f"{total('cache_misses'):.0f}",
                    },
                    {
                        "metric": "sim violations",
                        "value": f"{total('violations'):.0f}",
                    },
                    {
                        "metric": "sim epochs committed",
                        "value": f"{total('epochs_committed'):.0f}",
                    },
                    {
                        "metric": "sim epochs squashed",
                        "value": f"{total('epochs_squashed'):.0f}",
                    },
                ]
            )
        return format_table(rows, ("metric", "value"), title="run metrics")


# ---------------------------------------------------------------------------
# process-wide collector
# ---------------------------------------------------------------------------

_current = RunMetrics()


def current() -> RunMetrics:
    """The collector jobs record into (always present)."""
    return _current


def reset(workers: int = 1) -> RunMetrics:
    """Start a fresh collection (returns the new collector)."""
    global _current
    _current = RunMetrics(workers=workers)
    _current.start()
    return _current
