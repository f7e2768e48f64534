"""Sweep execution: fan grid points through the experiment scheduler.

Every pending point becomes a ``bar``-kind :class:`JobSpec` whose
overrides carry the point's config coordinates, and the whole grid is
executed by **one** :func:`repro.experiments.runner.execute_plan` call
— the same job DAG / process fan-out / result-cache machinery the
report generator uses.  With ``jobs > 1`` each workload's simulations
run as one group on their own worker (a workload is never split, so
each compiled artifact is loaded exactly once), warm points are cache
hits, and the compiled-artifact store keeps the per-workload compile
amortized.  A SEQ baseline job rides along per distinct *machine*
coordinate so every point's metrics include the paper's normalized
region time and region speedup (the sequential baseline deliberately
ignores scheme axes like ``predictor`` — the same machine runs one
sequential program regardless of the speculation scheme, so the
baseline is shared rather than recomputed per scheme).

Progress is resumable: ``<out_dir>/sweep_state.json`` records one
entry per completed point, keyed by the point's content id and guarded
by the grid's content key.  Re-running the same grid skips completed
points entirely (zero recomputation — not even a cache probe).  The
state file is written once, after the fan-out: a run killed mid-flight
loses the state of that fan-out, but every workload whose group had
finished is already in the persistent result cache and resumes warm.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments.runner import bundle_for, execute_plan
from repro.experiments.scheduler import JobSpec
from repro.obs import log as log_mod
from repro.sweep.grid import SweepGrid, SweepPoint
from repro.tlssim.config import MACHINE_FIELDS, SimConfig
from repro.tlssim.stats import normalized_region_time

#: Bump to invalidate stale sweep state files on a schema change.
SWEEP_SCHEMA_VERSION = 1

#: The resumable progress file, under the sweep output directory.
STATE_FILENAME = "sweep_state.json"

#: Metrics captured per point (keys of each record's ``metrics``).
POINT_METRICS = (
    "program_cycles",
    "region_cycles",
    "region_time",
    "speedup",
    "epochs_committed",
    "epochs_squashed",
    "violations",
)


@dataclass
class SweepOutcome:
    """What one ``run_sweep`` call did."""

    grid: SweepGrid
    records: List[Dict]
    computed: int
    resumed: int
    total: int
    complete: bool
    state_path: Path
    wall_s: float


def _seq_overrides(point: SweepPoint) -> Tuple[Tuple[str, object], ...]:
    """The machine slice of a point's overrides (the SEQ baseline key)."""
    return tuple(
        (name, value)
        for name, value in point.overrides
        if name in MACHINE_FIELDS
    )


def _base_config(
    overrides: Tuple[Tuple[str, object], ...]
) -> Optional[SimConfig]:
    return SimConfig(**dict(overrides)) if overrides else None


def _point_record(point: SweepPoint, result, sequential) -> Dict:
    region_time, segments = normalized_region_time(result, sequential)
    metrics = {
        "program_cycles": result.program_cycles,
        "region_cycles": result.region_cycles(),
        "region_time": region_time,
        "speedup": (100.0 / region_time) if region_time > 0 else 0.0,
        "epochs_committed": sum(
            r.epochs_committed for r in result.regions
        ),
        "epochs_squashed": sum(r.epochs_squashed for r in result.regions),
        "violations": sum(len(r.violations) for r in result.regions),
    }
    return {
        "point_id": point.point_id,
        "workload": point.workload,
        "bar": point.bar,
        "threshold": point.threshold,
        "overrides": dict(point.overrides),
        "metrics": metrics,
        "segments": segments,
    }


def _load_state(state_path: Path, grid: SweepGrid) -> Dict[str, Dict]:
    """Completed point records from a matching state file, else empty."""
    try:
        with open(state_path) as handle:
            state = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return {}
    if not isinstance(state, dict):
        return {}
    if state.get("schema") != SWEEP_SCHEMA_VERSION:
        return {}
    if state.get("grid_key") != grid.grid_key():
        return {}
    points = state.get("points")
    return dict(points) if isinstance(points, dict) else {}


def _write_state(
    state_path: Path, grid: SweepGrid, done: Dict[str, Dict]
) -> None:
    """Atomically persist progress (crash-safe partial state)."""
    state = {
        "schema": SWEEP_SCHEMA_VERSION,
        "grid_key": grid.grid_key(),
        "grid": grid.to_state(),
        "points": done,
    }
    state_path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=state_path.parent, prefix=".tmp-", suffix=".json"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(state, handle, sort_keys=True, indent=1)
        os.replace(tmp, state_path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def run_sweep(
    grid: SweepGrid,
    out_dir: str = "sweep_out",
    jobs: int = 1,
    fresh: bool = False,
    max_points: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
) -> SweepOutcome:
    """Execute (or resume) a sweep; returns records in grid order.

    ``fresh`` ignores an existing state file; ``max_points`` stops
    after that many *new* points (the CI resume check uses it to build
    a deterministic partial state), leaving ``complete`` False.
    """
    started = time.perf_counter()
    emit = log or (lambda _line: None)
    logger = log_mod.get_logger("sweep")
    out = Path(out_dir)
    state_path = out / STATE_FILENAME
    points = grid.expand()
    done: Dict[str, Dict] = {} if fresh else _load_state(state_path, grid)
    valid_ids = {point.point_id for point in points}
    done = {pid: rec for pid, rec in done.items() if pid in valid_ids}
    resumed = len(done)
    todo = [point for point in points if point.point_id not in done]
    truncated = False
    if max_points is not None and len(todo) > max_points:
        todo = todo[:max_points]
        truncated = True
    emit(
        f"sweep: {len(points)} point(s) — {resumed} resumed, "
        f"{len(todo)} to run"
    )

    # one plan for the whole grid: execute_plan groups it per workload
    # and fans the groups out (its graph drops repeated SEQ baselines);
    # every point below then reads seeded memos.
    execute_plan(
        [
            JobSpec(
                workload=point.workload, kind="bar", label=label,
                threshold=point.threshold, overrides=overrides,
            )
            for point in todo
            for label, overrides in (
                (point.bar, point.overrides),
                ("SEQ", _seq_overrides(point)),
            )
        ],
        jobs=jobs,
    )

    computed = len(todo)
    for index, point in enumerate(todo, resumed + 1):
        point_started = time.perf_counter()
        bundle = bundle_for(point.workload, point.threshold)
        result = bundle.simulate(point.bar, _base_config(point.overrides))
        sequential = bundle.simulate(
            "SEQ", _base_config(_seq_overrides(point))
        )
        point_wall = time.perf_counter() - point_started
        record = _point_record(point, result, sequential)
        record["wall_s"] = point_wall
        done[point.point_id] = record
        metric = record["metrics"]
        emit(
            f"  [{index}/{len(points)}] {point.label()}"
            f" -> region_time {metric['region_time']:.1f}"
            f" speedup {metric['speedup']:.2f}x"
            f" ({point_wall:.2f}s)"
        )
        logger.debug(
            "sweep_point",
            point=point.label(),
            point_id=point.point_id,
            workload=point.workload,
            bar=point.bar,
            region_time=round(metric["region_time"], 3),
            speedup=round(metric["speedup"], 3),
            wall_s=round(point_wall, 6),
        )
    _write_state(state_path, grid, done)

    records = [
        done[point.point_id] for point in points if point.point_id in done
    ]
    complete = len(records) == len(points)
    if truncated:
        emit(
            f"sweep: stopped after {computed} point(s) (--max-points); "
            f"{len(points) - len(done)} remaining — rerun to resume"
        )
    logger.info(
        "sweep_complete",
        computed=computed,
        resumed=resumed,
        total=len(points),
        complete=complete,
        wall_s=round(time.perf_counter() - started, 6),
        state_path=str(state_path),
    )
    return SweepOutcome(
        grid=grid,
        records=records,
        computed=computed,
        resumed=resumed,
        total=len(points),
        complete=complete,
        state_path=state_path,
        wall_s=time.perf_counter() - started,
    )
