"""Figure 6 — at what dependence frequency is synchronization worthwhile?

The paper's limit study: "we identified load instructions that cause
inter-epoch data dependences in more than 5%, 15% and 25% of all
epochs.  Then, we measure the impact of perfect prediction for each set
of loads."  We replay the sequentially-observed values for each load
set (oracle 'set' mode) on the baseline TLS binary.

Expected shape: perfect prediction of the >25% loads removes a lot of
failed speculation, but GZIP_COMP and BZIP2_COMP "do not speed up with
respect to sequential execution until we additionally predict loads
with less-frequently occurring dependences" — only the 5% set improves
every benchmark, "suggesting a reasonably low threshold value of 5%."
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.reporting import bar_row
from repro.experiments.runner import bundle_for
from repro.tlssim.config import SimConfig
from repro.tlssim.stats import normalized_region_time
from repro.workloads.base import all_workloads

THRESHOLDS = (0.25, 0.15, 0.05)


def run(workloads: Optional[Sequence[str]] = None) -> List[Dict]:
    """Rows: U plus one bar per prediction threshold per workload."""
    names = list(workloads) if workloads else [w.name for w in all_workloads()]
    rows: List[Dict] = []
    for name in names:
        bundle = bundle_for(name)
        sequential = bundle.simulate("SEQ")
        time, segments = bundle.normalized_region("U")
        rows.append(bar_row(name, "U", time, segments))
        for threshold in THRESHOLDS:
            label = f">{int(threshold * 100)}%"
            load_set = bundle.profile_load_set(threshold)
            config = SimConfig().with_mode(oracle_mode="set", oracle_set=load_set)
            result = bundle.simulate_custom("baseline", config, label=label)
            time, segments = normalized_region_time(result, sequential)
            rows.append(bar_row(name, label, time, segments))
    return rows


def improves_all(rows: List[Dict], bar: str) -> bool:
    """True when every workload's ``bar`` beats sequential (time < 100)."""
    times = [r["time"] for r in rows if r["bar"] == bar]
    return bool(times) and all(t < 100.0 for t in times)
