"""Seeded inputs: the sweep grid and the serve request stream.

Everything a workload feeds the program is generated here from the
``--seed`` argument; the program only ever sees the generated grid and
requests.  The same seed always gives the same inputs.

The seed varies *values*, not the amount of work.  Runs made with
different seeds are compared with each other, so a seed that swapped a cheap
workload for an expensive one would show up as run-to-run spread:
choosing the sweep's workloads and bars by seed moved the sweep's wall
time by 20-30% between seeds, so they are fixed below, as are the core
counts; the seed picks the interior forward latencies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

#: sweep-warm: the programs are fixed (see module docstring)
SWEEP_WORKLOADS = ("go", "mcf")
SWEEP_BARS = ("U", "C")

#: core counts, fixed: simulation cost grows with the core count by
#: about half from 2 to 8 cores, so a seeded core count moved the
#: sweep's wall time by about 10% from seed to seed
CORES = (2, 4, 6, 8)

#: forward latencies: the ends and the paper's 10 cycles, plus one per
#: interior stratum.  The largest results (shortest latency, most
#: cores) set the tail of the cache reads, so the ends stay fixed and
#: the seed moves only interior values.
FIXED_LATENCIES = (2.0, 10.0, 35.0)
LATENCY_STRATA = (
    (4.0, 5.0, 6.0, 7.0, 8.0), (12.0, 14.0, 16.0, 18.0), (20.0, 22.0, 25.0, 28.0, 30.0),
)


@dataclass(frozen=True)
class SweepInput:
    """The generated grid, as ``repro.sweep.build_grid`` arguments."""

    workloads: Tuple[str, ...]
    bars: Tuple[str, ...]
    axes: Tuple[Tuple[str, Tuple[object, ...]], ...]

    def points(self) -> int:
        count = len(self.workloads) * len(self.bars)
        for _name, values in self.axes:
            count *= len(values)
        return count


def sweep_input(seed: int) -> SweepInput:
    """96 sweep points: 2 workloads x 2 bars x 4 core counts x 6 latencies.

    The paper's machine (4 cores, forward latency 10) is always on both
    axes, so every (workload, bar) has one point equal to the report's
    own bar.
    """
    rng = random.Random(f"sweep-warm:{seed}")
    latencies = tuple(sorted(FIXED_LATENCIES + tuple(rng.choice(s) for s in LATENCY_STRATA)))
    return SweepInput(
        workloads=SWEEP_WORKLOADS,
        bars=SWEEP_BARS,
        axes=(("num_cores", CORES), ("forward_latency", latencies)),
    )


#: serve-mixed: the hot set, warmed during set-up
HOT_SET = (("go", "U"), ("go", "C"), ("mcf", "U"), ("mcf", "C"))

#: share of requests drawn from the hot set (memo hits)
HOT_SHARE = 0.7

#: machine overrides a fresh request draws from (``num_cores`` strata
#: alternate so every stretch of the stream mixes small and large chips)
FRESH_CORES = ((2, 3, 4), (5, 6, 7, 8))
FRESH_LATENCY = tuple(range(1, 41))
FRESH_SPAWN = tuple(range(1, 21))


#: ``ServeClient.wait``'s default poll interval
POLL_S = 0.01


@dataclass(frozen=True)
class ServeRequest:
    """One request of the stream: a hot-set hit or a fresh simulation."""

    workload: str
    bar: str
    #: sorted machine overrides; empty for hot-set requests
    machine: Tuple[Tuple[str, object], ...] = ()
    #: seconds the client waits after submitting before its first poll.
    #: ``ServeClient.wait`` polls at once and then every 10 ms, so with
    #: polls aligned to submissions every latency lands on a 10 ms step
    #: and a median jumps a whole step when the machine is a few percent
    #: slower.  A uniform phase models clients whose poll timers are not
    #: aligned with their submissions, and keeps the distribution smooth.
    poll_phase: float = 0.0

    @property
    def fresh(self) -> bool:
        return bool(self.machine)


def serve_stream(seed: int, length: int) -> List[ServeRequest]:
    """``length`` requests; fresh ones have machine overrides never repeated."""
    rng = random.Random(f"serve-mixed:{seed}")
    # the paper's machine is the hot set's own configuration
    paper = (("forward_latency", 10.0), ("num_cores", 4), ("spawn_cost", 5.0))
    seen = {(workload, bar, paper) for workload, bar in HOT_SET}
    stream: List[ServeRequest] = []
    fresh_count = 0
    while len(stream) < length:
        workload, bar = rng.choice(HOT_SET)
        phase = rng.uniform(0.0, POLL_S)
        if rng.random() < HOT_SHARE:
            stream.append(ServeRequest(workload, bar, poll_phase=phase))
            continue
        while True:
            machine = (
                ("forward_latency", float(rng.choice(FRESH_LATENCY))),
                ("num_cores", rng.choice(FRESH_CORES[fresh_count % 2])),
                ("spawn_cost", float(rng.choice(FRESH_SPAWN))),
            )
            if (workload, bar, machine) not in seen:
                break
        seen.add((workload, bar, machine))
        fresh_count += 1
        stream.append(ServeRequest(workload, bar, machine, phase))
    return stream
