"""Soak the serve daemon: repeated warm submits must not leak.

A long-lived daemon's failure mode is slow growth — job records that
are never evicted, per-request metrics that accumulate, worker memos
that balloon.  This tier hammers one embedded daemon with warm submits
(the steady-state workload of a deployment) and gates on:

* zero failed jobs over the whole soak,
* results staying byte-identical from first to last iteration,
* tracemalloc growth ratio below a small bound once warm,
* the job-record retention cap actually bounding the daemon's map
  and its result memo.

Iteration count scales with ``REPRO_SOAK_ITERS`` (default 300 — about
a minute; the nightly workflow raises it).
"""

import os
import time

import pytest

from repro.serve.client import ServeClient
from repro.serve.daemon import EmbeddedDaemon, ServeConfig
from repro.serve.protocol import DONE, JobRequest

SOAK_ITERS = int(os.environ.get("REPRO_SOAK_ITERS", "300"))

#: Allowed tracemalloc growth once warm.  The daemon retains a bounded
#: window of job records, so steady state should be nearly flat; 1.5x
#: leaves room for allocator noise while catching real leaks (an
#: unbounded jobs map grows past 2x within a few hundred iterations).
MAX_GROWTH_RATIO = 1.5


@pytest.mark.stability
def test_soak_warm_submits_do_not_leak(tmp_path, memory_tracker):
    config = ServeConfig(
        port=0,
        workers=0,
        retain_jobs=64,
        cache_root=str(tmp_path / "soak-cache"),
    )
    embedded = EmbeddedDaemon(config)
    base_url = embedded.start()
    requests = [
        JobRequest(workload="go", bar="U"),
        JobRequest(workload="go", bar="C"),
    ]
    try:
        with ServeClient(base_url) as client:
            # Warm-up: pay the compiles AND fill the job-record
            # retention window, then baseline the tracker — the first
            # ``retain_jobs`` records are legitimate bounded growth;
            # the gate measures steady state beyond it.
            reference = {}
            for request in requests:
                status = client.run(request)
                assert status["state"] == DONE, status.get("error")
                reference[request.bar] = client.result_bytes(status["job"])
            warmup = config.retain_jobs + 16
            for i in range(warmup):
                status = client.run(requests[i % len(requests)])
                assert status["state"] == DONE, status.get("error")
            memory_tracker.snapshot(time.monotonic())

            last = {}
            for i in range(SOAK_ITERS):
                request = requests[i % len(requests)]
                status = client.run(request)
                assert status["state"] == DONE, status.get("error")
                assert status["source"] == "memo"
                last[request.bar] = client.result_bytes(status["job"])
                if i % 50 == 49:
                    memory_tracker.snapshot(time.monotonic())

            memory_tracker.snapshot(time.monotonic())
            # Determinism held from first to last warm submit.
            assert last == {bar: reference[bar] for bar in last}

            stats = client.stats()
            assert stats["jobs"]["completed"] == (
                SOAK_ITERS + warmup + len(requests)
            )
            # Retention cap bounds the daemon's job map and its memo.
            assert stats["jobs"]["retained"] <= config.retain_jobs + 1
            assert stats["jobs"]["memoized"] <= config.retain_jobs
            assert stats["queue"]["rejected"] == 0

        growth = memory_tracker.get_growth_ratio()
        assert growth < MAX_GROWTH_RATIO, (
            f"daemon memory grew {growth:.2f}x over {SOAK_ITERS} warm "
            f"submits (bound {MAX_GROWTH_RATIO}x)"
        )
    finally:
        embedded.stop()
