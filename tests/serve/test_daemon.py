"""End-to-end daemon tests over real HTTP.

The load-bearing contract: any (workload, bar, threshold) served by
the daemon is **byte-identical** to the batch runner's output — both
the canonical ``SimResult`` payload and the typed JSONL event stream.
Plus the service semantics: lifecycle, single-flight warm-up,
admission control (429), drain (503), the admission-time result memo,
long-poll status, and per-job artifact-counter flush through a real
process pool.
"""

import statistics
import threading
import time

import pytest

from repro.experiments import cache as cache_mod
from repro.experiments import trace as trace_mod
from repro.experiments.runner import bundle_for
from repro.serve import pool as pool_mod
from repro.serve.client import (
    DaemonDraining,
    JobRejected,
    ServeClient,
    ServeError,
)
from repro.serve.protocol import (
    DONE,
    QUEUED,
    RUNNING,
    JobRequest,
    canonical_event_lines,
    canonical_events_bytes,
    canonical_result_bytes,
)

#: a memo hit's artifact and codegen deltas: nothing was loaded or built
ZERO_ARTIFACTS = {"corrupt": 0, "hits": 0, "misses": 0, "version_mismatch": 0}
ZERO_CODEGEN = {"compiles": 0, "memo_hits": 0}

#: The figure-10 bar sample the serve-smoke CI job pins.
FIG10_BARS = ("U", "P", "H", "C", "B")


def _batch_result_bytes(workload: str, bar: str, threshold: float) -> bytes:
    """The batch runner's canonical payload, computed in-process."""
    cache_mod.configure(False)
    bundle = bundle_for(workload, threshold=threshold)
    return canonical_result_bytes(bundle.simulate(bar).to_state())


def test_results_byte_identical_to_batch_runner(daemon_url):
    with ServeClient(daemon_url) as client:
        for bar in FIG10_BARS:
            status = client.run(JobRequest(workload="go", bar=bar))
            assert status["state"] == DONE, status.get("error")
            served = client.result_bytes(status["job"])
            assert served == _batch_result_bytes("go", bar, 0.05), bar


def test_event_stream_byte_identical_to_batch_trace(daemon_url):
    with ServeClient(daemon_url) as client:
        status = client.run(JobRequest(workload="go", bar="C", events=True))
        assert status["state"] == DONE, status.get("error")
        assert status["source"] == "traced"
        served = client.events_bytes(status["job"])
    run = trace_mod.run_traced("go", bar="C", threshold=0.05)
    expected = canonical_events_bytes(
        canonical_event_lines(
            run.events,
            meta={
                "workload": "go",
                "bar": "C",
                "num_cores": run.num_cores,
                "issue_width": run.issue_width,
            },
        )
    )
    assert served == expected


def test_status_lifecycle_and_artifact_counters(daemon_url):
    with ServeClient(daemon_url) as client:
        first = client.run(JobRequest(workload="go", bar="C"))
        assert first["state"] == DONE
        assert first["source"] == "computed"
        assert first["wall_s"] > 0
        # The cold job's pipeline records the compile it triggered,
        # and its artifact delta shows the store miss.
        assert any(j["kind"] == "compile" for j in first["pipeline"])
        assert first["artifacts"]["misses"] == 1

        second = client.run(JobRequest(workload="go", bar="C"))
        assert second["source"] == "memo"  # daemon memo: no recompute
        assert second["artifacts"] == ZERO_ARTIFACTS

        stats = client.stats()
        assert stats["jobs"]["completed"] == 2
        assert stats["jobs"]["states"] == {"done": 2}
        assert stats["latency"]["C"]["count"] == 2
        assert stats["queue"]["rejected"] == 0


def test_warm_worker_serves_vector_jobs_without_recompiling(daemon_url):
    """Second vector job on a warm worker: zero kernel compiles.

    U and H share the baseline module and the default cost signature,
    so the second request simulates for real (``computed``, distinct
    memo key) but every region kernel must come from the worker's
    in-process codegen memo — ``codegen.compiles == 0``.
    """
    with ServeClient(daemon_url) as client:
        first = client.run(
            JobRequest(workload="go", bar="U", backend="vector")
        )
        assert first["state"] == DONE, first.get("error")
        assert first["source"] == "computed"
        assert "compiles" in first["codegen"]

        second = client.run(
            JobRequest(workload="go", bar="H", backend="vector")
        )
        assert second["state"] == DONE, second.get("error")
        assert second["source"] == "computed"
        assert second["codegen"]["compiles"] == 0


def test_concurrent_cold_submits_compile_once(daemon_url):
    """Six racing submits for one cold key -> exactly one compute."""
    statuses = []
    lock = threading.Lock()

    def submit():
        with ServeClient(daemon_url) as client:
            status = client.run(JobRequest(workload="gzip_comp", bar="U"))
            with lock:
                statuses.append(status)

    threads = [threading.Thread(target=submit) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120.0)
    assert len(statuses) == 6
    assert all(s["state"] == DONE for s in statuses)
    sources = sorted(s["source"] for s in statuses)
    assert sources == ["computed"] + ["memo"] * 5
    # All six agree byte-for-byte, of course.
    with ServeClient(daemon_url) as client:
        payloads = {client.result_bytes(s["job"]) for s in statuses}
    assert len(payloads) == 1


def test_queue_full_maps_to_429(make_daemon):
    _embedded, base_url = make_daemon(queue_size=0)
    with ServeClient(base_url) as client:
        with pytest.raises(JobRejected) as excinfo:
            client.submit(JobRequest(workload="go"))
        assert excinfo.value.status == 429


def test_drain_finishes_inflight_then_refuses_submits(make_daemon):
    embedded, base_url = make_daemon()
    with ServeClient(base_url) as client:
        status = client.run(JobRequest(workload="go", bar="U"))
        assert status["state"] == DONE
        drained = client.drain()
        assert drained["drained"] is True
        assert drained["jobs_completed"] == 1
    embedded._thread.join(10.0)
    assert not embedded._thread.is_alive()  # daemon exited cleanly
    # A drained daemon accepts nothing (connection refused counts too).
    with pytest.raises((DaemonDraining, ServeError, OSError)):
        with ServeClient(base_url, timeout=2.0) as client:
            client.submit(JobRequest(workload="go"))


def test_http_errors(daemon_url):
    with ServeClient(daemon_url) as client:
        # 400: invalid payload.
        status, payload = client._json(
            "POST", "/v1/jobs", {"workload": "no-such-workload"}
        )
        assert status == 400 and "error" in payload
        # 404: unknown job / unknown route.
        assert client._json("GET", "/v1/jobs/j999")[0] == 404
        assert client._json("GET", "/v1/nope")[0] == 404
        # 405: wrong method on a job route.
        assert client._json("POST", "/v1/jobs/j999/result")[0] == 405
        # 404 events for a job submitted without events=true.
        done = client.run(JobRequest(workload="go", bar="U"))
        status, payload = client._json(
            "GET", f"/v1/jobs/{done['job']}/events"
        )
        assert status == 404


def test_process_pool_serves_and_flushes_counters(make_daemon):
    """A real worker process: results match and counters flow back."""
    _embedded, base_url = make_daemon(workers=1)
    with ServeClient(base_url) as client:
        first = client.run(JobRequest(workload="go", bar="U"), timeout=180.0)
        assert first["state"] == DONE, first.get("error")
        assert first["worker_pid"] != 0
        served = client.result_bytes(first["job"])
        # Counter flush is per job, not at pool shutdown: the worker's
        # store miss is visible in daemon stats while it keeps running.
        assert client.stats()["artifacts"]["misses"] == 1
        second = client.run(JobRequest(workload="go", bar="U"))
        assert second["source"] == "memo"
    assert served == _batch_result_bytes("go", "U", 0.05)


@pytest.fixture
def gate(monkeypatch):
    """Hold every worker job until the test sets the returned event."""
    release = threading.Event()
    execute = pool_mod.execute_request

    def gated(*args, **kwargs):
        release.wait(60.0)
        return execute(*args, **kwargs)

    monkeypatch.setattr(pool_mod, "execute_request", gated)
    yield release
    release.set()


def _counting_scheduler(daemon):
    """Record the job ids that reach the daemon's scheduler."""
    admitted = []
    submit = daemon.scheduler.submit

    def counted(key, job_id):
        admitted.append(job_id)
        submit(key, job_id)

    daemon.scheduler.submit = counted
    return admitted


def test_long_poll_returns_as_soon_as_the_job_finishes(make_daemon, gate):
    embedded, base_url = make_daemon()
    daemon = embedded.daemon
    finished_at = {}
    complete = daemon._complete

    def stamped(record):
        complete(record)
        finished_at[record.job_id] = time.perf_counter()

    daemon._complete = stamped
    lags = []
    with ServeClient(base_url) as client:
        for bar in ("U", "C", "H"):
            gate.clear()
            job = client.submit(JobRequest(workload="go", bar=bar))
            threading.Timer(0.05, gate.set).start()
            status = client.status(job, wait=30.0)
            lags.append(time.perf_counter() - finished_at[job])
            assert status["state"] == DONE, status.get("error")
            assert status["source"] == "computed"
    # A polling client saw completion up to a whole 10 ms step late.
    assert statistics.median(lags) < 0.005, lags


def test_long_poll_times_out_with_the_live_state(daemon_url, gate):
    with ServeClient(daemon_url) as client:
        job = client.submit(JobRequest(workload="go", bar="U"))
        started = time.perf_counter()
        status = client.status(job, wait=0.2)
        held = time.perf_counter() - started
        assert status["state"] in (QUEUED, RUNNING)
        assert 0.19 <= held < 10.0
        gate.set()
        assert client.wait(job)["state"] == DONE


def test_bad_wait_is_a_400(daemon_url):
    with ServeClient(daemon_url) as client:
        job = client.run(JobRequest(workload="go", bar="U"))["job"]
        for value in ("soon", "-1", "nan", "inf", ""):
            status, payload = client._json("GET", f"/v1/jobs/{job}?wait={value}")
            assert status == 400, value
            assert "wait" in payload["error"]
        assert client._json("GET", f"/v1/jobs/{job}?wait=0")[0] == 200
        # A wait past the server's cap is clamped, not refused.
        assert client._json("GET", f"/v1/jobs/{job}?wait=3600")[0] == 200
        assert client._json("GET", "/v1/jobs/j999?wait=1")[0] == 404


def test_memo_hit_is_answered_at_admission(make_daemon):
    embedded, base_url = make_daemon()
    daemon = embedded.daemon
    request = JobRequest(workload="go", bar="C")
    with ServeClient(base_url) as client:
        first = client.run(request)
        assert first["source"] == "computed"
        admitted = _counting_scheduler(daemon)

        status, accepted = client._json("POST", "/v1/jobs", request.to_dict())
        assert status == 202 and accepted["state"] == DONE
        hit = client.status(accepted["job"])
        assert hit["source"] == "memo"
        assert hit["worker_pid"] == 0
        assert hit["artifacts"] == ZERO_ARTIFACTS
        assert hit["codegen"] == ZERO_CODEGEN
        assert [s["name"] for s in client.spans(accepted["job"])["spans"]] == [
            "http.submit"
        ]
        assert admitted == []  # never entered the scheduler
        computed = client.result_bytes(first["job"])
        assert client.result_bytes(accepted["job"]) == computed

        # ...but it is booked like any other finished job.
        stats = client.stats()
        assert stats["jobs"]["completed"] == 2
        assert stats["jobs"]["states"] == {"done": 2}
        assert stats["latency"]["C"]["count"] == 2
        assert stats["jobs"]["memoized"] == 1

        # The whole request is the key: another backend is a miss.
        other = client.run(JobRequest(workload="go", bar="C", backend="vector"))
        assert other["worker_pid"] != 0
        assert len(admitted) == 1
    # Encoded once: the records and the memo share one bytes object.
    assert daemon.jobs[first["job"]].result is daemon._memo[request]
    assert daemon.jobs[accepted["job"]].result is daemon._memo[request]
    assert computed == _batch_result_bytes("go", "C", 0.05)


def test_memo_is_lru_bounded_by_retain_jobs(make_daemon):
    embedded, base_url = make_daemon(retain_jobs=2)
    requests = [
        JobRequest(workload="go", bar="U", machine=(("num_cores", cores),))
        for cores in (2, 3, 4)
    ]
    with ServeClient(base_url) as client:
        for request in requests[:2]:
            client.run(request)
        # Touch the oldest, so the next insert evicts the other one.
        assert client.run(requests[0])["source"] == "memo"
        client.run(requests[2])
        assert client.stats()["jobs"]["memoized"] == 2
        admitted = _counting_scheduler(embedded.daemon)
        assert client.run(requests[0])["worker_pid"] == 0
        assert client.run(requests[1])["worker_pid"] != 0
        assert len(admitted) == 1


def test_events_and_profile_requests_always_reach_a_worker(make_daemon):
    embedded, base_url = make_daemon()
    admitted = _counting_scheduler(embedded.daemon)
    with ServeClient(base_url) as client:
        for request in (
            JobRequest(workload="go", bar="C", events=True),
            JobRequest(workload="go", bar="C", profile=True),
        ):
            for _ in range(2):
                status = client.run(request)
                assert status["state"] == DONE, status.get("error")
                assert status["worker_pid"] != 0
        assert len(admitted) == 4
        assert client.stats()["jobs"]["memoized"] == 0
        assert client.profile_text(status["job"])


def test_draining_daemon_refuses_memo_hits(make_daemon, gate):
    embedded, base_url = make_daemon()
    daemon = embedded.daemon
    hot = JobRequest(workload="go", bar="U")
    with ServeClient(base_url) as client:
        gate.set()
        assert client.run(hot)["state"] == DONE
        # An in-flight job holds the draining daemon open.
        gate.clear()
        inflight = client.submit(JobRequest(workload="go", bar="C"))
        daemon._loop.call_soon_threadsafe(daemon.request_drain)
        deadline = time.monotonic() + 10.0
        while client.health()["status"] != "draining":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        with pytest.raises(DaemonDraining):
            client.submit(hot)
        gate.set()
        assert client.wait(inflight)["state"] == DONE
