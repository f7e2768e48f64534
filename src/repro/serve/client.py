"""A small blocking client for the serve API (stdlib ``http.client``).

Used by the test suite, the serve-smoke CI job, and the load
generator.  One :class:`ServeClient` holds one keep-alive connection;
it is NOT thread-safe — give each thread its own client (the load
generator does exactly that).
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, Optional, Tuple
from urllib.parse import urlsplit

from repro.serve.protocol import DONE, FAILED, JobRequest


class ServeError(RuntimeError):
    """An HTTP-level failure talking to the daemon."""

    def __init__(self, status: int, payload):
        self.status = status
        self.payload = payload
        message = payload.get("error") if isinstance(payload, dict) else None
        super().__init__(message or f"HTTP {status}")


class JobRejected(ServeError):
    """429: the daemon's admission queue is full — back off and retry."""


class DaemonDraining(ServeError):
    """503: the daemon is draining and accepts no new jobs."""


class ServeClient:
    """Blocking client bound to one daemon base URL.

    Waiting for a job is a long poll, not a polling loop: the daemon
    answers :meth:`wait` when the job finishes.
    """

    def __init__(self, base_url: str, timeout: float = 60.0):
        split = urlsplit(base_url)
        if split.scheme not in ("http", ""):
            raise ValueError(f"unsupported scheme {split.scheme!r}")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict] = None,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, bytes, str]:
        body = None
        headers = dict(extra_headers or {})
        if payload is not None:
            body = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        try:
            conn = self._connection()
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
            content_type = response.getheader("Content-Type", "")
            return response.status, data, content_type
        except (ConnectionError, http.client.HTTPException, OSError):
            # Stale keep-alive connection: reconnect once.
            self.close()
            conn = self._connection()
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
            content_type = response.getheader("Content-Type", "")
            return response.status, data, content_type

    def _json(
        self, method: str, path: str, payload: Optional[Dict] = None
    ) -> Tuple[int, Dict]:
        status, data, _content_type = self._request(method, path, payload)
        try:
            decoded = json.loads(data) if data else {}
        except json.JSONDecodeError:
            decoded = {"error": data.decode(errors="replace")}
        return status, decoded

    @staticmethod
    def _raise_for(status: int, payload) -> None:
        if status == 429:
            raise JobRejected(status, payload)
        if status == 503:
            raise DaemonDraining(status, payload)
        raise ServeError(status, payload)

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------

    def submit(
        self, request: JobRequest, traceparent: Optional[str] = None
    ) -> str:
        """Submit a job; returns its id.  429 -> :class:`JobRejected`.

        ``traceparent`` (a W3C header value) makes the daemon adopt
        the caller's trace instead of starting a fresh one.
        """
        headers = {"traceparent": traceparent} if traceparent else None
        status, data, _content_type = self._request(
            "POST", "/v1/jobs", request.to_dict(), extra_headers=headers
        )
        try:
            payload = json.loads(data) if data else {}
        except json.JSONDecodeError:
            payload = {"error": data.decode(errors="replace")}
        if status != 202:
            self._raise_for(status, payload)
        return payload["job"]

    def status(self, job_id: str, wait: float = 0.0) -> Dict:
        """The job's status payload.

        ``wait`` > 0 long-polls: the daemon holds the answer until the
        job finishes or ``wait`` seconds pass (it caps the hold at 30s),
        whichever is first.
        """
        path = f"/v1/jobs/{job_id}"
        if wait > 0:
            path += f"?wait={wait:.3f}"
        status, payload = self._json("GET", path)
        if status != 200:
            self._raise_for(status, payload)
        return payload

    def wait(self, job_id: str, timeout: float = 120.0) -> Dict:
        """Block until the job reaches a terminal state; returns status.

        Each call is a long poll the daemon answers the moment the job
        finishes, so a finished job is seen at once rather than on the
        next tick of a polling timer.  Calls are kept under half the
        connection timeout and repeat until ``timeout`` has passed.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            payload = self.status(
                job_id, wait=max(0.0, min(remaining, self.timeout / 2))
            )
            if payload["state"] in (DONE, FAILED):
                return payload
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {payload['state']} after {timeout}s"
                )

    def result_bytes(self, job_id: str) -> bytes:
        """The canonical result payload (byte-identical to batch)."""
        status, data, _content_type = self._request(
            "GET", f"/v1/jobs/{job_id}/result"
        )
        if status != 200:
            try:
                payload = json.loads(data)
            except json.JSONDecodeError:
                payload = {"error": data.decode(errors="replace")}
            self._raise_for(status, payload)
        return data

    def events_bytes(self, job_id: str) -> bytes:
        """The canonical JSONL event stream (jobs with events=true)."""
        status, data, _content_type = self._request(
            "GET", f"/v1/jobs/{job_id}/events"
        )
        if status != 200:
            try:
                payload = json.loads(data)
            except json.JSONDecodeError:
                payload = {"error": data.decode(errors="replace")}
            self._raise_for(status, payload)
        return data

    def run(self, request: JobRequest, timeout: float = 120.0) -> Dict:
        """Submit + wait; returns the terminal status payload.

        A request the daemon has already answered comes back finished
        from the submit itself (``source: "memo"``), so the wait
        returns on its first call.
        """
        return self.wait(self.submit(request), timeout=timeout)

    def health(self) -> Dict:
        status, payload = self._json("GET", "/v1/healthz")
        if status != 200:
            self._raise_for(status, payload)
        return payload

    def stats(self) -> Dict:
        status, payload = self._json("GET", "/v1/stats")
        if status != 200:
            self._raise_for(status, payload)
        return payload

    def metrics_text(self) -> str:
        """The Prometheus text exposition (``GET /v1/metrics``)."""
        status, data, _content_type = self._request("GET", "/v1/metrics")
        if status != 200:
            try:
                payload = json.loads(data)
            except json.JSONDecodeError:
                payload = {"error": data.decode(errors="replace")}
            self._raise_for(status, payload)
        return data.decode()

    def spans(self, job_id: str) -> Dict:
        """The job's trace: ``{"job", "trace_id", "spans"}``."""
        status, payload = self._json("GET", f"/v1/jobs/{job_id}/spans")
        if status != 200:
            self._raise_for(status, payload)
        return payload

    def profile_text(self, job_id: str) -> str:
        """The cProfile summary of a ``profile=true`` job."""
        status, data, _content_type = self._request(
            "GET", f"/v1/jobs/{job_id}/profile"
        )
        if status != 200:
            try:
                payload = json.loads(data)
            except json.JSONDecodeError:
                payload = {"error": data.decode(errors="replace")}
            self._raise_for(status, payload)
        return data.decode()

    def flightrec_dump(self) -> Dict:
        """Trigger flight-recorder dumps (daemon + process workers)."""
        status, payload = self._json("POST", "/v1/debug/flightrec")
        if status != 200:
            self._raise_for(status, payload)
        return payload

    def drain(self, timeout: float = 300.0) -> Dict:
        """Ask the daemon to drain; blocks until it reports drained."""
        previous = self.timeout
        self.timeout = timeout
        self.close()  # reconnect with the longer timeout
        try:
            status, payload = self._json("POST", "/v1/drain")
            if status != 200:
                self._raise_for(status, payload)
            return payload
        finally:
            self.timeout = previous
            self.close()


def wait_until_healthy(
    base_url: str, timeout: float = 30.0, poll_s: float = 0.05
) -> Dict:
    """Block until a daemon at ``base_url`` answers /v1/healthz."""
    deadline = time.monotonic() + timeout
    last_error: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            with ServeClient(base_url, timeout=poll_s * 10 + 1.0) as client:
                return client.health()
        except Exception as exc:
            last_error = exc
            time.sleep(poll_s)
    raise TimeoutError(
        f"daemon at {base_url} not healthy after {timeout}s: {last_error}"
    )
