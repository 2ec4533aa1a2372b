"""``urllib``-based client for the simulation service.

:class:`ServiceClient` wraps the wire API in three idioms:

* **submit** -- :meth:`ServiceClient.submit` posts a sweep and returns
  the acceptance payload (job id, created flag);
* **poll** -- :meth:`ServiceClient.job` fetches a snapshot,
  :meth:`ServiceClient.wait` polls until the job settles;
* **stream** -- :meth:`ServiceClient.events` yields parsed Server-Sent
  Events (``(name, payload)`` pairs) as the job progresses,
  :meth:`ServiceClient.events_follow` adds reconnect-and-resnapshot
  across coordinator restarts, and
  :meth:`ServiceClient.run_to_completion` combines submit + stream into
  the one-liner ``repro submit`` uses.

Transport failures are survivable by design: every call carries an
explicit per-request timeout (a wedged coordinator cannot hang a
client forever), and **idempotent** requests retry under the shared
:class:`~repro.service.retry.RetryPolicy` -- all GETs, sweep
submission (content-addressed job ids make a replayed submit coalesce
instead of duplicating) and settles (the scheduler discards duplicate
keys).  Leasing is deliberately *not* retried here: a lost grant
response strands its keys until the TTL reaper frees them, so the
worker loop owns that cadence instead.

No third-party dependencies: everything rides on
:mod:`urllib.request`, so any environment that can import ``repro``
can talk to a service.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.service.retry import RetryPolicy

__all__ = [
    "ServiceClient", "ServiceError",
]


class ServiceError(RuntimeError):
    """An HTTP-level failure (status >= 400) from the service.

    Attributes:
        status: the HTTP status code (0 for transport failures).
        payload: the decoded JSON error body when there was one.
    """

    def __init__(self, status: int, message: str, payload: Optional[dict] = None):
        super().__init__(f"HTTP {status}: {message}" if status else message)
        self.status = status
        self.payload = payload or {}


class ServiceClient:
    """Talk to a running simulation service.

    Args:
        base_url: e.g. ``http://127.0.0.1:8177`` (trailing slash ok).
        timeout: per-request socket timeout in seconds (streaming
            requests use it as a read timeout between events).
        retry: transport-retry policy for idempotent requests
            (default: :class:`RetryPolicy` with *timeout* as its
            per-request timeout).  ``RetryPolicy(attempts=1)``
            disables retries.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.retry = retry if retry is not None else RetryPolicy(
            timeout_s=timeout
        )
        self.timeout = self.retry.timeout_s

    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        stream: bool = False,
        idempotent: bool = True,
    ):
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        # streams retry at the events_follow layer (reconnecting
        # mid-iteration needs a fresh snapshot, not a replayed request)
        attempts = (
            max(1, self.retry.attempts) if idempotent and not stream else 1
        )
        for attempt in range(1, attempts + 1):
            request = urllib.request.Request(
                self.base_url + path, data=body, headers=headers,
                method=method,
            )
            try:
                response = urllib.request.urlopen(
                    request, timeout=self.timeout
                )
            except urllib.error.HTTPError as error:
                # the service answered: no retry, surface its verdict
                raw = error.read()
                try:
                    decoded = json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    decoded = {}
                message = (
                    decoded.get("error") or raw.decode("utf-8", "replace")
                )
                raise ServiceError(error.code, message, decoded) from error
            except (urllib.error.URLError, OSError) as error:
                reason = getattr(error, "reason", error)
                if attempt < attempts:
                    time.sleep(self.retry.backoff_s(attempt, token=path))
                    continue
                raise ServiceError(
                    0, f"cannot reach {self.base_url}: {reason}"
                ) from error
            if stream:
                return response
            with response:
                data = response.read().decode("utf-8")
            return json.loads(data) if data else {}

    # ------------------------------------------------------------------
    def submit(
        self,
        configs,
        workloads,
        gpu_profile: str = "fermi",
        scale: str = "test",
        seed: int = 0,
        num_sms: Optional[int] = None,
    ) -> Dict:
        """POST a sweep; returns the acceptance payload (``job``,
        ``created``, ``total``, ``location``).

        *configs* / *workloads* may be lists or comma strings; workload
        tokens follow the sweep grammar (names, suites, ``all``).
        """
        payload: Dict = {
            "configs": configs, "workloads": workloads,
            "gpu_profile": gpu_profile, "scale": scale, "seed": seed,
        }
        if num_sms is not None:
            payload["num_sms"] = num_sms
        return self._request("POST", "/v1/sweeps", payload)

    def job(self, job_id: str) -> Dict:
        """GET a job snapshot."""
        return self._request("GET", f"/v1/jobs/{job_id}")

    def result(self, key: str) -> Dict:
        """GET a completed run record (``spec`` + ``result``) by key."""
        query = urllib.parse.urlencode({"key": key})
        return self._request("GET", f"/v1/results?{query}")

    # ------------------------------------------------------------------
    def lease(
        self,
        worker: str = "anonymous",
        max_runs: Optional[int] = None,
        ttl: Optional[float] = None,
        heartbeat: Optional[Dict] = None,
        wait: Optional[float] = None,
    ) -> Dict:
        """POST /v1/leases: pull a batch of pending runs (remote mode).

        Returns the grant payload -- ``{"lease", "ttl", "runs":
        [{"key", "spec", "trace"}, ...], "draining"}``; ``runs`` is
        empty (and ``lease`` null) when nothing is pending.  An
        optional *heartbeat* object piggybacks worker telemetry on the
        request: ``name`` plus pid/host, cumulative simulated
        cycles/seconds and the arena hit rate.  With *wait* the
        request is a long poll: the coordinator holds an empty grant up
        to *wait* seconds (clamped to 10 s, below the default 30 s
        socket timeout) and answers as soon as runs are pending or
        draining begins.
        """
        payload: Dict = {"worker": worker}
        if max_runs is not None:
            payload["max_runs"] = max_runs
        if ttl is not None:
            payload["ttl"] = ttl
        if wait is not None:
            payload["wait"] = wait
        if heartbeat is not None:
            payload["heartbeat"] = heartbeat
        # not idempotent: a grant whose response is lost strands its
        # keys until the TTL reaper frees them, so the worker loop owns
        # the retry cadence (with its own jittered backoff)
        return self._request(
            "POST", "/v1/leases", payload, idempotent=False
        )

    def settle(
        self, lease_id: str, runs, heartbeat: Optional[Dict] = None
    ) -> Dict:
        """POST /v1/leases/{id}/settle: report leased outcomes.

        *runs* is a list of ``{"key", "result"}`` (success, the
        serialized result payload) or ``{"key", "error"}`` entries,
        optionally carrying a ``timing`` object ({"sim_s", "cycles"})
        for fleet attribution.  *heartbeat* piggybacks
        worker telemetry like :meth:`lease`.

        Raises:
            ServiceError: status 410 when the lease expired and none of
                the keys were still claimable -- drop the batch and
                lease again.
        """
        payload: Dict = {"runs": list(runs)}
        if heartbeat is not None:
            payload["heartbeat"] = heartbeat
        return self._request(
            "POST", f"/v1/leases/{lease_id}/settle", payload
        )

    def leases(self) -> Dict:
        """GET /v1/leases: active leases + pending-queue snapshot."""
        return self._request("GET", "/v1/leases")

    def workers(self) -> Dict:
        """GET /v1/workers: the fleet registry snapshot (remote mode)."""
        return self._request("GET", "/v1/workers")

    def jobs(self, limit: Optional[int] = None) -> Dict:
        """GET /v1/jobs: recent job snapshots, newest first."""
        path = "/v1/jobs"
        if limit is not None:
            path += "?" + urllib.parse.urlencode({"limit": int(limit)})
        return self._request("GET", path)

    # ------------------------------------------------------------------
    def healthz(self) -> Dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        with self._request("GET", "/metrics", stream=True) as response:
            return response.read().decode("utf-8")

    # ------------------------------------------------------------------
    def wait(
        self,
        job_id: str,
        timeout: float = 600.0,
        poll_s: float = 0.2,
    ) -> Dict:
        """Poll until the job settles; returns the final snapshot.

        Raises:
            TimeoutError: the job did not settle within *timeout*.
        """
        deadline = time.monotonic() + timeout
        while True:
            snapshot = self.job(job_id)
            if snapshot["state"] in ("done", "failed"):
                return snapshot
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {snapshot['state']} "
                    f"after {timeout:.0f}s"
                )
            time.sleep(poll_s)

    def events(self, job_id: str) -> Iterator[Tuple[str, Dict]]:
        """Stream a job's SSE feed as ``(event name, payload)`` pairs.

        The stream starts with a ``snapshot`` event and ends after the
        ``done`` event (the generator then returns).
        """
        response = self._request(
            "GET", f"/v1/jobs/{job_id}/events", stream=True
        )
        with response:
            name, data_lines = "message", []
            for raw in response:
                line = raw.decode("utf-8").rstrip("\n").rstrip("\r")
                if line.startswith("event:"):
                    name = line[len("event:"):].strip()
                elif line.startswith("data:"):
                    data_lines.append(line[len("data:"):].strip())
                elif not line and data_lines:
                    payload = json.loads("\n".join(data_lines))
                    yield name, payload
                    if name == "done":
                        return
                    name, data_lines = "message", []

    def events_follow(
        self, job_id: str, deadline: Optional[float] = None
    ) -> Iterator[Tuple[str, Dict]]:
        """:meth:`events` with reconnect-and-resnapshot.

        When the stream drops before ``done`` (coordinator restart,
        network blip, idle read timeout), the follower backs off under
        the retry policy and reconnects; the server always opens with a
        fresh ``snapshot`` event, so consumers see the post-restart
        truth instead of a gap.  The generator returns after the
        *first* ``done`` -- a terminal event is delivered exactly once
        no matter how many reconnects happened.

        Args:
            deadline: ``time.monotonic()`` value to stop retrying at
                (the per-connection read timeout still applies).

        Raises:
            ServiceError: a non-transport error (e.g. 404 from a
                restarted coordinator that no longer knows the job --
                resubmit, then follow again), or transport failure
                after the policy's attempts are exhausted.
        """
        failures = 0
        while True:
            try:
                for name, payload in self.events(job_id):
                    failures = 0
                    yield name, payload
                    if name == "done":
                        return
            except ServiceError as error:
                if error.status != 0:
                    raise  # HTTP verdict: reconnecting won't change it
                # status 0 = could not connect: fall through to backoff
            except OSError:
                pass  # transport drop mid-stream: fall through to backoff
            # the stream ended without a terminal event (server closed
            # the socket mid-job) -- same recovery as a transport drop
            failures += 1
            if failures > max(1, self.retry.attempts):
                raise ServiceError(
                    0,
                    f"event stream for job {job_id} dropped "
                    f"{failures} times; giving up",
                )
            delay = self.retry.backoff_s(failures, token=job_id)
            if deadline is not None and (
                time.monotonic() + delay >= deadline
            ):
                raise ServiceError(
                    0, f"deadline reached re-following job {job_id}"
                )
            time.sleep(delay)

    # ------------------------------------------------------------------
    def run_to_completion(
        self,
        configs,
        workloads,
        gpu_profile: str = "fermi",
        scale: str = "test",
        seed: int = 0,
        num_sms: Optional[int] = None,
        timeout: float = 600.0,
        on_event: Optional[Callable[[str, Dict], None]] = None,
    ) -> Dict:
        """Submit a sweep and follow it to the end; returns the final
        job snapshot.

        Progress arrives through *on_event* (SSE ``snapshot``/``run``/
        ``state`` events).  The follower survives coordinator restarts:
        the stream reconnects and re-snapshots
        (:meth:`events_follow`), and a 404 mid-follow -- the restarted
        coordinator has no journal, or pruned the job -- triggers an
        idempotent resubmission (content-addressed ids land it back on
        the same job).  Falls back to polling if streaming stays
        broken before the job settles.
        """

        def resubmit() -> Dict:
            return self.submit(
                configs, workloads, gpu_profile=gpu_profile, scale=scale,
                seed=seed, num_sms=num_sms,
            )

        job_id = resubmit()["job"]
        deadline = time.monotonic() + timeout
        resubmits = 0
        while time.monotonic() < deadline:
            try:
                for name, payload in self.events_follow(
                    job_id, deadline=deadline
                ):
                    if on_event is not None:
                        on_event(name, payload)
                    if name == "done":
                        return payload
                    if time.monotonic() >= deadline:
                        break  # enforce the deadline even mid-stream;
                        # the wait() below raises TimeoutError unless
                        # the job settled in the meantime
                break  # deadline hit mid-stream: poll below
            except ServiceError as error:
                if (
                    error.status == 404
                    and resubmits < max(1, self.retry.attempts)
                ):
                    resubmits += 1
                    try:
                        resubmit()
                    except ServiceError:
                        break  # can't resubmit either: poll below
                    continue
                break  # streaming is broken; the poll is authoritative
            except OSError:
                break
        return self.wait(
            job_id, timeout=max(0.0, deadline - time.monotonic())
        )
