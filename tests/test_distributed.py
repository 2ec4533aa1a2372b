"""The distributed sweep fabric: leases, workers, fleet single-flight.

Three layers of proof:

* :class:`~repro.service.leases.LeaseManager` unit tests with an
  injectable clock (FIFO grants, TTL expiry/requeue, the MAX_ATTEMPTS
  poison-run abandonment);
* the spec wire format (``spec_from_dict``) and the worker's refusal to
  execute mis-keyed payloads;
* end-to-end fleets: a remote-mode service with real ``repro worker``
  subprocesses and real ``repro submit`` submitter processes, proving
  every run key is simulated exactly once fleet-wide (cold), served
  from the store (warm), bit-identical to a serial
  :func:`~repro.engine.spec.execute_spec` pass, and re-issued when a
  worker is SIGKILLed mid-lease.

The long-poll lease (``wait``) gets its own layer: held requests are
answered by a submit, a reaper re-queue and a drain well before their
wait runs out, concurrent holders split a job, a holder that hung up
is granted nothing, the worker paces itself against a coordinator that
answers at once, and a SIGTERMed coordinator drains a job through its
fleet before closing the listener.
"""

import json
import re
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from faultutil import (
    fake_result,
    smoke_spec,
    spawn_worker,
    stop_workers,
    subprocess_env,
)
from repro.engine import ResultStore
from repro.engine.serialize import result_to_dict
from repro.engine.spec import RunKey, execute_spec, spec_from_dict, spec_to_dict
from repro.service.client import ServiceClient, ServiceError
from repro.service.leases import (
    DEFAULT_LEASE_TTL_S,
    Lease,
    LeaseManager,
    MAX_ATTEMPTS,
    MAX_LEASE_RUNS,
)
from repro.service.server import BackgroundService
from repro.service.worker import _execute_one, run_worker

SWEEP = dict(
    configs="L1-SRAM,By-NVM", workloads="2DCONV,ATAX",
    scale="smoke", num_sms=2, seed=0,
)
SWEEP_TOTAL = 4


def wait_until(predicate, timeout_s=15.0, poll_s=0.05, what="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(poll_s)
    raise AssertionError(f"timed out waiting for {what}")


def metric_value(exposition: str, name: str, labels: str = "") -> float:
    pattern = re.escape(name + labels) + r"(?:\{\})? ([0-9.eE+-]+)$"
    total = 0.0
    found = False
    for line in exposition.splitlines():
        match = re.match(pattern, line)
        if match:
            total += float(match.group(1))
            found = True
    assert found, f"{name}{labels} not in /metrics"
    return total


# ----------------------------------------------------------------------
class TestLeaseManager:
    def make(self):
        now = [100.0]
        return now, LeaseManager(clock=lambda: now[0])

    def test_fifo_grants_and_dedup(self):
        _, manager = self.make()
        assert manager.add("a", "spec-a")
        assert manager.add("b", "spec-b")
        assert not manager.add("a", "spec-a2")  # pending already
        assert manager.pending_runs == 2

        lease = manager.lease("w1", max_runs=1)
        assert list(lease.runs) == ["a"]  # FIFO
        assert not manager.add("a", "spec-a3")  # leased already
        assert manager.pending_runs == 1
        assert manager.lease("w2", max_runs=8).runs == {"b": "spec-b"}
        assert manager.lease("w3") is None  # nothing pending

    def test_settle_refreshes_then_retires(self):
        now, manager = self.make()
        manager.add("a", "sa")
        manager.add("b", "sb")
        lease = manager.lease("w", ttl=10)
        assert lease.expires == 110.0

        now[0] = 105.0
        assert manager.settle_key(lease.lease_id, "a") == "sa"
        assert lease.expires == 115.0  # partial settle refreshed the TTL
        assert manager.attempts("a") == 0  # settled keys forget attempts
        assert manager.settle_key(lease.lease_id, "a") is None  # idempotent

        assert manager.settle_key(lease.lease_id, "b") == "sb"
        assert manager.get(lease.lease_id) is None  # fully settled: retired
        assert manager.active_leases == 0

    def test_expiry_requeues_unsettled_keys(self):
        now, manager = self.make()
        manager.add("a", "sa")
        manager.add("b", "sb")
        lease = manager.lease("w", ttl=10)
        manager.settle_key(lease.lease_id, "a")

        assert manager.expire() == ([], [])  # not expired yet
        now[0] = 200.0
        reaped, abandoned = manager.expire()
        assert [r.lease_id for r in reaped] == [lease.lease_id]
        assert abandoned == []
        assert manager.pending_runs == 1  # only the unsettled key
        assert manager.attempts("b") == 1
        # the requeued key leases again, FIFO
        assert list(manager.lease("w2").runs) == ["b"]
        assert manager.attempts("b") == 2

    def test_poison_key_abandoned_after_max_attempts(self):
        now, manager = self.make()
        manager.add("poison", "spec")
        for attempt in range(1, MAX_ATTEMPTS + 1):
            lease = manager.lease(f"victim-{attempt}", ttl=1)
            assert manager.attempts("poison") == attempt
            now[0] += 100.0
            reaped, abandoned = manager.expire()
            assert len(reaped) == 1
            if attempt < MAX_ATTEMPTS:
                assert abandoned == []
            else:
                assert abandoned == [("poison", "spec")]
        assert manager.pending_runs == 0
        assert manager.attempts("poison") == 0

    def test_settle_pending_accepts_late_results(self):
        now, manager = self.make()
        manager.add("a", "sa")
        lease = manager.lease("slow", ttl=1)
        now[0] += 10.0
        manager.expire()  # key boomerangs to pending
        # the reaped worker reports anyway: the result is real, take it
        assert manager.settle_pending("a") == "sa"
        assert manager.pending_runs == 0
        assert manager.settle_pending("a") is None

    def test_snapshot_shape(self):
        now, manager = self.make()
        manager.add("a", "sa")
        lease = manager.lease("w", ttl=30)
        now[0] += 10.0
        snap = manager.snapshot()
        assert snap["pending_runs"] == 0
        (active,) = snap["active"]
        assert active["lease"] == lease.lease_id
        assert active["worker"] == "w"
        assert active["granted"] == active["unsettled"] == 1
        assert active["expires_in"] == 20.0


# ----------------------------------------------------------------------
class TestWireFormat:
    def test_spec_round_trips_bit_exact(self):
        for kwargs in (
            dict(),
            dict(config="By-NVM", workload="VECADD", seed=7),
        ):
            spec = smoke_spec(**kwargs)
            clone = spec_from_dict(spec_to_dict(spec))
            assert spec_to_dict(clone) == spec_to_dict(spec)
            assert clone.key().digest == spec.key().digest

    def test_malformed_payload_is_value_error(self):
        with pytest.raises(ValueError, match="malformed spec payload"):
            spec_from_dict({"workload": "2DCONV"})

    def test_worker_refuses_mis_keyed_spec(self):
        spec = smoke_spec()
        outcome = _execute_one("f" * 64, {"spec": spec_to_dict(spec)})
        assert outcome["key"] == "f" * 64
        assert "refusing to execute" in outcome["error"]

    def test_worker_settles_execution_failure_as_error(self):
        payload = spec_to_dict(smoke_spec())
        payload["workload"] = "NO-SUCH-WORKLOAD"
        digest = RunKey.for_spec(spec_from_dict(payload)).digest
        outcome = _execute_one(digest, {"spec": payload})
        assert "error" in outcome and "result" not in outcome


# ----------------------------------------------------------------------
def remote_service(tmp_path, **kwargs):
    kwargs.setdefault("store_path", tmp_path / "store.jsonl")
    kwargs.setdefault("workers", 1)
    return BackgroundService(remote=True, **kwargs)


def submit_proc(url: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "submit", "--url", url,
         "--configs", SWEEP["configs"], "--workloads", SWEEP["workloads"],
         "--scale", "smoke", "--sms", "2", "--json", "--quiet"],
        env=subprocess_env(REPRO_STORE="", REPRO_SPANS=""),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


class TestFleet:
    def test_cold_warm_exactly_once_and_bit_identical(self, tmp_path):
        """M submitter processes x K worker processes: every key runs
        exactly once fleet-wide, warm repeats are pure store hits, and
        the stored payloads match a serial execute_spec pass bit for
        bit."""
        with remote_service(tmp_path) as svc:
            client = ServiceClient(svc.url)
            submitters = [submit_proc(svc.url) for _ in range(2)]
            workers = []
            try:
                # both submissions attach to one job before any worker
                # can run it: held leases start a job at once, so a
                # late submitter would otherwise find it already done
                wait_until(
                    lambda: metric_value(
                        client.metrics(), "repro_service_jobs_coalesced"
                    ) == 1,
                    what="the two submissions to coalesce",
                )
                workers = [
                    spawn_worker(svc.url, f"w{index}", max_runs=2)
                    for index in range(2)
                ]
                snapshots = []
                for proc in submitters:
                    out, err = proc.communicate(timeout=120)
                    assert proc.returncode == 0, err
                    snapshots.append(json.loads(out))
            finally:
                stop_workers(*workers, *submitters)

            # both submissions coalesced onto one content-addressed job
            assert snapshots[0]["job"] == snapshots[1]["job"]
            for snap in snapshots:
                assert snap["state"] == "done"
                assert snap["errors"] == 0
                assert snap["total"] == SWEEP_TOTAL
                # exactly-once ledger: every run accounted for, none twice
                assert (snap["fresh"] + snap["store_hits"]
                        + snap["coalesced"]) == SWEEP_TOTAL
            assert snapshots[0]["fresh"] == SWEEP_TOTAL  # cold: all executed

            # fleet-wide single-flight, straight from the lease ledger
            exposition = client.metrics()
            assert metric_value(
                exposition, "repro_lease_settled", '{outcome="fresh"}'
            ) == SWEEP_TOTAL
            assert metric_value(exposition, "repro_lease_runs_leased") \
                == SWEEP_TOTAL

            # warm resubmit: zero fresh simulations anywhere
            warm = client.run_to_completion(timeout=60, **SWEEP)
            assert warm["state"] == "done"
            assert warm["fresh"] == 0
            assert warm["store_hits"] == SWEEP_TOTAL

            # bit-identity against a serial in-process pass
            for run in warm["runs"]:
                record = client.result(run["key"])
                spec = spec_from_dict(record["spec"])
                assert record["result"] == result_to_dict(execute_spec(spec))

        # the store holds every record (readable after drain)
        assert len(ResultStore(tmp_path / "store.jsonl")) == SWEEP_TOTAL

    def test_expired_lease_requeues_to_live_worker(self, tmp_path):
        """A worker that leases work and goes silent forfeits it: the
        reaper requeues the runs and a live worker finishes the job."""
        with remote_service(tmp_path) as svc:
            client = ServiceClient(svc.url)
            accepted = client.submit(**SWEEP)
            # a zombie grabs every pending run... and never settles
            wait_until(
                lambda: client.leases()["pending_runs"] == SWEEP_TOTAL,
                what="runs to queue",
            )
            grant = client.lease(worker="zombie", max_runs=64, ttl=1)
            assert len(grant["runs"]) == SWEEP_TOTAL
            assert client.leases()["active"][0]["worker"] == "zombie"

            worker = spawn_worker(svc.url, "live")
            try:
                snap = client.wait(accepted["job"], timeout=60)
            finally:
                stop_workers(worker)
            assert snap["state"] == "done"
            assert snap["errors"] == 0
            assert snap["fresh"] == SWEEP_TOTAL

            exposition = client.metrics()
            assert metric_value(exposition, "repro_lease_expired") >= 1
            assert metric_value(exposition, "repro_lease_requeued_runs") \
                == SWEEP_TOTAL

    def test_worker_sigkilled_mid_lease_work_reissued(self, tmp_path):
        """SIGKILL a worker between lease and execute: its lease
        expires and another worker completes the job, exactly once."""
        with remote_service(tmp_path) as svc:
            client = ServiceClient(svc.url)
            doomed = spawn_worker(
                svc.url, "doomed", ttl=2, max_runs=64, hold_s=30,
            )
            try:
                accepted = client.submit(**SWEEP)
                wait_until(
                    lambda: any(
                        row["worker"] == "doomed"
                        for row in client.leases()["active"]
                    ),
                    what="the doomed worker to lease the batch",
                )
            finally:
                stop_workers(doomed)  # SIGKILL mid-hold: never settles

            healthy = spawn_worker(svc.url, "healthy")
            try:
                snap = client.wait(accepted["job"], timeout=60)
            finally:
                stop_workers(healthy)
            assert snap["state"] == "done"
            assert snap["errors"] == 0
            assert snap["fresh"] == SWEEP_TOTAL  # each key ran exactly once
            assert metric_value(client.metrics(), "repro_lease_expired") >= 1

    def test_settle_races_and_410_semantics(self, tmp_path):
        """Late settles from a reaped lease are accepted while the key
        is still unclaimed; once it is gone the settle is 410."""
        with remote_service(tmp_path) as svc:
            client = ServiceClient(svc.url)
            accepted = client.submit(**SWEEP)
            wait_until(
                lambda: client.leases()["pending_runs"] == SWEEP_TOTAL,
                what="runs to queue",
            )
            grant = client.lease(worker="slow", max_runs=64, ttl=1)
            lease_id = grant["lease"]
            wait_until(
                lambda: not client.leases()["active"],
                what="the lease to expire",
            )
            assert client.leases()["pending_runs"] == SWEEP_TOTAL

            # the reaped worker settles anyway: results are real, taken
            outcomes = []
            for run in grant["runs"]:
                spec = spec_from_dict(run["spec"])
                outcomes.append({
                    "key": run["key"],
                    "result": result_to_dict(execute_spec(spec)),
                })
            response = client.settle(lease_id, outcomes[:1])
            assert response["settled"] == 1

            # same key again: nothing claimable on a dead lease -> 410
            with pytest.raises(ServiceError) as gone:
                client.settle(lease_id, outcomes[:1])
            assert gone.value.status == 410
            assert "re-leased" in str(gone.value)

            # remaining keys settle the same way; the job closes clean
            assert client.settle(lease_id, outcomes[1:])["settled"] == 3
            snap = client.wait(accepted["job"], timeout=30)
            assert snap["state"] == "done"
            assert snap["errors"] == 0
            assert snap["fresh"] == SWEEP_TOTAL

    def test_malformed_settle_payloads_rejected(self, tmp_path):
        with remote_service(tmp_path) as svc:
            client = ServiceClient(svc.url)
            accepted = client.submit(**SWEEP)
            wait_until(
                lambda: client.leases()["pending_runs"] == SWEEP_TOTAL,
                what="runs to queue",
            )
            grant = client.lease(worker="w", max_runs=1, ttl=30)
            lease_id = grant["lease"]
            key = grant["runs"][0]["key"]
            for bad in (
                {"key": key},  # neither result nor error
                {"key": key, "result": {"nope": 1}, "error": "boom"},
                {"key": key, "result": {"nope": 1}},  # not a result payload
            ):
                with pytest.raises(ServiceError) as refused:
                    client.settle(lease_id, [bad])
                assert refused.value.status == 400
            # the lease survived the rejections; an error settle lands
            assert client.settle(
                lease_id, [{"key": key, "error": "injected failure"}]
            )["settled"] == 1

            # close out the rest so the job (and the drain) can settle
            rest = client.lease(worker="w2", max_runs=64, ttl=30)
            client.settle(rest["lease"], [
                {"key": run["key"], "error": "injected failure"}
                for run in rest["runs"]
            ])
            snap = client.wait(accepted["job"], timeout=30)
            assert snap["state"] == "failed"  # every run errored
            assert snap["errors"] == SWEEP_TOTAL

    def test_lease_request_clamps(self, tmp_path):
        """POST /v1/leases bounds what a worker may ask for: at most
        MAX_LEASE_RUNS runs, a TTL within [1, 3600] s."""
        wide = dict(SWEEP, configs="L1-SRAM,By-NVM,Dy-FUSE",
                    workloads="2DCONV,2MM,3MM,ATAX,BICG,cfd,FDTD,gaussian,"
                              "GEMM,GESUMMV,II,MVT,PVC,PVR,pathf,SS,srad_v1,"
                              "SM,SYR2K,mri-g,histo,conv2d,gemm-tile,"
                              "attention")
        with remote_service(tmp_path) as svc:
            client = ServiceClient(svc.url)
            accepted = client.submit(**wide)
            total = accepted["total"]
            assert total > MAX_LEASE_RUNS + 1
            wait_until(
                lambda: client.leases()["pending_runs"] == total,
                what="runs to queue",
            )
            grant = client.lease(worker="w", max_runs=10_000, ttl=0.001)
            assert len(grant["runs"]) == MAX_LEASE_RUNS
            assert grant["ttl"] == 1.0  # floor
            grant2 = client.lease(worker="w", max_runs=0, ttl=10 ** 9)
            assert len(grant2["runs"]) == 1
            assert grant2["ttl"] == 3600.0  # ceiling
            close_out(client, grant, grant2)
            close_out(client, client.lease(worker="w", max_runs=64))
            snap = client.wait(accepted["job"], timeout=30)
            assert snap["errors"] == total

    def test_unconvertible_lease_parameter_is_400(self, tmp_path):
        with remote_service(tmp_path) as svc:
            client = ServiceClient(svc.url)
            for bad in (float("inf"), float("nan"), "many"):
                with pytest.raises(ServiceError) as refused:
                    client.lease(worker="w", max_runs=bad)
                assert refused.value.status == 400, bad

    def test_settle_with_infinite_timing_still_settles(self, tmp_path):
        """Timing numbers that do not convert are ignored: the claimed
        key still settles and its job finishes."""
        with remote_service(tmp_path) as svc:
            client = ServiceClient(svc.url)
            accepted = client.submit(
                configs="L1-SRAM", workloads="ATAX", scale="smoke",
                num_sms=2,
            )
            wait_until(
                lambda: client.leases()["pending_runs"] == 1,
                what="the run to queue",
            )
            grant = client.lease(worker="w", max_runs=1)
            (run,) = grant["runs"]
            response = client.settle(grant["lease"], [{
                "key": run["key"], "error": "x",
                "timing": {"sim_s": 1, "cycles": float("inf")},
            }])
            assert response["settled"] == 1
            snap = client.wait(accepted["job"], timeout=30)
            assert snap["state"] == "failed"
            assert snap["completed"] == 1
            assert "timing" not in snap["runs"][0]
            (worker,) = client.workers()["workers"]
            assert worker["runs_settled"] == 1

    def test_lease_endpoints_require_remote_mode(self, tmp_path):
        with BackgroundService(
            store_path=tmp_path / "s.jsonl", workers=1
        ) as svc:
            client = ServiceClient(svc.url)
            for call in (
                client.leases,
                lambda: client.lease(worker="w"),
                lambda: client.settle("abc", []),
            ):
                with pytest.raises(ServiceError) as refused:
                    call()
                assert refused.value.status == 400
                assert "--remote" in str(refused.value)

    def test_worker_once_on_idle_queue_exits_clean(self, tmp_path):
        with remote_service(tmp_path) as svc:
            lines = []
            assert run_worker(
                svc.url, name="oneshot", once=True, log=lines.append
            ) == 0
            assert any("exiting" in line for line in lines)

    def test_worker_sigterm_exits_zero(self, tmp_path):
        import signal

        with remote_service(tmp_path) as svc:
            worker = spawn_worker(svc.url, "stoppable")
            wait_until(
                lambda: worker.poll() is None, what="worker to start"
            )
            time.sleep(1.0)  # let it reach the idle poll loop
            worker.send_signal(signal.SIGTERM)
            assert worker.wait(15) == 0


# ----------------------------------------------------------------------
# the long-poll lease: POST /v1/leases with "wait"
HOLD_S = 8.0


def close_out(client: ServiceClient, *grants) -> None:
    """Settle every run of *grants* as an error so the job finishes and
    the service can drain."""
    for grant in grants:
        if grant.get("runs"):
            client.settle(grant["lease"], [
                {"key": run["key"], "error": "injected failure"}
                for run in grant["runs"]
            ])


def held_lease(pool, client: ServiceClient, worker: str, **kwargs):
    """Start a long-poll lease on *pool*; returns (future, started)
    once the coordinator has registered the worker (it does so before
    holding the request)."""
    started = time.monotonic()
    future = pool.submit(client.lease, worker=worker, wait=HOLD_S, **kwargs)
    wait_until(
        lambda: worker in {w["name"] for w in client.workers()["workers"]},
        what=f"{worker} to register before its hold",
    )
    return future, started


class TestLongPollLease:
    def test_lease_without_wait_answers_at_once(self, tmp_path):
        with remote_service(tmp_path) as svc:
            client = ServiceClient(svc.url)
            started = time.monotonic()
            grant = client.lease(worker="impatient")
            assert time.monotonic() - started < 1.0
            assert grant["runs"] == [] and grant["lease"] is None

    def test_held_lease_times_out_empty(self, tmp_path):
        with remote_service(tmp_path) as svc:
            client = ServiceClient(svc.url)
            started = time.monotonic()
            grant = client.lease(worker="patient", wait=0.5)
            assert 0.4 <= time.monotonic() - started < HOLD_S
            assert grant["runs"] == [] and grant["draining"] is False

    def test_invalid_wait_is_400(self, tmp_path):
        with remote_service(tmp_path) as svc:
            client = ServiceClient(svc.url)
            for bad in ("soon", -1, float("inf"), float("nan"), [1]):
                with pytest.raises(ServiceError) as refused:
                    client.lease(worker="w", wait=bad)
                assert refused.value.status == 400, bad
                assert "wait" in str(refused.value)

    def test_submit_answers_held_lease(self, tmp_path):
        with remote_service(tmp_path) as svc, \
                ThreadPoolExecutor(1) as pool:
            client = ServiceClient(svc.url)
            future, _ = held_lease(pool, client, "held", max_runs=64)
            submitted = time.monotonic()
            client.submit(**SWEEP)
            grant = future.result(timeout=HOLD_S + 5)
            assert time.monotonic() - submitted < HOLD_S / 4
            assert len(grant["runs"]) == SWEEP_TOTAL
            close_out(client, grant)

    def test_reaper_requeue_answers_held_lease(self, tmp_path):
        with remote_service(tmp_path) as svc, \
                ThreadPoolExecutor(1) as pool:
            client = ServiceClient(svc.url)
            client.submit(**SWEEP)
            wait_until(
                lambda: client.leases()["pending_runs"] == SWEEP_TOTAL,
                what="runs to queue",
            )
            zombie = client.lease(worker="zombie", max_runs=64, ttl=1)
            assert len(zombie["runs"]) == SWEEP_TOTAL
            future, started = held_lease(
                pool, client, "rescuer", max_runs=64
            )
            grant = future.result(timeout=HOLD_S + 5)
            # the 1 s TTL plus a reaper tick, not the 8 s hold
            assert time.monotonic() - started < HOLD_S / 2
            assert ({run["key"] for run in grant["runs"]}
                    == {run["key"] for run in zombie["runs"]})
            close_out(client, grant)

    def test_drain_releases_held_lease(self, tmp_path):
        with remote_service(tmp_path) as svc, \
                ThreadPoolExecutor(1) as pool:
            client = ServiceClient(svc.url)
            future, started = held_lease(pool, client, "held")
            svc._loop.call_soon_threadsafe(
                svc.service.scheduler.begin_drain
            )
            grant = future.result(timeout=HOLD_S + 5)
            assert time.monotonic() - started < HOLD_S / 2
            assert grant["runs"] == [] and grant["draining"] is True

    def test_concurrent_held_leases_split_the_job(self, tmp_path):
        with remote_service(tmp_path) as svc, \
                ThreadPoolExecutor(2) as pool:
            client = ServiceClient(svc.url)
            held = [
                held_lease(pool, client, name, max_runs=SWEEP_TOTAL // 2)[0]
                for name in ("held-a", "held-b")
            ]
            submitted = time.monotonic()
            job = client.submit(**SWEEP)["job"]
            grants = [future.result(timeout=HOLD_S + 5) for future in held]
            assert time.monotonic() - submitted < HOLD_S / 4
            keys = [{run["key"] for run in grant["runs"]}
                    for grant in grants]
            assert keys[0] and keys[1] and not keys[0] & keys[1]
            assert keys[0] | keys[1] == {
                run["key"] for run in client.job(job)["runs"]
            }
            close_out(client, *grants)

    def test_disconnected_held_lease_grants_nothing(self, tmp_path):
        import socket

        with remote_service(tmp_path) as svc:
            client = ServiceClient(svc.url)
            body = json.dumps({"worker": "ghost", "wait": HOLD_S}).encode()
            ghost = socket.create_connection(("127.0.0.1", svc.service.port))
            ghost.sendall(
                b"POST /v1/leases HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(body)).encode()
                + b"\r\n\r\n" + body
            )
            wait_until(
                lambda: "ghost" in {
                    w["name"] for w in client.workers()["workers"]
                },
                what="the ghost to register before its hold",
            )
            ghost.close()  # SIGTERMed mid-hold
            client.submit(**SWEEP)
            wait_until(
                lambda: client.leases()["pending_runs"] == SWEEP_TOTAL,
                what="runs to queue",
            )
            time.sleep(0.3)  # the woken ghost handler has run by now
            snapshot = client.leases()
            assert snapshot["active"] == []
            assert snapshot["pending_runs"] == SWEEP_TOTAL
            close_out(client, client.lease(worker="closer", max_runs=64))


SETTLE_ROUTE = '{route="/v1/leases/{id}/settle"'


def settle_posts(client: ServiceClient) -> int:
    """Settle requests the coordinator has served, whatever their
    status (``repro_service_requests`` on the settle route)."""
    return sum(
        int(float(line.rsplit(" ", 1)[1]))
        for line in client.metrics().splitlines()
        if line.startswith("repro_service_requests" + SETTLE_ROUTE)
    )


def record_runs(monkeypatch, extra_s: float = 0.0) -> list:
    """Record the keys an in-process worker executes, in order, and
    make each of its runs take *extra_s* seconds longer."""
    import repro.service.worker as worker_mod

    executed = []
    execute_one = worker_mod._execute_one

    def execute(key, run):
        executed.append(key)
        outcome = execute_one(key, run)
        time.sleep(extra_s)
        return outcome

    monkeypatch.setattr(worker_mod, "_execute_one", execute)
    return executed


class TestBatchedSettle:
    """A worker settles a lease's outcomes in one POST at batch end,
    or earlier once half the lease TTL has passed since its last send."""

    WIDE = dict(
        configs="L1-SRAM,By-NVM,FA-SRAM,Dy-FUSE",
        workloads="2DCONV,ATAX,BICG,MVT", scale="smoke", num_sms=2, seed=0,
    )

    def test_one_settle_per_lease_and_store_matches_local_sweep(
        self, tmp_path
    ):
        store = tmp_path / "store.jsonl"
        with remote_service(tmp_path, store_path=store) as svc:
            client = ServiceClient(svc.url)
            accepted = client.submit(**self.WIDE)
            assert accepted["total"] == 16
            wait_until(
                lambda: client.leases()["pending_runs"] == 16,
                what="runs to queue",
            )
            worker = spawn_worker(svc.url, "batcher", max_runs=8)
            try:
                snap = client.wait(accepted["job"], timeout=120)
            finally:
                stop_workers(worker)
            assert snap["state"] == "done"
            assert snap["fresh"] == 16
            # two leases of 8, one settle POST each
            wait_until(
                lambda: settle_posts(client) >= 2, what="settle metrics"
            )
            assert settle_posts(client) == 2

        local = tmp_path / "local.jsonl"
        sweep = subprocess.run(
            [sys.executable, "-m", "repro", "sweep",
             "--configs", self.WIDE["configs"],
             "--workloads", self.WIDE["workloads"], "--scale", "smoke",
             "--sms", "2", "--workers", "1", "--store", str(local),
             "--quiet"],
            env=subprocess_env(REPRO_SPANS=""),
            capture_output=True, text=True, timeout=120,
        )
        assert sweep.returncode == 0, sweep.stderr

        def lines_by_key(path):
            return {
                json.loads(line)["key"]: line
                for line in path.read_bytes().splitlines()
            }

        fleet = lines_by_key(store)
        assert len(fleet) == 16
        assert fleet == lines_by_key(local)

    def test_long_batch_sends_at_half_ttl_and_is_never_reaped(
        self, tmp_path, monkeypatch
    ):
        """Four 1 s runs under a 3 s lease: one send at the end would
        come 4 s after the grant, past the TTL.  Sending once 1.5 s have
        passed keeps the lease alive."""
        import repro.service.worker as worker_mod

        executed = record_runs(monkeypatch, 1.0)
        batches = []

        class CountingClient(ServiceClient):
            def settle(self, lease_id, runs, heartbeat=None):
                batches.append(len(runs))
                return super().settle(lease_id, runs, heartbeat=heartbeat)

        monkeypatch.setattr(worker_mod, "ServiceClient", CountingClient)
        with remote_service(tmp_path) as svc:
            client = ServiceClient(svc.url)
            accepted = client.submit(**SWEEP)
            wait_until(
                lambda: client.leases()["pending_runs"] == SWEEP_TOTAL,
                what="runs to queue",
            )
            assert run_worker(
                svc.url, name="slow", max_runs=SWEEP_TOTAL, ttl=3,
                once=True,
            ) == 0
            snap = client.wait(accepted["job"], timeout=30)
            assert snap["state"] == "done"
            assert snap["fresh"] == SWEEP_TOTAL
            assert len(executed) == SWEEP_TOTAL
            # 2 s after the grant, then at batch end
            assert batches == [2, 2]
            wait_until(
                lambda: settle_posts(client) >= len(batches),
                what="settle metrics",
            )
            assert settle_posts(client) == len(batches)
            assert metric_value(client.metrics(), "repro_lease_expired") == 0

    def test_reaped_batch_gets_410_and_worker_leases_afresh(
        self, tmp_path, monkeypatch
    ):
        """A worker holds a four-run lease past its TTL while another
        worker settles the runs.  Its first send is 410 Gone: it drops
        the rest of the batch unexecuted, leases again and runs the
        next job."""
        executed = record_runs(monkeypatch)
        lines = []
        with remote_service(tmp_path) as svc, \
                ThreadPoolExecutor(1) as pool:
            client = ServiceClient(svc.url)
            first = client.submit(**SWEEP)
            wait_until(
                lambda: client.leases()["pending_runs"] == SWEEP_TOTAL,
                what="runs to queue",
            )
            worker = pool.submit(
                run_worker, svc.url, name="late", max_runs=SWEEP_TOTAL,
                ttl=1, poll_s=0.1, hold_s=3.0, log=lines.append,
            )
            try:
                wait_until(
                    lambda: not client.leases()["pending_runs"],
                    what="the late worker to lease the batch",
                )
                wait_until(
                    lambda: client.leases()["pending_runs"] == SWEEP_TOTAL,
                    what="the reaper to re-queue the batch",
                )
                rescue = client.lease(worker="rescuer", max_runs=SWEEP_TOTAL)
                assert len(rescue["runs"]) == SWEEP_TOTAL
                close_out(client, rescue)
                assert client.wait(first["job"], timeout=30)["errors"] \
                    == SWEEP_TOTAL

                wait_until(
                    lambda: any("expired, re-leasing" in line
                                for line in lines),
                    what="the late worker's send to be refused",
                )
                assert len(executed) == 1  # the unsent batch was dropped
                second = client.submit(
                    configs="Dy-FUSE", workloads="ATAX", scale="smoke",
                    num_sms=2,
                )
                snap = client.wait(second["job"], timeout=30)
                assert snap["state"] == "done" and snap["fresh"] == 1
                assert snap["runs"][0]["worker"] == "late"
                assert len(executed) == 2
            finally:
                # a draining coordinator lets the worker thread exit
                svc._loop.call_soon_threadsafe(
                    svc.service.scheduler.begin_drain
                )
            assert worker.result(timeout=30) == 0
            refused = metric_value(
                client.metrics(), "repro_service_requests",
                SETTLE_ROUTE + ',status="410"}',
            )
            assert refused == 1


class _StubClient:
    """Stands in for ServiceClient inside run_worker: replays scripted
    lease answers, advancing a fake clock by each answer's hold."""

    def __init__(self, clock, answers):
        self.clock = clock
        self.answers = list(answers)
        self.lease_kwargs = []

    def lease(self, **kwargs):
        self.lease_kwargs.append(kwargs)
        held_s, answer = self.answers.pop(0)
        self.clock[0] += held_s
        if isinstance(answer, Exception):
            raise answer
        return answer

    def settle(self, lease_id, runs, heartbeat=None):
        return {"settled": len(runs), "draining": True}


class TestWorkerPacing:
    EMPTY = {"lease": None, "runs": [], "draining": False}
    DRAINED = {"lease": None, "runs": [], "draining": True}

    def run(self, monkeypatch, answers, poll_s=0.5):
        import types

        import repro.service.worker as worker_mod

        clock, sleeps = [100.0], []

        def sleep(seconds):
            sleeps.append(seconds)
            clock[0] += seconds

        monkeypatch.setattr(worker_mod, "time", types.SimpleNamespace(
            monotonic=lambda: clock[0], sleep=sleep,
            perf_counter=time.perf_counter,
        ))
        stub = _StubClient(clock, answers)
        monkeypatch.setattr(worker_mod, "ServiceClient", lambda *a, **k: stub)
        lines = []
        code = run_worker("http://stub", name="w", poll_s=poll_s,
                          log=lines.append)
        return code, sleeps, stub, lines

    def test_held_answer_re_leases_at_once(self, monkeypatch):
        code, sleeps, stub, _ = self.run(monkeypatch, [
            (0.5, self.EMPTY), (0.5, self.EMPTY), (0.0, self.DRAINED),
        ])
        assert code == 0
        assert sleeps == []
        assert all(kw["wait"] == 0.5 for kw in stub.lease_kwargs)

    def test_wait_is_floored_and_capped(self, monkeypatch):
        from repro.service.leases import MAX_LEASE_WAIT_S
        from repro.service.worker import MIN_POLL_S

        for poll_s, wait in ((0.0, MIN_POLL_S), (600.0, MAX_LEASE_WAIT_S)):
            _, _, stub, _ = self.run(
                monkeypatch, [(0.0, self.DRAINED)], poll_s=poll_s
            )
            assert stub.lease_kwargs[0]["wait"] == wait

    def test_unreachable_after_drain_exits_zero(self, monkeypatch):
        import repro.service.worker as worker_mod

        monkeypatch.setattr(
            worker_mod, "_execute_one",
            lambda key, run: {"key": key, "error": "stub"},
        )
        grant = {"lease": "l1", "ttl": 60.0, "runs": [{"key": "k" * 64}],
                 "draining": False}
        code, _, _, lines = self.run(monkeypatch, [
            (0.0, grant),  # the settle reply says draining
            (0.0, ServiceError(0, "connection refused")),
        ])
        assert code == 0
        assert "drained and closed" in lines[-1]


class TestRemoteDrain:
    def test_sigterm_mid_job_drains_through_the_fleet(self, tmp_path):
        """SIGTERM a --remote coordinator while its only worker is mid
        job: the listener stays open until the job drains, so the
        worker settles every run, then the coordinator exits 0."""
        import signal

        from faultutil import free_port, spawn_coordinator, wait_for_service

        port = free_port()
        url = f"http://127.0.0.1:{port}"
        store = tmp_path / "store.jsonl"
        coordinator = spawn_coordinator(port, store=store)
        worker = None
        try:
            wait_for_service(url, coordinator)
            worker = spawn_worker(url, "drainer", max_runs=1, hold_s=1)
            client = ServiceClient(url)
            wait_until(
                lambda: client.workers()["workers"],
                what="the worker to register",
            )
            client.submit(**SWEEP)
            time.sleep(0.5)
            coordinator.send_signal(signal.SIGTERM)
            assert coordinator.wait(45) == 0
            assert worker.wait(15) == 0
            log = worker.stderr.read().decode()
            assert "exiting" in log and "unreachable" not in log, log
        finally:
            for proc in (coordinator, worker):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.wait(10)
        assert len(ResultStore(store)) == SWEEP_TOTAL
