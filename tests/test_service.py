"""Tests for the simulation service: job model, scheduler single-flight,
HTTP server end-to-end (bit-identity, dedup, backpressure, SSE)."""

from __future__ import annotations

import asyncio
import pathlib
import re
import threading
import time

import pytest

from repro.cache.stats import CacheStats
from repro.engine.engine import RunOutcome
from repro.engine.store import ResultStore
from repro.engine.serialize import result_to_dict
from repro.engine.spec import RunSpec, execute_spec
from repro.gpu.stats import MemorySystemStats, SimulationResult
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import InvalidRequest, Job, SweepRequest, job_id_for
from repro.service.leases import DEFAULT_LEASE_TTL_S, LeaseManager
from repro.service.scheduler import Draining, JobScheduler, QueueFull
from repro.service.server import (
    _FIXED_ROUTES,
    BackgroundService,
    SimulationService,
    _route_label,
)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def payload(**overrides):
    base = {
        "configs": ["L1-SRAM"], "workloads": ["ATAX"],
        "scale": "smoke", "num_sms": 2,
    }
    base.update(overrides)
    return base


def request(**overrides) -> SweepRequest:
    return SweepRequest.from_payload(payload(**overrides))


def fake_result(spec: RunSpec) -> SimulationResult:
    return SimulationResult(
        config_name=spec.l1d.name, workload_name=spec.workload,
        cycles=100, instructions=50, l1d=CacheStats(),
        memory=MemorySystemStats(),
    )


class StubEngine:
    """Engine double: records every dispatch, optionally blocks or fails.

    ``release`` starts set (non-blocking); clear it to hold run_specs
    open until the test releases it -- that is the window in which
    single-flight attachment and queue backpressure are observable.
    """

    def __init__(self, store=None, fail: bool = False):
        self.store = store
        self.workers = 1
        self.fail = fail
        self.dispatches = []  # list of key-digest lists, one per call
        self.started = threading.Event()
        self.release = threading.Event()
        self.release.set()

    def run_specs(self, specs, progress=None, on_outcome=None):
        self.dispatches.append([spec.key().digest for spec in specs])
        self.started.set()
        assert self.release.wait(30.0), "stub engine never released"
        if self.fail:
            raise RuntimeError("engine exploded")
        outcomes = []
        for spec in specs:
            outcome = RunOutcome(
                spec=spec, key=spec.key().digest,
                result=fake_result(spec), source="fresh",
            )
            if on_outcome is not None:
                on_outcome(outcome)
            outcomes.append(outcome)
        return outcomes


def metric(exposition: str, name: str) -> float:
    match = re.search(rf"^{name} (\S+)$", exposition, re.MULTILINE)
    assert match, f"{name} not in /metrics"
    return float(match.group(1))


def counter(scheduler: JobScheduler, name: str) -> int:
    """A scheduler's ``repro_service_<name>`` counter, read from its
    metrics registry."""
    return int(scheduler.registry.counter(f"repro_service_{name}", "").value)


async def wait_job(job: Job, timeout: float = 15.0) -> None:
    deadline = time.monotonic() + timeout
    while not job.done:
        assert time.monotonic() < deadline, f"job stuck in {job.state}"
        await asyncio.sleep(0.005)


async def engine_started(engine: StubEngine, timeout: float = 10.0) -> None:
    loop = asyncio.get_running_loop()
    assert await loop.run_in_executor(None, engine.started.wait, timeout)


# ----------------------------------------------------------------------
# request validation + canonicalisation
# ----------------------------------------------------------------------
class TestSweepRequest:
    def test_round_trip(self):
        req = request()
        assert req.configs == ("L1-SRAM",)
        assert req.workloads == ("ATAX",)
        assert req.scale == "smoke"
        assert req.num_sms == 2

    def test_comma_strings_accepted(self):
        req = request(configs="L1-SRAM, Dy-FUSE", workloads="ATAX,BICG")
        assert req.configs == ("L1-SRAM", "Dy-FUSE")
        assert req.workloads == ("ATAX", "BICG")

    def test_suite_expansion_canonicalises(self):
        by_suite = request(workloads=["DNN"])
        by_name = request(workloads=["conv2d", "gemm-tile", "attention"])
        assert by_suite.workloads == by_name.workloads
        assert (
            Job(by_suite, by_suite.to_specs()).id
            == Job(by_name, by_name.to_specs()).id
        )

    @pytest.mark.parametrize("bad", [
        {"configs": []},
        {"configs": "L1-MAGIC"},
        {"workloads": ["NOPE"]},
        {"gpu_profile": "pascal"},
        {"scale": "huge"},
        {"seed": "zero"},
        {"seed": True},
        {"num_sms": 0},
        {"num_sms": 100_000_000},  # one request must not OOM the workers
        {"typo_field": 1},
        {"backend": "interp"},  # removed field: a 400, not silently ignored
        {"timeline": 50},  # removed field, as above
    ])
    def test_invalid_payloads_rejected(self, bad):
        with pytest.raises(InvalidRequest):
            request(**bad)

    def test_file_path_workload_is_an_unknown_workload(self):
        """A workload token naming a server-side file is refused by
        name, before anything could open the file."""
        with pytest.raises(InvalidRequest, match="unknown workload"):
            request(workloads=["trace:/etc/hosts"])

    def test_non_object_body_rejected(self):
        with pytest.raises(InvalidRequest):
            SweepRequest.from_payload(["not", "an", "object"])

    def test_missing_required_fields(self):
        with pytest.raises(InvalidRequest):
            SweepRequest.from_payload({"configs": ["L1-SRAM"]})


class TestJobIdentity:
    def test_job_id_is_order_and_dup_insensitive(self):
        assert job_id_for(["b", "a"]) == job_id_for(["a", "b", "a"])
        assert job_id_for(["a"]) != job_id_for(["a", "b"])

    def test_job_dedupes_specs_by_key(self):
        req = request(configs=["L1-SRAM", "L1-SRAM"])
        job = Job(req, req.to_specs())
        assert job.counters["total"] == 1

    def test_same_ask_same_id_different_ask_different_id(self):
        one = Job(request(), request().to_specs())
        two = Job(request(), request().to_specs())
        other = Job(request(seed=7), request(seed=7).to_specs())
        assert one.id == two.id
        assert one.id != other.id


# ----------------------------------------------------------------------
# scheduler single-flight
# ----------------------------------------------------------------------
class TestSchedulerSingleFlight:
    def test_concurrent_identical_jobs_one_dispatch(self):
        async def scenario():
            engine = StubEngine()
            engine.release.clear()
            scheduler = JobScheduler(engine)
            job1, created1 = scheduler.submit(request())
            job2, created2 = scheduler.submit(request())
            assert created1 and not created2
            assert job1 is job2
            await engine_started(engine)
            engine.release.set()
            await wait_job(job1)
            assert len(engine.dispatches) == 1
            assert counter(scheduler, "jobs_coalesced") == 1
            assert job1.counters["fresh"] == 1

        asyncio.run(scenario())

    def test_overlapping_keys_attach_to_inflight_job(self):
        async def scenario():
            engine = StubEngine()
            engine.release.clear()
            scheduler = JobScheduler(engine)
            job_a, _ = scheduler.submit(request(workloads=["ATAX", "BICG"]))
            await engine_started(engine)  # A holds its keys in flight
            job_b, _ = scheduler.submit(request(workloads=["BICG", "GEMM"]))
            assert job_a is not job_b
            engine.release.set()
            await wait_job(job_a)
            await wait_job(job_b)
            # the shared BICG key was dispatched exactly once, by A
            dispatched = [k for keys in engine.dispatches for k in keys]
            shared = [
                key for key, spec in job_b.specs.items()
                if spec.workload == "BICG"
            ][0]
            assert dispatched.count(shared) == 1
            assert job_b.runs[shared].source == "coalesced"
            assert job_b.counters["coalesced"] == 1
            assert job_b.counters["fresh"] == 1  # GEMM only
            assert counter(scheduler, "keys_coalesced") == 1

        asyncio.run(scenario())

    def test_completed_keys_served_from_memory_mirror(self):
        async def scenario():
            engine = StubEngine()
            scheduler = JobScheduler(engine)
            job1, _ = scheduler.submit(request())
            await wait_job(job1)
            job2, _ = scheduler.submit(request())
            await wait_job(job2)
            assert len(engine.dispatches) == 1  # second job never dispatched
            assert job2.counters["store_hits"] == job2.counters["total"] == 1
            assert job2.counters["fresh"] == 0

        asyncio.run(scenario())

    def test_queue_full_raises(self):
        async def scenario():
            engine = StubEngine()
            engine.release.clear()
            scheduler = JobScheduler(engine, max_queue=1)
            job1, _ = scheduler.submit(request(seed=1))
            await engine_started(engine)
            scheduler.submit(request(seed=2))  # fills the one queue slot
            with pytest.raises(QueueFull):
                scheduler.submit(request(seed=3))
            # identical to the *queued* job: coalesces instead of 429
            _, created = scheduler.submit(request(seed=2))
            assert not created
            engine.release.set()
            await wait_job(job1)
            await wait_job(scheduler.jobs[Job(
                request(seed=2), request(seed=2).to_specs()
            ).id])

        asyncio.run(scenario())

    def test_draining_rejects_submissions(self):
        async def scenario():
            scheduler = JobScheduler(StubEngine())
            scheduler.draining = True
            with pytest.raises(Draining):
                scheduler.submit(request())

        asyncio.run(scenario())

    def test_wide_local_job_is_one_dispatch(self):
        """The in-process lessee takes every pending key in one lease,
        however many: one run_specs call, one process pool."""
        async def scenario():
            engine = StubEngine()
            scheduler = JobScheduler(engine)
            wide = request(
                configs=["L1-SRAM", "By-NVM", "Dy-FUSE"],
                workloads=["2DCONV", "2MM", "3MM", "ATAX", "BICG", "cfd",
                           "FDTD", "gaussian", "GEMM", "GESUMMV", "II",
                           "MVT", "PVC", "PVR", "pathf", "SS", "srad_v1",
                           "SM", "SYR2K", "mri-g", "histo", "conv2d"],
            )
            job, _ = scheduler.submit(wide)
            await wait_job(job)
            assert job.counters["total"] == 66
            assert job.counters["fresh"] == 66
            assert len(engine.dispatches) == 1
            assert sorted(engine.dispatches[0]) == sorted(job.specs)

        asyncio.run(scenario())

    def test_in_process_lease_is_never_reaped(self):
        async def scenario():
            engine = StubEngine()
            engine.release.clear()
            scheduler = JobScheduler(engine)
            now = [100.0]
            scheduler.leases = LeaseManager(clock=lambda: now[0])
            job, _ = scheduler.submit(request(workloads=["ATAX", "BICG"]))
            await engine_started(engine)
            now[0] += 10 * DEFAULT_LEASE_TTL_S
            scheduler.reap_expired()
            # still held, nothing re-queued for a second dispatch
            (held,) = scheduler.leases.snapshot()["active"]
            assert held["unsettled"] == 2
            assert scheduler.leases.pending_runs == 0
            engine.release.set()
            await wait_job(job)
            assert len(engine.dispatches) == 1
            assert job.counters["fresh"] == 2

        asyncio.run(scenario())

    def test_store_write_failure_still_settles(self, tmp_path, capsys):
        async def scenario():
            store = ResultStore(tmp_path / "store.jsonl")

            def full_disk(key, record):
                raise OSError(28, "No space left on device")

            store.put_record = full_disk
            scheduler = JobScheduler(StubEngine(), store=store)
            job, _ = scheduler.submit(request(workloads=["ATAX", "BICG"]))
            await wait_job(job)
            assert job.state == "done"
            assert job.counters["fresh"] == 2
            for key in job.specs:  # served from memory, not the store
                assert scheduler.result_record(key) is not None
            assert len(store) == 0

        asyncio.run(scenario())
        assert "result store write failed" in capsys.readouterr().err

    def test_engine_failure_fails_job_and_releases_attached(self):
        async def scenario():
            engine = StubEngine(fail=True)
            engine.release.clear()
            scheduler = JobScheduler(engine)
            job_a, _ = scheduler.submit(request(workloads=["ATAX"]))
            await engine_started(engine)
            job_b, _ = scheduler.submit(request(workloads=["ATAX", "BICG"]))
            engine.release.set()
            await wait_job(job_a)
            await wait_job(job_b)
            assert job_a.state == "failed"
            assert "engine exploded" in job_a.error
            # B must not hang on the attached key; its settle is an error
            attached = [
                key for key, spec in job_b.specs.items()
                if spec.workload == "ATAX"
            ][0]
            assert job_b.runs[attached].state == "done"
            assert job_b.runs[attached].error is not None

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# HTTP end-to-end (real engine, smoke scale)
# ----------------------------------------------------------------------
class TestServiceEndToEnd:
    CONFIGS = ["L1-SRAM", "Dy-FUSE"]

    def test_results_over_http_bit_identical_and_warm_store(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        with BackgroundService(store_path=store_path, workers=1) as svc:
            client = ServiceClient(svc.url)
            assert client.healthz()["status"] == "ok"

            snapshot = client.run_to_completion(
                self.CONFIGS, ["ATAX"], scale="smoke", num_sms=2,
            )
            assert snapshot["state"] == "done"
            assert snapshot["fresh"] == snapshot["total"] == 2
            assert snapshot["errors"] == 0

            # every result served over HTTP is bit-identical to a direct
            # in-process engine run of the same spec
            for run in snapshot["runs"]:
                spec = RunSpec.build(
                    run["config"], run["workload"], scale="smoke", num_sms=2,
                )
                assert spec.key().digest == run["key"]
                record = client.result(run["key"])
                assert record["result"] == result_to_dict(execute_spec(spec))

            # identical resubmission on the warm store: zero simulations
            accepted = client.submit(
                self.CONFIGS, ["ATAX"], scale="smoke", num_sms=2,
            )
            warm = client.wait(accepted["job"], timeout=60)
            assert warm["store_hits"] == warm["total"] == 2
            assert warm["fresh"] == 0

        # a *fresh* service process over the same store file also answers
        # from disk -- the dedup is content-addressed, not per-process
        with BackgroundService(store_path=store_path, workers=1) as svc:
            client = ServiceClient(svc.url)
            snapshot = client.run_to_completion(
                self.CONFIGS, ["ATAX"], scale="smoke", num_sms=2,
            )
            assert snapshot["store_hits"] == snapshot["total"] == 2
            assert snapshot["fresh"] == 0

    def test_sse_stream_reports_progress(self, tmp_path):
        with BackgroundService(
            store_path=tmp_path / "s.jsonl", workers=1
        ) as svc:
            client = ServiceClient(svc.url)
            accepted = client.submit(
                ["L1-SRAM"], ["ATAX"], scale="smoke", num_sms=2,
            )
            events = list(client.events(accepted["job"]))
            names = [name for name, _ in events]
            assert names[0] == "snapshot"
            assert names[-1] == "done"
            final = events[-1][1]
            assert final["state"] == "done"
            assert final["completed"] == final["total"] == 1

    def test_job_snapshot_and_errors(self, tmp_path):
        with BackgroundService(
            store_path=tmp_path / "s.jsonl", workers=1
        ) as svc:
            client = ServiceClient(svc.url)
            with pytest.raises(ServiceError) as err:
                client.job("not-a-job")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client.result("0" * 64)
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client.submit(["L1-MAGIC"], ["ATAX"])
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                client._request("POST", "/v1/sweeps", {"configs": ["L1-SRAM"]})
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                client._request("GET", "/v1/nope")
            assert err.value.status == 404

    def test_local_runs_go_through_the_lease_queue(self, tmp_path):
        with BackgroundService(
            store_path=tmp_path / "s.jsonl", workers=1
        ) as svc:
            client = ServiceClient(svc.url)
            cold = client.run_to_completion(
                self.CONFIGS, ["ATAX"], scale="smoke", num_sms=2,
            )
            leased = metric(client.metrics(), "repro_lease_runs_leased")
            assert leased == cold["fresh"] == 2
            warm = client.run_to_completion(
                self.CONFIGS, ["ATAX"], scale="smoke", num_sms=2,
            )
            assert warm["store_hits"] == 2
            assert metric(
                client.metrics(), "repro_lease_runs_leased") == leased

    def test_metrics_exposed(self, tmp_path):
        with BackgroundService(
            store_path=tmp_path / "s.jsonl", workers=1
        ) as svc:
            client = ServiceClient(svc.url)
            client.run_to_completion(
                ["L1-SRAM"], ["ATAX"], scale="smoke", num_sms=2,
            )
            text = client.metrics()
            assert "repro_service_active_jobs 0" in text
            assert "repro_service_runs_fresh 1" in text
            assert "repro_service_store_records 1" in text
            assert "repro_service_uptime_seconds" in text


class TestServiceBackpressure:
    def _stub_service(self, **scheduler_kwargs) -> tuple:
        engine = StubEngine()
        scheduler = JobScheduler(engine, **scheduler_kwargs)
        return engine, SimulationService(scheduler, port=0)

    def test_full_queue_returns_429(self):
        engine, service = self._stub_service(max_queue=0)
        engine.release.clear()
        with BackgroundService(service=service) as svc:
            client = ServiceClient(svc.url)
            accepted = client.submit(
                ["L1-SRAM"], ["ATAX"], scale="smoke", num_sms=2,
            )
            assert engine.started.wait(10.0)
            with pytest.raises(ServiceError) as err:
                client.submit(["L1-SRAM"], ["BICG"], scale="smoke", num_sms=2)
            assert err.value.status == 429
            engine.release.set()
            final = client.wait(accepted["job"], timeout=30)
            assert final["state"] == "done"

    def test_oversized_header_line_gets_400_not_dropped(self):
        import socket

        _, service = self._stub_service()
        with BackgroundService(service=service) as svc:
            with socket.create_connection(
                ("127.0.0.1", service.port), timeout=10
            ) as sock:
                sock.sendall(
                    b"GET /healthz HTTP/1.1\r\nX-Pad: "
                    + b"a" * 70_000 + b"\r\n\r\n"
                )
                response = b""
                while b"\r\n\r\n" not in response:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    response += chunk
            assert response.startswith(b"HTTP/1.1 400 ")
            # and the service is still healthy afterwards
            assert ServiceClient(svc.url).healthz()["status"] == "ok"

    def test_oversized_body_rejected(self):
        _, service = self._stub_service()
        service.max_body = 512
        with BackgroundService(service=service) as svc:
            client = ServiceClient(svc.url)
            with pytest.raises(ServiceError) as err:
                client._request(
                    "POST", "/v1/sweeps",
                    {"configs": ["L1-SRAM"], "workloads": ["x" * 2048]},
                )
            assert err.value.status == 413

    def test_drain_finishes_accepted_jobs(self):
        engine, service = self._stub_service()
        engine.release.clear()
        with BackgroundService(service=service) as svc:
            client = ServiceClient(svc.url)
            accepted = client.submit(
                ["L1-SRAM"], ["ATAX"], scale="smoke", num_sms=2,
            )
            assert engine.started.wait(10.0)
            job_id = accepted["job"]
            # request the drain while the job is mid-flight, then let the
            # engine finish; __exit__ joins the server thread
            service.scheduler.draining = True
            with pytest.raises(ServiceError) as err:
                client.submit(["L1-SRAM"], ["BICG"], scale="smoke",
                              num_sms=2)
            assert err.value.status == 503
            engine.release.set()
            final = client.wait(job_id, timeout=30)
            assert final["state"] == "done"


# ----------------------------------------------------------------------
# storeless operation
# ----------------------------------------------------------------------
class TestStorelessService:
    def test_memory_mirror_dedupes_without_store(self):
        with BackgroundService(no_store=True, workers=1) as svc:
            client = ServiceClient(svc.url)
            cold = client.run_to_completion(
                ["L1-SRAM"], ["ATAX"], scale="smoke", num_sms=2,
            )
            assert cold["fresh"] == 1
            key = cold["runs"][0]["key"]
            assert client.result(key)["result"]["cycles"] > 0
            warm = client.run_to_completion(
                ["L1-SRAM"], ["ATAX"], scale="smoke", num_sms=2,
            )
            assert warm["store_hits"] == 1
            assert warm["fresh"] == 0


# ----------------------------------------------------------------------
# the documented wire API and the route table agree
# ----------------------------------------------------------------------
class TestDocumentedRoutes:
    DOC = pathlib.Path(__file__).resolve().parent.parent / "docs" / (
        "service-api.md")

    def documented(self):
        """``(method, path)`` of every ``### `METHOD /path` `` heading."""
        headings = re.findall(
            r"^### `([A-Z]+) (/[^`?\s]*)[^`]*`", self.DOC.read_text(),
            re.MULTILINE,
        )
        assert headings, f"no endpoint headings in {self.DOC}"
        return headings

    def test_every_heading_is_a_route(self):
        for method, path in self.documented():
            assert _route_label(path) != "other", f"{method} {path}"

    def test_every_fixed_route_has_a_heading(self):
        paths = {path for _method, path in self.documented()}
        assert set(_FIXED_ROUTES) <= paths

    def test_standalone_heartbeat_is_gone(self):
        with BackgroundService(no_store=True, remote=True) as svc:
            client = ServiceClient(svc.url)
            with pytest.raises(ServiceError) as excinfo:
                client._request(
                    "POST", "/v1/workers/heartbeat", {"name": "w"}
                )
            assert excinfo.value.status == 404
