"""Fleet observability: trace propagation and the worker registry.

Four layers of proof:

* :mod:`repro.telemetry.tracectx` units -- deterministic trace-id
  derivation, traceparent round-trips, thread-local adoption scopes;
* :func:`repro.telemetry.spans.merge_chrome_trace` -- several process'
  span logs join into one Chrome trace with per-(file, pid) tracks and
  the trace id preserved in event args;
* :class:`repro.service.registry.WorkerRegistry` units with an
  injectable clock (heartbeat folding, stale flagging, expiry) plus
  the HTTP surface (heartbeats on `POST /v1/leases`, `GET /v1/workers`,
  `GET /v1/jobs`, the 202/snapshot ``trace_id`` field);
* an end-to-end 2-worker fleet: both workers visible with non-zero
  settled counts, ``repro_fleet_*`` metrics consistent with the job
  ledger, and a merged Perfetto trace whose worker-side ``simulate``
  spans all carry the submitting job's trace id.
"""

import json
import re
import time

import pytest

from faultutil import free_port, spawn_worker, stop_workers
from repro.cli import main
from repro.service.client import ServiceClient, ServiceError
from repro.service.registry import WorkerRegistry
from repro.service.server import BackgroundService
from repro.telemetry.spans import (
    disable_spans,
    enable_spans,
    merge_chrome_trace,
    read_spans,
)
from repro.telemetry.tracectx import (
    current_trace_id,
    format_traceparent,
    parse_traceparent,
    span_id_for_key,
    trace_id_for_job,
    trace_scope,
)

SWEEP = dict(
    configs="L1-SRAM,By-NVM", workloads="2DCONV,ATAX",
    scale="smoke", num_sms=2, seed=0,
)
SWEEP_TOTAL = 4


def wait_until(predicate, timeout_s=20.0, poll_s=0.05, what="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(poll_s)
    raise AssertionError(f"timed out waiting for {what}")


def metric_value(exposition: str, name: str, labels: str = "") -> float:
    pattern = re.escape(name + labels) + r" ([0-9.eE+-]+)$"
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
class TestTraceContext:
    def test_trace_id_deterministic_32_hex(self):
        tid = trace_id_for_job("some-job-id")
        assert tid == trace_id_for_job("some-job-id")
        assert len(tid) == 32
        assert all(c in "0123456789abcdef" for c in tid)
        assert tid != trace_id_for_job("another-job-id")

    def test_span_id_from_run_key_digest(self):
        digest = "ab" * 32  # a 64-hex RunKey digest
        assert span_id_for_key(digest) == digest[:16]
        # non-hex keys hash down to a stable 16-hex id instead
        fallback = span_id_for_key("not hex at all")
        assert fallback == span_id_for_key("not hex at all")
        assert len(fallback) == 16
        assert fallback != "not hex at all"[:16]

    def test_traceparent_round_trip(self):
        trace_id = trace_id_for_job("j")
        span_id = span_id_for_key("f" * 64)
        header = format_traceparent(trace_id, span_id)
        assert header == f"00-{trace_id}-{span_id}-01"
        assert parse_traceparent(header) == (trace_id, span_id)
        assert parse_traceparent(header.upper()) == (trace_id, span_id)

    @pytest.mark.parametrize("garbage", [
        None, 42, "", "nonsense",
        "00-zz" + "0" * 30 + "-" + "0" * 16 + "-01",   # non-hex trace
        "00-" + "0" * 31 + "-" + "0" * 16 + "-01",     # short trace
        "00-" + "0" * 32 + "-" + "0" * 15 + "-01",     # short span
        "ff-" + "0" * 32 + "-" + "0" * 16 + "-01",     # unknown version
    ])
    def test_parse_rejects_garbage(self, garbage):
        assert parse_traceparent(garbage) is None

    def test_trace_scope_nests_and_restores(self):
        assert current_trace_id() is None
        with trace_scope("a" * 32):
            assert current_trace_id() == "a" * 32
            with trace_scope("b" * 32):
                assert current_trace_id() == "b" * 32
            assert current_trace_id() == "a" * 32
            with trace_scope(None):  # absent context: keep the outer one
                assert current_trace_id() == "a" * 32
        assert current_trace_id() is None

    def test_spans_carry_current_trace_id(self, tmp_path):
        log = tmp_path / "spans.jsonl"
        enable_spans(str(log))
        try:
            from repro.telemetry.spans import record_span
            with trace_scope("c" * 32):
                record_span("traced", 1000, 2000)
            record_span("untraced", 2000, 3000)
        finally:
            disable_spans()
        traced, untraced = read_spans(str(log))
        assert traced["trace_id"] == "c" * 32
        assert "trace_id" not in untraced


# ----------------------------------------------------------------------
def write_span_log(path, pid, names, trace_id=None, base_us=1_000_000):
    with open(path, "w", encoding="utf-8") as handle:
        for index, name in enumerate(names):
            record = {
                "v": 1, "name": name, "cat": "run",
                "ts_us": base_us + index * 100, "dur_us": 50,
                "pid": pid, "tid": 1, "args": {},
            }
            if trace_id is not None:
                record["trace_id"] = trace_id
            handle.write(json.dumps(record) + "\n")


class TestMergeChromeTrace:
    def test_merge_remaps_pids_to_per_file_tracks(self, tmp_path):
        # same raw pid in both logs: different hosts can collide
        coord = tmp_path / "coord.jsonl"
        worker = tmp_path / "worker.jsonl"
        write_span_log(coord, 4242, ["submit", "job"], trace_id="d" * 32)
        write_span_log(worker, 4242, ["simulate"], trace_id="d" * 32,
                       base_us=2_000_000)
        trace = merge_chrome_trace([str(coord), str(worker)])
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(meta) == 2  # one synthetic track per (file, pid)
        assert {m["args"]["name"] for m in meta} == {
            "coord.jsonl:4242", "worker.jsonl:4242",
        }
        assert {m["pid"] for m in meta} == {1, 2}
        # events land on their file's track, normalised to global t=0
        by_name = {e["name"]: e for e in events}
        assert by_name["submit"]["pid"] != by_name["simulate"]["pid"]
        assert by_name["submit"]["ts"] == 0
        assert by_name["simulate"]["ts"] == 1_000_000
        # the correlation key survives into the event args
        assert all(e["args"]["trace_id"] == "d" * 32 for e in events)

    def test_cli_spans_merge(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_span_log(a, 1, ["one"])
        write_span_log(b, 2, ["two", "three"])
        out = tmp_path / "merged.json"
        assert main(["spans", "merge", str(a), str(b),
                     "--chrome", str(out)]) == 0
        trace = json.loads(out.read_text())
        assert len([e for e in trace["traceEvents"]
                    if e["ph"] == "M"]) == 2
        assert len([e for e in trace["traceEvents"]
                    if e["ph"] == "X"]) == 3

    def test_cli_spans_merge_requires_chrome_and_logs(self, tmp_path):
        log = tmp_path / "a.jsonl"
        write_span_log(log, 1, ["one"])
        assert main(["spans", "merge", str(log)]) == 2  # no --chrome
        assert main(["spans", "merge",
                     "--chrome", str(tmp_path / "o.json")]) == 2
        # multiple logs without 'merge' is an explicit error, not a
        # silently-ignored tail
        assert main(["spans", str(log), str(log)]) == 2

    def test_single_log_summary_still_works(self, tmp_path, capsys):
        log = tmp_path / "a.jsonl"
        write_span_log(log, 1, ["simulate", "simulate"])
        assert main(["spans", str(log)]) == 0
        assert "simulate" in capsys.readouterr().out


# ----------------------------------------------------------------------
class TestWorkerRegistry:
    def make(self):
        now = [100.0]
        registry = WorkerRegistry(
            stale_after=30.0, expire_after=120.0, clock=lambda: now[0]
        )
        return now, registry

    def test_heartbeat_folds_telemetry(self):
        _, registry = self.make()
        state = registry.heartbeat({
            "name": "w1", "pid": 777, "host": "nodeA",
            "sim_cycles": 9000, "sim_seconds": 4.5, "arena_hit_rate": 0.75,
        })
        assert state is not None
        snap = registry.snapshot()["workers"][0]
        assert snap["name"] == "w1"
        assert snap["pid"] == 777
        assert snap["host"] == "nodeA"
        assert snap["state"] == "live"
        assert snap["sim_cycles"] == 9000
        assert snap["cycles_per_s"] == 2000.0
        assert snap["arena_hit_rate"] == 0.75
        # the coordinator ledger starts at zero regardless of claims
        assert snap["runs_settled"] == 0

    def test_heartbeat_lenient_on_garbage(self):
        _, registry = self.make()
        assert registry.heartbeat(None) is None
        assert registry.heartbeat("nope") is None
        assert registry.heartbeat({"pid": 1}) is None  # no name
        assert registry.heartbeat({"name": "   "}) is None
        # garbled fields are ignored, not fatal
        state = registry.heartbeat({
            "name": "w", "pid": "not-a-pid", "runs": "many",
            "sim_seconds": [], "backends": "wrong",
            "arena_hit_rate": 7.5,  # clamped into [0, 1]
        })
        assert state is not None
        snap = registry.snapshot()["workers"][0]
        assert snap["runs_settled"] == 0
        assert snap["arena_hit_rate"] == 1.0
        assert len(registry.snapshot()["workers"]) == 1
        # unknown fields (a per-backend run split, say) are ignored
        state = registry.heartbeat({
            "name": "w", "runs": 3, "backends": {"interp": 2, "fast": 1},
        })
        assert state is not None
        snap = registry.snapshot()["workers"][0]
        assert "backends" not in snap
        assert len(registry.snapshot()["workers"]) == 1

    def test_name_clamped(self):
        _, registry = self.make()
        registry.heartbeat({"name": "x" * 500})
        snap = registry.snapshot()["workers"][0]
        assert len(snap["name"]) == 120

    def test_settle_ledger_is_coordinator_side(self):
        _, registry = self.make()
        registry.record_lease("w1")
        registry.record_settle("w1", "fresh")
        registry.record_settle("w1", "error")
        snap = registry.snapshot()["workers"][0]
        assert snap["leases"] == 1
        assert snap["runs_settled"] == 2
        assert snap["errors"] == 1

    def test_stale_then_expired_with_injectable_clock(self):
        now, registry = self.make()
        registry.touch("w1")
        now[0] = 120.0
        registry.touch("w2")
        assert registry.count("live") == 2

        now[0] = 140.0  # w1 silent 40s > stale_after=30
        assert registry.count("live") == 1
        assert registry.count("stale") == 1
        states = {w["name"]: w["state"]
                  for w in registry.snapshot()["workers"]}
        assert states == {"w1": "stale", "w2": "live"}
        assert registry.expire() == []  # flagged but not dropped yet

        now[0] = 230.0  # w1 silent 130s > expire_after=120
        assert registry.expire() == ["w1"]
        assert len(registry.snapshot()["workers"]) == 1
        assert registry.expired_total == 1
        assert registry.snapshot()["expired_total"] == 1
        # contact resurrects an expired worker as a fresh entry
        registry.touch("w1")
        assert registry.count("live") >= 1

    def test_fleet_cycles_sums_live_workers_only(self):
        now, registry = self.make()
        registry.heartbeat(
            {"name": "fast", "sim_cycles": 1000, "sim_seconds": 1.0})
        now[0] = 120.0
        registry.heartbeat(
            {"name": "slow", "sim_cycles": 100, "sim_seconds": 1.0})
        assert registry.fleet_cycles_per_second() == 1100.0
        now[0] = 140.0  # "fast" went stale: drops out of the aggregate
        assert registry.fleet_cycles_per_second() == 100.0


# ----------------------------------------------------------------------
def heartbeat_lease(client, heartbeat, worker="w"):
    """Deliver *heartbeat* the way workers do: on an empty lease."""
    grant = client.lease(worker=worker, heartbeat=heartbeat, wait=0)
    assert grant["runs"] == []
    return grant


class TestFleetEndpoints:
    def test_heartbeat_round_trip(self):
        with BackgroundService(no_store=True, remote=True) as svc:
            client = ServiceClient(svc.url)
            # an unknown field is ignored, not a 400
            heartbeat_lease(client, {
                "name": "idle-1", "pid": 4321, "host": "laptop",
                "sim_cycles": 0, "sim_seconds": 0.0,
                "backends": {"interp": 0},
            }, worker="idle-1")
            fleet = client.workers()
            (worker,) = fleet["workers"]
            assert worker["name"] == "idle-1"
            assert worker["pid"] == 4321
            assert worker["host"] == "laptop"
            assert worker["state"] == "live"
            assert "backends" not in worker
            assert fleet["expired_total"] == 0
            # a malformed heartbeat never fails the lease: the lease's
            # own worker name is registered instead
            heartbeat_lease(client, {"pid": 1}, worker="bare")
            names = [w["name"] for w in client.workers()["workers"]]
            assert names == ["bare", "idle-1"]

    def test_heartbeat_overflowing_numbers_are_ignored(self):
        with BackgroundService(no_store=True, remote=True) as svc:
            client = ServiceClient(svc.url)
            heartbeat_lease(client, {
                "name": "w", "pid": 10 ** 400,
                "sim_cycles": float("inf"), "sim_seconds": 10 ** 400,
                "arena_hit_rate": 10 ** 400,
            })
            heartbeat_lease(client, {
                "name": "v", "sim_cycles": 10 ** 400, "sim_seconds": 1.0,
            }, worker="v")
            workers = {w["name"]: w for w in client.workers()["workers"]}
            assert workers["v"]["sim_cycles"] == 0
            assert workers["v"]["cycles_per_s"] == 0.0
            worker = workers["w"]
            assert worker["pid"] is None
            assert worker["sim_cycles"] == 0
            assert worker["sim_seconds"] == 0.0
            assert worker["arena_hit_rate"] == 0.0

    def test_negative_heartbeat_numbers_are_ignored(self):
        with BackgroundService(no_store=True, remote=True) as svc:
            client = ServiceClient(svc.url)
            heartbeat_lease(client, {
                "name": "w", "pid": -7,
                "sim_cycles": -1000000, "sim_seconds": 1.0,
            })
            heartbeat_lease(client, {
                "name": "v", "sim_cycles": 500, "sim_seconds": -2.0,
            }, worker="v")
            workers = {w["name"]: w for w in client.workers()["workers"]}
            assert workers["w"]["pid"] is None
            assert workers["w"]["sim_cycles"] == 0
            assert workers["w"]["cycles_per_s"] == 0.0
            assert workers["v"]["sim_seconds"] == 0.0
            assert workers["v"]["cycles_per_s"] == 0.0
            assert metric_value(
                client.metrics(), "repro_fleet_cycles_per_second"
            ) == 0.0

    def test_worker_heartbeat_keys_all_reach_the_registry(self):
        from repro.service.worker import _WorkerStats

        with BackgroundService(no_store=True, remote=True) as svc:
            client = ServiceClient(svc.url)
            sent = _WorkerStats("w").heartbeat()
            heartbeat_lease(client, sent)
            (worker,) = client.workers()["workers"]
            assert set(sent) <= set(worker)
            assert worker["pid"] == sent["pid"]
            assert worker["host"] == sent["host"]

    def test_fleet_endpoints_require_remote_mode(self):
        with BackgroundService(no_store=True) as svc:
            client = ServiceClient(svc.url)
            for call in (client.workers, client.leases,
                         lambda: heartbeat_lease(client, {"name": "w"})):
                with pytest.raises(ServiceError) as excinfo:
                    call()
                assert excinfo.value.status == 400

    def test_jobs_list_and_trace_id(self):
        with BackgroundService(no_store=True, workers=1) as svc:
            client = ServiceClient(svc.url)
            assert client.jobs() == {"jobs": [], "known": 0}
            accepted = client.submit(
                configs="L1-SRAM", workloads="2DCONV",
                scale="smoke", num_sms=2,
            )
            expected_trace = trace_id_for_job(accepted["job"])
            assert accepted["trace_id"] == expected_trace
            snapshot = client.wait(accepted["job"], timeout=60)
            assert snapshot["trace_id"] == expected_trace

            listed = client.jobs(limit=5)
            assert listed["known"] == 1
            (entry,) = listed["jobs"]
            assert entry["job"] == accepted["job"]
            assert entry["trace_id"] == expected_trace
            assert "runs" not in entry  # list view stays lightweight

            with pytest.raises(ServiceError) as excinfo:
                client._request("GET", "/v1/jobs?limit=banana")
            assert excinfo.value.status == 400


# ----------------------------------------------------------------------
class TestTwoWorkerFleet:
    def test_registry_metrics_and_merged_trace(self, tmp_path):
        """The acceptance scenario: a real 2-worker sweep leaves both
        workers registered with non-zero settled counts, fleet metrics
        consistent with the job ledger, and one merged Perfetto trace
        whose worker simulate spans carry the job's trace id."""
        coord_log = tmp_path / "coordinator.jsonl"
        worker_logs = [tmp_path / "fleet-w1.jsonl",
                       tmp_path / "fleet-w2.jsonl"]
        enable_spans(str(coord_log))
        try:
            with BackgroundService(
                store_path=tmp_path / "store.jsonl", remote=True,
                workers=1,
            ) as svc:
                client = ServiceClient(svc.url)
                workers = [
                    spawn_worker(svc.url, f"fleet-w{i + 1}", max_runs=1,
                                 hold_s=0.2, spans=log)
                    for i, log in enumerate(worker_logs)
                ]
                try:
                    # each held first lease registers its worker
                    wait_until(
                        lambda: len(client.workers()["workers"]) == 2,
                        what="both workers to register",
                    )
                    snapshot = client.run_to_completion(
                        timeout=120, **SWEEP
                    )
                finally:
                    stop_workers(*workers)

                assert snapshot["state"] == "done"
                assert snapshot["errors"] == 0
                assert snapshot["fresh"] == SWEEP_TOTAL

                # --- GET /v1/workers: both alive, both did work
                fleet = client.workers()
                assert len(fleet["workers"]) == 2
                settled_by_worker = {
                    w["name"]: w["runs_settled"] for w in fleet["workers"]
                }
                assert all(n > 0 for n in settled_by_worker.values()), \
                    settled_by_worker
                assert sum(settled_by_worker.values()) == SWEEP_TOTAL
                for worker in fleet["workers"]:
                    assert worker["state"] == "live"
                    assert worker["sim_cycles"] > 0
                    assert worker["cycles_per_s"] > 0

                # --- fleet metrics consistent with the job ledger
                exposition = client.metrics()
                assert metric_value(
                    exposition, "repro_fleet_workers", '{state="live"}'
                ) == 2
                fleet_runs = sum(
                    metric_value(
                        exposition, "repro_fleet_runs",
                        f'{{worker="{name}",source="fresh"}}',
                    )
                    for name in settled_by_worker
                )
                assert fleet_runs == SWEEP_TOTAL
                assert metric_value(
                    exposition, "repro_fleet_sim_cycles") > 0
                assert metric_value(
                    exposition, "repro_fleet_sim_seconds") > 0
                assert metric_value(
                    exposition, "repro_fleet_settle_seconds_count",
                    f'{{worker="{sorted(settled_by_worker)[0]}"}}',
                ) > 0

                # --- per-run attribution echoed into the job snapshot
                for run in snapshot["runs"]:
                    assert run["worker"] in settled_by_worker
                    assert run["timing"]["cycles"] > 0
                    assert run["timing"]["sim_s"] > 0
                    assert set(run["timing"]) == {"sim_s", "cycles"}

                trace_id = snapshot["trace_id"]
        finally:
            disable_spans()

        # --- one merged timeline: coordinator + 2 worker tracks, and
        # every worker-side simulate span carries the job's trace id
        logs = [coord_log] + worker_logs
        assert all(log.exists() for log in logs), logs
        merged = merge_chrome_trace([str(log) for log in logs])
        meta = [e for e in merged["traceEvents"] if e["ph"] == "M"]
        assert len(meta) >= 3
        simulate = [
            e for e in merged["traceEvents"]
            if e["ph"] == "X" and e["name"] == "simulate"
        ]
        assert len(simulate) == SWEEP_TOTAL
        assert all(
            e["args"]["trace_id"] == trace_id for e in simulate
        ), simulate
        # the coordinator's job spans correlate on the same trace
        job_spans = [
            e for e in merged["traceEvents"]
            if e["ph"] == "X" and e["name"] in ("submit", "job")
        ]
        assert job_spans
        assert all(
            e["args"]["trace_id"] == trace_id for e in job_spans
        )


# ----------------------------------------------------------------------
class TestMetricsWatch:
    def test_watch_redraws_until_interrupt(self, capsys, monkeypatch):
        with BackgroundService(no_store=True) as svc:
            calls = {"n": 0}

            def fake_sleep(seconds):
                calls["n"] += 1
                raise KeyboardInterrupt

            monkeypatch.setattr(time, "sleep", fake_sleep)
            assert main(["metrics", "--url", svc.url,
                         "--watch", "5"]) == 0
            out = capsys.readouterr().out
            assert calls["n"] == 1
            assert "\x1b[2J" in out  # watch mode clears between frames
            assert "repro metrics --watch 5" in out
            assert "repro_service_queue_limit" in out


# ----------------------------------------------------------------------
class TestServiceUrl:
    def test_env_then_flag_resolves_the_service(self, capsys, monkeypatch):
        """``REPRO_SERVICE_URL`` stands in for ``--url``; ``--url`` wins."""
        with BackgroundService(no_store=True) as svc:
            monkeypatch.setenv("REPRO_SERVICE_URL", svc.url)
            assert main(["metrics", "--grep", "queue_limit"]) == 0
            assert "repro_service_queue_limit" in capsys.readouterr().out

            dead = f"http://127.0.0.1:{free_port()}"
            monkeypatch.setenv("REPRO_SERVICE_URL", dead)
            assert main(["metrics", "--url", svc.url,
                         "--grep", "queue_limit"]) == 0
            assert "repro_service_queue_limit" in capsys.readouterr().out
