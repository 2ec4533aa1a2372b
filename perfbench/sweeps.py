"""The three user paths a workload runs through, one repetition each.

* :func:`engine_rep` -- ``ExperimentEngine.run_specs`` in this process
  with a pool, as ``repro sweep`` and the figure benches use it;
* :func:`service_rep` -- a local ``repro serve`` (``fleet=False``) or a
  ``repro serve --remote`` coordinator plus ``repro worker`` processes
  (``fleet=True``), driven by one client with one connection at a time.

A repetition starts from an empty store (cold phase); the service
paths then read the same matrix back from that store (warm phases).
Every run's result payload is kept for the output check; timings are
host wall-clock.
When *traced*, the layer wrappers are installed here and in every
launched process, and each phase carries its merged span totals.
"""

from __future__ import annotations

import contextlib
import gc
import json
import pathlib
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

import layers
from procs import Launched, RssMonitor, child_env
from reference import payload_text

#: untraced set-ups of the in-process engine per repetition (each is
#: well under a second of single-threaded work)
ENGINE_SETUPS = 3
#: service restarts on the filled store per repetition
SERVICE_WARMS = 1
READY_POLL_S = 0.005


@dataclass
class Matrix:
    """One workload's sweep: configs x workloads at a scale and seed."""

    configs: List[str]
    workloads: List[str]
    scale: str
    num_sms: int
    seed: int
    #: pool width (engine, local service) or worker count (fleet)
    width: int
    specs: list = field(default_factory=list)

    def __post_init__(self) -> None:
        from repro.engine.spec import RunSpec

        self.specs = [
            RunSpec.build(config, workload, scale=self.scale, seed=self.seed,
                          num_sms=self.num_sms)
            for workload in self.workloads for config in self.configs
        ]
        self.keys = [spec.key().digest for spec in self.specs]


@dataclass
class Phase:
    """A timed stretch of one repetition."""

    name: str
    wall_s: float
    #: processes that execute runs in this phase (1 when none do)
    slots: int
    #: merged span totals of every process in the phase (traced only)
    spans: Optional[dict] = None


@dataclass
class Rep:
    """What one repetition measured."""

    traced: bool
    setup_s: List[float] = field(default_factory=list)
    cold_s: float = 0.0
    warm_s: List[float] = field(default_factory=list)
    #: submit -> settle of each run in the cold phase
    latencies: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: mean host-speed burst time over the repetition (``hostspeed.py``)
    probe_s: float = 0.0
    phases: List[Phase] = field(default_factory=list)
    #: (phase, {run key: payload text, or None when the run failed})
    payloads: List[tuple] = field(default_factory=list)


@contextlib.contextmanager
def _phase_trace(directory: Optional[pathlib.Path]):
    """Collect this process's spans (and its fork children's dumps in
    *directory*) for one phase; yields a dict that receives them."""
    holder: dict = {}
    if directory is None:
        yield holder
        return
    directory.mkdir(parents=True)
    layers.TRACER.reset()
    layers.TRACER.dump_dir = directory
    try:
        yield holder
    finally:
        layers.TRACER.dump_dir = None
        holder["own"] = layers.TRACER.snapshot()


def _collect(holder: dict, directory: Optional[pathlib.Path]):
    if directory is None:
        return None
    return layers.merge([holder["own"]] + layers.read_dumps(directory))


# ----------------------------------------------------------------------
def engine_rep(matrix: Matrix, work: pathlib.Path, traced: bool) -> Rep:
    """Pack arenas, then sweep cold into an empty store.  An untraced
    repetition sets up :data:`ENGINE_SETUPS` times from an empty arena
    cache; the last set-up serves the sweep."""
    import repro.engine.spec as spec_module
    from repro.engine.engine import ExperimentEngine
    from repro.engine.store import ResultStore
    from repro.workloads.arena import reset_arena_cache

    rep = Rep(traced=traced)
    store_path = work / "store.jsonl"
    distinct = {spec_module.trace_key(spec): spec for spec in matrix.specs}

    def trace_dir(name):
        return work / f"trace-{name}" if traced else None

    with RssMonitor() as rss:
        for _ in range(1 if traced else ENGINE_SETUPS):
            reset_arena_cache()
            gc.collect()  # each set-up starts without the last one's garbage
            with _phase_trace(trace_dir("setup")) as holder:
                started = perf_counter()
                for spec in distinct.values():
                    spec_module.arena_for_spec(spec)
                engine = ExperimentEngine(
                    store=ResultStore(store_path), workers=matrix.width)
                rep.setup_s.append(perf_counter() - started)
        rep.phases.append(Phase("setup", rep.setup_s[-1], 1,
                                _collect(holder, trace_dir("setup"))))

        settled: Dict[str, float] = {}
        with _phase_trace(trace_dir("cold")) as holder:
            started = perf_counter()
            outcomes = engine.run_specs(
                matrix.specs,
                on_outcome=lambda o: settled.setdefault(o.key, perf_counter()),
            )
            rep.cold_s = perf_counter() - started
        rep.phases.append(Phase("cold", rep.cold_s, matrix.width,
                                _collect(holder, trace_dir("cold"))))
        rep.latencies = [when - started for when in settled.values()]
        rep.payloads.append(("cold", _outcome_payloads(outcomes)))
        rss.sample()
    rep.peak_rss_mb = rss.peak_mb
    return rep


def _outcome_payloads(outcomes) -> Dict[str, Optional[str]]:
    return {
        outcome.key: payload_text(outcome.result) if outcome.ok else None
        for outcome in outcomes
    }


# ----------------------------------------------------------------------
def service_rep(matrix: Matrix, work: pathlib.Path, traced: bool,
                fleet: bool) -> Rep:
    """A cold phase, then warm phases, each on a freshly launched service
    (and, for a fleet, freshly launched workers) over the same store.
    Every launch is a set-up sample."""
    rep = Rep(traced=traced)
    store_path = work / "store.jsonl"
    peaks = []
    phases = ["cold"] + [f"warm{index}" for index in range(SERVICE_WARMS)]
    for phase in phases:
        trace_dir = work / f"trace-{phase}" if traced else None
        with RssMonitor() as rss:
            with _phase_trace(trace_dir) as holder:
                setup, wall, latencies, payloads = _service_phase(
                    matrix, work, phase, store_path, trace_dir, fleet, rss)
        peaks.append(rss.peak_mb)
        spans = _collect(holder, trace_dir)
        executes = phase == "cold"
        rep.setup_s.append(setup)
        rep.phases.append(Phase(f"setup-{phase}", setup, 1))
        rep.phases.append(Phase(
            phase, wall, matrix.width if executes else 1, spans))
        rep.payloads.append((phase, payloads))
        if executes:
            rep.cold_s, rep.latencies = wall, latencies
        else:
            rep.warm_s.append(wall)
    rep.peak_rss_mb = max(peaks)
    return rep


def _service_phase(matrix, work, phase, store_path, trace_dir, fleet, rss):
    from repro.service.client import ServiceClient, ServiceError

    env = child_env(trace_dir, work)
    args = ["serve", "--host", "127.0.0.1", "--port", "0",
            "--store", str(store_path)]
    args += ["--remote"] if fleet else ["--workers", str(matrix.width)]
    launched: List[Launched] = []
    try:
        started = perf_counter()
        service = Launched(args, work / f"serve-{phase}.log", env)
        launched.append(service)
        url = service.wait_for_url()
        workers = matrix.width if fleet else 0
        for index in range(workers):
            launched.append(Launched(
                ["worker", "--url", url, "--quiet"],
                work / f"worker{index}-{phase}.log", env))
        client = ServiceClient(url)
        while True:
            try:
                if client.healthz().get("status") == "ok":
                    break
            except ServiceError:
                pass
            time.sleep(READY_POLL_S)
        while workers and len(client.workers()["workers"]) < workers:
            time.sleep(READY_POLL_S)
        setup = perf_counter() - started

        settled: Dict[str, float] = {}
        started = perf_counter()
        job = client.submit(
            matrix.configs, matrix.workloads, scale=matrix.scale,
            seed=matrix.seed, num_sms=matrix.num_sms)["job"]
        final = None
        for name, payload in client.events(job):
            now = perf_counter()
            if name == "snapshot":
                for run in payload["runs"]:
                    if run["state"] == "done":
                        settled.setdefault(run["key"], now)
            elif name == "run":
                settled.setdefault(payload["key"], now)
            elif name == "done":
                final = payload
        wall = perf_counter() - started
        rss.sample()
        latencies = [when - started for when in settled.values()]

        # the output check reads what the service serves, untimed
        failed = {run["key"] for run in (final or {}).get("runs", [])
                  if run.get("error")}
        payloads: Dict[str, Optional[str]] = {}
        for key in matrix.keys:
            if key in failed:
                payloads[key] = None
                continue
            try:
                payloads[key] = json.dumps(client.result(key)["result"],
                                           sort_keys=True)
            except ServiceError:
                payloads[key] = None
    finally:
        # workers first: a draining coordinator waits for nobody
        for process in reversed(launched):
            process.stop()
    return setup, wall, latencies, payloads
