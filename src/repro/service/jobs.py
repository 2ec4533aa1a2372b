"""Job model for the simulation service.

A **sweep request** is the wire-level ask: configs x workloads plus the
machine knobs, exactly the grammar ``repro sweep`` accepts.  It
canonicalises to a list of :class:`~repro.engine.spec.RunSpec` s (one
per distinct run), and the **job id** is a SHA-256 over the job's
sorted :class:`~repro.engine.spec.RunKey` digests -- content-addressed,
like everything else in the engine: two clients asking for the same
design-space slice name the same job, no matter how they ordered or
spelled their request.  Resubmitting a finished job re-executes it
under the same id (cheaply: every key hits the result store).

A :class:`Job` moves through ``queued -> running -> done|failed`` and
mirrors per-run progress from the engine's streaming outcome callback:
each distinct run settles exactly once with a *source* --

* ``store`` -- served from cache (the on-disk result store or the
  scheduler's in-memory mirror) without simulating;
* ``fresh`` -- simulated by this job;
* ``coalesced`` -- attached to another in-flight job that was already
  simulating the same run key (single-flight);
* ``error`` -- the run raised (traceback preserved).

``failed`` is reserved for wholesale failures (the engine call itself
raised, or every run errored); a job with partial per-run errors still
finishes ``done`` so the surviving results are usable.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.factory import l1d_config
from repro.engine.spec import GPU_PROFILES, SCALE_PRESETS, RunSpec
from repro.telemetry.tracectx import trace_id_for_job
from repro.workloads.registry import REGISTRY, ensure_builtin_workloads
from repro.workloads.suites import resolve_workloads

__all__ = [
    "InvalidRequest", "Job", "JOB_STATES", "MAX_NUM_SMS", "RUN_SOURCES",
    "SweepRequest", "job_id_for",
]

#: job lifecycle states
JOB_STATES = ("queued", "running", "done", "failed")

#: largest machine a request may ask for -- well above any paper
#: configuration (Volta is 84 SMs) but small enough that one accepted
#: request cannot OOM the workers of a shared service
MAX_NUM_SMS = 256

#: how a settled run was satisfied (see module docstring)
RUN_SOURCES = ("store", "fresh", "coalesced", "error")


class InvalidRequest(ValueError):
    """A sweep payload that cannot canonicalise to run specs (HTTP 400)."""


def _string_list(value, name: str) -> List[str]:
    """Accept a comma string or a list of strings; reject anything else."""
    if isinstance(value, str):
        items = [item.strip() for item in value.split(",")]
    elif isinstance(value, (list, tuple)):
        items = []
        for item in value:
            if not isinstance(item, str):
                raise InvalidRequest(
                    f"{name!r} entries must be strings, got {item!r}"
                )
            items.append(item.strip())
    else:
        raise InvalidRequest(
            f"{name!r} must be a string or a list of strings"
        )
    items = [item for item in items if item]
    if not items:
        raise InvalidRequest(f"{name!r} must name at least one entry")
    return items


def _int_field(
    value, name: str, minimum: int, maximum: Optional[int] = None
) -> int:
    # bool is an int subclass; "seed": true must not sneak through
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidRequest(f"{name!r} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidRequest(f"{name!r} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise InvalidRequest(f"{name!r} must be <= {maximum}, got {value}")
    return value


@dataclass(frozen=True)
class SweepRequest:
    """A validated, canonicalised sweep ask (the body of POST /v1/sweeps).

    ``workloads`` is stored post-expansion (suites resolved, duplicates
    collapsed), so two requests spelling the same slice differently --
    ``["DNN"]`` vs the three DNN workload names -- canonicalise
    identically and therefore coalesce to one job.
    """

    configs: Tuple[str, ...]
    workloads: Tuple[str, ...]
    gpu_profile: str = "fermi"
    scale: str = "test"
    seed: int = 0
    num_sms: Optional[int] = None

    #: payload keys from_payload accepts (anything else is a 400: typos
    #: like "workload" must not silently produce a default sweep)
    FIELDS = (
        "configs", "workloads", "gpu_profile", "scale", "seed", "num_sms",
    )

    @classmethod
    def from_payload(cls, payload: object) -> "SweepRequest":
        """Validate a decoded JSON body into a request.

        Raises:
            InvalidRequest: malformed shape, unknown field/config/
                workload/profile/scale, or bad integer knobs.
        """
        if not isinstance(payload, dict):
            raise InvalidRequest("request body must be a JSON object")
        unknown = sorted(set(payload) - set(cls.FIELDS))
        if unknown:
            raise InvalidRequest(
                f"unknown field(s) {unknown}; accepted: {list(cls.FIELDS)}"
            )
        if "configs" not in payload or "workloads" not in payload:
            raise InvalidRequest("'configs' and 'workloads' are required")

        configs = _string_list(payload["configs"], "configs")
        for name in configs:
            try:
                l1d_config(name)
            except ValueError as error:
                raise InvalidRequest(str(error)) from error
        configs = list(dict.fromkeys(configs))

        workloads = resolve_workloads(
            _string_list(payload["workloads"], "workloads")
        )
        ensure_builtin_workloads()
        for name in workloads:
            if name not in REGISTRY:
                raise InvalidRequest(
                    f"unknown workload {name!r} (and no suite by that name)"
                )

        gpu_profile = payload.get("gpu_profile", "fermi")
        if gpu_profile not in GPU_PROFILES:
            raise InvalidRequest(
                f"unknown gpu profile {gpu_profile!r}; "
                f"known: {sorted(GPU_PROFILES)}"
            )
        scale = payload.get("scale", "test")
        if scale not in SCALE_PRESETS:
            raise InvalidRequest(
                f"unknown scale {scale!r}; known: {sorted(SCALE_PRESETS)}"
            )
        seed = _int_field(payload.get("seed", 0), "seed", minimum=0)
        num_sms = payload.get("num_sms")
        if num_sms is not None:
            num_sms = _int_field(
                num_sms, "num_sms", minimum=1, maximum=MAX_NUM_SMS
            )
        return cls(
            configs=tuple(configs), workloads=tuple(workloads),
            gpu_profile=gpu_profile, scale=scale, seed=seed, num_sms=num_sms,
        )

    def to_specs(self) -> List[RunSpec]:
        """The configs x workloads grid as run specs (duplicates kept;
        the job model dedupes by run key).

        Raises:
            InvalidRequest: a field :meth:`RunSpec.build` rejects.
        """
        try:
            return [
                RunSpec.build(
                    config, workload, gpu_profile=self.gpu_profile,
                    scale=self.scale, seed=self.seed, num_sms=self.num_sms,
                )
                for workload in self.workloads
                for config in self.configs
            ]
        except ValueError as error:
            raise InvalidRequest(str(error)) from error

    def as_dict(self) -> Dict:
        return {
            "configs": list(self.configs),
            "workloads": list(self.workloads),
            "gpu_profile": self.gpu_profile,
            "scale": self.scale,
            "seed": self.seed,
            "num_sms": self.num_sms,
        }

    @classmethod
    def restore(cls, payload: Dict) -> "SweepRequest":
        """Rebuild a request from its :meth:`as_dict` form.

        Trusted path for journal replay: the request was fully
        validated when it was first accepted, so this only reshapes
        (its canonical specs are journaled alongside, and replay checks
        each against its run key).
        Keys this version no longer writes (``backend`` and
        ``timeline``, from journals of older coordinators) are ignored.
        A job that asked for sampling still fails replay: its journaled
        specs carry the retired sampling interval, so they no longer
        hash to their journaled run keys.

        Raises:
            ValueError: structurally malformed payload (wrong types).
        """
        if not isinstance(payload, dict):
            raise ValueError("request payload must be an object")
        try:
            return cls(
                configs=tuple(str(c) for c in payload["configs"]),
                workloads=tuple(str(w) for w in payload["workloads"]),
                gpu_profile=str(payload.get("gpu_profile", "fermi")),
                scale=str(payload.get("scale", "test")),
                seed=int(payload.get("seed", 0)),
                num_sms=(
                    None if payload.get("num_sms") is None
                    else int(payload["num_sms"])
                ),
            )
        except (KeyError, TypeError) as error:
            raise ValueError(f"malformed request payload: {error}") from error


def job_id_for(keys: Iterable[str]) -> str:
    """Content-addressed job id: SHA-256 over the sorted run-key digests.

    Order-insensitive and duplicate-insensitive, so any request shape
    that asks for the same set of runs names the same job.
    """
    canonical = "\n".join(sorted(set(keys)))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class _RunState:
    """Per-distinct-run progress inside a job."""

    config: str
    workload: str
    state: str = "queued"  # queued | done
    source: Optional[str] = None  # one of RUN_SOURCES once done
    error: Optional[str] = None
    #: fleet attribution (remote mode): which worker settled the run
    worker: Optional[str] = None
    #: per-run execution timing echoed back in the settle entry
    #: ({"sim_s", "cycles"}); None for local/store settles
    timing: Optional[Dict] = None


class Job:
    """One submitted sweep working its way through the scheduler.

    Holds the distinct (run key -> spec) slice, the lifecycle state and
    the per-run settlement ledger the HTTP layer snapshots from.  All
    mutation happens on the event loop thread (the scheduler's lessee
    marshals engine-thread outcomes across), so no locking is needed.
    """

    def __init__(self, request: SweepRequest, specs: Sequence[RunSpec]):
        self.request = request
        #: distinct specs by run key, insertion-ordered
        self.specs: Dict[str, RunSpec] = {}
        for spec in specs:
            self.specs.setdefault(spec.key().digest, spec)
        self.id = job_id_for(self.specs)
        #: fleet-wide correlation id, derived from the id so attaches,
        #: retries and journal replays of this slice share one trace
        self.trace_id = trace_id_for_job(self.id)
        self.state = "queued"
        self.error: Optional[str] = None
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.runs: Dict[str, _RunState] = {
            key: _RunState(config=spec.l1d.name, workload=spec.workload)
            for key, spec in self.specs.items()
        }
        self.counters = {
            "total": len(self.specs), "completed": 0, "store_hits": 0,
            "fresh": 0, "coalesced": 0, "errors": 0,
        }

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.state in ("done", "failed")

    def mark_running(self) -> None:
        self.state = "running"
        self.started = time.time()

    def settle_run(
        self,
        key: str,
        source: str,
        error: Optional[str] = None,
        worker: Optional[str] = None,
        timing: Optional[Dict] = None,
    ) -> None:
        """Record one distinct run's settlement (idempotent per key)."""
        run = self.runs[key]
        if run.state == "done":
            return
        run.state = "done"
        run.source = source
        run.error = error
        run.worker = worker
        run.timing = timing
        self.counters["completed"] += 1
        if source == "store":
            self.counters["store_hits"] += 1
        elif source == "fresh":
            self.counters["fresh"] += 1
        elif source == "coalesced":
            self.counters["coalesced"] += 1
        if error is not None:
            self.counters["errors"] += 1

    def finish(self, error: Optional[str] = None) -> None:
        """Close the job: ``failed`` on a wholesale error (or when every
        run errored), ``done`` otherwise."""
        if error is not None:
            self.state = "failed"
            self.error = error
        elif self.counters["total"] and (
            self.counters["errors"] == self.counters["total"]
        ):
            self.state = "failed"
            self.error = "every run failed"
        else:
            self.state = "done"
        self.finished = time.time()

    # ------------------------------------------------------------------
    def snapshot(self, include_runs: bool = True) -> Dict:
        """JSON-safe view of the job (GET /v1/jobs/{id})."""
        reference = self.finished if self.finished is not None else time.time()
        out: Dict = {
            "job": self.id,
            "trace_id": self.trace_id,
            "state": self.state,
            "error": self.error,
            "request": self.request.as_dict(),
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "elapsed_s": (
                reference - self.started if self.started is not None else 0.0
            ),
            **self.counters,
        }
        if include_runs:
            out["runs"] = []
            for key, run in self.runs.items():
                entry = {
                    "key": key, "config": run.config,
                    "workload": run.workload, "state": run.state,
                    "source": run.source, "error": run.error,
                }
                # fleet attribution only when a worker settled the run,
                # so local-mode snapshots keep their historical shape
                if run.worker is not None:
                    entry["worker"] = run.worker
                if run.timing is not None:
                    entry["timing"] = run.timing
                out["runs"].append(entry)
        return out
