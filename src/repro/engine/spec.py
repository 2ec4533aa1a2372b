"""Run identity and execution: ``RunSpec``, ``RunKey``, ``execute_spec``.

A :class:`RunSpec` is the complete, picklable description of one
simulation: the fully-resolved :class:`~repro.core.factory.L1DConfig`,
the workload, the GPU profile, the trace scale, the seed and the SM
count.  :class:`RunKey` derives a *stable content hash* from it, which
is what every cache layer (the in-process :class:`~repro.harness.runner.
Runner` memo, the on-disk :class:`~repro.engine.store.ResultStore`) keys
on -- two logically identical configs built by different code paths map
to the same key.

:func:`execute_spec` is the single execution path shared by the serial
runner and the parallel worker pool, which is what makes parallel sweep
results bit-identical to serial ones.

Trace generation is factored out of execution: :func:`trace_key` hashes
the subset of a spec that determines the workload trace (everything but
the L1D config and the GPU timing profile), and :func:`arena_for_spec`
compiles that trace exactly once per key into a
:class:`~repro.workloads.arena.PackedTraceArena` -- every run sharing
the key (a whole config sweep, every repeat in a benchmark loop) replays
the same packed buffers.  Workers in a fork-style pool inherit the
parent's arenas via copy-on-write; spawn-style workers regenerate the
ones they need from the spec (see
:meth:`~repro.engine.engine.ExperimentEngine.run_specs`).
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.core.factory import L1DConfig, l1d_config, make_l1d
from repro.energy.model import compute_energy, l1d_energy_params
from repro.engine.serialize import config_from_dict, config_to_dict
from repro.gpu.config import GPUConfig, fermi_like, volta_like
from repro.gpu.stats import SimulationResult
from repro.telemetry.spans import span
from repro.workloads.registry import BUILTIN_MODULES
from repro.workloads.trace import TraceScale

__all__ = [
    "EXECUTION_CHAIN", "GPU_PROFILES", "RunKey", "RunSpec", "SCALE_PRESETS",
    "arena_for_spec", "execute_spec", "gpu_profile",
    "load_execution_chain", "scale_preset", "spec_from_dict",
    "spec_to_dict", "trace_key",
]

#: what a run executes beyond run identity: the simulator, the engines
#: :func:`~repro.core.factory.make_l1d` builds, the trace packer and the
#: workload families.  A remote coordinator loads the workloads package
#: to validate jobs, but never the simulator or an engine.
EXECUTION_CHAIN = (
    "repro.gpu.simulator", "repro.cache.basecache", "repro.cache.nvm_bypass",
    "repro.cache.oracle", "repro.core.fuse_cache", "repro.workloads.arena",
) + BUILTIN_MODULES


def load_execution_chain() -> None:
    """Import :data:`EXECUTION_CHAIN`: the engine and the fleet worker
    call this at import, so pool workers fork with it loaded and no
    run's first call imports anything."""
    for name in EXECUTION_CHAIN:
        importlib.import_module(name)

#: named machine profiles a spec may reference
GPU_PROFILES = {
    "fermi": fermi_like,
    "volta": volta_like,
}

#: named trace-scale presets a spec may reference
SCALE_PRESETS = {
    "smoke": TraceScale.smoke,
    "test": TraceScale.test,
    "bench": TraceScale.bench,
}


def gpu_profile(name: str) -> GPUConfig:
    """Instantiate a named machine profile.

    Raises:
        ValueError: for unknown names.
    """
    try:
        return GPU_PROFILES[name]()
    except KeyError:
        raise ValueError(f"unknown gpu profile {name!r}")


def scale_preset(name: str) -> TraceScale:
    """Instantiate a named trace-scale preset.

    Raises:
        ValueError: for unknown names.
    """
    try:
        return SCALE_PRESETS[name]()
    except KeyError:
        raise ValueError(f"unknown scale {name!r}")


@dataclass(frozen=True)
class RunSpec:
    """A fully-resolved, picklable description of one simulation run.

    ``trace_salt`` snapshots the global
    :attr:`~repro.workloads.kernels.KernelModel.TRACE_SALT` at build
    time: carrying it in the spec (rather than reading the global at
    execution time) keeps worker processes faithful to the submitting
    process even under spawn-style pools that re-import the modules.
    """

    l1d: L1DConfig
    workload: str
    gpu_profile: str = "fermi"
    scale: str = "bench"
    seed: int = 0
    num_sms: int = 15
    trace_salt: int = 0

    @classmethod
    def build(
        cls,
        config: Union[str, L1DConfig],
        workload: str,
        gpu_profile: str = "fermi",
        scale: str = "bench",
        seed: int = 0,
        num_sms: Optional[int] = None,
        trace_salt: Optional[int] = None,
    ) -> "RunSpec":
        """Resolve a named or custom L1D config into a spec.

        ``num_sms=None`` takes the GPU profile's own SM count;
        ``trace_salt=None`` snapshots the current global salt.

        Raises:
            ValueError: for an unknown GPU profile or scale preset, or
                an SM count below 1.
        """
        from repro.workloads.kernels import KernelModel

        if gpu_profile not in GPU_PROFILES:
            raise ValueError(f"unknown gpu profile {gpu_profile!r}")
        if scale not in SCALE_PRESETS:
            raise ValueError(f"unknown scale {scale!r}")
        cfg = config if isinstance(config, L1DConfig) else l1d_config(config)
        if num_sms is None:
            num_sms = GPU_PROFILES[gpu_profile]().num_sms
        if num_sms < 1:
            raise ValueError(f"num_sms must be >= 1: {num_sms}")
        if trace_salt is None:
            trace_salt = KernelModel.TRACE_SALT
        return cls(
            l1d=cfg, workload=workload, gpu_profile=gpu_profile,
            scale=scale, seed=seed, num_sms=num_sms, trace_salt=trace_salt,
        )

    def key(self) -> "RunKey":
        return RunKey.for_spec(self)


@dataclass(frozen=True)
class RunKey:
    """Stable content-hashed identity of one run.

    The digest is a SHA-256 over the canonical JSON encoding of the
    spec's semantic content.  The cosmetic ``description`` field of the
    L1D config is excluded, so e.g. two ``ratio_config(1/2)`` instances
    reconstructed in different sweeps collapse to one key.
    """

    digest: str

    @classmethod
    def for_spec(cls, spec: RunSpec) -> "RunKey":
        payload = spec_to_dict(spec)
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return cls(digest=hashlib.sha256(canonical.encode()).hexdigest())

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.digest


def spec_to_dict(spec: RunSpec) -> Dict:
    """Canonical dict form of a spec (hash input; also stored for
    provenance next to every persisted result).

    The trace salt is part of run identity: it changes every generated
    trace, so results computed under different salts must never satisfy
    each other from the store.
    """
    l1d = config_to_dict(spec.l1d)
    l1d.pop("description", None)  # cosmetic, not part of run identity
    return {
        "l1d": l1d,
        "workload": spec.workload,
        "gpu_profile": spec.gpu_profile,
        "scale": spec.scale,
        "seed": spec.seed,
        "num_sms": spec.num_sms,
        "trace_salt": spec.trace_salt,
    }


def spec_from_dict(payload: Dict) -> RunSpec:
    """Rebuild a :class:`RunSpec` from its :func:`spec_to_dict` form.

    This is the worker wire format: a scheduler leases runs as
    ``{"key", "spec"}`` payloads and the worker reconstructs the spec
    here.  The round trip is identity-preserving --
    ``RunKey.for_spec(spec_from_dict(spec_to_dict(s))) == s.key()`` --
    which the worker verifies before executing, so a corrupted or
    mismatched payload is rejected instead of poisoning the store.

    Raises:
        ValueError: missing or malformed fields.
    """
    try:
        return RunSpec(
            l1d=config_from_dict(dict(payload["l1d"])),
            workload=str(payload["workload"]),
            gpu_profile=str(payload["gpu_profile"]),
            scale=str(payload["scale"]),
            seed=int(payload["seed"]),
            num_sms=int(payload["num_sms"]),
            trace_salt=int(payload["trace_salt"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(f"malformed spec payload: {error}") from error


def trace_key(spec: RunSpec) -> str:
    """Content hash of the spec fields that determine its workload trace.

    This is :func:`spec_to_dict` minus the L1D config and the GPU timing
    profile -- neither influences the instruction stream (the machine
    *shape* that does, ``num_sms``/``scale``, is already resolved into
    the spec).  Every run sharing the key replays one packed arena.
    """
    payload = spec_to_dict(spec)
    del payload["l1d"]
    del payload["gpu_profile"]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def arena_for_spec(spec: RunSpec):
    """The packed trace arena for *spec*, compiled at most once per key.

    On an in-process cache miss the workload's kernel model is generated
    under the spec's snapshotted trace salt and packed, so any process
    (the submitting one, a forked worker, a spawned one that re-imported
    every module) builds the same arena for the same spec.
    """
    from repro.workloads.arena import PackedTraceArena, cached_arena
    from repro.workloads.benchmarks import benchmark
    from repro.workloads.kernels import KernelModel

    def build() -> PackedTraceArena:
        scale = scale_preset(spec.scale)
        # generate under the spec's snapshotted salt: a worker process
        # that re-imported the modules (spawn pools) must reproduce the
        # submitting process's traces, not the module default's
        previous_salt = KernelModel.TRACE_SALT
        KernelModel.TRACE_SALT = spec.trace_salt
        try:
            model = benchmark(
                spec.workload,
                num_sms=spec.num_sms,
                warps_per_sm=scale.warps_per_sm,
                scale=scale,
                seed=spec.seed,
            )
            return PackedTraceArena.from_model(model)
        finally:
            KernelModel.TRACE_SALT = previous_salt

    return cached_arena(trace_key(spec), build)


def execute_spec(spec: RunSpec) -> SimulationResult:
    """Run one simulation described by *spec* (the only execution path).

    Builds the machine, obtains the workload's packed trace arena
    (compiled on first use, replayed from cache after -- see
    :func:`arena_for_spec`), simulates, and attaches the energy report.
    """
    from repro.gpu.simulator import GPUSimulator

    machine = gpu_profile(spec.gpu_profile).with_overrides(
        num_sms=spec.num_sms
    )
    with span("arena", workload=spec.workload):
        arena = arena_for_spec(spec)
    simulator = GPUSimulator(
        machine,
        l1d_factory=lambda: make_l1d(spec.l1d),
        warps_per_sm=arena.warps_per_sm,
        arena=arena,
    )
    with span(
        "simulate", config=spec.l1d.name, workload=spec.workload
    ) as attrs:
        result = simulator.run(
            workload_name=spec.workload, config_name=spec.l1d.name
        )
        attrs["cycles"] = result.cycles
    result.energy = compute_energy(
        result,
        l1d_params=l1d_energy_params(spec.l1d.name),
        core_clock_ghz=machine.core_clock_ghz,
        net_hops=machine.net_hops,
    )
    return result
