"""Simulation runner with layered result memoisation.

The evaluation figures share runs extensively -- Figures 13, 14, 15, 16
and 17 all consume the same (configuration, workload) matrix -- so the
runner caches :class:`~repro.gpu.stats.SimulationResult` objects keyed
by the run's *stable content hash* (:class:`~repro.engine.spec.RunKey`):
logically identical configs built by different code paths (e.g. a
``ratio_config`` reconstructed between sweeps) collapse to one entry.

The in-process dict is the L1 of a two-level hierarchy; when the runner
is given a :class:`~repro.engine.store.ResultStore`, misses fall through
to the disk store (L2) and fresh runs are persisted there, so a second
pytest session or CLI invocation regenerates figures without a single
new simulation.  :meth:`Runner.prefetch` batches pending runs through
the parallel :class:`~repro.engine.engine.ExperimentEngine`.

Trace generation is decoupled from all of this: every fresh run obtains
its workload's packed trace through the process-wide arena cache
(:func:`~repro.engine.spec.arena_for_spec`), so a config sweep over one
workload -- the shape of every figure matrix -- compiles the trace once
and replays it per config.

``default_runner()`` returns a process-wide instance, which is what the
pytest bench session uses.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.core.factory import L1DConfig
from repro.engine.engine import (
    ExperimentEngine,
    ProgressCallback,
    RunOutcome,
)
from repro.engine.spec import (
    GPU_PROFILES,
    SCALE_PRESETS,
    RunSpec,
    execute_spec,
    scale_preset,
)
from repro.engine.store import ResultStore
from repro.gpu.config import GPUConfig
from repro.gpu.stats import SimulationResult

__all__ = [
    "RunRequest", "Runner", "default_runner",
]

#: a prefetch item: (named-or-custom config, workload[, seed])
RunRequest = Union[
    Tuple[Union[str, L1DConfig], str],
    Tuple[Union[str, L1DConfig], str, int],
]


class Runner:
    """Builds, runs and memoises simulations.

    Args:
        gpu_profile: ``fermi`` (Table I) or ``volta`` (Figure 19).
        scale: trace scale preset name (``smoke`` / ``test`` / ``bench``).
        num_sms: override the profile's SM count (tests shrink it; the
            bench harness also trims Volta's 84 SMs to keep pure-Python
            runtimes sane -- IPC is reported per-SM-normalised so the
            comparison is unaffected).
        store: optional disk-backed result store (the L2 behind the
            in-process memo dict).
    """

    def __init__(
        self,
        gpu_profile: str = "fermi",
        scale: str = "bench",
        num_sms: Optional[int] = None,
        store: Optional[ResultStore] = None,
    ) -> None:
        if gpu_profile not in GPU_PROFILES:
            raise ValueError(f"unknown gpu profile {gpu_profile!r}")
        if scale not in SCALE_PRESETS:
            raise ValueError(f"unknown scale {scale!r}")
        self.gpu_profile = gpu_profile
        self.scale_name = scale
        self.config: GPUConfig = GPU_PROFILES[gpu_profile]()
        if num_sms is not None:
            self.config = self.config.with_overrides(num_sms=num_sms)
        self.scale = scale_preset(scale)
        self.store = store
        self._cache: Dict[str, SimulationResult] = {}

    # ------------------------------------------------------------------
    def spec_for(
        self,
        config_name: str,
        workload_name: str,
        l1d: Optional[L1DConfig] = None,
        seed: int = 0,
    ) -> RunSpec:
        """Resolve one run request into a fully-specified ``RunSpec``."""
        return RunSpec.build(
            l1d if l1d is not None else config_name,
            workload_name,
            gpu_profile=self.gpu_profile,
            scale=self.scale_name,
            seed=seed,
            num_sms=self.config.num_sms,
        )

    def run(
        self,
        config_name: str,
        workload_name: str,
        l1d: Optional[L1DConfig] = None,
        seed: int = 0,
    ) -> SimulationResult:
        """Run (or fetch) one simulation.

        Args:
            config_name: named Table I configuration, ignored when *l1d*
                is given (the custom config's identity keys the cache).
            workload_name: one of the 21 Table II benchmarks.
            l1d: custom configuration (ratio sweeps, ablations).
        """
        spec = self.spec_for(config_name, workload_name, l1d=l1d, seed=seed)
        digest = spec.key().digest
        cached = self._cache.get(digest)
        if cached is not None:
            return cached
        if self.store is not None:
            stored = self.store.get(digest)
            if stored is not None:
                self._cache[digest] = stored
                return stored
        result = execute_spec(spec)
        self._cache[digest] = result
        if self.store is not None:
            self.store.put(spec, result)
        return result

    # ------------------------------------------------------------------
    def prefetch(
        self,
        requests: Iterable[RunRequest],
        workers: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> List[RunOutcome]:
        """Batch-execute pending runs through the parallel engine.

        Every item is ``(config, workload)`` or ``(config, workload,
        seed)`` with *config* a Table I name or a custom
        :class:`L1DConfig`.  Runs already memoised (L1 or store) are
        skipped or served from disk; the rest fan out across the worker
        pool.  Subsequent :meth:`run` calls for the same identities are
        pure cache reads.

        Returns:
            Engine outcomes for the requests that were not already in
            the in-process cache (failed runs carry their traceback).
        """
        specs: List[RunSpec] = []
        seen = set()
        for request in requests:
            config, workload = request[0], request[1]
            seed = request[2] if len(request) > 2 else 0
            if isinstance(config, L1DConfig):
                spec = self.spec_for(config.name, workload, l1d=config,
                                     seed=seed)
            else:
                spec = self.spec_for(config, workload, seed=seed)
            digest = spec.key().digest
            if digest in self._cache or digest in seen:
                continue
            seen.add(digest)
            specs.append(spec)
        if not specs:
            return []
        engine = ExperimentEngine(store=self.store, workers=workers)
        outcomes = engine.run_specs(specs, progress=progress)
        for outcome in outcomes:
            if outcome.result is not None:
                self._cache[outcome.key] = outcome.result
        return outcomes

    def cache_size(self) -> int:
        return len(self._cache)


_DEFAULT_RUNNERS: Dict[Tuple, Runner] = {}


def default_runner(
    gpu_profile: str = "fermi",
    scale: str = "bench",
    num_sms: Optional[int] = None,
    store: Optional[ResultStore] = None,
) -> Runner:
    """Process-wide memoised runner (shared across bench modules)."""
    key = (gpu_profile, scale, num_sms,
           str(store.path) if store is not None else None)
    runner = _DEFAULT_RUNNERS.get(key)
    if runner is None:
        runner = Runner(gpu_profile=gpu_profile, scale=scale,
                        num_sms=num_sms, store=store)
        _DEFAULT_RUNNERS[key] = runner
    return runner
