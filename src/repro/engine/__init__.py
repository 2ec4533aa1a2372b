"""Parallel experiment engine with a persistent on-disk result store.

The engine gives every simulation a stable content-hashed identity
(:class:`~repro.engine.spec.RunKey`), executes sweep matrices across a
``multiprocessing`` worker pool with per-run error isolation
(:class:`~repro.engine.engine.ExperimentEngine`), and persists results
to a schema-versioned JSON-lines store
(:class:`~repro.engine.store.ResultStore`) so repeated figure
regeneration costs zero fresh simulations.

Typical use::

    from repro.engine import ExperimentEngine, ResultStore, default_store_path

    store = ResultStore(default_store_path())
    engine = ExperimentEngine(store=store, workers=4)
    table, outcomes = engine.run_matrix(
        ["L1-SRAM", "Dy-FUSE"], ["ATAX", "BICG"], scale="test", num_sms=4
    )
"""

from repro.engine.engine import (
    ExperimentEngine,
    OutcomeCallback,
    ProgressEvent,
    RunOutcome,
    default_workers,
    stderr_progress,
)
from repro.engine.serialize import (
    SCHEMA_VERSION,
    config_from_dict,
    config_to_dict,
    result_from_dict,
    result_to_dict,
)
from repro.engine.spec import (
    GPU_PROFILES,
    SCALE_PRESETS,
    RunKey,
    RunSpec,
    arena_for_spec,
    execute_spec,
    gpu_profile,
    scale_preset,
    spec_from_dict,
    spec_to_dict,
    trace_key,
)
from repro.engine.store import ResultStore, default_store_path

__all__ = [
    "ExperimentEngine",
    "GPU_PROFILES",
    "OutcomeCallback",
    "ProgressEvent",
    "ResultStore",
    "RunKey",
    "RunOutcome",
    "RunSpec",
    "SCALE_PRESETS",
    "SCHEMA_VERSION",
    "arena_for_spec",
    "config_from_dict",
    "config_to_dict",
    "default_store_path",
    "default_workers",
    "execute_spec",
    "gpu_profile",
    "result_from_dict",
    "result_to_dict",
    "scale_preset",
    "spec_from_dict",
    "spec_to_dict",
    "stderr_progress",
    "trace_key",
]
