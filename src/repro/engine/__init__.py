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

Exports resolve lazily (:func:`repro.lazy_exports`): a fleet worker imports
:mod:`repro.engine.spec` without the ``multiprocessing`` pool of
:mod:`repro.engine.engine`.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.engine.engine": (
        "ExperimentEngine", "OutcomeCallback", "ProgressEvent", "RunOutcome",
        "default_workers", "stderr_progress",
    ),
    "repro.engine.serialize": (
        "SCHEMA_VERSION", "config_from_dict", "config_to_dict",
        "result_from_dict", "result_to_dict",
    ),
    "repro.engine.spec": (
        "GPU_PROFILES", "SCALE_PRESETS", "RunKey", "RunSpec", "arena_for_spec",
        "execute_spec", "gpu_profile", "scale_preset", "spec_from_dict",
        "spec_to_dict", "trace_key",
    ),
    "repro.engine.store": ("ResultStore", "default_store_path"),
})
