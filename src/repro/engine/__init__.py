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

_EXPORTS = {
    "ExperimentEngine": "repro.engine.engine",
    "OutcomeCallback": "repro.engine.engine",
    "ProgressEvent": "repro.engine.engine",
    "RunOutcome": "repro.engine.engine",
    "default_workers": "repro.engine.engine",
    "stderr_progress": "repro.engine.engine",
    "SCHEMA_VERSION": "repro.engine.serialize",
    "config_from_dict": "repro.engine.serialize",
    "config_to_dict": "repro.engine.serialize",
    "result_from_dict": "repro.engine.serialize",
    "result_to_dict": "repro.engine.serialize",
    "GPU_PROFILES": "repro.engine.spec",
    "SCALE_PRESETS": "repro.engine.spec",
    "RunKey": "repro.engine.spec",
    "RunSpec": "repro.engine.spec",
    "arena_for_spec": "repro.engine.spec",
    "execute_spec": "repro.engine.spec",
    "gpu_profile": "repro.engine.spec",
    "scale_preset": "repro.engine.spec",
    "spec_from_dict": "repro.engine.spec",
    "spec_to_dict": "repro.engine.spec",
    "trace_key": "repro.engine.spec",
    "ResultStore": "repro.engine.store",
    "default_store_path": "repro.engine.store",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
