"""Experiment harness: runners, experiment definitions and reporting.

Every figure/table bench in ``benchmarks/`` calls into
:mod:`repro.harness.experiments`; the shared :class:`~repro.harness.
runner.Runner` memoises (configuration, workload) simulation results by
stable content hash -- in process (L1) and, when given a
:class:`~repro.engine.store.ResultStore`, on disk (L2) -- so a pytest
session that regenerates Figures 13-17 runs each simulation at most
once, and a repeated session runs none at all.  Matrices fan out across
worker processes via :meth:`~repro.harness.runner.Runner.prefetch`.

Exports resolve lazily (:func:`repro.lazy_exports`), so the CLI's table
formatting (:mod:`repro.harness.report`) does not load the runner and
the engine behind it.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.harness.report": ("format_table", "gmean", "normalise"),
    "repro.harness.runner": ("Runner", "default_runner"),
})
