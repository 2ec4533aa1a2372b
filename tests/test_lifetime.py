"""A finished simulation frees itself.

The per-run object graph (simulator, SMs, warps, L1D engines, memory
subsystem, sampler) is acyclic by construction: no per-run object holds
a reference back to its owner, and a callback a cache hands to a
sub-object is a plain function, never a bound method of that cache.
Reference counting therefore frees a whole machine as soon as
:func:`~repro.engine.spec.execute_spec` returns, and the cyclic garbage
collector finds nothing to do.  A sweep is hundreds of short runs; a
machine left as cyclic garbage costs collector time in every later
run, which re-scans it until a full collection frees it.

Each run below happens with the collector flushed and disabled; any
object it leaves behind in a reference cycle is what ``gc.collect()``
then reports.
"""

from __future__ import annotations

import gc

import pytest

from repro.core.factory import known_configs
from repro.engine.spec import RunSpec, execute_spec


def _cyclic_garbage_after(spec: RunSpec) -> int:
    """Run *spec* with the collector off; return the objects a full
    collection then frees (the run's cyclic garbage)."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        execute_spec(spec)
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("config", known_configs())
def test_finished_run_leaves_no_cyclic_garbage(config):
    spec = RunSpec.build(config, "ATAX", scale="smoke", num_sms=2)
    leftover = _cyclic_garbage_after(spec)
    assert leftover == 0, (
        f"{config}: a finished run left {leftover} objects in reference "
        "cycles for the garbage collector"
    )


def test_timeline_run_leaves_no_cyclic_garbage():
    spec = RunSpec.build(
        "Dy-FUSE", "ATAX", scale="smoke", num_sms=2, timeline_interval=50
    )
    leftover = _cyclic_garbage_after(spec)
    assert leftover == 0, (
        f"a timeline-sampled run left {leftover} objects in reference "
        "cycles for the garbage collector"
    )

