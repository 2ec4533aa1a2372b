"""Python calls per L1D access: the simulator's noise-free cost proxy.

Wall-clock throughput drifts with the host; the number of Python
function calls a simulation makes does not.  :func:`profile_run`
executes a simulation with :mod:`cProfile` switched on only inside
``GPUSimulator.run`` and reports

* ``calls`` -- Python frames entered inside the run (builtins excluded),
  and ``calls_per_access`` = ``calls / l1d.accesses``;
* ``self_seconds`` -- profiled self time per simulator package (``gpu``,
  ``cache``, ``core``, ``memory``; everything else, builtins included,
  is ``other``).

List, dict and set comprehensions are not counted: Python 3.12 inlines
them into the enclosing frame (PEP 709), so counting them would make
the number depend on the interpreter version.  Generator expressions
still run in frames of their own on every version and are counted
(every resume is a call).

The count is deterministic for a given interpreter, trace and
process history.  The garbage collector is run before and paused
during the profiled run, so finalizers of objects left over by earlier
work (a generator's close is a call) cannot land in the count.
Process-wide memos (the CBF hash patterns of
:mod:`repro.core.approx_assoc`) fill on first use, so measure a run
whose configuration already ran once in the process when comparing
steady-state numbers.

Used by ``repro profile`` and ``benchmarks/bench_throughput.py`` (the
exact CI gate).
"""

from __future__ import annotations

import cProfile
import gc
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple, TypeVar

__all__ = [
    "COMPREHENSION_FRAMES", "PACKAGES", "RunCallProfile", "profile_run",
]

#: frame names not counted (inlined by Python 3.12, see module docs)
COMPREHENSION_FRAMES = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})

#: simulator packages the self time is split over, in report order
PACKAGES = ("gpu", "cache", "core", "memory")

_PACKAGE_DIRS = {
    name: f"{os.sep}repro{os.sep}{name}{os.sep}" for name in PACKAGES
}

T = TypeVar("T")


@dataclass
class RunCallProfile:
    """What one profiled ``GPUSimulator.run`` cost.

    Attributes:
        calls: Python frames entered inside the run (see module docs).
        accesses: accepted L1D accesses of the run (``l1d.accesses``).
        self_seconds: profiled self time per package in :data:`PACKAGES`
            plus ``"other"``; cProfile's per-call overhead inflates
            these, so read them as shares, not as wall-clock.
    """

    calls: int = 0
    accesses: int = 0
    self_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def calls_per_access(self) -> float:
        return self.calls / self.accesses if self.accesses else 0.0

    def split_line(self) -> str:
        """One-line rendering of the per-package self-time split."""
        total = sum(self.self_seconds.values()) or 1.0
        return "  ".join(
            f"{name} {seconds:.3f}s ({100 * seconds / total:.0f}%)"
            for name, seconds in self.self_seconds.items()
        )


def _package_of(filename: str) -> str:
    for name, directory in _PACKAGE_DIRS.items():
        if directory in filename:
            return name
    return "other"


def profile_run(execute: Callable[[], T]) -> Tuple[T, RunCallProfile]:
    """Call *execute* with every ``GPUSimulator.run`` inside it profiled.

    *execute* runs one simulation, typically ``lambda:
    execute_spec(spec)``, and returns its ``SimulationResult``.
    ``GPUSimulator.run`` is swapped for a profiling wrapper for the
    duration of the call only.
    """
    from repro.gpu.simulator import GPUSimulator

    report = RunCallProfile(self_seconds={
        name: 0.0 for name in (*PACKAGES, "other")
    })
    run = GPUSimulator.__dict__["run"]

    def profiled_run(self, *args, **kwargs):
        gc.collect()
        collecting = gc.isenabled()
        gc.disable()
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            return run(self, *args, **kwargs)
        finally:
            profiler.disable()
            if collecting:
                gc.enable()
            for entry in profiler.getstats():
                code = entry.code
                if isinstance(code, str):  # a builtin
                    report.self_seconds["other"] += entry.inlinetime
                    continue
                report.self_seconds[_package_of(code.co_filename)] += (
                    entry.inlinetime
                )
                if code.co_name not in COMPREHENSION_FRAMES:
                    report.calls += entry.callcount

    GPUSimulator.run = profiled_run
    try:
        result = execute()
    finally:
        GPUSimulator.run = run
    report.accesses = result.l1d.accesses
    return result, report
