"""Workload platform: kernel models, the registry, and packed traces.

The original evaluation runs CUDA binaries from PolyBench, Rodinia,
Parboil and Mars under GPGPU-Sim.  Those binaries (and a GPU) are not
available here, so each benchmark is modelled as a :class:`KernelModel`
that emits per-warp instruction streams from the benchmark's documented
loop structure.  Generator parameters are tuned so the measured APKI
tracks Table II and the emergent read-level mix tracks Figure 6; the
`bench_table2_apki` and `bench_fig06_read_level` benchmarks print the
comparison.

Beyond the paper's 21 workloads the package is an *open platform*:

* :mod:`repro.workloads.registry` -- register custom kernel models by
  name (decorator or programmatic); every name-resolving API goes
  through it.
* :mod:`repro.workloads.dnn` -- a fifth suite of DNN-layer kernels
  (im2col conv, GEMM tiles, attention gathers) with configurable
  tensor shapes.
* :mod:`repro.workloads.arena` -- the compile-once columnar trace form
  the simulator replays; one packed arena per trace identity is shared
  across the runs of a process and, by copy-on-write, its fork-pool
  workers; spawn/forkserver workers regenerate it deterministically
  from the spec (ARCHITECTURE.md, "Trace lifecycle").
"""

from repro.workloads.analysis import (
    ReadLevelBreakdown,
    classify_block,
    read_level_analysis,
)
from repro.workloads.benchmarks import (
    all_benchmarks,
    benchmark,
    benchmark_names,
    workload_names,
)
from repro.workloads.kernels import KernelModel
from repro.workloads.registry import (
    REGISTRY,
    WorkloadRegistry,
    register_workload,
)
from repro.workloads.arena import (
    PackedTraceArena,
    arena_cache_stats,
    reset_arena_cache,
)
from repro.workloads.suites import SUITES, all_suites, suite_of
from repro.workloads.trace import (
    COMPUTE,
    LOAD,
    STORE,
    TraceScale,
    WarpInstruction,
    compute_block,
    load_instruction,
    store_instruction,
)

__all__ = [
    "COMPUTE",
    "KernelModel",
    "LOAD",
    "PackedTraceArena",
    "REGISTRY",
    "ReadLevelBreakdown",
    "STORE",
    "SUITES",
    "TraceScale",
    "WarpInstruction",
    "WorkloadRegistry",
    "all_benchmarks",
    "all_suites",
    "arena_cache_stats",
    "benchmark",
    "benchmark_names",
    "classify_block",
    "compute_block",
    "load_instruction",
    "read_level_analysis",
    "register_workload",
    "reset_arena_cache",
    "store_instruction",
    "suite_of",
    "workload_names",
]
