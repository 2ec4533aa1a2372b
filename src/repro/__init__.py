"""repro: a reproduction of "FUSE: Fusing STT-MRAM into GPUs to Alleviate
Off-Chip Memory Access Overheads" (Zhang, Jung, Kandemir -- HPCA 2019).

The package builds the paper's full stack from scratch in Python:

* :mod:`repro.core` -- the FUSE heterogeneous L1D cache (SRAM + STT-MRAM
  banks, read-level predictor, CBF-based associativity approximation,
  swap buffer, tag queue, arbitration).
* :mod:`repro.cache` -- cache substrate and the baseline L1Ds.
* :mod:`repro.gpu` -- a cycle-approximate GPU simulator (SMs, warps,
  coalescing, schedulers).
* :mod:`repro.memory` -- interconnect, shared L2 banks and GDDR5 DRAM.
* :mod:`repro.energy` -- GPUWattch-style energy model + Table III area
  estimation.
* :mod:`repro.workloads` -- the workload platform: synthetic models of
  the 21 Table II benchmarks, a DNN-layer suite, and an open registry
  for custom kernels.
* :mod:`repro.engine` -- parallel experiment engine: content-hashed run
  identities, a multiprocessing sweep executor, and a persistent
  on-disk result store.
* :mod:`repro.harness` -- experiment runner reproducing every figure and
  table of the evaluation.

Quickstart::

    from repro import Runner
    runner = Runner(scale="test", num_sms=4)
    base = runner.run("L1-SRAM", "ATAX")
    fuse = runner.run("Dy-FUSE", "ATAX")
    print(f"speedup {fuse.ipc / base.ipc:.2f}x")
"""

from repro.core.factory import (
    L1DConfig,
    config_for_budget,
    known_configs,
    l1d_config,
    make_l1d,
    ratio_config,
)
from repro.core.fuse_cache import FuseCache, FuseFeatures
from repro.core.read_level_predictor import ReadLevel, ReadLevelPredictor
from repro.engine import (
    ExperimentEngine,
    ResultStore,
    RunKey,
    RunSpec,
    default_store_path,
)
from repro.gpu.config import GPUConfig, fermi_like, volta_like
from repro.gpu.simulator import GPUSimulator
from repro.gpu.stats import SimulationResult
from repro.harness.runner import Runner, default_runner
from repro.workloads.benchmarks import (
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
from repro.workloads.trace import TraceScale

__version__ = "1.0.0"

__all__ = [
    "ExperimentEngine",
    "FuseCache",
    "FuseFeatures",
    "GPUConfig",
    "GPUSimulator",
    "KernelModel",
    "L1DConfig",
    "REGISTRY",
    "ReadLevel",
    "ReadLevelPredictor",
    "ResultStore",
    "RunKey",
    "RunSpec",
    "Runner",
    "SimulationResult",
    "TraceScale",
    "WorkloadRegistry",
    "default_store_path",
    "benchmark",
    "benchmark_names",
    "config_for_budget",
    "default_runner",
    "fermi_like",
    "known_configs",
    "l1d_config",
    "make_l1d",
    "ratio_config",
    "register_workload",
    "volta_like",
    "workload_names",
    "__version__",
]
