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

This package and ``core``, ``engine``, ``gpu``, ``harness`` and
``service`` resolve their exports lazily through :func:`lazy_exports`,
so ``import repro`` runs no submodule and each process loads only the
layers its role runs (ARCHITECTURE.md, "Imports follow the role").
"""

import importlib
from typing import Callable, List, Mapping, Tuple


def lazy_exports(
    namespace: dict, exports: Mapping[str, str],
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The PEP 562 ``__getattr__`` and ``__dir__`` of the package whose
    ``globals()`` is *namespace*.

    *exports* maps each exported name to the module defining it.  The
    first access imports that module and caches the value in the
    package namespace, so later lookups are plain attribute reads.
    A package binds ``__getattr__, __dir__ = lazy_exports(globals(),
    _EXPORTS)`` and sets ``__all__ = sorted(_EXPORTS)``.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> object:
        module_name = exports.get(name)
        if module_name is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module_name), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__


_EXPORTS = {
    "L1DConfig": "repro.core.factory",
    "config_for_budget": "repro.core.factory",
    "known_configs": "repro.core.factory",
    "l1d_config": "repro.core.factory",
    "make_l1d": "repro.core.factory",
    "ratio_config": "repro.core.factory",
    "FuseCache": "repro.core.fuse_cache",
    "FuseFeatures": "repro.core.fuse_cache",
    "ReadLevel": "repro.core.read_level_predictor",
    "ReadLevelPredictor": "repro.core.read_level_predictor",
    "ExperimentEngine": "repro.engine.engine",
    "ResultStore": "repro.engine.store",
    "default_store_path": "repro.engine.store",
    "RunKey": "repro.engine.spec",
    "RunSpec": "repro.engine.spec",
    "GPUConfig": "repro.gpu.config",
    "fermi_like": "repro.gpu.config",
    "volta_like": "repro.gpu.config",
    "GPUSimulator": "repro.gpu.simulator",
    "SimulationResult": "repro.gpu.stats",
    "Runner": "repro.harness.runner",
    "default_runner": "repro.harness.runner",
    "benchmark": "repro.workloads.benchmarks",
    "benchmark_names": "repro.workloads.benchmarks",
    "workload_names": "repro.workloads.benchmarks",
    "KernelModel": "repro.workloads.kernels",
    "REGISTRY": "repro.workloads.registry",
    "WorkloadRegistry": "repro.workloads.registry",
    "register_workload": "repro.workloads.registry",
    "TraceScale": "repro.workloads.trace",
}

__version__ = "1.0.0"

__all__ = sorted(_EXPORTS) + ["__version__"]
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
