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

This package and ``cache``, ``core``, ``energy``, ``engine``, ``gpu``,
``harness``, ``service`` and ``telemetry`` resolve their exports lazily
through :func:`lazy_exports`, so ``import repro`` runs no submodule and
each process loads only the layers its role runs (ARCHITECTURE.md,
"Imports follow the role").
"""

import importlib
from typing import Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    namespace: dict, modules: Mapping[str, Sequence[str]],
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """The PEP 562 ``__getattr__`` and ``__dir__``, and the ``__all__``,
    of the package whose ``globals()`` is *namespace*.

    *modules* maps each defining module to the names it exports.  The
    first access to a name imports its module and caches the value in
    the package namespace, so later lookups are plain attribute reads.
    A package binds ``__getattr__, __dir__, __all__ =
    lazy_exports(globals(), {module: names, ...})``.
    """
    exports = {name: module for module, names in modules.items()
               for name in names}
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

    return __getattr__, __dir__, sorted(exports)


__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.core.factory": (
        "FuseFeatures", "L1DConfig", "config_for_budget", "known_configs",
        "l1d_config", "make_l1d", "ratio_config",
    ),
    "repro.core.fuse_cache": ("FuseCache",),
    "repro.core.read_level_predictor": ("ReadLevel", "ReadLevelPredictor"),
    "repro.engine.engine": ("ExperimentEngine",),
    "repro.engine.store": ("ResultStore", "default_store_path"),
    "repro.engine.spec": ("RunKey", "RunSpec"),
    "repro.gpu.config": ("GPUConfig", "fermi_like", "volta_like"),
    "repro.gpu.simulator": ("GPUSimulator",),
    "repro.gpu.stats": ("SimulationResult",),
    "repro.harness.runner": ("Runner", "default_runner"),
    "repro.workloads.benchmarks": (
        "benchmark", "benchmark_names", "workload_names",
    ),
    "repro.workloads.kernels": ("KernelModel",),
    "repro.workloads.registry": (
        "REGISTRY", "WorkloadRegistry", "register_workload",
    ),
    "repro.workloads.trace": ("TraceScale",),
})

__version__ = "1.0.0"
__all__ += ["__version__"]
