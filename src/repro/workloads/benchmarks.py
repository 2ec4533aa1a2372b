"""Benchmark factory: name-based access to registered kernel models.

The 21 Table II workloads register themselves into the default
:data:`~repro.workloads.registry.REGISTRY` when this module is imported;
the factory functions below resolve *any* registered workload (built-in,
DNN-suite, or user-registered -- see ``docs/workload-authoring.md``).

``benchmark_names()`` intentionally keeps its historical meaning -- the
21 Table II names in the paper's figure order -- because it is the
x-axis of every reproduced figure.  ``workload_names()`` is the full
registry view.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Type

from repro.workloads.kernels import KernelModel
from repro.workloads.mars import (
    InvertedIndex,
    PageViewCount,
    PageViewRank,
    SimilarityScore,
    StringMatch,
)
from repro.workloads.parboil import Histo, MriG
from repro.workloads.polybench import (
    ATAX,
    BICG,
    FDTD2D,
    GEMM,
    GESUMMV,
    MVT,
    SYR2K,
    ThreeMM,
    TwoDConv,
    TwoMM,
)
from repro.workloads.registry import REGISTRY, ensure_builtin_workloads
from repro.workloads.rodinia import CFD, Gaussian, Pathfinder, SradV1
from repro.workloads.trace import TraceScale

__all__ = [
    "TABLE2_MODELS",
    "all_benchmarks",
    "benchmark",
    "benchmark_class",
    "benchmark_names",
    "workload_names",
]

#: the Table II models in the order Figures 13/14/16/17 plot their x-axes
TABLE2_MODELS = (
    TwoDConv, TwoMM, ThreeMM, ATAX, BICG, CFD, FDTD2D, Gaussian,
    GEMM, GESUMMV, InvertedIndex, MVT, PageViewCount, PageViewRank,
    Pathfinder, SimilarityScore, SradV1, StringMatch, SYR2K,
    MriG, Histo,
)

for _model in TABLE2_MODELS:
    REGISTRY.add(_model)  # re-imports are tolerated (same definition)


def benchmark_names() -> List[str]:
    """The 21 Table II benchmark names, in figure order."""
    return [model.name for model in TABLE2_MODELS]


def workload_names() -> List[str]:
    """Every registered workload name (Table II figure order first,
    then the DNN suite and anything user-registered)."""
    ensure_builtin_workloads()
    return REGISTRY.names()


def benchmark(
    name: str,
    num_sms: int,
    warps_per_sm: int,
    scale: Optional[TraceScale] = None,
    seed: int = 0,
) -> KernelModel:
    """Instantiate one workload's kernel model by name.

    Raises:
        ValueError: for unknown names.
    """
    ensure_builtin_workloads()
    return REGISTRY.create(
        name, num_sms=num_sms, warps_per_sm=warps_per_sm, scale=scale,
        seed=seed,
    )


def all_benchmarks(
    num_sms: int,
    warps_per_sm: int,
    scale: Optional[TraceScale] = None,
) -> Iterator[KernelModel]:
    """Instantiate every Table II benchmark (figure order)."""
    for name in benchmark_names():
        yield benchmark(name, num_sms, warps_per_sm, scale)


def benchmark_class(name: str) -> Type[KernelModel]:
    """The registered model class itself (metadata access without
    instantiation).

    Raises:
        ValueError: for unknown names.
    """
    ensure_builtin_workloads()
    return REGISTRY.get(name)
