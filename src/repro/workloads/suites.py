"""Benchmark-suite groupings.

``SUITES`` pins the paper's four-suite grouping (the axis of Figure 7b's
per-suite averages) exactly as published.  ``suite_of`` and
``all_suites`` are registry-backed: they cover *every* registered
workload -- the DNN suite and user-registered custom suites included --
so per-suite reports never raise for a workload the paper didn't ship.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

__all__ = ["SUITES", "all_suites", "resolve_workloads", "suite_of"]

#: the paper's suite -> benchmark names, in Figure 7b's order (static:
#: this is the published grouping, not the live registry view)
SUITES: Dict[str, List[str]] = {
    "PolyBench": [
        "2DCONV", "2MM", "3MM", "ATAX", "BICG", "FDTD", "GEMM",
        "GESUMMV", "MVT", "SYR2K",
    ],
    "Rodinia": ["cfd", "gaussian", "pathf", "srad_v1"],
    "Parboil": ["histo", "mri-g"],
    "Mars": ["II", "PVC", "PVR", "SS", "SM"],
}


def suite_of(benchmark_name: str) -> str:
    """Suite a registered workload belongs to (its class's ``suite``
    attribute -- custom suites resolve the same way as the paper's four).

    Raises:
        ValueError: for names not in the registry.
    """
    from repro.workloads.registry import REGISTRY, ensure_builtin_workloads

    ensure_builtin_workloads()
    return REGISTRY.suite_of(benchmark_name)


def all_suites() -> Dict[str, List[str]]:
    """Every suite in the registry (the paper's four, the DNN suite, and
    any user-registered grouping), suite -> workload names."""
    from repro.workloads.registry import REGISTRY, ensure_builtin_workloads

    ensure_builtin_workloads()
    return REGISTRY.suites()


def resolve_workloads(raw: Union[str, Sequence[str]]) -> List[str]:
    """Expand workload tokens into concrete workload names.

    *raw* is a comma-separated string or a sequence of tokens.  ``all``
    means every registered workload; a token naming a suite (``DNN``,
    ``PolyBench``, ...) expands to the suite's members; an exact
    workload name wins over a same-named suite.  Unknown tokens pass through
    unchanged and surface later as per-run errors (or are rejected by
    callers that validate eagerly, like the service layer).

    Shared by ``repro sweep --workloads``, ``repro submit --workloads``
    and the service's sweep-request canonicalisation, so one grammar
    covers every entry point.
    """
    from repro.workloads.benchmarks import workload_names
    from repro.workloads.registry import REGISTRY, ensure_builtin_workloads

    tokens = raw.split(",") if isinstance(raw, str) else list(raw)
    if len(tokens) == 1 and tokens[0].strip().lower() == "all":
        return workload_names()
    ensure_builtin_workloads()
    suites = all_suites()
    out: List[str] = []
    for token in tokens:
        token = token.strip()
        if not token:
            continue
        if token in REGISTRY:
            out.append(token)
        elif token in suites:
            out.extend(suites[token])
        else:
            out.append(token)
    # overlapping tokens (a suite plus one of its members) collapse to
    # one entry so runs are neither re-submitted nor double-reported
    return list(dict.fromkeys(out))
