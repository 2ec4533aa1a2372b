"""Cycle-approximate GPU substrate (the GPGPU-Sim stand-in).

The simulator models what the paper measures: warps issuing instructions
in order (1 per cycle per SM), memory instructions coalescing into
128-byte transactions, a private per-SM L1D, and a shared memory system
(interconnect + L2 + GDDR5 DRAM) reached on misses.  Pipeline micro-
structure is abstracted; latency and contention are modelled through
per-resource ``busy_until`` accounting plus a typed event wheel for
completions (see ARCHITECTURE.md, "GPU layer").
"""

from repro.gpu.coalescer import coalesce
from repro.gpu.config import GPUConfig, fermi_like, volta_like
from repro.gpu.simulator import GPUSimulator
from repro.gpu.stats import LatencyBreakdown, SimulationResult
from repro.gpu.warp import Warp

__all__ = [
    "GPUConfig",
    "GPUSimulator",
    "LatencyBreakdown",
    "SimulationResult",
    "Warp",
    "coalesce",
    "fermi_like",
    "volta_like",
]
