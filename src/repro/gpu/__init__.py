"""Cycle-approximate GPU substrate (the GPGPU-Sim stand-in).

The simulator models what the paper measures: warps issuing instructions
in order (1 per cycle per SM), memory instructions coalescing into
128-byte transactions, a private per-SM L1D, and a shared memory system
(interconnect + L2 + GDDR5 DRAM) reached on misses.  Pipeline micro-
structure is abstracted; latency and contention are modelled through
per-resource ``busy_until`` accounting plus a typed event wheel for
completions (see ARCHITECTURE.md, "GPU layer").

Exports resolve lazily (:func:`repro.lazy_exports`).  That keeps an import
cycle inert: ``workloads.trace`` imports :mod:`repro.gpu.coalescer`,
and an eager package would load the simulator from there, which reaches
back into ``workloads.trace`` through ``warp`` and ``workloads.arena``.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.gpu.coalescer": ("coalesce",),
    "repro.gpu.config": ("GPUConfig", "fermi_like", "volta_like"),
    "repro.gpu.simulator": ("GPUSimulator",),
    "repro.gpu.stats": ("LatencyBreakdown", "SimulationResult"),
    "repro.gpu.warp": ("Warp",),
})
