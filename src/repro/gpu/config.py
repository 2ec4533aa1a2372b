"""Machine configurations (Table I, plus the Volta variant of Figure 19).

All DRAM timing parameters are specified in DRAM-clock cycles as in
Table I (``6/12/12/28`` for channels/tCL/tRCD/tRAS) and converted to core
cycles through ``dram_clock_ratio``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "GPUConfig", "fermi_like", "volta_like",
]


@dataclass(frozen=True)
class GPUConfig:
    """Top-level machine description.

    The defaults reproduce Table I's GTX480-class baseline: 15 SMs, 48
    warps per SM, butterfly interconnect to 12 L2 banks and 6 GDDR5
    channels.
    """

    name: str = "fermi"

    # -- SM organisation ---------------------------------------------------
    num_sms: int = 15
    warps_per_sm: int = 48
    threads_per_warp: int = 32
    core_clock_ghz: float = 1.4

    # -- shared L2 ----------------------------------------------------------
    l2_num_banks: int = 12
    l2_sets: int = 64
    l2_assoc: int = 8
    #: bank service time per access, core cycles (tag + ECC-protected
    #: data; the paper puts the full L2 path at ~60x the L1D latency once
    #: network and queueing are included)
    l2_service_cycles: int = 16
    #: bank occupancy per access (pipelining limit)
    l2_occupancy_cycles: int = 2

    # -- interconnect (butterfly, 15 SMs + 12 L2 banks = 27 nodes) ----------
    net_hops: int = 4
    net_hop_cycles: int = 4
    flit_bytes: int = 32

    # -- GDDR5 DRAM ----------------------------------------------------------
    dram_channels: int = 6
    dram_banks_per_channel: int = 8
    #: core cycles per DRAM command cycle
    dram_clock_ratio: int = 2
    tCL: int = 12
    tRCD: int = 12
    tRP: int = 12
    tRAS: int = 28
    #: DRAM-clock cycles to burst one 128B block over the wide interface
    dram_burst_cycles: int = 4
    dram_row_bytes: int = 2048
    #: core cycles of memory-controller queueing/coalescing per request
    #: (Section II-A2: GPU DRAM queues all references into request queues
    #: for coalescing and reordering, trading latency for bandwidth)
    dram_controller_cycles: int = 80

    #: SRAM-equivalent L1D area budget per SM, KB (32 for Fermi-class,
    #: 128 for Volta whose L1 is configurable up to 128 KB)
    l1d_area_budget_kb: int = 32

    def with_overrides(self, **kwargs) -> "GPUConfig":
        """Return a modified copy."""
        return replace(self, **kwargs)

    @property
    def blocks_per_dram_row(self) -> int:
        return max(1, self.dram_row_bytes // 128)


def fermi_like() -> GPUConfig:
    """Table I's baseline machine (GTX480-class, as in GPGPU-Sim 3.2.2)."""
    return GPUConfig()


def volta_like() -> GPUConfig:
    """The Figure 19 machine: 84 SMs, 6 MB L2, ~900 GB/s memory.

    The paper modified GPGPU-Sim's Fermi model in exactly these three
    dimensions (SM count, L2 size, memory bandwidth) and configured the
    reconfigurable L1 at its 128 KB maximum.
    """
    return GPUConfig(
        name="volta",
        num_sms=84,
        warps_per_sm=64,
        l2_num_banks=24,
        l2_sets=256,
        l2_assoc=8,
        dram_channels=24,
        dram_burst_cycles=2,
        l1d_area_budget_kb=128,
    )
