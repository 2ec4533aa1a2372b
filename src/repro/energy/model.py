"""Event-count energy model (GPUWattch-style).

Dynamic energy = per-event costs x event counts from the simulation;
static energy = leakage power x wall-clock time.  The L1D bank numbers
come straight from Table I:

===========  ==============  ===============  ==================
config       SRAM R/W nJ      STT R/W nJ       leakage SRAM/STT mW
===========  ==============  ===============  ==================
L1-SRAM      0.15 / 0.12      --               58 / 0
By-NVM       --               1.2 / 2.9        0  / 2.8
Hybrid/Base  0.09 / 0.07      0.26 / 2.4       36 / 2.6
FA/Dy-FUSE   0.09 / 0.07      0.26 / 2.4       36 / 2.4
===========  ==============  ===============  ==================

The remaining constants (L2, DRAM, network, per-instruction compute) are
not in the paper; the chosen values are documented on
:class:`EnergyConstants` and set the scale of Figure 1b's decomposition
without affecting Figure 17's L1D-relative comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.gpu.stats import SimulationResult

__all__ = [
    "EnergyConstants", "EnergyReport", "L1DEnergyParams", "compute_energy",
    "l1d_energy_params",
]


@dataclass(frozen=True)
class L1DEnergyParams:
    """Per-access energies (nJ) and leakage (mW) of one L1D instance."""

    sram_read_nj: float = 0.09
    sram_write_nj: float = 0.07
    stt_read_nj: float = 0.26
    stt_write_nj: float = 2.4
    sram_leak_mw: float = 36.0
    stt_leak_mw: float = 2.4
    cbf_test_nj: float = 0.01
    cbf_update_nj: float = 0.02


#: Table I's per-configuration L1D energy parameters.
_L1D_PARAMS = {
    "L1-SRAM": L1DEnergyParams(
        sram_read_nj=0.15, sram_write_nj=0.12,
        stt_read_nj=0.0, stt_write_nj=0.0,
        sram_leak_mw=58.0, stt_leak_mw=0.0,
    ),
    "FA-SRAM": L1DEnergyParams(
        # the paper cites 28.3x power vs 4-way for true full associativity;
        # we keep the array energies and scale leakage to reflect the
        # parallel comparator banks
        sram_read_nj=0.45, sram_write_nj=0.36,
        stt_read_nj=0.0, stt_write_nj=0.0,
        sram_leak_mw=170.0, stt_leak_mw=0.0,
    ),
    "L1-NVM": L1DEnergyParams(
        sram_read_nj=0.0, sram_write_nj=0.0,
        stt_read_nj=1.2, stt_write_nj=2.9,
        sram_leak_mw=0.0, stt_leak_mw=2.8,
    ),
    "By-NVM": L1DEnergyParams(
        sram_read_nj=0.0, sram_write_nj=0.0,
        stt_read_nj=1.2, stt_write_nj=2.9,
        sram_leak_mw=0.0, stt_leak_mw=2.8,
    ),
    "Oracle": L1DEnergyParams(
        sram_read_nj=0.15, sram_write_nj=0.12,
        sram_leak_mw=58.0, stt_leak_mw=0.0,
    ),
    "Hybrid": L1DEnergyParams(stt_leak_mw=2.6),
    "Base-FUSE": L1DEnergyParams(stt_leak_mw=2.6),
    "FA-FUSE": L1DEnergyParams(stt_leak_mw=2.4),
    "Dy-FUSE": L1DEnergyParams(stt_leak_mw=2.4),
}


def l1d_energy_params(config_name: str) -> L1DEnergyParams:
    """Table I energy parameters for a named config (FUSE-family default
    for ratio/ablation variants derived from them)."""
    if config_name in _L1D_PARAMS:
        return _L1D_PARAMS[config_name]
    # ratio configs are named "<base>-<fraction>"
    for known, params in _L1D_PARAMS.items():
        if config_name.startswith(known):
            return params
    return L1DEnergyParams()


@dataclass(frozen=True)
class EnergyConstants:
    """Non-L1D energy constants (documented choices, see module docs).

    Attributes:
        l2_access_nj: per 128-byte L2 bank access (CACTI-class number for
            a 64 KB ECC bank).
        l2_leak_mw: total L2 leakage.
        dram_access_nj: per 128-byte GDDR5 access (~19 pJ/bit incl. I/O).
        network_flit_hop_nj: per flit-hop router+link energy.
        compute_nj_per_instruction: SM pipeline + register-file energy per
            warp instruction (sets Figure 1b's compute share).
        idle_sm_mw: per-SM static power.
    """

    l2_access_nj: float = 0.6
    l2_leak_mw: float = 150.0
    dram_access_nj: float = 20.0
    network_flit_hop_nj: float = 0.05
    compute_nj_per_instruction: float = 0.45
    idle_sm_mw: float = 25.0


@dataclass
class EnergyReport:
    """Per-component energy (nanojoules) for one simulation run."""

    sram_dynamic_nj: float = 0.0
    stt_dynamic_nj: float = 0.0
    cbf_nj: float = 0.0
    l1d_leak_nj: float = 0.0
    l2_nj: float = 0.0
    dram_nj: float = 0.0
    network_nj: float = 0.0
    compute_nj: float = 0.0

    @property
    def l1d_nj(self) -> float:
        """Total L1D energy (Figure 17's metric)."""
        return (
            self.sram_dynamic_nj
            + self.stt_dynamic_nj
            + self.cbf_nj
            + self.l1d_leak_nj
        )

    @property
    def offchip_nj(self) -> float:
        """Off-chip service energy: network + L2 + DRAM (Figure 1b)."""
        return self.l2_nj + self.dram_nj + self.network_nj

    @property
    def total_nj(self) -> float:
        return self.l1d_nj + self.offchip_nj + self.compute_nj

    @property
    def offchip_fraction(self) -> float:
        total = self.total_nj
        return self.offchip_nj / total if total else 0.0

    def component_fractions(self) -> dict:
        """Fractions per Figure 1b component grouping."""
        total = self.total_nj or 1.0
        return {
            "L2+DRAM+network": self.offchip_nj / total,
            "L1D": self.l1d_nj / total,
            "compute": self.compute_nj / total,
        }


def compute_energy(
    result: SimulationResult,
    l1d_params: Optional[L1DEnergyParams] = None,
    constants: Optional[EnergyConstants] = None,
    core_clock_ghz: float = 1.4,
    net_hops: int = 4,
) -> EnergyReport:
    """Convert a run's event counters into an :class:`EnergyReport`."""
    params = l1d_params or l1d_energy_params(result.config_name)
    consts = constants or EnergyConstants()
    l1 = result.l1d
    mem = result.memory

    seconds = result.cycles / (core_clock_ghz * 1e9)
    leak_mw = (params.sram_leak_mw + params.stt_leak_mw) * result.num_sms

    report = EnergyReport()
    report.sram_dynamic_nj = (
        l1.sram_reads * params.sram_read_nj
        + l1.sram_writes * params.sram_write_nj
    )
    report.stt_dynamic_nj = (
        l1.stt_reads * params.stt_read_nj
        + l1.stt_writes * params.stt_write_nj
    )
    report.cbf_nj = (
        l1.cbf_tests * params.cbf_test_nj
        + l1.cbf_updates * params.cbf_update_nj
    )
    report.l1d_leak_nj = leak_mw * 1e-3 * seconds * 1e9  # mW*s -> nJ

    l2_accesses = mem.l2_hits + mem.l2_misses
    report.l2_nj = (
        l2_accesses * consts.l2_access_nj
        + consts.l2_leak_mw * 1e-3 * seconds * 1e9
    )
    report.dram_nj = (mem.dram_reads + mem.dram_writes) * consts.dram_access_nj
    report.network_nj = (
        (mem.request_flits + mem.response_flits + mem.writeback_flits)
        * net_hops
        * consts.network_flit_hop_nj
    )
    report.compute_nj = (
        result.instructions * consts.compute_nj_per_instruction
        + consts.idle_sm_mw * result.num_sms * 1e-3 * seconds * 1e9
    )
    return report
