"""Transistor-count area estimation (Table III, Section V-C).

The paper sizes each L1D component by counting transistors with simple
device-level rules; this module reproduces those rules so the
``bench_table3_area`` target can print the computed counts next to the
published ones.

Device-count rules (all from Section V-C):

* SRAM cell: 6T per bit.
* STT-MRAM cell: 1 transistor + 1 MTJ per bit; we count an MTJ as half a
  transistor-equivalent, which reproduces the paper's decision to report
  the same 1,572,864-device data array for Dy-FUSE as for L1-SRAM
  (16 KB x 8 x 6T + 64 KB x 8 x 1.5 = 1,572,864).
* Sense amplifier: 8T sensing + 8T latch = 16T per sensed bit.
* Write driver: 14T per driven bit.
* Comparator: 4T per compared tag bit, plus match/drive logic per
  comparator instance (calibrated to Table III's 976 for 4x19-bit).
* Decoder: predecode stage (2-4 and 3-8 decoders) + one NOR per wordline
  + tri-state wordline drivers.

The organisations themselves (sizes, associativity, CBF geometry, swap
and queue entries) are read from :func:`repro.core.factory.l1d_config`,
so Table III prices exactly the Table I machines the simulator runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.cache.request import BLOCK_SIZE
from repro.cache.tag_array import sets_for
from repro.core.approx_assoc import TAG_COMPARATORS
from repro.core.factory import l1d_config

__all__ = [
    "AreaReport", "COMPARATOR_OVERHEAD", "COMPARATOR_PER_BIT",
    "DECODER_PER_WORDLINE", "DECODER_PREDECODE", "FA_TAG_ENTRY_BITS",
    "SENSE_AMP_PER_BIT", "SRAM_PER_BIT", "STT_PER_BIT", "TAG_BITS",
    "WRITE_DRIVER_PER_BIT", "comparators", "decoder", "dy_fuse_area",
    "l1_sram_area", "sense_amplifiers", "sram_array", "stt_array",
    "write_drivers",
]

#: devices per bit
SRAM_PER_BIT = 6
STT_PER_BIT = 1.5  # 1T + 1 MTJ (MTJ counted as half a device)
SENSE_AMP_PER_BIT = 16
WRITE_DRIVER_PER_BIT = 14
COMPARATOR_PER_BIT = 4
#: per-comparator match/driver logic (calibrated to Table III)
COMPARATOR_OVERHEAD = 168
#: predecode logic of one decoder (couple of 2-4 / 3-8 decoders)
DECODER_PREDECODE = 484
#: NOR gate + tri-state driver per wordline
DECODER_PER_WORDLINE = 10

#: address tag bits of a set-associative line
TAG_BITS = 19
#: a fully-associative STT-MRAM tag entry: the full block address plus
#: status bits
FA_TAG_ENTRY_BITS = 36

#: data bits in one line
_LINE_BITS = BLOCK_SIZE * 8


@dataclass
class AreaReport:
    """Component -> device count, plus the paper's reference numbers."""

    name: str
    components: Dict[str, int] = field(default_factory=dict)
    paper_reference: Dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.components.values())

    def overhead_vs(self, other: "AreaReport") -> float:
        """Relative device-count difference against *other*."""
        if other.total == 0:
            return 0.0
        return (self.total - other.total) / other.total


def sram_array(bits: int) -> int:
    """6T SRAM array devices for *bits*."""
    return bits * SRAM_PER_BIT


def stt_array(bits: int) -> int:
    """1T1MTJ array device-equivalents for *bits*."""
    return int(bits * STT_PER_BIT)


def sense_amplifiers(count: int, width_bits: int) -> int:
    """*count* amplifiers each sensing *width_bits*."""
    return count * width_bits * SENSE_AMP_PER_BIT


def write_drivers(count: int, width_bits: int) -> int:
    return count * width_bits * WRITE_DRIVER_PER_BIT


def comparators(count: int, tag_bits: int) -> int:
    return count * (tag_bits * COMPARATOR_PER_BIT + COMPARATOR_OVERHEAD)


def decoder(wordlines: int) -> int:
    return DECODER_PREDECODE + wordlines * DECODER_PER_WORDLINE


# ----------------------------------------------------------------------
def l1_sram_area() -> AreaReport:
    """Table III's L1-SRAM column (Table I: 32 KB, 64 sets x 4 ways)."""
    config = l1d_config("L1-SRAM")
    assoc = config.sram_assoc
    lines = sets_for(config.sram_kb, 1)
    # each tag entry: tag bits + valid + dirty
    tag_entry_bits = TAG_BITS + 2
    # the row sensed at once: one way of data + its tag entry
    row_bits = _LINE_BITS + tag_entry_bits

    report = AreaReport(name="L1-SRAM")
    report.components = {
        "data array": sram_array(lines * _LINE_BITS),
        "tag array": sram_array(lines * tag_entry_bits),
        "sense amplifier": sense_amplifiers(assoc, row_bits),
        "write driver": write_drivers(assoc, row_bits),
        "comparator": comparators(assoc, TAG_BITS),
        "decoder": decoder(lines // assoc),
    }
    report.paper_reference = {
        "data array": 1_572_864,
        "tag array": 32_256,
        "sense amplifier": 66_880,
        "write driver": 58_520,
        "comparator": 976,
        "decoder": 1_124,
    }
    return report


def dy_fuse_area() -> AreaReport:
    """Table III's Dy-FUSE column (Table I's Dy-FUSE organisation).

    The serialized STT tag path lets FUSE shrink sense amplifiers and
    write drivers versus L1-SRAM (Table I: 2 SRAM amps + 1 STT amp) and
    spends the recovered area on the four FUSE components (NVM-CBF, swap
    buffer, request/tag queue, read-level predictor).
    """
    config = l1d_config("Dy-FUSE")
    sram_assoc = config.sram_assoc
    num_cbfs = config.num_cbfs
    sram_lines = sets_for(config.sram_kb, 1)
    # the approximated STT bank is one fully-associative set
    stt_ways = sets_for(config.stt_kb, 1)
    tag_entry_bits = TAG_BITS + 2
    sram_row_bits = _LINE_BITS + tag_entry_bits
    stt_row_bits = _LINE_BITS + FA_TAG_ENTRY_BITS

    report = AreaReport(name="Dy-FUSE")
    report.components = {
        "data array": (sram_array(sram_lines * _LINE_BITS)
                       + stt_array(stt_ways * _LINE_BITS)),
        "tag array": (
            sram_array(sram_lines * tag_entry_bits)
            + stt_array(stt_ways * FA_TAG_ENTRY_BITS)
        ),
        # 2 SRAM amps + 1 STT amp (serialized tag/data access)
        "sense amplifier": (
            sense_amplifiers(sram_assoc, sram_row_bits)
            + sense_amplifiers(1, stt_row_bits)
        ),
        "write driver": (
            write_drivers(sram_assoc, sram_row_bits)
            + write_drivers(1, stt_row_bits)
        ),
        # the SRAM bank's comparators + the STT bank's polling comparators
        "comparator": comparators(sram_assoc, TAG_BITS)
        + comparators(TAG_COMPARATORS, TAG_BITS),
        # the SRAM bank keeps a full set decoder; the STT side's polling
        # logic only drives one comparator-group row per iteration, so its
        # decoder addresses row groups (num_cbfs / 16 wordline drivers)
        "decoder": decoder(sram_lines // sram_assoc)
        + decoder(max(1, num_cbfs // 16)),
        # each 2-bit counter: 4 transistors + 2 MTJs (half a device each)
        # plus shared X/Y decoder and sense-amp periphery
        "NVM-CBF": num_cbfs * config.cbf_counters * 5 + 704,
        "swap buffer": config.swap_entries * 1_024,
        "request queue": config.tag_queue_capacity * 960,
        "read-level predictor": 648 + 1_672,
    }
    report.paper_reference = {
        "data array": 1_572_864,
        "tag array": 43_776,
        "sense amplifier": 48_070,
        "write driver": 45_980,
        "comparator": 1_458,
        "decoder": 1_686,
        "NVM-CBF": 10_944,
        "swap buffer": 3_072,
        "request queue": 15_360,
        "read-level predictor": 2_320,
    }
    return report
