"""Warp-level instruction stream primitives.

A kernel model emits a stream of :class:`WarpInstruction` per warp.  Three
kinds exist:

* **compute blocks** -- ``count`` back-to-back arithmetic instructions,
  collapsed into one object for simulation speed.  Issuing a block
  occupies the SM's issue port for ``count`` cycles and credits ``count``
  instructions, so IPC accounting is identical to issuing them one by one
  while the simulator does O(1) work.
* **loads / stores** -- one static memory instruction with its coalesced
  block-address transactions attached.  Coalescing happens at trace
  generation time: :func:`load_instruction` / :func:`store_instruction`
  apply the hardware algorithm (:func:`repro.gpu.coalescer.coalesce`)
  to the per-thread addresses, and the unit-stride and non-wrapping
  strided helpers of :mod:`repro.workloads.patterns` compute the same
  blocks in closed form.

``TraceScale`` carries the scale-down knobs: the paper simulates >1e9
instructions per workload, which a pure-Python model cannot; all reported
quantities are ratios that survive scaling (ARCHITECTURE.md, "Model
notes").

``WarpInstruction`` is the *authoring* representation: kernel models
emit it and tests assert on it.  It is a named tuple of its four fields,
so the packer transposes a slice of records with one ``zip``.
The simulator itself replays the columnar packed form
(:class:`~repro.workloads.arena.PackedTraceArena`); the two convert
losslessly in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Tuple

from repro.gpu.coalescer import coalesce

__all__ = [
    "COMPUTE", "LOAD", "STORE", "TraceScale", "WarpInstruction",
    "compute_block", "load_instruction", "store_instruction",
]

#: instruction kinds
COMPUTE = 0
LOAD = 1
STORE = 2

_KIND_NAMES = {COMPUTE: "compute", LOAD: "load", STORE: "store"}


class WarpInstruction(NamedTuple):
    """One warp-level instruction (or collapsed compute block).

    A named tuple: immutable, compared and hashed by value, and built by
    the pattern helpers through :data:`_new` without an ``__init__``
    call, which keeps trace compilation cheap (a frozen dataclass paid
    about a microsecond per record for its guarded attribute writes).
    """

    kind: int
    pc: int = 0
    count: int = 1
    transactions: Tuple[int, ...] = ()

    @property
    def is_memory(self) -> bool:
        return self.kind != COMPUTE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind == COMPUTE:
            return f"WarpInstruction(compute x{self.count})"
        return (
            f"WarpInstruction({_KIND_NAMES[self.kind]} pc=0x{self.pc:x} "
            f"{len(self.transactions)} txns)"
        )


#: ``_new(WarpInstruction, (kind, pc, count, transactions))`` builds a
#: record from its four fields in field order, with no argument parsing
_new = tuple.__new__


def compute_block(count: int) -> WarpInstruction:
    """A run of *count* arithmetic instructions.

    Raises:
        ValueError: for non-positive counts.
    """
    if count < 1:
        raise ValueError("compute blocks need count >= 1")
    return _new(WarpInstruction, (COMPUTE, 0, count, ()))


def load_instruction(pc: int, addresses: Iterable[int]) -> WarpInstruction:
    """A warp load; *addresses* are the per-thread byte addresses."""
    return _new(WarpInstruction, (LOAD, pc, 1, tuple(coalesce(addresses))))


def store_instruction(pc: int, addresses: Iterable[int]) -> WarpInstruction:
    """A warp store; *addresses* are the per-thread byte addresses."""
    return _new(WarpInstruction, (STORE, pc, 1, tuple(coalesce(addresses))))


@dataclass(frozen=True)
class TraceScale:
    """Scale-down knobs for a simulation run.

    Attributes:
        warps_per_sm: active warps per SM (<= the machine's limit).
        target_instructions: approximate warp instructions per warp; kernel
            models size their loops from it.
        working_set_scale: multiplies the kernels' array dimensions;
            1.0 keeps the paper's "working set >> L1D" regime.
        apki_scale: access-density factor applied to Table II's APKI when
            sizing compute pads.  Table II counts thread-level accesses
            while this simulator issues warp-level instructions; without
            the factor, warp-level compute pads are ~an order of magnitude
            too generous and hide all memory latency, contradicting the
            paper's own Figure 1a (75% of execution time on off-chip
            access).  Table II comparisons divide the factor back out.
    """

    warps_per_sm: int = 48
    target_instructions: int = 600
    working_set_scale: float = 1.0
    apki_scale: float = 6.0

    @classmethod
    def smoke(cls) -> "TraceScale":
        """Tiny scale for unit tests (seconds across all configs)."""
        return cls(warps_per_sm=8, target_instructions=200)

    @classmethod
    def test(cls) -> "TraceScale":
        """Small scale for integration tests."""
        return cls(warps_per_sm=16, target_instructions=600)

    @classmethod
    def bench(cls) -> "TraceScale":
        """Benchmark scale used by the figure-reproduction harness."""
        return cls(warps_per_sm=24, target_instructions=2000)
