"""Packed trace arena: compile-once columnar warp streams.

A kernel model authors its trace as a stream of
:class:`~repro.workloads.trace.WarpInstruction` records per warp.
Replaying those records run after run would cost one Python object per
instruction in the simulator's hot loop and regenerate the trace for
every run, so a :class:`PackedTraceArena` compiles the whole workload
**once** into flat columnar buffers:

* ``op_kind``   -- ``array('b')``, one kind code per op;
* ``op_pc``     -- ``array('q')``, the op's program counter;
* ``op_count``  -- ``array('q')``, collapsed compute-block widths;
* ``txn_off``   -- ``array('q')`` of length ``num_ops + 1``: op *i*'s
  coalesced block addresses are ``txns[txn_off[i]:txn_off[i + 1]]``;
* ``txns``      -- ``array('q')``, the shared transaction-address pool;
* ``warp_bounds`` -- ``array('q')``: warp ``(sm, w)``'s ops span
  ``[warp_bounds[sm * warps_per_sm + w], warp_bounds[... + 1])``.

The simulator's hot loop then touches only these arrays (see
:mod:`repro.gpu.warp` / :mod:`repro.gpu.sm`); ``WarpInstruction``
remains the authoring and interchange API, and :meth:`PackedTraceArena.
instructions` unpacks losslessly back to it.

:func:`cached_arena` is the in-process arena cache, keyed by the trace
identity hash the engine derives from a
:class:`~repro.engine.spec.RunSpec` (see ``trace_key`` there): a sweep
of N cache configs over one workload packs the trace once and replays
it N times, and a fork-style worker pool inherits the parent's packed
arenas via copy-on-write page sharing (spawn/forkserver workers share no
memory and regenerate each trace they need, deterministically from the
spec).  :func:`arena_cache_stats` exposes hit/miss/pack accounting so
"trace generation happened exactly once" is testable, and so
``repro profile`` / ``bench_throughput`` can report the
trace-generation vs. simulation wall-time split.
"""

from __future__ import annotations

import time
from array import array
from itertools import accumulate, chain, islice
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Tuple

from repro.telemetry.metrics import REGISTRY
from repro.telemetry.spans import record_span
from repro.workloads.trace import COMPUTE, WarpInstruction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.workloads.kernels import KernelModel

__all__ = [
    "ARENA_CACHE_LIMIT",
    "MAX_ARENA_OPS",
    "PackedTraceArena",
    "arena_cache_stats",
    "cached_arena",
    "reset_arena_cache",
]

#: safety valve for runaway trace generators.  The lazy front-end this
#: replaced surfaced a non-terminating user ``warp_stream`` as the
#: simulator's ``max_cycles`` abort; eager packing would instead loop
#: forever at construction, so the packer enforces its own op budget
#: (matching the 50M-cycle default's magnitude) and raises instead of
#: consuming all memory.
MAX_ARENA_OPS = 50_000_000

#: records the packer pulls from a warp stream at a time; bounds what it
#: holds at once and how far a runaway stream overshoots the budget
PACK_SLICE = 1024


class PackedTraceArena:
    """Columnar, read-only encoding of every warp stream of one trace."""

    __slots__ = (
        "workload", "num_sms", "warps_per_sm",
        "op_kind", "op_pc", "op_count", "txn_off", "txns", "warp_bounds",
    )

    def __init__(
        self,
        workload: str,
        num_sms: int,
        warps_per_sm: int,
        op_kind: array,
        op_pc: array,
        op_count: array,
        txn_off: array,
        txns: array,
        warp_bounds: array,
    ) -> None:
        self.workload = workload
        self.num_sms = num_sms
        self.warps_per_sm = warps_per_sm
        self.op_kind = op_kind
        self.op_pc = op_pc
        self.op_count = op_count
        self.txn_off = txn_off
        self.txns = txns
        self.warp_bounds = warp_bounds

    # ------------------------------------------------------------------
    @classmethod
    def from_streams(
        cls,
        workload: str,
        num_sms: int,
        warps_per_sm: int,
        streams: Callable[[int, int], Iterable[WarpInstruction]],
    ) -> "PackedTraceArena":
        """Pack ``streams(sm_id, warp_id)`` for the whole machine shape.

        Counts as one *pack* in :func:`arena_cache_stats` (this is where
        trace generation -- the generators plus the coalescer -- runs).
        Each warp stream is pulled :data:`PACK_SLICE` records at a time
        and transposed into field columns that extend the buffers whole;
        the op budget is checked once per slice.

        Raises:
            RuntimeError: past :data:`MAX_ARENA_OPS` ops (at most one
                slice later) -- a non-terminating (or absurdly over-long)
                stream must fail loudly here rather than exhaust memory.
        """
        started = time.perf_counter()
        started_ns = time.time_ns()
        op_kind = array("b")
        op_pc = array("q")
        op_count = array("q")
        txn_off = array("q")
        txns = array("q")
        warp_bounds = array("q", [0])
        limit = MAX_ARENA_OPS
        ops = transactions = 0
        for sm_id in range(num_sms):
            for warp_id in range(warps_per_sm):
                stream = iter(streams(sm_id, warp_id))
                for records in iter(
                    lambda: list(islice(stream, PACK_SLICE)), []
                ):
                    ops += len(records)
                    if ops > limit:
                        raise RuntimeError(
                            f"trace for {workload!r} exceeds "
                            f"{limit:,} ops while packing warp "
                            f"({sm_id}, {warp_id}); the stream is "
                            "runaway or far beyond any simulatable scale"
                        )
                    kinds, pcs, counts, blocks = zip(*records)
                    op_kind.extend(kinds)
                    op_pc.extend(pcs)
                    op_count.extend(counts)
                    # each op's start offset; the end is the next slice's start
                    txn_off.extend(accumulate(
                        map(len, blocks), initial=transactions
                    ))
                    transactions = txn_off.pop()
                    txns.extend(chain.from_iterable(blocks))
                warp_bounds.append(ops)
        txn_off.append(transactions)
        _PACKS.inc()
        _PACK_SECONDS.inc(time.perf_counter() - started)
        record_span(
            "trace_pack", started_ns, time.time_ns(), cat="run",
            args={"workload": workload, "ops": len(op_kind)},
        )
        return cls(
            workload=workload, num_sms=num_sms, warps_per_sm=warps_per_sm,
            op_kind=op_kind, op_pc=op_pc, op_count=op_count,
            txn_off=txn_off, txns=txns, warp_bounds=warp_bounds,
        )

    @classmethod
    def from_model(cls, model: "KernelModel") -> "PackedTraceArena":
        """Pack a kernel model's full trace (its shape is authoritative)."""
        return cls.from_streams(
            model.name, model.num_sms, model.warps_per_sm, model.warp_stream
        )

    # ------------------------------------------------------------------
    def warp_span(self, sm_id: int, warp_id: int) -> Tuple[int, int]:
        """The ``[start, end)`` op-index range of one warp's stream.

        Raises:
            IndexError: for coordinates outside the arena's shape.
        """
        if not (0 <= sm_id < self.num_sms
                and 0 <= warp_id < self.warps_per_sm):
            raise IndexError(
                f"warp ({sm_id}, {warp_id}) outside arena shape "
                f"{self.num_sms}x{self.warps_per_sm}"
            )
        flat = sm_id * self.warps_per_sm + warp_id
        return self.warp_bounds[flat], self.warp_bounds[flat + 1]

    def instructions(
        self, sm_id: int, warp_id: int
    ) -> Tuple[WarpInstruction, ...]:
        """Losslessly unpack one warp's stream (interchange/tests)."""
        start, end = self.warp_span(sm_id, warp_id)
        txn_off, txns = self.txn_off, self.txns
        return tuple(
            WarpInstruction(
                kind=self.op_kind[i],
                pc=self.op_pc[i],
                count=self.op_count[i],
                transactions=tuple(txns[txn_off[i]:txn_off[i + 1]]),
            )
            for i in range(start, end)
        )

    # ------------------------------------------------------------------
    @property
    def num_ops(self) -> int:
        return len(self.op_kind)

    @property
    def total_instructions(self) -> int:
        """Warp instructions (compute blocks count by their width)."""
        total = 0
        kinds, counts = self.op_kind, self.op_count
        for i in range(len(kinds)):
            total += counts[i] if kinds[i] == COMPUTE else 1
        return total

    @property
    def total_transactions(self) -> int:
        return len(self.txns)

    @property
    def nbytes(self) -> int:
        """Approximate resident size of the packed buffers."""
        return sum(
            buf.itemsize * len(buf)
            for buf in (self.op_kind, self.op_pc, self.op_count,
                        self.txn_off, self.txns, self.warp_bounds)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedTraceArena({self.workload!r}, "
            f"{self.num_sms}x{self.warps_per_sm} warps, "
            f"{self.num_ops} ops, {len(self.txns)} txns)"
        )


# ----------------------------------------------------------------------
#: resident packed arenas the in-process cache keeps (LRU beyond it).
#: Bounds trace memory for sweeps over many distinct trace identities; a
#: config sweep over one workload only ever holds one entry.  Public so
#: the experiment engine can cap its pack-before-fork pass at exactly
#: what the cache will retain.
ARENA_CACHE_LIMIT = 32

#: in-process arena cache (trace-identity key -> packed arena)
_CACHE: Dict[str, PackedTraceArena] = {}

# arena accounting now lives in the process-wide metrics registry (so
# `GET /metrics` exposes it); `arena_cache_stats()` keeps serving the
# historical dict shape on top of these families.
_HITS = REGISTRY.counter(
    "repro_arena_hits", "Arena cache lookups served from memory")
_MISSES = REGISTRY.counter(
    "repro_arena_misses", "Arena cache lookups that had to build")
_PACKS = REGISTRY.counter(
    "repro_arena_packs", "Traces generated and packed (from_streams)")
_PACK_SECONDS = REGISTRY.counter(
    "repro_arena_pack_seconds", "Wall-time spent generating + packing")
REGISTRY.gauge(
    "repro_arena_cached", "Packed arenas resident in the cache"
).set_function(lambda: len(_CACHE))


def cached_arena(
    key: str, build: Callable[[], PackedTraceArena]
) -> PackedTraceArena:
    """Return the arena cached under *key*, building it on first use.

    *build* runs only on a miss; the cache only tracks hit/miss counts
    (pack accounting happens in :meth:`PackedTraceArena.from_streams`).
    """
    arena = _CACHE.get(key)
    if arena is not None:
        _HITS.inc()
        _CACHE[key] = _CACHE.pop(key)  # refresh LRU position
        return arena
    _MISSES.inc()
    arena = build()
    _CACHE[key] = arena
    while len(_CACHE) > ARENA_CACHE_LIMIT:
        _CACHE.pop(next(iter(_CACHE)))
    return arena


def arena_cache_stats() -> Dict[str, float]:
    """A snapshot of the arena cache counters (see module docstring).

    The historical dict shape, served from the metrics registry (the
    same numbers ``GET /metrics`` exposes as ``repro_arena_*``).
    """
    return {
        "hits": int(_HITS.value),
        "misses": int(_MISSES.value),
        "packs": int(_PACKS.value),
        "pack_seconds": _PACK_SECONDS.value,
        "cached": len(_CACHE),
    }


def reset_arena_cache() -> None:
    """Drop every cached arena and zero the counters (tests)."""
    _CACHE.clear()
    for family in (_HITS, _MISSES, _PACKS, _PACK_SECONDS):
        family.reset()
