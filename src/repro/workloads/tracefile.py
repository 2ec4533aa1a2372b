"""Portable, schema-versioned workload trace files (JSONL).

An exported trace freezes a kernel model's per-warp
:class:`~repro.workloads.trace.WarpInstruction` streams into a plain
JSON-lines file that replays through the unmodified GPU/cache stack --
the on-ramp for address streams derived from real GPGPU-Sim/Accel-Sim
runs (see ``docs/trace-format.md`` for the full schema).

File layout (one JSON object per line):

.. code-block:: text

    {"kind": "repro-trace", "schema": 1, "workload": "ATAX",
     "num_sms": 2, "warps_per_sm": 8, "scale": "smoke",
     "gpu_profile": "fermi", "seed": 0, "trace_salt": 0}     <- header
    {"sm": 0, "warp": 0, "ops": [[0,0,37,[]], [1,1536,1,[524288]], ...]}
    {"sm": 0, "warp": 1, "ops": [...]}
    ...
    {"kind": "repro-trace-end", "warp_streams": 16}          <- mandatory

Each op is ``[kind, pc, count, transactions]`` -- exactly the fields of
``WarpInstruction``, so a round trip is bit-lossless (addresses are
ints; JSON preserves them exactly).

**Versioning**: readers refuse any ``schema`` other than
:data:`TRACE_SCHEMA` (there is no silent migration -- a trace is a
measurement artifact, not a cache).  **Identity**: the experiment engine
folds the file's SHA-256 (:func:`trace_sha256`) into the
:class:`~repro.engine.spec.RunKey`, so results stored for one trace file
can never be served for a different one, even at the same path.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.workloads.kernels import KernelModel
from repro.workloads.trace import (
    COMPUTE,
    LOAD,
    STORE,
    TraceScale,
    WarpInstruction,
)

__all__ = [
    "ExportSummary",
    "TRACE_END_KIND",
    "TRACE_KIND",
    "TRACE_SCHEMA",
    "TraceMeta",
    "TraceReplayKernel",
    "WorkloadTrace",
    "export_trace",
    "load_trace",
    "replay_kernel",
    "trace_sha256",
]

#: current trace-file schema version; readers reject anything else
TRACE_SCHEMA = 1

#: header discriminator so arbitrary JSONL files are rejected early
TRACE_KIND = "repro-trace"

#: mandatory final record: carries the stream count so truncation of
#: *any* producer's file (not just ours) is detectable at load
TRACE_END_KIND = "repro-trace-end"

PathLike = Union[str, pathlib.Path]


@dataclass(frozen=True)
class TraceMeta:
    """Header of a trace file: provenance + the machine shape the warp
    streams were generated for (replay must match it)."""

    workload: str
    num_sms: int
    warps_per_sm: int
    scale: Optional[str] = None
    gpu_profile: Optional[str] = None
    seed: int = 0
    trace_salt: int = 0

    def header(self) -> Dict:
        return {
            "kind": TRACE_KIND,
            "schema": TRACE_SCHEMA,
            "workload": self.workload,
            "num_sms": self.num_sms,
            "warps_per_sm": self.warps_per_sm,
            "scale": self.scale,
            "gpu_profile": self.gpu_profile,
            "seed": self.seed,
            "trace_salt": self.trace_salt,
        }


class WorkloadTrace:
    """A fully-loaded trace: header plus per-warp instruction tuples."""

    def __init__(
        self,
        meta: TraceMeta,
        streams: Dict[Tuple[int, int], Tuple[WarpInstruction, ...]],
    ) -> None:
        self.meta = meta
        self.streams = streams

    def instructions(
        self, sm_id: int, warp_id: int
    ) -> Tuple[WarpInstruction, ...]:
        """One warp's stream (empty for warps absent from the file)."""
        return self.streams.get((sm_id, warp_id), ())

    @property
    def total_instructions(self) -> int:
        """Warp instructions across all warps (compute blocks count by
        their collapsed ``count``)."""
        return sum(
            (op.count if op.kind == COMPUTE else 1)
            for ops in self.streams.values() for op in ops
        )

    @property
    def total_transactions(self) -> int:
        """Coalesced memory transactions across all warps."""
        return sum(
            len(op.transactions)
            for ops in self.streams.values() for op in ops
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkloadTrace({self.meta.workload!r}, "
            f"{self.meta.num_sms}x{self.meta.warps_per_sm} warps)"
        )


# ----------------------------------------------------------------------
def _encode_op(op: WarpInstruction) -> list:
    return [op.kind, op.pc, op.count, list(op.transactions)]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _decode_op(payload: list) -> WarpInstruction:
    """Decode (and validate) one ``[kind, pc, count, transactions]`` op.

    Converter output is untrusted: fields that would only blow up deep
    inside the simulator (string pc, float addresses, unknown kinds) are
    rejected here, where the caller can attach file/line context.

    Raises:
        ValueError: for any shape or type violation.
    """
    if not isinstance(payload, list) or len(payload) != 4:
        raise ValueError(
            f"op must be [kind, pc, count, transactions], got {payload!r}"
        )
    kind, pc, count, transactions = payload
    # the _is_int guard keeps booleans out: True would pass a bare
    # `in (COMPUTE, LOAD, STORE)` membership test
    if not _is_int(kind) or kind not in (COMPUTE, LOAD, STORE):
        raise ValueError(f"unknown op kind {kind!r}")
    if not _is_int(pc) or not _is_int(count) or count < 1:
        raise ValueError(f"bad pc/count in op {payload!r}")
    if not isinstance(transactions, list) or not all(
        _is_int(t) for t in transactions
    ):
        raise ValueError(f"transactions must be ints in op {payload!r}")
    # collapsed counts exist only for compute, and only memory ops carry
    # transactions -- the simulator would silently ignore either mixup
    if kind != COMPUTE and count != 1:
        raise ValueError(
            f"memory ops must have count=1 (collapsed counts are for "
            f"compute blocks), got {payload!r}"
        )
    if kind == COMPUTE and transactions:
        raise ValueError(
            f"compute ops must carry no transactions, got {payload!r}"
        )
    return WarpInstruction(
        kind=kind, pc=pc, count=count, transactions=tuple(transactions)
    )


@dataclass(frozen=True)
class ExportSummary:
    """What :func:`export_trace` wrote, accumulated during the write so
    callers never need to re-read the file for bookkeeping."""

    meta: TraceMeta
    warp_streams: int
    instructions: int
    transactions: int
    sha256: str


def export_trace(
    model: KernelModel,
    path: PathLike,
    scale: Optional[str] = None,
    gpu_profile: Optional[str] = None,
) -> ExportSummary:
    """Materialise *model*'s every warp stream into a trace file.

    Args:
        model: the kernel model to freeze (its own ``num_sms`` /
            ``warps_per_sm`` define the file's machine shape).
        path: output JSONL file (parent directories are created).
        scale: the scale *preset name* the model was built with, recorded
            so ``repro trace import`` can rebuild a matching machine;
            ``None`` for ad-hoc ``TraceScale`` values.
        gpu_profile: machine profile recorded for the same purpose.

    Returns:
        The written header plus stream totals and the file's SHA-256
        (identical to :func:`trace_sha256` of the written file).
    """
    meta = TraceMeta(
        workload=model.name,
        num_sms=model.num_sms,
        warps_per_sm=model.warps_per_sm,
        scale=scale,
        gpu_profile=gpu_profile,
        seed=model.seed,
        trace_salt=KernelModel.TRACE_SALT,
    )
    path = pathlib.Path(path).expanduser()
    path.parent.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    instructions = transactions = streams = 0

    def emit(handle, payload: str) -> None:
        line = payload + "\n"
        digest.update(line.encode("utf-8"))
        handle.write(line)

    # write to a uniquely-named sibling temp file and rename into place:
    # an interrupted export must never leave a truncated-but-loadable
    # trace behind (absent warps replay as idle by design, so truncation
    # would be silent), and concurrent exports to one destination must
    # not interleave into a shared temp file.  newline="\n" keeps the
    # written bytes identical to the hashed ones on every platform (text
    # mode would emit \r\n on Windows and break the hash's portability).
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    tmp = pathlib.Path(tmp_name)
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as handle:
            emit(handle, json.dumps(meta.header(), sort_keys=True))
            for sm_id in range(meta.num_sms):
                for warp_id in range(meta.warps_per_sm):
                    ops = []
                    for op in model.warp_stream(sm_id, warp_id):
                        ops.append(_encode_op(op))
                        instructions += (
                            op.count if op.kind == COMPUTE else 1
                        )
                        transactions += len(op.transactions)
                    streams += 1
                    record = {"sm": sm_id, "warp": warp_id, "ops": ops}
                    emit(handle, json.dumps(record, separators=(",", ":")))
            emit(handle, json.dumps(
                {"kind": TRACE_END_KIND, "warp_streams": streams},
                sort_keys=True,
            ))
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)
    # no hash-memo seeding here: a just-written file is inside the racy
    # window by definition, so _memo_put would (correctly) refuse it
    return ExportSummary(
        meta=meta, warp_streams=streams, instructions=instructions,
        transactions=transactions, sha256=digest.hexdigest(),
    )


#: resolved path -> ((size, mtime_ns), parsed trace / content hash).
#: One replay touches the file from several layers (CLI header read,
#: RunSpec identity hash, execute-time staleness check, replay-kernel
#: load); the stat signature collapses those to one parse + one hash
#: per file version while still observing any content change.  Keying
#: by path keeps one live entry per file (stale versions evicted), and
#: the parsed-trace memo -- whose entries hold full instruction streams
#: -- is additionally LRU-bounded so a sweep over many distinct trace
#: files cannot grow without limit.  Hash entries are tiny strings and
#: stay unbounded.
_TRACE_CACHE: Dict[str, Tuple[Tuple[int, int], "WorkloadTrace"]] = {}
_HASH_CACHE: Dict[str, Tuple[Tuple[int, int], str]] = {}

#: parsed traces kept in memory at once
_TRACE_CACHE_LIMIT = 8


def _stat_key(path: pathlib.Path) -> Tuple[str, Tuple[int, int]]:
    """(cache key, file-version signature) for *path*."""
    stat = path.stat()
    return str(path.resolve()), (stat.st_size, stat.st_mtime_ns)


#: files whose mtime is within this window of "now" are never *cached*:
#: a same-size in-place rewrite inside one filesystem timestamp tick
#: would be indistinguishable from the cached version (git's "racily
#: clean" problem), and a stale hash here would break the
#: trace-content/store-key guarantee.  Enforcing the window at fill
#: time (rather than serve time) means anything cached was already
#: stable, so a later natural rewrite always changes the signature.
#: Deliberately mtime-preserving rewrites (``rsync -t`` onto a
#: same-size file) remain undetectable -- the same limitation git's
#: index has.
_RACY_WINDOW_NS = 2_000_000_000


def _memo_get(cache: Dict, path: pathlib.Path):
    key, signature = _stat_key(path)
    entry = cache.get(key)
    if entry is not None and entry[0] == signature:
        cache[key] = cache.pop(key)  # refresh LRU position
        return key, signature, entry[1]
    return key, signature, None


def _memo_put(cache: Dict, key: str, signature: Tuple[int, int],
              value) -> None:
    """Store a memo entry unless the file is racily fresh (see above)."""
    if time.time_ns() - signature[1] <= _RACY_WINDOW_NS:
        return
    cache[key] = (signature, value)


def load_trace(path: PathLike) -> WorkloadTrace:
    """Parse a trace file (memoised per file version, see above).

    Raises:
        ValueError: for missing files, non-trace JSONL, an unsupported
            schema version, or malformed warp records.
    """
    path = pathlib.Path(path).expanduser()
    if not path.is_file():
        raise ValueError(f"trace file not found: {path}")
    key, signature, cached = _memo_get(_TRACE_CACHE, path)
    if cached is not None:
        return cached
    with path.open("r", encoding="utf-8") as handle:
        try:
            header = json.loads(handle.readline())
        except json.JSONDecodeError as error:
            raise ValueError(
                f"{path} is not a repro trace file (bad header: {error})"
            ) from None
        if not isinstance(header, dict) or header.get("kind") != TRACE_KIND:
            raise ValueError(
                f"{path} is not a repro trace file "
                f"(missing kind={TRACE_KIND!r} header)"
            )
        schema = header.get("schema")
        if schema != TRACE_SCHEMA:
            raise ValueError(
                f"{path} carries trace schema {schema!r}; this reader "
                f"supports schema {TRACE_SCHEMA} only (re-export the "
                "trace with the current tooling)"
            )
        try:
            ints = {
                key: header.get(key, default)
                for key, default in (
                    ("num_sms", None), ("warps_per_sm", None),
                    ("seed", 0), ("trace_salt", 0),
                )
            }
            bad = [k for k, v in ints.items() if not _is_int(v)]
            if bad:
                raise ValueError(f"non-integer field(s): {', '.join(bad)}")
            bad = [
                k for k in ("workload", "scale", "gpu_profile")
                if not isinstance(header.get(k), (str, type(None)))
            ]
            if bad:
                raise ValueError(f"non-string field(s): {', '.join(bad)}")
            if ints["num_sms"] < 1 or ints["warps_per_sm"] < 1:
                raise ValueError(
                    "machine shape must be positive, got "
                    f"{ints['num_sms']} SMs x {ints['warps_per_sm']} warps"
                )
            meta = TraceMeta(
                workload=header.get("workload", "unknown"),
                num_sms=ints["num_sms"],
                warps_per_sm=ints["warps_per_sm"],
                scale=header.get("scale"),
                gpu_profile=header.get("gpu_profile"),
                seed=ints["seed"],
                trace_salt=ints["trace_salt"],
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(
                f"{path}: malformed trace header ({error!r})"
            ) from None
        streams: Dict[Tuple[int, int], Tuple[WarpInstruction, ...]] = {}
        ended = False
        for lineno, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            if ended:
                raise ValueError(
                    f"{path}:{lineno}: record after the end marker"
                )
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("record must be a JSON object")
            except (json.JSONDecodeError, ValueError) as error:
                raise ValueError(
                    f"{path}:{lineno}: malformed warp record ({error})"
                ) from None
            if record.get("kind") == TRACE_END_KIND:
                declared = record.get("warp_streams")
                if declared != len(streams):
                    # its own diagnosis, not "malformed record": the
                    # marker is well-formed, the file lost records
                    raise ValueError(
                        f"{path}:{lineno}: truncated or miscounted "
                        f"trace (end marker declares {declared} warp "
                        f"streams but {len(streams)} were read)"
                    )
                ended = True
                continue
            try:
                if not (_is_int(record["sm"]) and _is_int(record["warp"])):
                    raise ValueError("sm/warp must be integers")
                warp_key = (record["sm"], record["warp"])
                ops = tuple(_decode_op(op) for op in record["ops"])
            except (KeyError, TypeError, ValueError) as error:
                raise ValueError(
                    f"{path}:{lineno}: malformed warp record ({error})"
                ) from None
            sm_id, warp_id = warp_key
            if not (0 <= sm_id < meta.num_sms
                    and 0 <= warp_id < meta.warps_per_sm):
                raise ValueError(
                    f"{path}:{lineno}: warp record sm={sm_id} "
                    f"warp={warp_id} is outside the header's machine "
                    f"shape ({meta.num_sms} SMs x "
                    f"{meta.warps_per_sm} warps)"
                )
            if warp_key in streams:
                raise ValueError(
                    f"{path}:{lineno}: duplicate warp record for "
                    f"sm={sm_id} warp={warp_id}"
                )
            streams[warp_key] = ops
        if not ended:
            raise ValueError(
                f"{path}: truncated trace (no end marker; the final "
                f"record must be {{\"kind\": {TRACE_END_KIND!r}, "
                "\"warp_streams\": <count>})"
            )
    trace = WorkloadTrace(meta, streams)
    _TRACE_CACHE.pop(key, None)
    _memo_put(_TRACE_CACHE, key, signature, trace)
    while len(_TRACE_CACHE) > _TRACE_CACHE_LIMIT:
        _TRACE_CACHE.pop(next(iter(_TRACE_CACHE)))
    return trace


def trace_sha256(path: PathLike) -> str:
    """SHA-256 of the trace file's raw bytes (the content identity the
    engine folds into :class:`~repro.engine.spec.RunKey`), memoised per
    file version.

    Raises:
        ValueError: when the file does not exist.
    """
    path = pathlib.Path(path).expanduser()
    if not path.is_file():
        raise ValueError(f"trace file not found: {path}")
    key, signature, cached = _memo_get(_HASH_CACHE, path)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    _memo_put(_HASH_CACHE, key, signature, digest.hexdigest())
    return digest.hexdigest()


# ----------------------------------------------------------------------
class TraceReplayKernel(KernelModel):
    """Replays a loaded trace through the unmodified simulator stack.

    Looks exactly like any other :class:`KernelModel` to the GPU layer,
    but its streams come from the file, not a generator.  The trace
    header is **authoritative for the machine shape**: the kernel takes
    ``num_sms``/``warps_per_sm`` from the file (the execution path
    sizes the simulated machine from the model), so external traces
    with any shape -- including ones no scale preset matches -- replay
    bit-identically to the machine that produced them.
    """

    suite = "trace"
    description = "replay of an exported trace file"

    def __init__(
        self,
        trace: WorkloadTrace,
        scale: Optional[TraceScale] = None,
        seed: int = 0,
    ) -> None:
        meta = trace.meta
        super().__init__(
            num_sms=meta.num_sms, warps_per_sm=meta.warps_per_sm,
            scale=scale, seed=seed,
        )
        self.trace = trace
        #: instance attribute shadowing the class-level name: results
        #: are labelled by the originating workload
        self.name = f"replay:{meta.workload}"

    def warp_stream(
        self, sm_id: int, warp_id: int
    ) -> Iterator[WarpInstruction]:
        yield from self.trace.instructions(sm_id, warp_id)


def replay_kernel(
    path: PathLike,
    num_sms: Optional[int] = None,
    warps_per_sm: Optional[int] = None,
    scale: Optional[TraceScale] = None,
    seed: int = 0,
) -> TraceReplayKernel:
    """Load *path* and wrap it as a replayable kernel model.

    ``num_sms``/``warps_per_sm`` exist for factory-signature
    compatibility and are **ignored**: the trace header's shape is
    authoritative (see :class:`TraceReplayKernel`).

    Raises:
        ValueError: for unreadable or malformed traces.
    """
    del num_sms, warps_per_sm  # header is authoritative
    return TraceReplayKernel(load_trace(path), scale=scale, seed=seed)
