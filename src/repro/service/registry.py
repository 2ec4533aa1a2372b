"""Fleet worker registry: TTL'd liveness + aggregated throughput.

The lease protocol (:mod:`repro.service.leases`) deliberately knows
nothing about *workers* -- a lease is anonymous capacity.  Operating a
fleet needs the opposite view: which workers exist, which are alive,
and how fast each one is simulating.  :class:`WorkerRegistry` keeps
that view on the scheduler's event loop, fed by the ``heartbeat``
object every ``POST /v1/leases`` and ``…/settle`` body carries (name,
pid/host, cumulative simulated cycles/seconds, arena hit rate).  An
idle worker stays live through its held long-poll lease.

Liveness is a two-stage TTL, mirroring the lease table's injectable
clock so tests drive it deterministically: a worker silent past
``stale_after`` is flagged ``stale`` (still listed -- the operator
should see it wedge), and past ``expire_after`` it is dropped from the
registry entirely (counted in ``repro_fleet_workers_expired``).
Settle-side counters (``runs_settled`` by source, settle latency) are
recorded by the **coordinator** when it accepts a settle -- the
worker's self-reported cumulative stats describe throughput, but the
authoritative run ledger never depends on a worker telling the truth.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List, Optional

__all__ = ["WorkerRegistry", "WorkerState"]

#: registry defaults -- generous next to the longest lease hold (10 s)
DEFAULT_STALE_AFTER_S = 30.0
DEFAULT_EXPIRE_AFTER_S = 120.0

#: worker-name length cap, matching the lease handler's clamp
MAX_NAME_LEN = 120

#: largest integer a heartbeat may report (int64; larger ones would
#: overflow the float throughput division)
MAX_REPORTED_INT = 2 ** 63 - 1


class WorkerState:
    """One worker's registry entry (mutated in place on contact)."""

    __slots__ = (
        "name", "pid", "host", "first_seen", "last_seen",
        "runs_settled", "errors", "leases",
        "sim_cycles", "sim_seconds", "arena_hit_rate",
    )

    def __init__(self, name: str, now: float):
        self.name = name
        self.pid: Optional[int] = None
        self.host: Optional[str] = None
        self.first_seen = now
        self.last_seen = now
        # coordinator-side ledger (authoritative)
        self.runs_settled = 0
        self.errors = 0
        self.leases = 0
        # worker-reported cumulative stats (throughput attribution)
        self.sim_cycles = 0
        self.sim_seconds = 0.0
        self.arena_hit_rate: Optional[float] = None

    def cycles_per_second(self) -> float:
        if self.sim_seconds <= 0.0:
            return 0.0
        return self.sim_cycles / self.sim_seconds

    def snapshot(self, now: float, stale_after: float) -> Dict:
        silent = max(0.0, now - self.last_seen)
        return {
            "name": self.name,
            "pid": self.pid,
            "host": self.host,
            "state": "stale" if silent > stale_after else "live",
            "last_seen_s": round(silent, 3),
            "uptime_s": round(max(0.0, now - self.first_seen), 3),
            "leases": self.leases,
            "runs_settled": self.runs_settled,
            "errors": self.errors,
            "sim_cycles": self.sim_cycles,
            "sim_seconds": round(self.sim_seconds, 6),
            "cycles_per_s": round(self.cycles_per_second(), 3),
            "arena_hit_rate": self.arena_hit_rate,
        }


def _as_int(value, default: Optional[int] = 0) -> Optional[int]:
    """*value* as an int in [0, MAX_REPORTED_INT], else *default*."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        return default
    return number if 0 <= number <= MAX_REPORTED_INT else default


def _as_float(value, default: float = 0.0) -> float:
    """*value* as a finite non-negative float, else *default*."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        return default
    return number if math.isfinite(number) and number >= 0.0 else default


class WorkerRegistry:
    """TTL'd fleet membership, driven entirely from the event loop.

    All mutation happens on the scheduler's asyncio loop (no locks),
    matching the lease table; *clock* is injectable for deterministic
    stale/expiry tests.
    """

    def __init__(
        self,
        stale_after: float = DEFAULT_STALE_AFTER_S,
        expire_after: float = DEFAULT_EXPIRE_AFTER_S,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.stale_after = float(stale_after)
        self.expire_after = max(float(expire_after), self.stale_after)
        self._clock = clock
        self._workers: Dict[str, WorkerState] = {}
        self.expired_total = 0

    # -- contact -------------------------------------------------------
    def touch(self, name: str) -> Optional[WorkerState]:
        """Record bare contact (a lease/settle without a heartbeat)."""
        name = str(name or "").strip()[:MAX_NAME_LEN]
        if not name:
            return None
        state = self._workers.get(name)
        if state is None:
            state = WorkerState(name, self._clock())
            self._workers[name] = state
        state.last_seen = self._clock()
        return state

    def heartbeat(self, payload) -> Optional[WorkerState]:
        """Fold one heartbeat object in (lenient: unknown, garbled or
        negative fields are ignored, so telemetry never fails a lease
        or a settle)."""
        if not isinstance(payload, dict):
            return None
        state = self.touch(payload.get("name"))
        if state is None:
            return None
        state.pid = _as_int(payload.get("pid"), state.pid)
        if payload.get("host"):
            state.host = str(payload["host"])[:MAX_NAME_LEN]
        state.sim_cycles = _as_int(payload.get("sim_cycles"),
                                   state.sim_cycles)
        state.sim_seconds = _as_float(payload.get("sim_seconds"),
                                      state.sim_seconds)
        rate = payload.get("arena_hit_rate")
        if rate is not None:
            state.arena_hit_rate = round(
                min(1.0, max(0.0, _as_float(rate))), 4)
        return state

    # -- coordinator-side ledger ----------------------------------------
    def record_lease(self, name: str) -> None:
        state = self.touch(name)
        if state is not None:
            state.leases += 1

    def record_settle(self, name: str, source: str) -> None:
        state = self.touch(name)
        if state is None:
            return
        state.runs_settled += 1
        if source == "error":
            state.errors += 1

    # -- liveness --------------------------------------------------------
    def expire(self) -> List[str]:
        """Drop workers silent past ``expire_after``; returns their names."""
        now = self._clock()
        dead = [
            name for name, state in self._workers.items()
            if now - state.last_seen > self.expire_after
        ]
        for name in dead:
            del self._workers[name]
        self.expired_total += len(dead)
        return dead

    def count(self, state: str) -> int:
        """Workers currently ``live`` or ``stale`` (for the gauges)."""
        now = self._clock()
        stale = sum(
            1 for worker in self._workers.values()
            if now - worker.last_seen > self.stale_after
        )
        return stale if state == "stale" else len(self._workers) - stale

    def fleet_cycles_per_second(self) -> float:
        """Aggregate reported throughput of the *live* fleet."""
        now = self._clock()
        return sum(
            worker.cycles_per_second()
            for worker in self._workers.values()
            if now - worker.last_seen <= self.stale_after
        )

    def snapshot(self) -> Dict:
        now = self._clock()
        workers = [
            state.snapshot(now, self.stale_after)
            for state in self._workers.values()
        ]
        workers.sort(key=lambda w: w["name"])
        return {
            "workers": workers,
            "expired_total": self.expired_total,
            "stale_after_s": self.stale_after,
            "expire_after_s": self.expire_after,
        }
