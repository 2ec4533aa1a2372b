"""Composable cache-engine primitives shared by every L1D model.

Historically each L1D engine (``BaseCache``, ``ByNVMCache``,
``OracleCache``, ``FuseCache``) re-implemented three pieces of machinery
with subtly duplicated accounting:

* bank ``busy_until`` timing with occupancy and stall bookkeeping,
* the MSHR miss path (merge secondaries, forward primaries off-chip,
  complete fills), and
* the eviction/writeback path.

This package extracts them as three primitives the cache models compose:

* :class:`~repro.cache.engine.bank.BankPort` -- one served bank
  resource: acquire-at-``max(cycle, busy_until)``, charge wait cycles to
  ``bank_wait_cycles`` (and ``stt_write_stall_cycles`` for STT-MRAM
  banks), count read/write events for the energy model.  Its timing
  comes from :data:`~repro.cache.engine.bank.TIMING`, Table I's bank
  timing keyed by technology.
* :class:`~repro.cache.engine.misspath.MissPath` -- the accounting of
  the check-then-commit MSHR discipline: merge a secondary miss into
  the outstanding entry the engine probed (or reject it when the entry
  is merge-full), count reservation failures, and apply merged
  secondaries to the filled line's residency counters.
* :class:`~repro.cache.engine.writeback.WritebackSink` -- eviction
  accounting plus the dirty-writeback tuple handed back to the simulator.

All primitives write into the single flat
:class:`~repro.cache.stats.CacheStats` counter object of the owning
cache, so composing them is bit-identical to the engines they replaced
(pinned by ``tests/test_golden_parity.py``).
"""

from repro.cache.engine.bank import TIMING, BankPort, BankTiming
from repro.cache.engine.misspath import MissPath
from repro.cache.engine.writeback import WritebackSink

__all__ = ["BankPort", "BankTiming", "MissPath", "TIMING", "WritebackSink"]
