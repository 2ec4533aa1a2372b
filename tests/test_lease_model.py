"""A model check of :class:`~repro.service.leases.LeaseManager`.

A hypothesis state machine drives one manager, on an injected clock,
through generated interleavings of adds, grants, batch settles of any
subset of a live lease's keys, clock advances with expiry (including
abandonment at :data:`MAX_ATTEMPTS`), late settles of a reaped lease's
keys and settles against a lease id that never existed.  A plain-Python
model tracks where every key should be; after every step the two must
agree:

* every added key is in exactly one of pending, leased, settled or
  abandoned;
* a key's spec is claimed at most once (exactly-once settlement);
* a settle that claims a key and leaves the lease open refreshes its
  expiry, and nothing else moves it;
* after a final lease-and-settle drain every added key is settled or
  abandoned.

Claims go through :func:`claim`, the same two-step lookup
``JobScheduler.settle`` makes for each reported outcome, so one machine
covers both the HTTP fleet and the in-process lessee.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.service.leases import MAX_ATTEMPTS, LeaseManager

#: a lease id no grant ever returns (grants are 16 hex digits)
UNKNOWN_LEASE = "not-a-lease"


def claim(manager: LeaseManager, lease_id: str, key: str):
    """Claim *key* the way ``JobScheduler.settle`` does: from the named
    lease, else from the pending queue, where a reaped lease's keys
    wait."""
    return manager.settle_key(lease_id, key) or manager.settle_pending(key)


class LeaseModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.now = 0.0
        self.manager = LeaseManager(clock=lambda: self.now)
        self.next_key = 0
        self.added: list = []
        #: the model: FIFO pending keys, live leases (id -> [keys],
        #: expiry, ttl), keys claimed or abandoned, attempts per key
        self.pending: list = []
        self.live: dict = {}
        self.settled: set = set()
        self.abandoned: set = set()
        self.attempts: dict = {}
        #: reaped lease id -> the keys it held when it was reaped
        self.reaped: dict = {}

    # ------------------------------------------------------------------
    def _claimed(self, key: str, spec) -> None:
        assert spec == f"spec-{key}"
        assert key not in self.settled, f"{key} claimed twice"
        self.settled.add(key)
        self.attempts.pop(key, None)

    def _claim(self, lease_id: str, key: str) -> None:
        """Claim *key* and check the answer against the model."""
        spec = claim(self.manager, lease_id, key)
        if lease_id in self.live and key in self.live[lease_id]["keys"]:
            self._claimed(key, spec)
            self.live[lease_id]["keys"].remove(key)
        elif key in self.pending:
            self._claimed(key, spec)
            self.pending.remove(key)
        else:
            assert spec is None, f"{key} claimed from nowhere"

    # ------------------------------------------------------------------
    @rule(count=st.integers(1, 4))
    def add_keys(self, count: int) -> None:
        for _ in range(count):
            key = f"k{self.next_key}"
            self.next_key += 1
            assert self.manager.add(key, f"spec-{key}")
            self.added.append(key)
            self.pending.append(key)

    @precondition(lambda self: self.pending or self.live)
    @rule(data=st.data())
    def add_tracked_key_again(self, data) -> None:
        tracked = self.pending + [
            key for lease in self.live.values() for key in lease["keys"]
        ]
        key = data.draw(st.sampled_from(tracked))
        assert not self.manager.add(key, "spec-again")

    @rule(
        max_runs=st.integers(1, 8),
        ttl=st.one_of(st.integers(1, 30).map(float), st.just(math.inf)),
    )
    def lease(self, max_runs: int, ttl: float) -> None:
        lease = self.manager.lease("worker", max_runs=max_runs, ttl=ttl)
        if not self.pending:
            assert lease is None
            return
        granted = self.pending[:max_runs]
        del self.pending[:max_runs]
        assert list(lease.runs) == granted  # FIFO
        assert lease.expires == self.now + ttl
        for key in granted:
            self.attempts[key] = self.attempts.get(key, 0) + 1
        self.live[lease.lease_id] = {
            "keys": granted, "expires": self.now + ttl, "ttl": ttl,
        }

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def settle_batch(self, data) -> None:
        """Settle any subset of one live lease's keys in one batch,
        perhaps with a key that is already settled."""
        # grant order, not lease ids: those are random
        lease_id = data.draw(st.sampled_from(list(self.live)))
        lease = self.live[lease_id]
        batch = data.draw(st.lists(
            st.sampled_from(lease["keys"]), unique=True,
        ))
        if self.settled and data.draw(st.booleans()):
            batch.append(data.draw(st.sampled_from(sorted(self.settled))))
        claimed = 0
        for key in batch:
            held = key in lease["keys"]
            self._claim(lease_id, key)
            claimed += held
        if not lease["keys"]:
            del self.live[lease_id]
            assert self.manager.get(lease_id) is None  # retired
        elif claimed:
            lease["expires"] = self.now + lease["ttl"]  # refreshed

    @rule(dt=st.integers(0, 40))
    def advance_and_expire(self, dt: int) -> None:
        self.now += dt
        reaped, abandoned = self.manager.expire()
        due = [
            lease_id for lease_id, lease in self.live.items()
            if self.now >= lease["expires"]
        ]
        assert [lease.lease_id for lease in reaped] == due
        expect_abandoned = []
        for lease_id in due:
            keys = self.live.pop(lease_id)["keys"]
            self.reaped[lease_id] = list(keys)
            for key in keys:
                if self.attempts[key] >= MAX_ATTEMPTS:
                    del self.attempts[key]
                    self.abandoned.add(key)
                    expect_abandoned.append((key, f"spec-{key}"))
                else:
                    self.pending.append(key)
        assert abandoned == expect_abandoned

    @precondition(lambda self: self.pending)
    @rule(max_runs=st.integers(1, 8), ttl=st.integers(1, 30))
    def worker_dies(self, max_runs: int, ttl: int) -> None:
        """Lease a batch and never settle it: its lease lapses at once,
        so a few steps take a key to :data:`MAX_ATTEMPTS`."""
        self.lease(max_runs, float(ttl))
        self.advance_and_expire(ttl)

    @precondition(lambda self: any(self.reaped.values()))
    @rule(data=st.data())
    def late_settle(self, data) -> None:
        """A worker whose lease was reaped reports anyway: the key is
        claimed if it still waits in pending, and never otherwise."""
        # grant order, not lease ids: those are random
        lease_id = data.draw(st.sampled_from(
            [lid for lid, keys in self.reaped.items() if keys]
        ))
        key = data.draw(st.sampled_from(self.reaped[lease_id]))
        assert self.manager.get(lease_id) is None
        self._claim(lease_id, key)

    @precondition(lambda self: self.added)
    @rule(data=st.data())
    def settle_unknown_lease(self, data) -> None:
        key = data.draw(st.sampled_from(self.added))
        self._claim(UNKNOWN_LEASE, key)

    @rule()
    def drain(self) -> None:
        """Settle every live lease, then lease and settle until nothing
        is pending: every added key ends settled or abandoned."""
        for lease_id in list(self.live):
            for key in list(self.live[lease_id]["keys"]):
                self._claim(lease_id, key)
            del self.live[lease_id]
        while self.pending:
            self.lease(max_runs=8, ttl=10.0)
            (lease_id,) = self.live
            for key in list(self.live[lease_id]["keys"]):
                self._claim(lease_id, key)
            del self.live[lease_id]
        assert set(self.added) == self.settled | self.abandoned
        assert self.manager.pending_runs == 0
        assert self.manager.active_leases == 0

    # ------------------------------------------------------------------
    @invariant()
    def every_key_in_exactly_one_place(self) -> None:
        manager = self.manager
        assert list(manager._pending) == self.pending
        leased = {
            lease_id: list(lease.runs)
            for lease_id, lease in manager._leases.items()
        }
        assert leased == {
            lease_id: lease["keys"] for lease_id, lease in self.live.items()
        }
        places = [
            set(self.pending), self.settled, self.abandoned,
            *(set(keys) for keys in leased.values()),
        ]
        assert sum(len(place) for place in places) == len(self.added)
        assert set().union(*places) == set(self.added)

    @invariant()
    def expiries_and_attempts_match(self) -> None:
        for lease_id, lease in self.live.items():
            assert self.manager.get(lease_id).expires == lease["expires"]
        for key in self.added:
            assert self.manager.attempts(key) == self.attempts.get(key, 0)

    def teardown(self) -> None:
        self.drain()


LeaseModel.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestLeaseModel = LeaseModel.TestCase
