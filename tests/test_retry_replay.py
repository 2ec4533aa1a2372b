"""Retry replay: a retry whose answer cannot have changed skips the walk.

:meth:`L1DCacheModel.access` replays a rejected request's last real
rejection -- same counter delta, shared :data:`REJECTED` result -- while
the cache's epoch (``accesses + fills``) and the rejection's
``fail_until`` cycle still hold, for models that declare
``_replay_rejection``.  These tests pin that the shortcut is invisible:

* replay on and replay off (the declarations patched back to the
  undeclared default) give identical payloads and CBF counters, for
  every configuration, both on whole simulations and on hand-driven
  retry sequences that exercise the clock-bounded FUSE hazards;
* an undeclared model never replays, and the ``MAX_RETRIES`` livelock
  guard still fires for a declared one;
* the SM/cache accounting identity ``retries == reservation_fails``
  holds for every configuration;
* the run loop never polls an SM whose issue port is busy;
* retry sleep is invisible too: sleep on and sleep off (the SM's sleep
  bound patched to "never sleep") give identical payloads, and
  same-cycle events dispatch in the order the
  step-by-step loop posts them.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.basecache import BaseCache
from repro.cache.interface import (
    NEVER,
    REJECTED,
    RETRY_INTERVAL,
    AccessOutcome,
    AccessResult,
    FillResult,
    L1DCacheModel,
)
from repro.cache.oracle import OracleCache
from repro.core.factory import known_configs, l1d_config, make_l1d
from repro.core.fuse_cache import FuseCache, FuseFeatures
from repro.engine.serialize import result_to_dict
from repro.engine.spec import (
    RunSpec,
    arena_for_spec,
    execute_spec,
    gpu_profile,
)
from repro.gpu.config import fermi_like
from repro.gpu.simulator import GPUSimulator
from repro.gpu.sm import SM
from repro.memory.subsystem import MemorySubsystem
from repro.workloads.trace import compute_block, load_instruction
from tests.conftest import load, store

_RESERVATION_FAIL = AccessOutcome.RESERVATION_FAIL

#: smoke workloads whose runs retry: ATAX storms on the FUSE and
#: L1-SRAM configs, GEMM fills every MSHR, SS exercises Dy-FUSE
RETRY_WORKLOADS = ["ATAX", "GEMM", "SS"]

#: each SM's approximated-search counters
CBF_COUNTERS = ("cbf_tests", "tag_searches", "tag_search_iterations",
                "cbf_false_positives")


def _declaring_classes():
    found, todo = [], [L1DCacheModel]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "_replay_rejection" in vars(cls) and cls is not L1DCacheModel:
            found.append(cls)
    return found


@contextlib.contextmanager
def replay_off():
    """Patch every model declaration back to the undeclared default."""
    saved = {cls: vars(cls)["_replay_rejection"]
             for cls in _declaring_classes()}
    try:
        for cls in saved:
            cls._replay_rejection = None
        yield
    finally:
        for cls, declaration in saved.items():
            cls._replay_rejection = declaration


def test_the_bundled_engines_declare_replay():
    assert {cls.__name__ for cls in _declaring_classes()} >= {
        "BaseCache", "OracleCache", "FuseCache",
    }
    with replay_off():
        assert not [cls for cls in _declaring_classes()
                    if cls._replay_rejection is not None]
    assert BaseCache._replay_rejection is not None


# ----------------------------------------------------------------------
# whole simulations
def _simulate(config: str, workload: str, seed: int, num_sms: int):
    spec = RunSpec.build(config, workload, scale="smoke", seed=seed,
                         num_sms=num_sms)
    arena = arena_for_spec(spec)
    sim = GPUSimulator(
        gpu_profile(spec.gpu_profile).with_overrides(num_sms=num_sms),
        l1d_factory=lambda: make_l1d(spec.l1d),
        warps_per_sm=arena.warps_per_sm,
        arena=arena,
    )
    result = sim.run(workload_name=workload, config_name=config)
    cbf = [
        tuple(getattr(sm.l1d.stats, name) for name in CBF_COUNTERS)
        for sm in sim.sms if getattr(sm.l1d, "approx", None) is not None
    ]
    return result_to_dict(result), cbf


@pytest.mark.parametrize("config", known_configs())
@settings(max_examples=3, deadline=None)
@given(
    workload=st.sampled_from(RETRY_WORKLOADS),
    seed=st.integers(min_value=0, max_value=2**16),
    num_sms=st.integers(min_value=1, max_value=4),
)
def test_replay_on_equals_replay_off(config, workload, seed, num_sms):
    payload, cbf = _simulate(config, workload, seed, num_sms)
    with replay_off():
        payload_off, cbf_off = _simulate(config, workload, seed, num_sms)
    assert payload == payload_off
    assert cbf == cbf_off


@pytest.mark.parametrize("config", known_configs())
def test_every_retry_is_one_reservation_fail(config):
    for workload in RETRY_WORKLOADS:
        result = execute_spec(
            RunSpec.build(config, workload, scale="smoke", num_sms=2)
        )
        assert result.retries == result.l1d.reservation_fails


# ----------------------------------------------------------------------
# hand-driven retry sequences
def _small_fuse(features, swap_entries=1, tag_queue_capacity=2):
    # a 4-set SRAM bank churns evictions through tiny staging buffers:
    # every clock-bounded hazard fires often (a one-entry queue fills
    # while the swap buffer is free, the plan's second hazard)
    return lambda: FuseCache(
        sram_kb=1, sram_assoc=2, stt_kb=4, stt_assoc=2, features=features,
        swap_entries=swap_entries, tag_queue_capacity=tag_queue_capacity,
        mshr_entries=4, mshr_max_merge=2,
    )


MODELS = {
    "hybrid": _small_fuse(FuseFeatures.hybrid()),
    "base-fuse": _small_fuse(FuseFeatures.base_fuse()),
    "base-fuse-short-queue": _small_fuse(FuseFeatures.base_fuse(), 2, 1),
    "fa-fuse": _small_fuse(FuseFeatures.fa_fuse()),
    "dy-fuse": _small_fuse(FuseFeatures.dy_fuse()),
    "dy-fuse-short-queue": _small_fuse(FuseFeatures.dy_fuse(), 2, 1),
    "sram": lambda: BaseCache(4, 2, mshr_entries=2, mshr_max_merge=2),
    "by-nvm": lambda: make_l1d(l1d_config("By-NVM").with_overrides(
        stt_kb=2, stt_assoc=2, mshr_entries=2)),
    "oracle": lambda: OracleCache(mshr_entries=2, mshr_max_merge=2),
}

#: (kind -- 0 a store, else a load --, block, pc_index, cycles since the
#: previous request, retry gap, retries, fill latency)
ATTEMPT = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=23),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=1, max_value=30),
)


def _drive(make, attempts):
    """Present each request, retrying rejections at the drawn gap, and
    deliver fills in completion order; returns everything observable."""
    cache = make()
    cycle, outcomes, inflight = 0, [], []
    for kind, block, pc_index, advance, gap, retries, latency in attempts:
        cycle += advance
        request = (store if kind == 0 else load)(
            block << 7, pc=0x40 + pc_index * 8, warp_id=pc_index * 12
        )
        for _ in range(retries + 1):
            inflight.sort()
            while inflight and inflight[0][0] <= cycle:
                cache.fill(inflight.pop(0)[1], cycle)
            result = cache.access(request, cycle)
            outcomes.append(result.outcome)
            if result.outcome is not _RESERVATION_FAIL:
                break
            cycle += gap
        if result.outcome is AccessOutcome.MISS:
            inflight.append((cycle + latency, block))
    return [outcomes, cache.stats.as_dict()]


@pytest.mark.parametrize("model", sorted(MODELS))
@settings(max_examples=40, deadline=None)
@given(attempts=st.lists(ATTEMPT, max_size=80))
def test_retry_sequences_match_real_walks(model, attempts):
    replayed = _drive(MODELS[model], attempts)
    with replay_off():
        walked = _drive(MODELS[model], attempts)
    assert replayed == walked


class CountingCache(L1DCacheModel):
    """Rejects everything; counts the walks it is asked for."""

    name = "counting"

    def __init__(self) -> None:
        super().__init__()
        self.walks = 0

    def _access_impl(self, request, cycle):
        self.walks += 1
        self.stats.tag_lookups += 1
        self.stats.reservation_fails += 1
        return REJECTED

    def fill(self, block_addr, cycle):  # pragma: no cover - never missed
        return FillResult(cycle, [], ())


class DeclaredCountingCache(CountingCache):
    _replay_rejection = L1DCacheModel._replay_lookup_rejection


def _rejecting_sim(model) -> GPUSimulator:
    return GPUSimulator(
        fermi_like().with_overrides(num_sms=1),
        l1d_factory=model,
        warp_streams=lambda sm_id, warp_id: [load_instruction(0x40, [0])],
        warps_per_sm=1,
        max_cycles=10_000_000,
    )


class TestDeclarations:
    def test_undeclared_model_never_replays(self):
        cache = CountingCache()
        request = load(0x80)
        for cycle in range(10):
            assert cache.access(request, cycle) is REJECTED
        assert cache.walks == 10
        assert request.fail_owner is None

    def test_declared_model_replays_until_a_new_epoch(self):
        cache = DeclaredCountingCache()
        request = load(0x80)
        for cycle in range(10):
            assert cache.access(request, cycle) is REJECTED
        assert cache.walks == 1
        assert cache.stats.reservation_fails == 10
        assert cache.stats.tag_lookups == 10
        cache.stats.fills += 1  # a fill opens a new epoch
        cache.access(request, 10)
        assert cache.walks == 2

    def test_replay_is_bound_to_its_cache(self):
        first, second = DeclaredCountingCache(), DeclaredCountingCache()
        request = load(0x80)
        first.access(request, 0)
        second.access(request, 1)  # same epoch, other cache: a real walk
        assert (first.walks, second.walks) == (1, 1)
        assert first.stats.reservation_fails == 1

    @pytest.mark.parametrize("model", [CountingCache, DeclaredCountingCache])
    def test_livelock_guard_still_fires(self, model, monkeypatch):
        monkeypatch.setattr("repro.gpu.sm.MAX_RETRIES", 50)
        sim = _rejecting_sim(model)
        with pytest.raises(RuntimeError, match="livelock"):
            sim.run()
        sm = sim.sms[0]
        assert sm.retries == 51
        assert sm.l1d.stats.reservation_fails == sm.retries
        assert sm.l1d.walks == (51 if model is CountingCache else 1)


class TestClockBounds:
    def test_hybrid_gate_replays_while_a_full_interval_remains(self):
        cache = MODELS["hybrid"]()
        cache._cache_busy_until = 100  # an STT write blocks the cache
        request = load(7 << 7)
        assert cache.access(request, 2) is REJECTED
        assert request.fail_until == 100 - RETRY_INTERVAL + 1
        stats = cache.stats
        stall = stats.stt_write_stall_cycles
        # replayed: the same full interval of gate wait
        cache.access(request, request.fail_until - 1)
        assert stats.stt_write_stall_cycles == stall + RETRY_INTERVAL
        # from fail_until on the wait is shorter, so the retry walks
        cache.access(request, request.fail_until)
        assert stats.stt_write_stall_cycles == (
            stall + RETRY_INTERVAL + RETRY_INTERVAL - 1
        )

    def test_lookup_rejections_never_lift_by_time(self):
        cache = BaseCache(4, 2, mshr_entries=1)
        cache.access(load(1 << 7), 0)
        request = load(2 << 7)
        assert cache.access(request, 0) is REJECTED
        assert request.fail_until == NEVER


def test_run_loop_never_polls_a_busy_port(monkeypatch):
    """A retry storm (Base-FUSE x ATAX) pushes the issue port out again
    and again; the SM re-parks at the free cycle instead of polling."""
    busy_polls, polls = [], []
    try_issue = SM.try_issue

    def counting_try_issue(self, cycle):
        polls.append(cycle)
        if cycle < self.port_busy_until:
            busy_polls.append(cycle)
        return try_issue(self, cycle)

    monkeypatch.setattr(SM, "try_issue", counting_try_issue)
    result = execute_spec(
        RunSpec.build("Base-FUSE", "ATAX", scale="smoke", num_sms=2)
    )
    assert result.retries > 10 * result.l1d.accesses
    assert polls
    assert busy_polls == []


# ----------------------------------------------------------------------
# retry sleep
def _never_sleep(self, request, cycle, attempts):
    return cycle


@pytest.mark.parametrize("config", known_configs())
@settings(max_examples=3, deadline=None)
@given(
    workload=st.sampled_from(RETRY_WORKLOADS),
    seed=st.integers(min_value=0, max_value=2**16),
    num_sms=st.sampled_from([1, 2, 4, 15]),
)
def test_sleep_on_equals_sleep_off(config, workload, seed, num_sms):
    spec = RunSpec.build(config, workload, scale="smoke", seed=seed,
                         num_sms=num_sms)
    asleep = result_to_dict(execute_spec(spec))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SM, "_sleep_bound", _never_sleep)
        awake = result_to_dict(execute_spec(spec))
    assert asleep == awake


def _count_dispatched_retries(monkeypatch):
    """Count the ``EV_RETRY`` events the run loop dispatches (every
    retry presentation; first presentations come from the issue path
    with attempt 0)."""
    dispatched = []
    present = SM._present

    def counting_present(self, request, warp, cycle, attempts, now):
        if attempts:
            dispatched.append(cycle)
        return present(self, request, warp, cycle, attempts, now)

    monkeypatch.setattr(SM, "_present", counting_present)
    return dispatched


def test_a_storm_sleeps_through_its_replays(monkeypatch):
    spec = RunSpec.build("Base-FUSE", "ATAX", scale="smoke", num_sms=2)
    dispatched = _count_dispatched_retries(monkeypatch)
    asleep = execute_spec(spec)
    asleep_dispatched = len(dispatched)
    dispatched.clear()
    monkeypatch.setattr(SM, "_sleep_bound", _never_sleep)
    awake = execute_spec(spec)
    # step by step, every rejection posts one retry event
    assert len(dispatched) == awake.retries
    assert asleep.retries == awake.retries
    assert asleep.retries == asleep.l1d.reservation_fails
    assert asleep_dispatched < asleep.retries / 2


class ScriptedCache(L1DCacheModel):
    """Rejects each scripted block a set number of times, misses the
    blocks in *misses* and hits the rest; logs every walk and fill into
    the *log* its SM shares with the others.  Undeclared, so its retries
    step one ``RETRY_INTERVAL`` at a time."""

    name = "scripted"

    def __init__(self, log, rejections=None, misses=()):
        super().__init__()
        self.log = log
        self.rejections = dict(rejections or {})
        self.misses = set(misses)
        self.pending = {}

    def _access_impl(self, request, cycle):
        block = request.block_addr
        self.log.append((cycle, "access", block))
        if self.rejections.get(block, 0):
            self.rejections[block] -= 1
            self.stats.reservation_fails += 1
            return REJECTED
        if block in self.misses:
            self.misses.discard(block)
            self.pending[block] = [request]
            return AccessResult(AccessOutcome.MISS, block_addr=block)
        return AccessResult(AccessOutcome.HIT, cycle + 1, (), block)

    def fill(self, block_addr, cycle):
        self.log.append((cycle, "fill", block_addr))
        self.stats.fills += 1
        return FillResult(cycle, self.pending.pop(block_addr), ())


def _two_sm_log(caches, streams):
    """Run two single-warp SMs with the given caches and instruction
    lists; returns the shared walk/fill log."""
    log = []
    built = iter([ScriptedCache(log, **cache) for cache in caches])
    GPUSimulator(
        fermi_like().with_overrides(num_sms=2),
        l1d_factory=lambda: next(built),
        warp_streams=lambda sm_id, warp_id: streams[sm_id],
        warps_per_sm=1,
    ).run()
    return log


def _at(log, cycle):
    return [(kind, block) for when, kind, block in log if when == cycle]


#: SM 0's retry chain: block 1 rejected at 0, 4 and 8, accepted at 12
OLDER_CHAIN = dict(rejections={1: 3})
OLDER_LOAD = [load_instruction(0x40, [1 << 7])]


class TestOrderKey:
    def test_a_later_batch_transaction_joins_ahead(self):
        # SM 1 issues at cycle 3; its second transaction arrives at 4 and
        # first retries at 8, posted before SM 0's successor at 8
        log = _two_sm_log(
            [OLDER_CHAIN, dict(rejections={3: 2})],
            [OLDER_LOAD,
             [compute_block(3), load_instruction(0x48, [2 << 7, 3 << 7])]],
        )
        assert _at(log, 8) == [("access", 3), ("access", 1)]
        assert _at(log, 12) == [("access", 3), ("access", 1)]

    def test_a_first_slot_rejection_joins_behind(self):
        # SM 1's single transaction arrives at 4, the cycle SM 0's
        # retry posts its successor, and first retries at 8 behind it
        log = _two_sm_log(
            [OLDER_CHAIN, dict(rejections={3: 2})],
            [OLDER_LOAD, [compute_block(4), load_instruction(0x48, [3 << 7])]],
        )
        assert _at(log, 8) == [("access", 1), ("access", 3)]
        assert _at(log, 12) == [("access", 1), ("access", 3)]

    def test_a_fill_posted_earlier_dispatches_first(self):
        config = fermi_like().with_overrides(num_sms=2)
        # SM 0 misses block 5 at cycle 0; its fill lands at `lands`
        lands = MemorySubsystem(config).issue_read(5, 0, 0)
        assert MemorySubsystem(config).min_read_latency > RETRY_INTERVAL
        # SM 1's chain steps through the same cycle and past it
        phase = lands % RETRY_INTERVAL or RETRY_INTERVAL
        steps = (lands - phase) // RETRY_INTERVAL + 2
        log = _two_sm_log(
            [dict(misses={5}), dict(rejections={3: steps})],
            [[load_instruction(0x40, [5 << 7])],
             [compute_block(phase), load_instruction(0x48, [3 << 7])]],
        )
        assert _at(log, lands) == [("fill", 5), ("access", 3)]


class GatedCache(L1DCacheModel):
    """A declared model that rejects a block until its gate opens --
    another block's acceptance (*after*) or a cycle (*until*) -- and
    hits everything else; logs every walk as ``(cycle, block)``."""

    name = "gated"

    def __init__(self, log, after=None, until=None):
        super().__init__()
        self.log = log
        self.after = dict(after or {})
        self.until = dict(until or {})
        self.accepted = set()
        self._fail_until = NEVER

    def _access_impl(self, request, cycle):
        block = request.block_addr
        self.log.append((cycle, block))
        self._fail_until = NEVER
        blocker = self.after.get(block)
        lift = self.until.get(block, 0)
        if (blocker is not None and blocker not in self.accepted) or (
            cycle < lift
        ):
            if cycle < lift:
                self._fail_until = lift
            self.stats.tag_lookups += 1
            self.stats.reservation_fails += 1
            return REJECTED
        self.accepted.add(block)
        return AccessResult(AccessOutcome.HIT, cycle + 1, (), block)

    def fill(self, block_addr, cycle):  # pragma: no cover - never missed
        return FillResult(cycle, [], ())

    def _replay_rejection(self):
        return self._fail_until, self._lookup_rejection


def _gated_log(**gates):
    """One SM, one warp loading blocks 1 and 2 as one batch at cycle 0."""
    log = []
    sim = GPUSimulator(
        fermi_like().with_overrides(num_sms=1),
        l1d_factory=lambda: GatedCache(log, **gates),
        warp_streams=lambda sm_id, warp_id: [
            load_instruction(0x40, [1 << 7, 2 << 7])
        ],
        warps_per_sm=1,
    )
    result = sim.run()
    return log, result


class TestSleepBound:
    def test_a_pending_retry_bounds_its_batch_mates_sleep(self):
        # block 1's hazard lifts by time at 4; block 2 waits for block 1,
        # so its replays end where block 1's retry may be accepted
        log, result = _gated_log(until={1: 4}, after={2: 1})
        assert log == [(0, 1), (1, 2), (4, 1), (5, 2)]
        assert result.retries == 2

    def test_a_later_accepted_transaction_keeps_a_rejection_awake(self):
        # block 1 waits for block 2, which the same batch accepts one
        # cycle later: block 1's first retry must walk
        log, result = _gated_log(after={1: 2})
        assert log == [(0, 1), (1, 2), (4, 1)]
        assert result.retries == 1

    def test_a_known_replay_sleeps_until_its_hazard_lifts(self, monkeypatch):
        # block 2 waits for block 1, whose hazard lifts at 41: ten
        # replays of each are accounted without an event or a walk
        dispatched = _count_dispatched_retries(monkeypatch)
        log, result = _gated_log(until={1: 41}, after={2: 1})
        assert dispatched == [44, 45]
        assert log == [(0, 1), (1, 2), (44, 1), (45, 2)]
        assert result.retries == 22
        assert result.l1d.reservation_fails == 22
