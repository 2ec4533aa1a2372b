"""Unit tests for the tag queue and swap buffer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.interface import AccessOutcome
from repro.core.fuse_cache import FuseCache, FuseFeatures
from repro.core.swap_buffer import SwapBuffer
from repro.core.tag_queue import TagQueue
from tests.conftest import load, store


class TestTagQueueService:
    def test_read_latency(self):
        queue = TagQueue()
        assert queue.enqueue("read", 10) == 11

    def test_write_latency(self):
        queue = TagQueue()
        assert queue.enqueue("fill", 10) == 15
        assert queue.enqueue("migrate", 20) == 25

    def test_search_cycles_serialise(self):
        queue = TagQueue()
        assert queue.enqueue("read", 10, extra_search_cycles=2) == 13

    def test_reads_pipeline(self):
        queue = TagQueue()
        first = queue.enqueue("read", 0, extra_search_cycles=3)
        second = queue.enqueue("read", 0, extra_search_cycles=3)
        assert first == 4
        assert second == 5  # occupancy 1, not 4

    def test_writes_hold_the_bank(self):
        queue = TagQueue()
        queue.enqueue("fill", 0)       # bank busy 0..5
        assert queue.enqueue("read", 0) == 6

    def test_capacity_enforced(self):
        queue = TagQueue(capacity=2)
        queue.enqueue("fill", 0)
        queue.enqueue("fill", 0)
        assert queue.is_full(0)
        with pytest.raises(RuntimeError, match="full"):
            queue.enqueue("read", 0)
        # the refused read left no entry: the queue empties with the fills
        assert queue.head_completion(5) == 10
        assert queue.head_completion(10) is None

    def test_force_overrides_capacity(self):
        queue = TagQueue(capacity=1)
        queue.enqueue("fill", 0)
        completion = queue.enqueue("fill", 0, force=True)
        assert completion == 10

    def test_occupancy_drains_over_time(self):
        queue = TagQueue(capacity=2)
        queue.enqueue("fill", 0)       # completes at 5
        queue.enqueue("fill", 0)       # completes at 10
        assert queue.is_full(0)
        assert not queue.is_full(6)
        assert queue.head_completion(6) == 10
        assert queue.head_completion(10) is None

    def test_head_completion_bounds_a_full_queue(self):
        queue = TagQueue(capacity=2)
        assert queue.head_completion(0) is None
        queue.enqueue("fill", 0)       # completes at 5
        queue.enqueue("read", 0)       # behind it: completes at 6
        assert queue.head_completion(0) == 5
        assert queue.is_full(4)
        assert not queue.is_full(queue.head_completion(4))
        assert queue.head_completion(5) == 6

    def test_unknown_op_rejected(self):
        queue = TagQueue()
        with pytest.raises(ValueError, match="unknown tag-queue op"):
            queue.enqueue("prefetch", 0)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            TagQueue(capacity=0)


class TestTagQueueFlush:
    def test_flush_drains_pending(self):
        queue = TagQueue()
        queue.enqueue("fill", 0)
        queue.enqueue("fill", 0)
        assert queue.flush(1) == 10
        assert queue.head_completion(1) is None

    def test_flush_empty_queue_is_free(self):
        queue = TagQueue()
        assert queue.flush(100) == 100

    def test_occupy_until_blocks_later_ops(self):
        queue = TagQueue()
        queue.occupy_until(50)
        assert queue.enqueue("read", 10) == 51


class TestSwapBuffer:
    def test_stage_and_hit(self):
        buffer = SwapBuffer(3)
        buffer.stage(0x10, cycle=0, release_cycle=20)
        assert buffer.contains(0x10, 5)
        assert not buffer.contains(0x20, 5)

    def test_release_after_completion(self):
        buffer = SwapBuffer(3)
        buffer.stage(0x10, cycle=0, release_cycle=20)
        assert not buffer.contains(0x10, 20)
        assert not buffer.contains(0x10, 25)

    def test_capacity(self):
        buffer = SwapBuffer(2)
        buffer.stage(0x10, 0, release_cycle=100)
        buffer.stage(0x20, 0, release_cycle=100)
        assert buffer.is_full(0)
        with pytest.raises(RuntimeError, match="full"):
            buffer.stage(0x30, 0, release_cycle=100)
        # entries release, capacity returns
        assert not buffer.is_full(100)

    def test_zero_entry_buffer_always_full(self):
        buffer = SwapBuffer(0)
        assert buffer.is_full(0)

    def test_write_hit_marks_dirty(self):
        # the parked line's tags are already in the STT bank, so a store
        # that hits the buffer dirties that copy
        cache = FuseCache(sram_kb=2, sram_assoc=2, stt_kb=8, stt_assoc=2,
                          features=FuseFeatures.base_fuse())
        for block in (0, 16, 32):  # the third miss evicts block 0
            cache.access(load(block << 7), block)
            cache.fill(block, block + 50)
        assert cache.swap.contains(0, 33)
        set_idx, way = cache.stt.find(0)
        assert not cache.stt.line(set_idx, way).dirty
        result = cache.access(store(0), 33)
        assert result.outcome is AccessOutcome.HIT
        assert cache.stats.swap_buffer_hits == 1
        assert cache.stt.line(set_idx, way).dirty

    def test_entry_ends_when_the_line_drains(self):
        buffer = SwapBuffer(1)
        buffer.stage(0x10, 0, release_cycle=50)
        assert buffer.contains(0x10, 49)
        assert not buffer.contains(0x10, 50)

    def test_next_release_bounds_a_full_buffer(self):
        buffer = SwapBuffer(2)
        assert buffer.next_release(0) is None
        buffer.stage(0x10, 0, release_cycle=60)
        buffer.stage(0x20, 0, release_cycle=40)
        assert buffer.next_release(0) == 40
        assert buffer.is_full(39)
        assert not buffer.is_full(buffer.next_release(39))
        assert buffer.next_release(45) == 60

    def test_entries_drain_one_by_one(self):
        buffer = SwapBuffer(3)
        buffer.stage(0x10, 0, release_cycle=50)
        buffer.stage(0x20, 0, release_cycle=60)
        assert buffer.contains(0x10, 10) and buffer.contains(0x20, 10)
        assert not buffer.contains(0x10, 55)
        assert buffer.contains(0x20, 55)


@settings(max_examples=40)
@given(
    ops=st.lists(
        st.sampled_from(["read", "fill", "migrate"]), min_size=1, max_size=30
    )
)
def test_tag_queue_completions_monotonic(ops):
    """Property: the FIFO bank never completes operations out of order."""
    queue = TagQueue(capacity=64)
    completions = [queue.enqueue(op, 0) for op in ops]
    assert completions == sorted(completions)
