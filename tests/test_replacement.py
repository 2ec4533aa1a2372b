"""Replacement tests: the paper's LRU and FIFO, as ``TagArray`` runs them.

Victims are observed the way cache engines see them, through
``peek_victim`` and ``reserve``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.tag_array import TagArray


def _victim_block(tags, block_addr):
    """Block the next reserve of *block_addr* would evict (None: free way)."""
    can, victim = tags.peek_victim(block_addr)
    assert can
    return None if victim is None else victim.block_addr


class TestLRU:
    def test_evicts_least_recently_used(self):
        tags = TagArray(1, 4, "lru")
        for block in (0x10, 0x20, 0x30, 0x40):
            tags.install(block)
        tags.touch(*tags.find(0x10), is_write=False)  # now most recent
        assert _victim_block(tags, 0x50) == 0x20

    def test_access_refreshes_recency(self):
        tags = TagArray(1, 2, "lru")
        tags.install(0x10)
        tags.install(0x20)
        tags.touch(*tags.find(0x10), is_write=False)
        assert _victim_block(tags, 0x30) == 0x20

    def test_respects_candidate_restriction(self):
        tags = TagArray(1, 4, "lru")
        tags.reserve(0x10)  # oldest way, but its fill is in flight
        for block in (0x20, 0x30, 0x40):
            tags.install(block)
        assert _victim_block(tags, 0x50) == 0x20

    def test_sets_are_independent(self):
        tags = TagArray(2, 2, "lru")
        for block in (0x0, 0x2, 0x3, 0x1):  # set 0: 0x0, 0x2; set 1: 0x3, 0x1
            tags.install(block)
        assert _victim_block(tags, 0x4) == 0x0
        assert _victim_block(tags, 0x5) == 0x3

    def test_wide_set_heap_rebuild_keeps_the_order(self):
        # hit-heavy traffic makes a 32-way set rebuild its stamp heap
        tags = TagArray(1, 32, "lru")
        for block in range(31):
            tags.install(block)
        tags.reserve(31)  # in flight across the rebuilds
        for _ in range(10):
            for block in range(1, 31):
                tags.touch(*tags.find(block), is_write=False)
        assert len(tags._heaps[0]) <= 2 * 32 + 64
        # block 0 was never hit, the others in order
        for new, old in zip(range(32, 63), range(31)):
            assert _victim_block(tags, new) == old
            tags.reserve(new)
        assert tags.peek_victim(63) == (False, None)


class TestFIFO:
    def test_evicts_oldest_fill(self):
        tags = TagArray(1, 3, "fifo")
        for block in (0x30, 0x10, 0x20):
            tags.install(block)
        assert _victim_block(tags, 0x40) == 0x30

    def test_hits_do_not_refresh(self):
        tags = TagArray(1, 2, "fifo")
        tags.install(0x10)
        tags.install(0x20)
        for _ in range(10):
            tags.touch(*tags.find(0x10), is_write=False)
        assert _victim_block(tags, 0x30) == 0x10

    def test_refill_moves_to_back(self):
        tags = TagArray(1, 2, "fifo")
        tags.install(0x10)
        tags.install(0x20)
        tags.invalidate(0x10)
        tags.install(0x30)  # the oldest way is refilled: now youngest
        assert _victim_block(tags, 0x40) == 0x20


class TestFactory:
    @pytest.mark.parametrize("name", ["fifo", "lru"])
    def test_all_known_policies_instantiate(self, name):
        tags = TagArray(4, 4, name)
        assert tags.num_lines == 16

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown replacement"):
            TagArray(4, 4, "plru")

    def test_invalid_geometry_raises(self):
        with pytest.raises(ValueError):
            TagArray(0, 4, "lru")


@given(accesses=st.lists(st.integers(min_value=0, max_value=3),
                         max_size=60))
def test_lru_victim_is_never_most_recent(accesses):
    """Property: after any hit pattern, the LRU victim is never the most
    recently touched block."""
    tags = TagArray(1, 4, "lru")
    for block in range(4):
        tags.install(block)
    last = 3
    for block in accesses:
        tags.touch(*tags.find(block), is_write=False)
        last = block
    assert _victim_block(tags, 4) != last


@given(blocks=st.lists(st.integers(min_value=0, max_value=11), min_size=8,
                       max_size=40))
def test_fifo_victim_has_oldest_fill(blocks):
    """Property: FIFO always evicts the block with the earliest fill,
    however often the resident blocks were hit."""
    tags = TagArray(1, 8, "fifo")
    fill_tick = {}
    for tick, block in enumerate(blocks):
        hit = tags.find(block)
        if hit is not None:
            tags.touch(*hit, is_write=False)
            continue
        _, _, evicted = tags.install(block)
        if evicted is not None:
            oldest = min(fill_tick, key=fill_tick.__getitem__)
            assert evicted.block_addr == oldest
            del fill_tick[oldest]
        fill_tick[block] = tick


class _ReferenceTags:
    """Brute-force replacement model: one stamp per way; a reservation
    takes the lowest free way, else the way with the oldest stamp among
    the non-reserved ones, and fails when every way is reserved."""

    def __init__(self, num_sets, assoc, lru):
        self.num_sets, self.lru = num_sets, lru
        self.tick = 0
        #: per set, per way: None (free), ("R", block) or ("V", block, stamp)
        self.sets = [[None] * assoc for _ in range(num_sets)]
        self.where = {}  # block -> way, reserved and valid blocks

    def state(self, block):
        way = self.where.get(block)
        return None if way is None else self.sets[block % self.num_sets][way]

    def victim(self, block):
        """``(way, evicted block or None)``, or None when all reserved."""
        ways = self.sets[block % self.num_sets]
        for way, state in enumerate(ways):
            if state is None:
                return way, None
        valid = [way for way, state in enumerate(ways) if state[0] == "V"]
        if not valid:
            return None
        way = min(valid, key=lambda way: ways[way][2])
        return way, ways[way][1]

    def reserve(self, block, way, evicted):
        self.where.pop(evicted, None)
        self.sets[block % self.num_sets][way] = ("R", block)
        self.where[block] = way

    def stamp(self, block):
        self.tick += 1
        self.sets[block % self.num_sets][self.where[block]] = (
            "V", block, self.tick)

    def invalidate(self, block):
        self.sets[block % self.num_sets][self.where.pop(block)] = None


#: reserves outnumber invalidates so a 32-way set fills and evicts
_OPS = ["reserve"] * 3 + ["fill"] * 2 + ["touch"] * 2 + ["invalidate"]


@pytest.mark.parametrize("policy", ["lru", "fifo"])
@pytest.mark.parametrize("num_sets,assoc,blocks", [
    (2, 4, 24),   # the minimum-scan branch
    (1, 32, 64),  # the oldest-stamp heap branch
])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_victim_matches_reference_model(policy, num_sets, assoc, blocks,
                                        data):
    """Property: under interleaved reserve/fill/touch/invalidate, the
    victim ``peek_victim`` previews and ``reserve`` then takes is the
    reference model's: the oldest stamp among the non-reserved ways,
    None when every way is reserved."""
    # long enough that every set fills, evicts and runs out of ways
    ops = data.draw(st.lists(
        st.tuples(st.sampled_from(_OPS),
                  st.integers(min_value=0, max_value=blocks - 1)),
        min_size=4 * num_sets * assoc, max_size=400,
    ))
    tags = TagArray(num_sets, assoc, policy)
    model = _ReferenceTags(num_sets, assoc, policy == "lru")
    for op, n in ops:
        # fill/touch/invalidate pick the n-th pending or valid block
        pending = sorted(b for b in model.where if model.state(b)[0] == "R")
        valid = sorted(b for b in model.where if model.state(b)[0] == "V")
        if op == "reserve":
            if n in model.where:
                continue
            expected = model.victim(n)
            can, line = tags.peek_victim(n)
            if expected is None:
                assert (can, line) == (False, None)
                with pytest.raises(RuntimeError, match="all ways reserved"):
                    tags.reserve(n)
                continue
            way, evicted_block = expected
            assert can
            assert (None if line is None else line.block_addr) == evicted_block
            _, got, evicted = tags.reserve(n)
            assert got == way
            assert (None if evicted is None
                    else evicted.block_addr) == evicted_block
            model.reserve(n, way, evicted_block)
        elif op == "fill" and pending:
            block = pending[n % len(pending)]
            tags.fill(block)
            model.stamp(block)
        elif op == "touch" and valid:
            block = valid[n % len(valid)]
            tags.touch(*tags.find(block), is_write=False)
            if model.lru:
                model.stamp(block)
        elif op == "invalidate" and valid:
            block = valid[n % len(valid)]
            assert tags.invalidate(block).block_addr == block
            model.invalidate(block)
