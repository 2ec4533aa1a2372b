"""Unit and property tests for the associativity-approximation engine."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.approx_assoc import ApproximateAssociativeArray


def make_small(exact=False):
    return ApproximateAssociativeArray(
        num_ways=64, num_cbfs=16, num_hashes=3, cbf_counters=16, exact=exact
    )


class TestStandaloneFIFO:
    """One block's install, search and removal, driven the way the owning
    tag array drives them (the array no longer places blocks itself)."""

    def test_install_then_found(self):
        arr = make_small()
        arr.note_install(0x100, 0)
        result = arr.search(0x100)
        assert result.way == 0
        assert result.cycles >= 1

    def test_remove(self):
        arr = make_small()
        arr.note_install(0x100, 0)
        arr.note_evict(0x100)
        # evicting a block that is not mirrored is a no-op
        arr.note_evict(0x100)
        assert arr.occupancy() == 0
        assert arr.search(0x100).way is None


class TestMirrorMode:
    def test_note_install_and_search(self):
        arr = make_small()
        arr.note_install(0x100, way=37)
        result = arr.search(0x100)
        assert result.way == 37

    def test_absent_key_not_found(self):
        arr = make_small()
        arr.note_install(0x100, 0)
        assert arr.search(0x999).way is None

    def test_double_install_rejected(self):
        arr = make_small()
        arr.note_install(0x100, 0)
        with pytest.raises(RuntimeError, match="already mirrored"):
            arr.note_install(0x100, 1)

    def test_note_install_way_conflict(self):
        arr = make_small()
        arr.note_install(0x100, 5)
        with pytest.raises(RuntimeError, match="already holds"):
            arr.note_install(0x200, 5)

    def test_note_install_out_of_range(self):
        arr = make_small()
        with pytest.raises(ValueError):
            arr.note_install(0x100, 64)

    def test_note_evict_clears(self):
        arr = make_small()
        arr.note_install(0x100, 3)
        arr.note_evict(0x100)
        assert arr.search(0x100).way is None
        assert 0x100 not in arr


class TestSearchPricing:
    def test_exact_mode_single_cycle(self):
        arr = make_small(exact=True)
        arr.note_install(0x100, 0)
        result = arr.search(0x100)
        assert result.cycles == 1
        assert result.false_positives == 0

    def test_hit_stops_at_matching_group(self):
        arr = make_small()
        arr.note_install(0x100, 0)  # way 0 -> group 0
        result = arr.search(0x100)
        assert result.iterations >= 1
        # with one resident block, at most a couple of groups are positive
        assert result.false_positives <= arr.num_cbfs

    def test_false_positive_rate_bounded(self):
        arr = make_small()
        for i in range(32):
            arr.note_install(0x1000 + i * 7, i)
        for probe in range(40):
            result = arr.search(0x9000 + probe)
            assert 0.0 <= result.false_positives / arr.num_cbfs <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ApproximateAssociativeArray(num_ways=0)
        with pytest.raises(ValueError):
            ApproximateAssociativeArray(num_ways=8, num_cbfs=16)
        with pytest.raises(ValueError):
            ApproximateAssociativeArray(num_hashes=0)
        with pytest.raises(ValueError):
            ApproximateAssociativeArray(cbf_counters=0)
        # Figure 20's longest counter array
        assert ApproximateAssociativeArray(cbf_counters=128).cbf_counters == 128


@settings(max_examples=40, deadline=None)
@given(
    blocks=st.lists(
        # past 128 blocks the round-robin refill evicts
        st.integers(min_value=0, max_value=100_000), min_size=1, max_size=300,
        unique=True,
    )
)
# blocks 0, 2, 3 and 10 all hash to counter 0 of group 0, so filling
# ways 0-3 with them saturates it; refilling ways 0-2 with blocks that
# miss that counter then walks it to 0 under block 10 if a decrement
# ever reaches a stuck counter
@example(blocks=[0, 2, 3, 10] + list(range(1000, 1124)) + [1, 4, 5])
def test_resident_blocks_always_found(blocks):
    """Property: the CBF-guided search has no false negatives -- every
    resident block is located at its true way, and its group's filter
    reports it."""
    arr = ApproximateAssociativeArray(num_ways=128, num_cbfs=32)
    resident = {}
    way_block = {}
    for i, block in enumerate(blocks):
        way = i % arr.num_ways  # the owner refills ways round robin
        if way in way_block:
            evicted = way_block.pop(way)
            arr.note_evict(evicted)
            del resident[evicted]
        arr.note_install(block, way)
        resident[block] = way
        way_block[way] = block
    for block, way in resident.items():
        result = arr.search(block)
        assert result.way == way
        # the way comes from the owner's map, so read the filter itself:
        # the block's own group tests positive and the search is priced
        # from the counter rows
        assert _positive(arr, block, way // arr._group_size)
        assert result.iterations == _recount_iterations(arr, block)


def _positive(arr, block, group):
    """Whether *group*'s filter, read from its counter row, reports
    *block* as possibly present."""
    slots = arr._key_slots(block)[group]
    return all(arr._counters[group][s] > 0 for s in slots)


def _recount_iterations(arr, block):
    """Polling iterations of a search for *block*, recounted from the
    counter rows: positive groups are polled in index order, up to the
    block's own group when it is resident."""
    positive = [g for g in range(arr.num_cbfs) if _positive(arr, block, g)]
    way = arr.way_of(block)
    if way is None:
        return len(positive)
    group = way // arr._group_size
    return sum(1 for g in positive if g < group) + 1


@settings(max_examples=60, deadline=None)
@given(
    num_cbfs=st.sampled_from([1, 4, 16]),
    group_size=st.sampled_from([1, 4, 8]),
    cbf_counters=st.sampled_from([4, 16, 100, 128]),
    num_hashes=st.integers(min_value=1, max_value=5),
    ops=st.lists(
        # (kind, block, pick): kind 0 evicts, the rest install, so the
        # groups fill up enough to saturate counters
        st.tuples(st.integers(min_value=0, max_value=3),
                  st.integers(min_value=0, max_value=300),
                  st.integers(min_value=0, max_value=1 << 16)),
        min_size=40, max_size=150,
    ),
)
# one full 8-way group on 4 counters saturates every counter; emptying
# it then walks stuck counters down if a decrement ever reaches them
@example(num_cbfs=1, group_size=8, cbf_counters=4, num_hashes=3,
         ops=[(1, block, block) for block in range(8)] + [(0, 0, 0)] * 32)
def test_filters_match_counter_rows(num_cbfs, group_size, cbf_counters,
                                    num_hashes, ops):
    """Property: under any install/evict history (few counters and
    8-way groups saturate counters), no filter forgets a resident block,
    every counter stays in [0, 3], and every search's iteration count
    equals a brute-force recount from the counter rows -- so the packed
    bitmap agrees with them."""
    arr = ApproximateAssociativeArray(
        num_ways=num_cbfs * group_size, num_cbfs=num_cbfs,
        num_hashes=num_hashes, cbf_counters=cbf_counters,
    )
    resident = {}
    way_block = {}
    seen = set()

    def evict(way):
        block = way_block.pop(way)
        arr.note_evict(block)
        del resident[block]
        # no false negatives: the group still reports each block it holds
        group = way // group_size
        for other in range(group * group_size, (group + 1) * group_size):
            if other in way_block:
                assert _positive(arr, way_block[other], group)

    for kind, block, pick in ops:
        if kind:
            if block in resident:
                continue
            way = pick % arr.num_ways
            if way in way_block:  # the owner evicts the way's occupant
                evict(way)
            arr.note_install(block, way)
            resident[block] = way
            way_block[way] = block
            seen.add(block)
        elif resident:
            evict(resident[sorted(resident)[pick % len(resident)]])

    assert all(0 <= c <= 3 for row in arr._counters for c in row)
    assert arr.occupancy() == len(resident)
    for block in seen | set(range(1000, 1020)):
        result = arr.search(block)
        assert result.way == resident.get(block)
        assert result.iterations == _recount_iterations(arr, block)
        assert result.false_positives == (
            result.iterations - (block in resident))


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=500)),
        max_size=120,
    )
)
# the saturated counter of test_resident_blocks_always_found, emptied by
# removals
@example(ops=[(True, 0), (True, 2), (True, 3), (True, 10),
              (False, 0), (False, 2), (False, 3)])
def test_mirror_matches_reference_set(ops):
    """Property: under arbitrary install/remove sequences the structure's
    membership matches a reference dict, and every resident block's
    group filter reports it."""
    arr = ApproximateAssociativeArray(num_ways=64, num_cbfs=16)
    reference = {}
    next_way = iter(range(64))
    for is_install, block in ops:
        if is_install and block not in reference:
            try:
                way = next(next_way)
            except StopIteration:
                break
            arr.note_install(block, way)
            reference[block] = way
        elif not is_install and block in reference:
            arr.note_evict(block)
            del reference[block]
    assert arr.occupancy() == len(reference)
    for block, way in reference.items():
        result = arr.search(block)
        assert result.way == way
        assert _positive(arr, block, way // arr._group_size)
        assert result.iterations == _recount_iterations(arr, block)
