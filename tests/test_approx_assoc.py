"""Unit and property tests for the associativity-approximation engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.approx_assoc import ApproximateAssociativeArray


def make_small(exact=False):
    return ApproximateAssociativeArray(
        num_ways=64, num_cbfs=16, num_hashes=3, cbf_counters=16, exact=exact
    )


class TestStandaloneFIFO:
    def test_install_then_found(self):
        arr = make_small()
        arr.install(0x100)
        result = arr.search(0x100)
        assert result.way is not None
        assert result.cycles >= 1

    def test_absent_key_not_found(self):
        arr = make_small()
        arr.install(0x100)
        assert arr.search(0x999).way is None

    def test_fifo_eviction_order(self):
        arr = make_small()
        for i in range(64):
            arr.install(0x1000 + i)
        evicted = arr.install(0x2000)
        assert evicted == 0x1000

    def test_double_install_rejected(self):
        arr = make_small()
        arr.install(0x100)
        with pytest.raises(RuntimeError, match="already installed"):
            arr.install(0x100)

    def test_remove(self):
        arr = make_small()
        arr.install(0x100)
        assert arr.remove(0x100)
        assert not arr.remove(0x100)
        assert arr.search(0x100).way is None


class TestMirrorMode:
    def test_note_install_and_search(self):
        arr = make_small()
        arr.note_install(0x100, way=37)
        result = arr.search(0x100)
        assert result.way == 37

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
        arr.install(0x100)
        result = arr.search(0x100)
        assert result.cycles == 1
        assert result.false_positives == 0

    def test_hit_stops_at_matching_group(self):
        arr = make_small()
        arr.install(0x100)  # way 0 -> group 0
        result = arr.search(0x100)
        assert result.iterations >= 1
        # with one resident block, at most a couple of groups are positive
        assert result.false_positives <= arr.num_cbfs

    def test_false_positive_rate_bounded(self):
        arr = make_small()
        for i in range(32):
            arr.install(0x1000 + i * 7)
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


@settings(max_examples=40, deadline=None)
@given(
    blocks=st.lists(
        st.integers(min_value=0, max_value=100_000), min_size=1, max_size=80,
        unique=True,
    )
)
def test_resident_blocks_always_found(blocks):
    """Property: the CBF-guided search has no false negatives -- every
    resident block is located at its true way."""
    arr = ApproximateAssociativeArray(num_ways=128, num_cbfs=32)
    resident = {}
    for block in blocks:
        evicted = arr.install(block)
        resident[block] = arr.way_of(block)
        if evicted is not None:
            resident.pop(evicted, None)
    for block, way in resident.items():
        result = arr.search(block)
        assert result.way == way


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=500)),
        max_size=120,
    )
)
def test_mirror_matches_reference_set(ops):
    """Property: under arbitrary install/remove sequences the structure's
    membership matches a reference dict."""
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
        assert arr.search(block).way == way
