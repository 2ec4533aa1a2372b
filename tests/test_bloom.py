"""Counting-Bloom-filter behaviour of the STT-MRAM bank's tag filters.

The filters are the counter rows of :class:`ApproximateAssociativeArray`,
one CBF per group of ways.  A group tests positive for a key when every
counter the key hashes to is nonzero.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.approx_assoc import (
    CBF_TEST_CYCLES, ApproximateAssociativeArray,
)
from repro.core.factory import l1d_config, make_l1d


def is_positive(arr, key, group=0):
    """Whether *group*'s filter reports *key* as possibly present."""
    return all(arr._counters[group][s] > 0 for s in arr._key_slots(key)[group])


class TestBasics:
    def test_inserted_key_tests_positive(self):
        arr = ApproximateAssociativeArray(num_ways=4, num_cbfs=1)
        arr.note_install(0x1234, 0)
        assert is_positive(arr, 0x1234)

    def test_empty_filter_tests_negative(self):
        arr = ApproximateAssociativeArray(num_ways=4, num_cbfs=1)
        assert not is_positive(arr, 0x1234)
        assert arr.search(0x1234).iterations == 0

    def test_remove_clears_lone_key(self):
        arr = ApproximateAssociativeArray(num_ways=4, num_cbfs=1,
                                          cbf_counters=64)
        arr.note_install(0x1234, 0)
        arr.note_evict(0x1234)
        assert not is_positive(arr, 0x1234)
        assert arr._counters == [[0] * 64]

    def test_counter_saturation_sticks(self):
        # one counter, one hash: every key lands on the same counter
        arr = ApproximateAssociativeArray(num_ways=8, num_cbfs=1,
                                          num_hashes=1, cbf_counters=1)
        for way in range(8):
            arr.note_install(0x1 + way, way)
        assert arr._counters == [[3]]
        # a saturated counter is never decremented
        for way in range(8):
            arr.note_evict(0x1 + way)
        assert arr._counters == [[3]]
        assert is_positive(arr, 0x1)
        assert arr.search(0x1).false_positives == 1

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ApproximateAssociativeArray(cbf_counters=0)
        with pytest.raises(ValueError):
            ApproximateAssociativeArray(num_hashes=0)
        # the smallest filter: one counter, one hash
        arr = ApproximateAssociativeArray(num_ways=4, num_cbfs=1,
                                          num_hashes=1, cbf_counters=1)
        arr.note_install(0x1234, 0)
        assert arr._counters == [[1]]

    def test_independent_seeds_differ(self):
        # each group salts the hashes, so one key lands on different
        # counters in different groups
        arr = ApproximateAssociativeArray(num_ways=64, num_cbfs=16)
        slots = arr._key_slots(0xABCD)
        assert slots[0] != slots[1]


def _false_positives(num_hashes, cbf_counters):
    """False-positive groups over 400 absent probes, with all 64 ways of
    16 four-way groups filled by one fixed block set."""
    arr = ApproximateAssociativeArray(num_ways=64, num_cbfs=16,
                                      num_hashes=num_hashes,
                                      cbf_counters=cbf_counters)
    for way in range(64):
        arr.note_install(way, way)
    return sum(arr.search(probe).false_positives
               for probe in range(1000, 1400))


class TestFalsePositiveBehaviour:
    def test_more_hashes_reduce_false_positives(self):
        """Figure 20a's trend: more hash functions, fewer false positives."""
        assert _false_positives(3, 16) <= _false_positives(1, 16)

    def test_more_slots_reduce_false_positives(self):
        """Figure 20b's trend: longer counter arrays, fewer false
        positives."""
        assert _false_positives(3, 128) <= _false_positives(3, 16)


class TestTimingModel:
    def test_test_hides_within_one_cycle(self):
        # the 591 ps NVM-CBF test fits in one 714 ps L1D cycle
        assert CBF_TEST_CYCLES == 0
        arr = ApproximateAssociativeArray(num_ways=4, num_cbfs=1)
        arr.note_install(0x1234, 0)
        assert arr.search(0x1234).cycles == 1

    def test_area_matches_table(self):
        # Table I: 512 B of 2-bit counters across Dy-FUSE's filters
        arr = make_l1d(l1d_config("Dy-FUSE")).approx
        assert arr.num_cbfs * arr.cbf_counters * 2 // 8 == 512


@settings(max_examples=60, deadline=None)
@given(
    members=st.sets(st.integers(min_value=0, max_value=10_000), max_size=30),
    removed=st.sets(st.integers(min_value=0, max_value=10_000), max_size=30),
)
def test_no_false_negatives(members, removed):
    """THE Bloom-filter invariant: a block still in a group tests positive
    in that group's filter, whatever install/evict history preceded it."""
    arr = ApproximateAssociativeArray(num_ways=32, num_cbfs=1,
                                      cbf_counters=16)
    for way, key in enumerate(members):
        arr.note_install(key, way)
    for key in removed & members:
        arr.note_evict(key)
    for key in members - removed:
        assert is_positive(arr, key)


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=1_000_000), min_size=1,
                  max_size=50, unique=True),
)
def test_counters_stay_in_range(keys):
    arr = ApproximateAssociativeArray(num_ways=50, num_cbfs=1,
                                      num_hashes=2, cbf_counters=8)
    for way, key in enumerate(keys):
        arr.note_install(key, way)
    assert all(0 <= c <= 3 for c in arr._counters[0])
    stuck = [c == 3 for c in arr._counters[0]]
    for key in keys:
        arr.note_evict(key)
    # a counter that saturated stays stuck; every other one drains to 0
    assert arr._counters[0] == [3 if s else 0 for s in stuck]
