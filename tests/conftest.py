"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.cache.request import AccessType, MemoryRequest
from repro.core.sampler import BLOCK_SAMPLE_RATIO


def load(address: int, pc: int = 0x100, warp_id: int = 0, sm_id: int = 0):
    """Shorthand for a LOAD request."""
    return MemoryRequest(
        address=address, access_type=AccessType.LOAD, pc=pc,
        warp_id=warp_id, sm_id=sm_id,
    )


def store(address: int, pc: int = 0x200, warp_id: int = 0, sm_id: int = 0):
    """Shorthand for a STORE request."""
    return MemoryRequest(
        address=address, access_type=AccessType.STORE, pc=pc,
        warp_id=warp_id, sm_id=sm_id,
    )


def sampled_blocks(count: int, start: int = 0) -> list:
    """The first *count* block addresses from *start* up that the
    predictors' sampler observes (its 1-in-4 block hash)."""
    blocks = []
    block = start
    while len(blocks) < count:
        if (block ^ (block >> 7) ^ (block >> 13)) % BLOCK_SAMPLE_RATIO == 0:
            blocks.append(block)
        block += 1
    return blocks


@pytest.fixture
def small_gpu_config():
    """A 2-SM machine for fast integration tests."""
    from repro.gpu.config import fermi_like

    return fermi_like().with_overrides(num_sms=2)
