"""Generic cache substrate: tag arrays (with the paper's LRU and FIFO
replacement), MSHRs and the baseline L1D cache models the paper evaluates
FUSE against.

The modules in this package know nothing about STT-MRAM heterogeneity; they
provide the building blocks (``TagArray``, ``MSHR``, ``BaseCache``) that both
the baseline caches (``L1-SRAM``, ``FA-SRAM``, ``L1-NVM``, ``By-NVM``,
``Oracle``) and the FUSE engine in :mod:`repro.core` are assembled from.

A bank's timing follows from its technology alone
(:data:`repro.cache.engine.bank.TIMING`), and the engines take only
geometry, technology and mechanism.  Which values each Table I
organisation uses is the business of :mod:`repro.core.factory`:
:func:`~repro.core.factory.make_l1d` is the only path from a
configuration to an engine.
"""

from repro.cache.interface import (
    AccessOutcome,
    AccessResult,
    FillResult,
    L1DCacheModel,
)
from repro.cache.mshr import MSHR, MSHREntry
from repro.cache.basecache import BaseCache
from repro.cache.nvm_bypass import ByNVMCache, DeadWritePredictor
from repro.cache.oracle import OracleCache
from repro.cache.request import AccessType, MemoryRequest, block_address
from repro.cache.stats import CacheStats
from repro.cache.tag_array import CacheLine, TagArray

__all__ = [
    "AccessOutcome",
    "AccessResult",
    "AccessType",
    "BaseCache",
    "ByNVMCache",
    "CacheLine",
    "CacheStats",
    "DeadWritePredictor",
    "FillResult",
    "L1DCacheModel",
    "MSHR",
    "MSHREntry",
    "MemoryRequest",
    "OracleCache",
    "TagArray",
    "block_address",
]
