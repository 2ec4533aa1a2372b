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

Exports resolve lazily (:func:`repro.lazy_exports`), so importing one
submodule (``repro.cache.stats`` for a result's counters) loads no
engine.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.cache.interface": (
        "AccessOutcome", "AccessResult", "FillResult", "L1DCacheModel",
    ),
    "repro.cache.mshr": ("MSHR", "MSHREntry"),
    "repro.cache.basecache": ("BaseCache",),
    "repro.cache.nvm_bypass": ("ByNVMCache", "DeadWritePredictor"),
    "repro.cache.oracle": ("OracleCache",),
    "repro.cache.request": ("AccessType", "MemoryRequest", "block_address"),
    "repro.cache.stats": ("CacheStats",),
    "repro.cache.tag_array": ("CacheLine", "TagArray"),
})
