"""The paper's primary contribution: the FUSE heterogeneous L1D cache.

Subsystems (each its own module, mirroring the paper's Section III/IV
structure):

* :mod:`repro.core.approx_assoc` -- CBF-guided associativity approximation
  for the STT-MRAM bank (Section III-B), with the counting Bloom filters
  and their NVM-CBF test latency (Section IV-C).
* :mod:`repro.core.sampler` -- the PC-signature sampler and prediction
  history table that both predictors train through (Table I's predictor
  sizes are its module constants).
* :mod:`repro.core.read_level_predictor` -- WM / neutral / WORM / WORO
  classification (Section IV-B).
* :mod:`repro.core.tag_queue` -- non-blocking STT-MRAM service queue.
* :mod:`repro.core.swap_buffer` -- SRAM-to-STT eviction staging registers.
* :mod:`repro.core.arbitration` -- the decision tree of Figure 9.
* :mod:`repro.core.fuse_cache` -- the heterogeneous cache engine that the
  ``Hybrid``, ``Base-FUSE``, ``FA-FUSE`` and ``Dy-FUSE`` configurations all
  instantiate.
* :mod:`repro.core.factory` -- named Table I configurations.

Exports resolve lazily (:func:`repro.lazy_exports`):
``repro.cache.nvm_bypass`` imports the sampler from here while
``repro.core.factory`` imports cache models from ``repro.cache``, and
lazy resolution keeps that dependency cycle inert.
"""

from repro import lazy_exports

_EXPORTS = {
    "ApproximateAssociativeArray": "repro.core.approx_assoc",
    "SearchResult": "repro.core.approx_assoc",
    "Arbiter": "repro.core.arbitration",
    "ArbiterDecision": "repro.core.arbitration",
    "Destination": "repro.core.arbitration",
    "L1DConfig": "repro.core.factory",
    "known_configs": "repro.core.factory",
    "l1d_config": "repro.core.factory",
    "ratio_config": "repro.core.factory",
    "make_l1d": "repro.core.factory",
    "FuseCache": "repro.core.fuse_cache",
    "FuseFeatures": "repro.core.fuse_cache",
    "ReadLevel": "repro.core.read_level_predictor",
    "ReadLevelPredictor": "repro.core.read_level_predictor",
    "SamplingPredictor": "repro.core.sampler",
    "SwapBuffer": "repro.core.swap_buffer",
    "TagQueue": "repro.core.tag_queue",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
