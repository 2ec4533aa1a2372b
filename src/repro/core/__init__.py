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
``repro.core.fuse_cache`` imports cache primitives from ``repro.cache``,
and lazy resolution keeps that dependency cycle inert.  The factory
loads the engines only inside ``make_l1d``, so naming a configuration
(``l1d_config``, ``L1DConfig``, ``FuseFeatures``) loads no engine.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.core.approx_assoc": ("ApproximateAssociativeArray", "SearchResult"),
    "repro.core.arbitration": ("Arbiter", "ArbiterDecision", "Destination"),
    "repro.core.factory": (
        "FuseFeatures", "L1DConfig", "known_configs", "l1d_config",
        "ratio_config", "make_l1d",
    ),
    "repro.core.fuse_cache": ("FuseCache",),
    "repro.core.read_level_predictor": ("ReadLevel", "ReadLevelPredictor"),
    "repro.core.sampler": ("SamplingPredictor",),
    "repro.core.swap_buffer": ("SwapBuffer",),
    "repro.core.tag_queue": ("TagQueue",),
})
