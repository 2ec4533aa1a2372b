"""Named L1D configurations (Table I) and their factory.

This module is the only code that knows Table I: :func:`l1d_config`
holds each organisation's geometry, technology and mechanism, and
:func:`make_l1d` is the only path from a configuration to an engine.
Bank timing follows from the technology
(:data:`repro.cache.engine.bank.TIMING`).

Every experiment in the paper selects one of seven L1D organisations, all
built within the same on-chip area budget as a 32 KB SRAM cache
(STT-MRAM's 36F^2 cell vs SRAM's 140F^2 gives ~4x density):

* ``L1-SRAM``  -- 32 KB SRAM, 64 sets x 4 ways.
* ``FA-SRAM``  -- 32 KB SRAM, fully associative (idealised baseline).
* ``L1-NVM``   -- 128 KB pure STT-MRAM, no bypass (Figure 3's STT GPU).
* ``By-NVM``   -- 128 KB pure STT-MRAM + dead-write bypass.
* ``Oracle``   -- unbounded capacity (Figure 3's upper bound).
* ``Hybrid``   -- 16 KB SRAM (2-way) + 64 KB STT (2-way), blocking.
* ``Base-FUSE``/``FA-FUSE``/``Dy-FUSE`` -- the FUSE feature ladder.

Figure 18's SRAM:STT ratio sweep is exposed through
:func:`ratio_config`: a ratio ``r`` spends ``r`` of the area on SRAM and
the rest on STT-MRAM (4x denser), so ``1/2`` reproduces the Table I
16 KB + 64 KB split.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - the engines load in make_l1d
    from repro.cache.interface import L1DCacheModel

__all__ = [
    "AREA_BUDGET_SRAM_KB", "FuseFeatures", "L1DConfig",
    "STT_DENSITY_FACTOR", "config_for_budget", "known_configs",
    "l1d_config", "make_l1d", "ratio_config",
]

#: Area budget every configuration must fit: a 32 KB SRAM array.
AREA_BUDGET_SRAM_KB = 32

#: STT-MRAM density advantage under the same area (36F^2 vs 140F^2 ~ 4x).
STT_DENSITY_FACTOR = 4


@dataclass(frozen=True, slots=True)
class FuseFeatures:
    """Feature toggles selecting the FUSE configuration
    (:mod:`repro.core.fuse_cache`'s module docs)."""

    non_blocking: bool = True
    approx_assoc: bool = True
    use_predictor: bool = True

    @classmethod
    def hybrid(cls) -> "FuseFeatures":
        return cls(non_blocking=False, approx_assoc=False, use_predictor=False)

    @classmethod
    def base_fuse(cls) -> "FuseFeatures":
        return cls(non_blocking=True, approx_assoc=False, use_predictor=False)

    @classmethod
    def fa_fuse(cls) -> "FuseFeatures":
        return cls(non_blocking=True, approx_assoc=True, use_predictor=False)

    @classmethod
    def dy_fuse(cls) -> "FuseFeatures":
        return cls(non_blocking=True, approx_assoc=True, use_predictor=True)


@dataclass(frozen=True)
class L1DConfig:
    """A fully-specified L1D configuration.

    Attributes mirror Table I; ``kind`` selects the engine and the factory
    interprets the rest.  Instances are immutable so they can be shared
    and used as cache keys by the experiment harness.
    """

    name: str
    kind: str                       # sram | fa_sram | nvm | by_nvm | oracle | fuse
    sram_kb: int = 0
    sram_assoc: int = 4
    stt_kb: int = 0
    stt_assoc: int = 4
    features: Optional[FuseFeatures] = None
    exact_fa: bool = False
    swap_entries: int = 3
    tag_queue_capacity: int = 16
    num_cbfs: int = 128
    cbf_counters: int = 16
    cbf_hashes: int = 3
    mshr_entries: int = 32
    mshr_max_merge: int = 8
    dead_threshold: int = 10
    unused_threshold: int = 14
    description: str = ""

    def with_overrides(self, **kwargs) -> "L1DConfig":
        """Return a modified copy (used by sensitivity sweeps)."""
        return replace(self, **kwargs)


def _table1_configs() -> Dict[str, L1DConfig]:
    fuse_geometry = dict(
        sram_kb=16, sram_assoc=2, stt_kb=64, stt_assoc=2
    )
    return {
        "L1-SRAM": L1DConfig(
            name="L1-SRAM", kind="sram", sram_kb=32, sram_assoc=4,
            description="32KB 4-way SRAM baseline (Table I)",
        ),
        "FA-SRAM": L1DConfig(
            name="FA-SRAM", kind="fa_sram", sram_kb=32,
            description="32KB fully-associative SRAM (idealised)",
        ),
        "L1-NVM": L1DConfig(
            name="L1-NVM", kind="nvm", stt_kb=128, stt_assoc=4,
            description="128KB pure STT-MRAM, no bypass (Figure 3)",
        ),
        "By-NVM": L1DConfig(
            name="By-NVM", kind="by_nvm", stt_kb=128, stt_assoc=4,
            description="128KB pure STT-MRAM + dead-write bypass",
        ),
        "Oracle": L1DConfig(
            name="Oracle", kind="oracle",
            description="Unbounded-capacity ideal L1D (Figure 3)",
        ),
        "Hybrid": L1DConfig(
            name="Hybrid", kind="fuse", features=FuseFeatures.hybrid(),
            description="16KB SRAM + 64KB STT, blocking STT writes",
            **fuse_geometry,
        ),
        "Base-FUSE": L1DConfig(
            name="Base-FUSE", kind="fuse", features=FuseFeatures.base_fuse(),
            description="Hybrid + swap buffer + tag queue",
            **fuse_geometry,
        ),
        "FA-FUSE": L1DConfig(
            name="FA-FUSE", kind="fuse", features=FuseFeatures.fa_fuse(),
            description="Base-FUSE + approximated fully-associative STT",
            **fuse_geometry,
        ),
        "Dy-FUSE": L1DConfig(
            name="Dy-FUSE", kind="fuse", features=FuseFeatures.dy_fuse(),
            description="FA-FUSE + read-level predictor",
            **fuse_geometry,
        ),
    }


_CONFIGS = _table1_configs()


def known_configs() -> list:
    """Names accepted by :func:`l1d_config`."""
    return sorted(_CONFIGS)


def l1d_config(name: str) -> L1DConfig:
    """Look up a named Table I configuration.

    Raises:
        ValueError: for unknown names.
    """
    try:
        return _CONFIGS[name]
    except KeyError:
        raise ValueError(
            f"unknown L1D config {name!r}; known: {', '.join(known_configs())}"
        )


def ratio_config(
    sram_fraction: Union[Fraction, float],
    base: str = "Dy-FUSE",
    area_budget_kb: int = AREA_BUDGET_SRAM_KB,
) -> L1DConfig:
    """Build a Figure 18 ratio configuration.

    Args:
        sram_fraction: fraction of the L1D area spent on SRAM (the paper
            sweeps 1/16, 1/8, 1/4, 1/2 and 3/4).  A float is read as the
            decimal it prints as, so ``0.5`` and ``Fraction(1, 2)``
            build one config under one name (``Dy-FUSE-1/2``) and so
            one run key.
        base: named configuration providing the feature set.
        area_budget_kb: SRAM-equivalent area budget (32 KB).

    Returns:
        A config whose SRAM bank holds ``fraction x budget`` KB and whose
        STT bank holds the remaining area at 4x density.
    """
    from repro.cache.tag_array import sets_for

    fraction = Fraction(str(sram_fraction))
    if not 0 < fraction < 1:
        raise ValueError("sram_fraction must be in (0, 1)")
    sram_kb = int(area_budget_kb * fraction)
    if sram_kb < 1:
        raise ValueError("sram_fraction too small for the area budget")
    stt_kb = (area_budget_kb - sram_kb) * STT_DENSITY_FACTOR
    template = l1d_config(base)
    # pick the smallest associativity (>= 2 when possible) that leaves a
    # power-of-two set count, e.g. 24 KB -> 192 lines -> 64 sets x 3 ways
    lines = sets_for(sram_kb, 1)
    sram_assoc = max(1, lines // _largest_pow2_divisor(lines))
    if sram_assoc == 1 and lines >= 2:
        sram_assoc = 2
    return template.with_overrides(
        name=f"{base}-{fraction}",
        sram_kb=sram_kb,
        sram_assoc=sram_assoc,
        stt_kb=stt_kb,
        description=f"{base} with {fraction} of area as SRAM",
    )


def _largest_pow2_divisor(value: int) -> int:
    return value & -value


def config_for_budget(name: str, area_budget_kb: int) -> L1DConfig:
    """Scale a named configuration to a different L1D area budget.

    Figure 19 evaluates Volta, whose reconfigurable L1 is set to 128 KB;
    every Table I organisation scales with the budget (By-NVM's pure STT
    becomes 512 KB, the FUSE split becomes 64 KB + 256 KB, ...).  CBF
    count scales with the approximated way count so each CBF still covers
    a group of :data:`~repro.core.approx_assoc.TAG_COMPARATORS` ways.
    """
    from repro.cache.tag_array import sets_for
    from repro.core.approx_assoc import TAG_COMPARATORS

    if area_budget_kb < 4 or area_budget_kb % 4:
        raise ValueError("area_budget_kb must be a positive multiple of 4")
    template = l1d_config(name)
    factor = area_budget_kb / AREA_BUDGET_SRAM_KB
    if factor == 1:
        return template
    scaled_sram = int(template.sram_kb * factor)
    scaled_stt = int(template.stt_kb * factor)
    stt_ways = sets_for(scaled_stt, 1)
    return template.with_overrides(
        name=template.name,
        sram_kb=scaled_sram,
        stt_kb=scaled_stt,
        num_cbfs=(max(1, stt_ways // TAG_COMPARATORS)
                  if template.kind == "fuse" else template.num_cbfs),
        description=f"{template.description} (budget {area_budget_kb}KB)",
    )


def make_l1d(config: L1DConfig) -> "L1DCacheModel":
    """Instantiate the cache model described by *config*: the only path
    from a configuration to an engine.

    The engines load here, not at import, so a process that only names
    configurations (a remote coordinator) never loads them.

    Raises:
        ValueError: for an unknown ``kind``, or a size that does not
            divide into the configured ways.
    """
    from repro.cache.basecache import BaseCache
    from repro.cache.nvm_bypass import ByNVMCache
    from repro.cache.oracle import OracleCache
    from repro.cache.tag_array import sets_for
    from repro.core.fuse_cache import FuseCache

    common = dict(
        mshr_entries=config.mshr_entries,
        mshr_max_merge=config.mshr_max_merge,
        name=config.name,
    )
    if config.kind == "sram":
        return BaseCache(sets_for(config.sram_kb, config.sram_assoc),
                         config.sram_assoc, technology="sram", **common)
    if config.kind == "fa_sram":
        # idealised: single-cycle tag search at any associativity
        return BaseCache(1, sets_for(config.sram_kb, 1), technology="sram",
                         **common)
    if config.kind == "nvm":
        return BaseCache(sets_for(config.stt_kb, config.stt_assoc),
                         config.stt_assoc, technology="stt", **common)
    if config.kind == "by_nvm":
        return ByNVMCache(sets_for(config.stt_kb, config.stt_assoc),
                          config.stt_assoc,
                          dead_threshold=config.dead_threshold, **common)
    if config.kind == "oracle":
        return OracleCache(**common)
    if config.kind == "fuse":
        if config.features is None:
            raise ValueError("fuse configs need a FuseFeatures value")
        return FuseCache(
            sram_kb=config.sram_kb,
            sram_assoc=config.sram_assoc,
            stt_kb=config.stt_kb,
            stt_assoc=config.stt_assoc,
            features=config.features,
            swap_entries=config.swap_entries,
            tag_queue_capacity=config.tag_queue_capacity,
            num_cbfs=config.num_cbfs,
            cbf_counters=config.cbf_counters,
            cbf_hashes=config.cbf_hashes,
            exact_fa=config.exact_fa,
            unused_threshold=config.unused_threshold,
            **common,
        )
    raise ValueError(f"unknown L1D kind {config.kind!r}")
