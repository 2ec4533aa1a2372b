"""Energy and area models (the GPUWattch / CACTI / NVsim stand-ins).

:mod:`repro.energy.model` turns a simulation result's event counters into
per-component energy (Figures 1b and 17) using the bank-level numbers
published in Table I.  :mod:`repro.energy.area` reproduces Table III's
transistor-count estimation.

Exports resolve lazily (:func:`repro.lazy_exports`): a result's energy
report needs :mod:`repro.energy.model` without Table III's area model.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.energy.area": ("AreaReport", "dy_fuse_area", "l1_sram_area"),
    "repro.energy.model": (
        "EnergyConstants", "EnergyReport", "L1DEnergyParams", "compute_energy",
        "l1d_energy_params",
    ),
})
