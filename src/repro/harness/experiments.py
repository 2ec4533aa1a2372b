"""Experiment definitions: one function per paper figure/table.

Each function returns plain data structures (dicts of floats keyed by
workload/config) that the bench targets format with
:func:`repro.harness.report.format_table` and that EXPERIMENTS.md records.
The workload and configuration lists mirror the paper's figure axes.

Every simulation-backed experiment submits its full (config x workload)
matrix through :meth:`Runner.prefetch` up front, so the runs fan out
across the parallel engine's worker pool (and are served from the
persistent store on regeneration); the row-building loops below each
prefetch are then pure cache reads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional

from repro.core.factory import config_for_budget, l1d_config, ratio_config
from repro.harness.report import gmean
from repro.harness.runner import Runner
from repro.workloads.analysis import read_level_analysis
from repro.workloads.benchmarks import benchmark, benchmark_class, benchmark_names
from repro.workloads.suites import SUITES

__all__ = [
    "ALL_WORKLOADS", "FIG18_WORKLOADS", "FIG20_COUNTERS", "FIG20_HASHES",
    "FIG20_WORKLOADS", "FIG3_WORKLOADS", "MAIN_CONFIGS", "dnn_sweep",
    "fig13_ipc", "fig14_miss_rate", "fig15_stalls", "fig16_predictor",
    "fig17_energy", "fig18_ratio_sweep", "fig19_volta", "fig1_motivation",
    "fig20_cbf_sensitivity", "fig3_oracle", "fig6_read_level",
    "fig7_approx_vs_full", "table2_apki",
]

#: the x-axis of Figures 13/14/16/17
ALL_WORKLOADS: List[str] = benchmark_names()

#: Figure 3's seven memory-intensive workloads
FIG3_WORKLOADS = ["3MM", "ATAX", "BICG", "gaussian", "GESUMMV", "II", "SYR2K"]

#: Figure 18's nine workloads
FIG18_WORKLOADS = [
    "2DCONV", "2MM", "3MM", "ATAX", "BICG", "FDTD", "GEMM", "GESUMMV",
    "SYR2K",
]

#: Figure 20's nine workloads
FIG20_WORKLOADS = [
    "2DCONV", "2MM", "3MM", "ATAX", "BICG", "cfd", "FDTD", "gaussian",
    "GEMM",
]

#: Figure 20a's hash functions per CBF (at Table I's 16 counters) and
#: Figure 20b's counters per CBF (at Table I's 3 hash functions)
FIG20_HASHES = (1, 2, 3, 4, 5)
FIG20_COUNTERS = (16, 32, 64, 128)

#: the seven L1D configurations of Figures 13/14
MAIN_CONFIGS = [
    "L1-SRAM", "By-NVM", "FA-SRAM", "Hybrid", "Base-FUSE", "FA-FUSE",
    "Dy-FUSE",
]


# ======================================================================
def fig1_motivation(runner: Runner, workloads: Optional[List[str]] = None):
    """Figure 1: off-chip latency fraction and energy decomposition for
    the baseline L1-SRAM machine."""
    names = list(workloads or ALL_WORKLOADS)
    runner.prefetch([("L1-SRAM", name) for name in names])
    rows = []
    for name in names:
        result = runner.run("L1-SRAM", name)
        energy = result.energy
        lat = result.memory.latency
        total_lat = max(1, lat.total)
        rows.append({
            "workload": name,
            "offchip_time_fraction": result.offchip_fraction,
            "network_share": lat.network / total_lat,
            "dram_share": (lat.dram + lat.l2) / total_lat,
            "energy_offchip_fraction": energy.offchip_fraction,
            "energy_l1d_fraction": energy.l1d_nj / energy.total_nj,
            "energy_compute_fraction": energy.compute_nj / energy.total_nj,
        })
    return rows


# ======================================================================
def fig3_oracle(runner: Runner, workloads: Optional[List[str]] = None):
    """Figure 3: Vanilla vs pure STT-MRAM vs Oracle L1D."""
    configs = {
        "Vanilla": l1d_config("L1-SRAM").with_overrides(
            name="Vanilla", sram_kb=16
        ),
        "STT-MRAM": l1d_config("L1-NVM"),
        "Oracle": l1d_config("Oracle"),
    }
    names = list(workloads or FIG3_WORKLOADS)
    runner.prefetch([
        (cfg, name) for name in names for cfg in configs.values()
    ])
    rows = []
    for name in names:
        row = {"workload": name}
        baseline_ipc = None
        for label, cfg in configs.items():
            result = runner.run(label, name, l1d=cfg)
            row[f"{label}_miss"] = result.l1d_miss_rate
            row[f"{label}_ipc"] = result.ipc
            if label == "Vanilla":
                baseline_ipc = result.ipc
        for label in configs:
            row[f"{label}_ipc_norm"] = (
                row[f"{label}_ipc"] / baseline_ipc if baseline_ipc else 0.0
            )
        rows.append(row)
    return rows


# ======================================================================
def fig6_read_level(
    num_sms: int = 4, warps_per_sm: int = 8,
    workloads: Optional[List[str]] = None,
):
    """Figure 6: WM / read-intensive / WORM / WORO block mix per workload
    (pure trace analysis -- no cache model involved)."""
    from repro.workloads.trace import TraceScale

    scale = TraceScale(warps_per_sm=warps_per_sm, target_instructions=400)
    rows = []
    for name in workloads or ALL_WORKLOADS:
        model = benchmark(name, num_sms, warps_per_sm, scale)
        breakdown = read_level_analysis(model)
        row = {"workload": name}
        row.update(breakdown.block_fractions)
        row["blocks"] = breakdown.total_blocks
        rows.append(row)
    return rows


# ======================================================================
def fig7_approx_vs_full(runner: Runner):
    """Figure 7b: approximated vs ideal fully-associative tag search,
    averaged per suite (normalized IPC; the paper reports <2% gap)."""
    approx_cfg = l1d_config("FA-FUSE")
    exact_cfg = approx_cfg.with_overrides(name="FA-FUSE-exact", exact_fa=True)
    runner.prefetch([
        (cfg, name)
        for names in SUITES.values() for name in names
        for cfg in (approx_cfg, exact_cfg)
    ])
    rows = []
    for suite, names in SUITES.items():
        ratios = []
        for name in names:
            approx = runner.run("FA-FUSE", name, l1d=approx_cfg)
            exact = runner.run("FA-FUSE-exact", name, l1d=exact_cfg)
            if exact.ipc > 0:
                ratios.append(approx.ipc / exact.ipc)
        rows.append({
            "suite": suite,
            "approx_over_full_ipc": gmean(ratios),
        })
    return rows


# ======================================================================
def fig13_ipc(runner: Runner, workloads: Optional[List[str]] = None):
    """Figure 13: IPC of all seven configs, normalized to L1-SRAM."""
    names = list(workloads or ALL_WORKLOADS)
    runner.prefetch([
        (config, name) for name in names
        for config in ["L1-SRAM"] + MAIN_CONFIGS
    ])
    rows = []
    norm_values: Dict[str, List[float]] = {c: [] for c in MAIN_CONFIGS}
    for name in names:
        row = {"workload": name}
        base = runner.run("L1-SRAM", name).ipc
        for config in MAIN_CONFIGS:
            ipc = runner.run(config, name).ipc
            norm = ipc / base if base else 0.0
            row[config] = norm
            norm_values[config].append(norm)
        rows.append(row)
    gmean_row = {"workload": "GMEANS"}
    for config in MAIN_CONFIGS:
        gmean_row[config] = gmean(norm_values[config])
    rows.append(gmean_row)
    return rows


# ======================================================================
def fig14_miss_rate(runner: Runner, workloads: Optional[List[str]] = None):
    """Figure 14: L1D miss rate of all seven configs."""
    names = list(workloads or ALL_WORKLOADS)
    runner.prefetch([
        (config, name) for name in names for config in MAIN_CONFIGS
    ])
    rows = []
    sums: Dict[str, List[float]] = {c: [] for c in MAIN_CONFIGS}
    for name in names:
        row = {"workload": name}
        for config in MAIN_CONFIGS:
            miss = runner.run(config, name).l1d_miss_rate
            row[config] = miss
            sums[config].append(miss)
        rows.append(row)
    mean_row = {"workload": "GMEANS"}
    for config in MAIN_CONFIGS:
        mean_row[config] = gmean(sums[config])
    rows.append(mean_row)
    return rows


# ======================================================================
def fig15_stalls(runner: Runner, workloads: Optional[List[str]] = None):
    """Figure 15: STT-write vs tag-search stalls for Hybrid / Base-FUSE /
    FA-FUSE, normalized to Hybrid's STT-write stalls."""
    configs = ["Hybrid", "Base-FUSE", "FA-FUSE"]
    names = list(workloads or ALL_WORKLOADS)
    runner.prefetch([(config, name) for name in names for config in configs])
    rows = []
    for name in names:
        base = runner.run("Hybrid", name).l1d.stt_write_stall_cycles or 1
        row = {"workload": name}
        for config in configs:
            stats = runner.run(config, name).l1d
            row[f"{config}_stt"] = stats.stt_write_stall_cycles / base
            row[f"{config}_tag"] = stats.tag_search_stall_cycles / base
        rows.append(row)
    return rows


# ======================================================================
def fig16_predictor(runner: Runner, workloads: Optional[List[str]] = None):
    """Figure 16: Dy-FUSE read-level predictor accuracy per workload."""
    names = list(workloads or ALL_WORKLOADS)
    runner.prefetch([("Dy-FUSE", name) for name in names])
    rows = []
    for name in names:
        stats = runner.run("Dy-FUSE", name).l1d
        scored = stats.pred_true + stats.pred_false + stats.pred_neutral
        scored = scored or 1
        rows.append({
            "workload": name,
            "true": stats.pred_true / scored,
            "neutral": stats.pred_neutral / scored,
            "false": stats.pred_false / scored,
        })
    return rows


# ======================================================================
def fig17_energy(runner: Runner, workloads: Optional[List[str]] = None):
    """Figure 17: L1D energy normalized to L1-SRAM."""
    configs = ["L1-SRAM", "By-NVM", "Base-FUSE", "FA-FUSE", "Dy-FUSE"]
    names = list(workloads or ALL_WORKLOADS)
    runner.prefetch([(config, name) for name in names for config in configs])
    rows = []
    norms: Dict[str, List[float]] = {c: [] for c in configs}
    for name in names:
        base = runner.run("L1-SRAM", name).energy.l1d_nj or 1.0
        row = {"workload": name}
        for config in configs:
            energy = runner.run(config, name).energy.l1d_nj
            row[config] = energy / base
            norms[config].append(energy / base)
        rows.append(row)
    gmean_row = {"workload": "GMEANS"}
    for config in configs:
        gmean_row[config] = gmean(norms[config])
    rows.append(gmean_row)
    return rows


# ======================================================================
def fig18_ratio_sweep(runner: Runner, workloads: Optional[List[str]] = None):
    """Figure 18: SRAM:STT area-ratio sweep (IPC and miss rate,
    normalized to the 1/16 split)."""
    fractions = [
        Fraction(1, 16), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2),
        Fraction(3, 4),
    ]
    names = list(workloads or FIG18_WORKLOADS)
    runner.prefetch([
        (ratio_config(frac), name) for name in names for frac in fractions
    ])
    rows = []
    for name in names:
        row = {"workload": name}
        base_ipc = None
        for frac in fractions:
            cfg = ratio_config(frac)
            result = runner.run(cfg.name, name, l1d=cfg)
            if base_ipc is None:
                base_ipc = result.ipc or 1.0
            row[f"ipc_{frac}"] = result.ipc / base_ipc
            row[f"miss_{frac}"] = result.l1d_miss_rate
        rows.append(row)
    return rows


# ======================================================================
def fig19_volta(runner: Runner, workloads: Optional[List[str]] = None):
    """Figure 19: the config ladder on the Volta-class machine.

    *runner* must be a Volta-profile runner; L1D budgets scale to the
    128 KB reconfigurable L1.
    """
    configs = ["L1-SRAM", "By-NVM", "Hybrid", "Base-FUSE", "FA-FUSE",
               "Dy-FUSE"]
    budget = runner.config.l1d_area_budget_kb
    names = list(workloads or ALL_WORKLOADS)
    runner.prefetch([
        (config_for_budget(config, budget), name)
        for name in names for config in configs
    ])
    rows = []
    for name in names:
        row = {"workload": name}
        base = None
        for config in configs:
            cfg = config_for_budget(config, budget)
            result = runner.run(config, name, l1d=cfg)
            if config == "L1-SRAM":
                base = result.ipc or 1.0
            row[config] = result.ipc / base
        rows.append(row)
    return rows


# ======================================================================
def fig20_cbf_sensitivity(runner: Runner,
                          workloads: Optional[List[str]] = None):
    """Figure 20: Dy-FUSE's CBF false positives per tag search as the
    filters' hash functions and counters vary, next to its IPC.

    One row per (workload, geometry): ``fp_per_search`` is the positive
    groups that did not hold the tag, averaged over every search.  The
    3-hash, 16-counter point is Table I's Dy-FUSE itself.
    """
    base = l1d_config("Dy-FUSE")
    table1 = (base.cbf_hashes, base.cbf_counters)
    geometries = dict.fromkeys(
        [(hashes, base.cbf_counters) for hashes in FIG20_HASHES]
        + [(base.cbf_hashes, counters) for counters in FIG20_COUNTERS]
    )
    configs = {
        (hashes, counters): base if (hashes, counters) == table1
        else base.with_overrides(name=f"Dy-FUSE-{hashes}h{counters}c",
                                 cbf_hashes=hashes, cbf_counters=counters)
        for hashes, counters in geometries
    }
    names = list(workloads or FIG20_WORKLOADS)
    runner.prefetch([
        (cfg, name) for name in names for cfg in configs.values()
    ])
    rows = []
    for name in names:
        for (hashes, counters), cfg in configs.items():
            result = runner.run(cfg.name, name, l1d=cfg)
            tests = result.l1d.cbf_tests
            rows.append({
                "workload": name,
                "cbf_hashes": hashes,
                "cbf_counters": counters,
                "fp_per_search": (result.l1d.cbf_false_positives / tests
                                  if tests else 0.0),
                "ipc": result.ipc,
            })
    return rows


# ======================================================================
def dnn_sweep(
    runner: Runner,
    configs: Optional[List[str]] = None,
    workloads: Optional[List[str]] = None,
):
    """DNN-suite sweep: the config ladder on the deep-learning workload
    family (no paper counterpart -- FUSE never evaluated tensor
    traffic; DeepNVM++ and Roy et al. motivate the scenario).

    Returns one row per DNN workload with per-config IPC normalized to
    the first config, plus miss rate and bypass ratio for the last
    config (the interesting FUSE datapoint), and a GMEANS row.
    """
    from repro.workloads.dnn import DNN_SUITE

    configs = list(configs or ["L1-SRAM", "By-NVM", "Hybrid", "Dy-FUSE"])
    names = list(workloads or DNN_SUITE)
    runner.prefetch([(config, name) for name in names for config in configs])
    rows = []
    norms: Dict[str, List[float]] = {c: [] for c in configs}
    for name in names:
        row = {"workload": name}
        base = None
        for config in configs:
            result = runner.run(config, name)
            if base is None:
                base = result.ipc or 1.0
            norm = result.ipc / base
            row[config] = norm
            norms[config].append(norm)
        # `result` is configs[-1]'s: the interesting FUSE datapoint
        row["miss_rate"] = result.l1d_miss_rate
        row["bypass"] = result.l1d.bypass_ratio
        rows.append(row)
    gmean_row = {"workload": "GMEANS", "miss_rate": "", "bypass": ""}
    for config in configs:
        gmean_row[config] = gmean(norms[config])
    rows.append(gmean_row)
    return rows


# ======================================================================
def table2_apki(runner: Runner, workloads: Optional[List[str]] = None):
    """Table II: measured APKI and By-NVM bypass ratio vs the paper."""
    names = list(workloads or ALL_WORKLOADS)
    runner.prefetch([("By-NVM", name) for name in names])
    rows = []
    for name in names:
        cls = benchmark_class(name)
        result = runner.run("By-NVM", name)
        rows.append({
            "workload": name,
            "suite": cls.suite,
            "apki_measured": result.apki,
            "apki_paper": cls.apki_paper,
            "bypass_measured": result.l1d.bypass_ratio,
            "bypass_paper": cls.bypass_paper,
        })
    return rows
