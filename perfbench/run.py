"""End-to-end and per-layer benchmark of the FUSE reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig13-sweep --seed 1 \
        --seconds 20 --trace 0

Workloads (``perfbench/METRICS.md`` has the why of each, and every
metric's unit, direction and the layers expected to move it):

* ``fig13-sweep``   -- the Figure 13 matrix through the in-process
  ``ExperimentEngine`` with a 2-process pool;
* ``smoke-service`` -- every config x every workload at smoke scale,
  one job to a local ``repro serve`` (2 pool processes);
* ``smoke-fleet``   -- the same job via ``repro serve --remote`` and
  2 ``repro worker`` processes.

A run first computes the serial ``execute_spec`` reference of every
spec (untimed), then repeats the workload -- cold phase on an empty
store, and on the ``smoke-*`` workloads warm phases on the filled one
-- until ``--seconds`` are used, while the host-speed sampler of
``hostspeed.py`` runs beside them.  Every result payload of every phase must equal the reference byte for
byte; a mismatch makes the run exit 1.  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics instead.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import pathlib
import shutil
import statistics
import sys
import tempfile
import time

from hostspeed import PROBE_REF_S, SpeedSampler
from procs import clean_environ

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"

#: published numbers the modelled metrics are set against (FUSE,
#: HPCA 2019: 217% more performance, 32% fewer off-chip references)
PAPER_SPEEDUP = 3.17
PAPER_OFFCHIP_CUT = 0.32

FIG13_CONFIGS = ["L1-SRAM", "By-NVM", "FA-SRAM", "Dy-FUSE"]
FIG13_WORKLOADS = ["SS", "2DCONV", "ATAX", "GEMM", "SYR2K"]
#: SMs of the fig13 matrix (the paper machine has 15; 2 keeps a cold
#: sweep near 2 s on two CPUs, so a run holds about ten of them)
FIG13_SMS = 2
SMOKE_SMS = 2
#: pool width and fleet size (the benchmark host has two CPUs)
WIDTH = 2

WORKLOADS = ("fig13-sweep", "smoke-service", "smoke-fleet")

#: end-to-end metrics in the result line (the ones a change is gated on)
END_TO_END = [
    ("setup_s", "s"),
    ("sweep_cold_s", "s"),
    ("run_latency_p90_s", "s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("l1d_accesses_per_s", "accesses/s"),
    ("peak_rss_mb", "MB"),
    ("dyfuse_speedup", "x"),
    ("dyfuse_offchip_cut", "fraction"),
]
#: printed but not gated.  A warm sweep (``smoke-*`` only) takes some
#: tens of ms of mostly single-threaded work, which the host's speed
#: moves by more than a sampler mean over the repetition divides out.
#: The median run's settle time depends on the seed's
#: dispatch order (trace keys sort the pool's work) more than on the
#: code.  The error rate is zero on a correct program (failures are
#: the result line's ``failed`` count and the exit code).
REPORTED_ONLY = [("sweep_warm_s", "s"), ("run_latency_p50_s", "s"),
                 ("error_rate", "fraction")]
#: configs whose cache metrics are reported one by one
PER_CONFIG = FIG13_CONFIGS
PER_CONFIG_METRICS = [
    ("access_calls", "count"), ("access_s", "s"), ("us_per_access", "us"),
    ("fill_calls", "count"), ("fill_s", "s"), ("retry_ratio", "ratio"),
]
PER_LAYER = [
    ("workloads.pack_s", "s"), ("workloads.packs", "count"),
    ("workloads.self_s", "s"),
    ("gpu.run_s", "s"), ("gpu.self_s", "s"),
    ("gpu.py_calls_per_access", "calls"), ("gpu.sim_cycles", "cycles"),
    ("cache.access_calls", "count"), ("cache.access_s", "s"),
    ("cache.us_per_access", "us"), ("cache.fill_calls", "count"),
    ("cache.fill_s", "s"), ("cache.retry_ratio", "ratio"),
    ("cache.self_s", "s"),
] + [
    (f"cache.{name}.{config}", unit)
    for config in PER_CONFIG for name, unit in PER_CONFIG_METRICS
] + [
    ("memory.read_calls", "count"), ("memory.read_s", "s"),
    ("memory.writeback_calls", "count"), ("memory.writeback_s", "s"),
    ("memory.self_s", "s"),
    ("energy.compute_s", "s"), ("energy.self_s", "s"),
    ("engine.execute_s", "s"), ("engine.dispatch_s", "s"),
    ("engine.store_put_calls", "count"), ("engine.store_put_s", "s"),
    ("engine.store_get_calls", "count"), ("engine.store_get_s", "s"),
    ("engine.store_hit_ratio", "ratio"), ("engine.store_load_s", "s"),
    ("engine.self_s", "s"),
    ("service.submit_s", "s"), ("service.lease_calls", "count"),
    ("service.lease_s", "s"), ("service.lease_empty_ratio", "ratio"),
    ("service.settle_calls", "count"), ("service.settle_s", "s"),
    ("service.worker_idle_s", "s"), ("service.overhead_s", "s"),
    ("service.self_s", "s"),
    ("trace.wall_s", "s"), ("trace.setup_wall_s", "s"),
    ("trace.capacity_s", "s"),
    ("unattributed_s", "s"), ("trace_overhead", "ratio"),
]
#: metrics where a larger value is better (every other one: smaller)
HIGHER_IS_BETTER = {
    "sim_cycles_per_s", "l1d_accesses_per_s", "dyfuse_speedup",
    "dyfuse_offchip_cut", "engine.store_hit_ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="trace seed of every run in the matrix")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring budget; repetitions stop when the "
                             "next one would overrun it (at least two)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced repetitions")
    return parser.parse_args(argv)


def build_matrix(workload: str, seed: int):
    from sweeps import Matrix

    if workload == "fig13-sweep":
        return Matrix(FIG13_CONFIGS, FIG13_WORKLOADS, "test", FIG13_SMS,
                      seed, WIDTH)
    from repro.core.factory import known_configs
    from repro.workloads.registry import REGISTRY, ensure_builtin_workloads

    ensure_builtin_workloads()
    return Matrix(list(known_configs()), REGISTRY.names(), "smoke",
                  SMOKE_SMS, seed, WIDTH)


def run_rep(workload, matrix, work, traced):
    import sweeps
    import layers

    if traced:
        layers.install()
    try:
        if workload == "fig13-sweep":
            return sweeps.engine_rep(matrix, work, traced)
        return sweeps.service_rep(matrix, work, traced,
                                   fleet=workload == "smoke-fleet")
    finally:
        layers.uninstall()


def run_reps(workload, matrix, work_root, seconds, trace):
    """Repeat until the budget would be overrun by one more repetition,
    at least twice (a repetition may take half the budget).  Traced
    runs alternate untraced and traced repetitions.  Each repetition
    carries the host-speed sampler's mean burst time over its span."""
    reps, windows = [], []
    started = time.monotonic()
    with SpeedSampler(work_root / "hostspeed.txt") as sampler:
        while True:
            traced = bool(trace) and len(reps) % 2 == 1
            work = work_root / f"rep{len(reps)}"
            work.mkdir()
            began = time.monotonic()
            reps.append(run_rep(workload, matrix, work, traced))
            windows.append((began, time.monotonic()))
            shutil.rmtree(work)
            projected = time.monotonic() - started + statistics.median(
                end - begin for begin, end in windows)
            if len(reps) >= 2 and projected > seconds:
                break
    for rep, window in zip(reps, windows):
        rep.probe_s = sampler.probe(*window)
    return reps


# ----------------------------------------------------------------------
def check_outputs(reps, reference):
    """(attempted, failed, notes): every phase's payloads vs the
    reference; a missing, failed or differing run counts as failed."""
    attempted = failed = 0
    notes = []
    for index, rep in enumerate(reps):
        for phase, payloads in rep.payloads:
            for key, row in reference.items():
                attempted += 1
                if payloads.get(key) != row["payload"]:
                    failed += 1
                    notes.append(f"rep {index} {phase}: {row['config']} x "
                                 f"{row['workload']} differs from the "
                                 "serial execute_spec reference")
    return attempted, failed, notes


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def modelled(reference):
    """Simulated Figure 13 headline numbers from the reference runs."""
    rows = {(row["config"], row["workload"]): row
            for row in reference.values()}
    workloads = sorted({workload for _, workload in rows})
    ratios = [
        (rows["Dy-FUSE", w]["instructions"] / rows["Dy-FUSE", w]["cycles"])
        / (rows["L1-SRAM", w]["instructions"] / rows["L1-SRAM", w]["cycles"])
        for w in workloads
    ]
    speedup = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    offchip = {
        config: sum(rows[config, w]["offchip"] for w in workloads)
        for config in ("Dy-FUSE", "L1-SRAM")
    }
    return speedup, 1.0 - offchip["Dy-FUSE"] / offchip["L1-SRAM"]


def normalised(rep, seconds):
    """*seconds* measured in *rep*, at the host speed of the reference
    burst time (see ``hostspeed.py``)."""
    return seconds * PROBE_REF_S / rep.probe_s


def end_to_end(reps, reference):
    """End-to-end metrics of the untraced repetitions.

    Every host time is normalised by the sampler over its repetition
    (:func:`normalised`), then the median is taken over the run's
    repetitions (over every set-up, for set-up time).  The rates divide
    the simulated totals by the normalised cold sweep time.
    """
    untraced = [rep for rep in reps if not rep.traced]
    cold = statistics.median(normalised(rep, rep.cold_s) for rep in untraced)
    cycles = sum(row["cycles"] for row in reference.values())
    accesses = sum(row["l1d_accesses"] for row in reference.values())
    speedup, cut = modelled(reference)
    out = {
        "setup_s": statistics.median(
            normalised(rep, s) for rep in untraced for s in rep.setup_s),
        "sweep_cold_s": cold,
        "run_latency_p50_s": statistics.median(
            normalised(rep, percentile(rep.latencies, 50))
            for rep in untraced),
        "run_latency_p90_s": statistics.median(
            normalised(rep, percentile(rep.latencies, 90))
            for rep in untraced),
        "sim_cycles_per_s": cycles / cold,
        "l1d_accesses_per_s": accesses / cold,
        "peak_rss_mb": statistics.median(rep.peak_rss_mb for rep in untraced),
        "dyfuse_speedup": speedup,
        "dyfuse_offchip_cut": cut,
    }
    warm = [normalised(rep, s) for rep in untraced for s in rep.warm_s]
    if warm:  # the smoke-* workloads only
        out["sweep_warm_s"] = statistics.median(warm)
    return out


# ----------------------------------------------------------------------
def layer_metrics(rep, reference):
    """Per-layer metrics of one traced repetition (sums over phases)."""
    import layers

    phases = [phase for phase in rep.phases if phase.spans is not None]
    merged = layers.merge(phase.spans for phase in phases)
    spans, counts = merged["spans"], merged["counts"]

    def calls(name, source=spans):
        return source.get(name, [0, 0.0, 0.0])[0]

    def total(name, source=spans):
        return source.get(name, [0, 0.0, 0.0])[1]

    def ratio(part, whole):
        return part / whole if whole else 0.0

    out = {
        "workloads.pack_s": total("workloads.pack"),
        "workloads.packs": counts.get("workloads.packs", 0),
        "gpu.run_s": total("gpu.run"),
        "gpu.sim_cycles": sum(row["cycles"] for row in reference.values()),
        "gpu.py_calls_per_access": ratio(
            sum(row["py_calls"] for row in reference.values()),
            sum(row["l1d_accesses"] for row in reference.values())),
        "cache.access_calls": calls("cache.access"),
        "cache.access_s": total("cache.access"),
        "cache.us_per_access": 1e6 * ratio(total("cache.access"),
                                           calls("cache.access")),
        "cache.fill_calls": calls("cache.fill"),
        "cache.fill_s": total("cache.fill"),
        "cache.retry_ratio": ratio(counts.get("cache.reservation_fail", 0),
                                   calls("cache.access")),
        "memory.read_calls": calls("memory.read"),
        "memory.read_s": total("memory.read"),
        "memory.writeback_calls": calls("memory.writeback"),
        "memory.writeback_s": total("memory.writeback"),
        "energy.compute_s": total("energy.compute"),
        "engine.execute_s": total("engine.execute"),
        "engine.store_put_calls": calls("engine.store_put"),
        "engine.store_put_s": total("engine.store_put"),
        "engine.store_get_calls": calls("engine.store_get"),
        "engine.store_get_s": total("engine.store_get"),
        "engine.store_hit_ratio": ratio(counts.get("engine.store_hits", 0),
                                        calls("engine.store_get")),
        "engine.store_load_s": total("engine.store_load"),
        "service.submit_s": total("service.submit"),
        "service.lease_calls": calls("service.lease"),
        "service.lease_s": total("service.lease"),
        "service.lease_empty_ratio": ratio(
            counts.get("service.lease_empty", 0), calls("service.lease")),
        "service.settle_calls": calls("service.settle"),
        "service.settle_s": total("service.settle"),
        "service.worker_idle_s": merged["worker_idle_s"],
    }
    for config in PER_CONFIG:
        values = merged["per_config"].get(config, {})
        access_calls = values.get("access_calls", 0)
        out.update({
            f"cache.access_calls.{config}": access_calls,
            f"cache.access_s.{config}": values.get("access_s", 0.0),
            f"cache.us_per_access.{config}": 1e6 * ratio(
                values.get("access_s", 0.0), access_calls),
            f"cache.fill_calls.{config}": values.get("fill_calls", 0),
            f"cache.fill_s.{config}": values.get("fill_s", 0.0),
            f"cache.retry_ratio.{config}": ratio(
                values.get("reservation_fail", 0), access_calls),
        })

    # attribution: a phase that runs simulations on W processes offers
    # wall x W seconds; there the coordinator's run_specs self time is
    # waiting on the pool and is left out, elsewhere every span counts
    self_by_layer = dict.fromkeys(layers.LAYERS, 0.0)
    dispatch = overhead = wall = capacity = 0.0
    service_path = any(name.startswith("service.") for name in spans)
    for phase in rep.phases:
        wall += phase.wall_s
        capacity += phase.wall_s * phase.slots
        if phase.spans is None:
            continue
        executes = phase.slots > 1
        phase_spans = phase.spans["spans"]
        for name, (_, _, self_s) in phase_spans.items():
            if executes and name == "engine.run_specs":
                continue
            self_by_layer[layers.LAYER_OF[name]] += self_s
        executed = total("engine.execute", phase_spans)
        if calls("engine.run_specs", phase_spans):
            dispatch += (total("engine.run_specs", phase_spans)
                         * phase.slots - executed)
        if service_path and not phase.name.startswith("setup"):
            overhead += phase.wall_s * phase.slots - executed
    for layer, value in self_by_layer.items():
        out[f"{layer}.self_s"] = value
    out["engine.dispatch_s"] = dispatch
    out["service.overhead_s"] = overhead
    out["trace.wall_s"] = wall
    out["trace.setup_wall_s"] = sum(
        phase.wall_s for phase in rep.phases
        if phase.name.startswith("setup"))
    out["trace.capacity_s"] = capacity
    out["unattributed_s"] = capacity - sum(self_by_layer.values())
    return out


def per_layer(reps, reference):
    traced = [rep for rep in reps if rep.traced]
    rows = [layer_metrics(rep, reference) for rep in traced]
    out = {name: statistics.fmean(row[name] for row in rows)
           for name in rows[0]}
    untraced_cold = min(rep.cold_s for rep in reps if not rep.traced)
    traced_cold = min(rep.cold_s for rep in traced)
    out["trace_overhead"] = traced_cold / untraced_cold - 1.0
    return out


# ----------------------------------------------------------------------
def print_report(args, matrix, reps, reference, e2e, layer, attempted,
                 failed, notes):
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from bench_throughput import describe_host, host_metadata

    import layers

    untraced = [rep for rep in reps if not rep.traced]
    print(f"== perfbench {args.workload}  seed {args.seed}  "
          f"budget {args.seconds:g}s  trace {args.trace}")
    print(f"stamp: trace seed {args.seed}; pool width {WIDTH}; fleet width "
          f"{WIDTH}; matrix {len(matrix.configs)} configs x "
          f"{len(matrix.workloads)} workloads = {len(matrix.specs)} runs at "
          f"{matrix.scale} scale, {matrix.num_sms} SMs")
    print("host: " + describe_host(host_metadata()))
    print("host_metadata: " + json.dumps(host_metadata(), sort_keys=True))
    print(f"repetitions: {len(untraced)} untraced, "
          f"{len(reps) - len(untraced)} traced; each closed-loop from one "
          "client")
    print("\nend-to-end (untraced repetitions, medians; host time unless "
          f"simulated, normalised to a {PROBE_REF_S * 1e3:g} ms host-speed "
          "burst)")
    units = dict(END_TO_END + REPORTED_ONLY)
    for name, value in e2e.items():
        print(f"  {name:<22} {value:>16.6g} {units[name]}")
    runs = len(untraced[0].latencies)
    print(f"  samples: setup {sum(len(r.setup_s) for r in untraced)}, cold "
          f"{len(untraced)}, warm {sum(len(r.warm_s) for r in untraced)}; "
          f"{runs} run latencies per cold phase, "
          f"{runs - math.ceil(0.9 * runs)} beyond p90")
    print(f"  unnormalised medians: setup "
          f"{statistics.median(s for r in untraced for s in r.setup_s):.6g} s"
          f", cold {statistics.median(r.cold_s for r in untraced):.6g} s, "
          "p90 "
          f"{statistics.median(percentile(r.latencies, 90) for r in untraced):.6g}"
          f" s; burst {statistics.median(r.probe_s for r in reps) * 1e3:.4g}"
          f" ms (min {min(r.probe_s for r in reps) * 1e3:.4g}, max "
          f"{max(r.probe_s for r in reps) * 1e3:.4g})")
    error_rate = failed / attempted if attempted else 0.0
    print(f"  {'error_rate':<22} {error_rate:>16.6g} fraction "
          f"({failed} of {attempted} run payloads)")
    for note in notes[:20]:
        print(f"  MISMATCH {note}")

    print("\nmodelled vs paper (simulated; informational, not a bound)")
    print(f"  dyfuse_speedup      {e2e['dyfuse_speedup']:.4f}x  paper "
          f"{PAPER_SPEEDUP:.2f}x  abs error "
          f"{abs(e2e['dyfuse_speedup'] - PAPER_SPEEDUP):.4f}")
    print(f"  dyfuse_offchip_cut  {e2e['dyfuse_offchip_cut']:.4f}   paper "
          f"{PAPER_OFFCHIP_CUT:.2f}   abs error "
          f"{abs(e2e['dyfuse_offchip_cut'] - PAPER_OFFCHIP_CUT):.4f}")
    print("  modelled caches start empty (no warm-up); the model is not "
          f"validated at {matrix.scale} scale with {matrix.num_sms} SMs")

    if layer is None:
        return
    print("\nper layer (mean over traced repetitions; gpu.py_calls_per_access "
          "and gpu.sim_cycles from the counting pass)")
    for name, unit in PER_LAYER:
        print(f"  {name:<34} {layer[name]:>16.6g} {unit}")
    print("\nattribution (self seconds; capacity = sum of phase wall x "
          "executing processes)")
    total_self = 0.0
    for layer_name in layers.LAYERS:
        value = layer[f"{layer_name}.self_s"]
        total_self += value
        share = value / layer["trace.capacity_s"]
        print(f"  {layer_name:<12} {value:>12.4f} s  {share:6.1%}")
    print(f"  {'unattributed':<12} {layer['unattributed_s']:>12.4f} s  "
          f"{layer['unattributed_s'] / layer['trace.capacity_s']:6.1%}")
    print(f"  {'capacity':<12} {layer['trace.capacity_s']:>12.4f} s  = "
          f"{total_self:.4f} attributed + {layer['unattributed_s']:.4f} "
          f"unattributed (traced wall {layer['trace.wall_s']:.4f} s, of "
          f"which set-up {layer['trace.setup_wall_s']:.4f} s)")
    print(f"  trace_overhead {layer['trace_overhead']:+.2%} "
          "(traced / untraced cold sweep - 1)")
    counted = sum(row["access_calls"] for row in reference.values())
    verdict = ("equal" if counted == layer["cache.access_calls"]
               else "DIFFERENT")
    print(f"  cache.access_calls: timing pass {layer['cache.access_calls']:.0f}"
          f", counting pass {counted} ({verdict})")
    print("\nnoise-free counts per (config, workload) from the counting pass")
    print(f"  {'config':<10} {'workload':<10} {'sim_cycles':>10} "
          f"{'access_calls':>12} {'py_calls/access':>15}")
    for row in sorted(reference.values(),
                      key=lambda r: (r["workload"], r["config"])):
        print(f"  {row['config']:<10} {row['workload']:<10} "
              f"{row['cycles']:>10} {row['access_calls']:>12} "
              f"{row['py_calls'] / max(1, row['l1d_accesses']):>15.3f}")


def main(argv=None) -> int:
    args = parse_args(argv)
    # every path measures the default configuration: no inherited
    # knobs (backend, spans, arena dir) in this process, its pool
    # children or the processes it launches
    clean_environ()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from reference import reference as compute_reference

    WORK_ROOT.mkdir(exist_ok=True)
    work_root = pathlib.Path(tempfile.mkdtemp(
        prefix=f"{args.workload}-{args.seed}-", dir=WORK_ROOT))
    os.environ["TMPDIR"] = str(work_root)
    tempfile.tempdir = str(work_root)
    try:
        matrix = build_matrix(args.workload, args.seed)
        reference = compute_reference(matrix.specs, count=bool(args.trace))
        reps = run_reps(args.workload, matrix, work_root, args.seconds,
                        args.trace)
        attempted, failed, notes = check_outputs(reps, reference)
        e2e = end_to_end(reps, reference)
        layer = per_layer(reps, reference) if args.trace else None
        print_report(args, matrix, reps, reference, e2e, layer, attempted,
                     failed, notes)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it
    chosen = PER_LAYER if args.trace else END_TO_END
    values = layer if args.trace else e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in chosen},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
