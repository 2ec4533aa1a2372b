"""Simulation-kernel throughput benchmark.

Unlike the ``bench_fig*`` family (which reproduce paper artifacts and
lean on the result store), this target measures the *simulator itself*:
wall-clock simulated-cycles/sec and L1D-transactions/sec for a set of
(config, workload) pairs, always running fresh simulations.  It exists
so hot-path regressions show up as a tracked number instead of as a
vague "sweeps feel slower".

Each pair also reports the **trace-generation vs. simulation split**:
the first repeat compiles the workload's packed trace arena
(:mod:`repro.workloads.arena`); later repeats replay it warm, so the
best-of-N time is pure simulation.  ``trace_gen_seconds`` is the
one-time pack cost, sourced from the arena cache's own accounting.

Run directly::

    PYTHONPATH=src python benchmarks/bench_throughput.py              # full
    PYTHONPATH=src python benchmarks/bench_throughput.py --smoke      # CI
    PYTHONPATH=src python benchmarks/bench_throughput.py --json out.json

Each pair also reports ``py_calls_per_access``: the Python calls made
inside ``GPUSimulator.run`` per L1D access
(:mod:`repro.telemetry.callcount`), counted in one extra, untimed run
after the timed repeats.  The count is deterministic for a given
interpreter, so it is gated exactly.

Regression gating (see ``docs/performance.md``)::

    # record a baseline after a deliberate perf change
    PYTHONPATH=src python benchmarks/bench_throughput.py --smoke --repeats 5 \
        --json benchmarks/results/throughput_baseline.json
    # fail (exit 1) when any pair's cycles/sec regresses >30% against it,
    # or its py_calls_per_access exceeds the baseline's at all; refuse
    # (exit 2) a --repeats other than the baseline's
    PYTHONPATH=src python benchmarks/bench_throughput.py --smoke --repeats 5 \
        --check benchmarks/results/throughput_baseline.json

Calls per access differ between interpreter versions, so compare only
against a baseline recorded on the same Python (the report's ``python``
field; CI runs the gate on 3.11).

The headline pair is ``Dy-FUSE x SS`` (the paper's preferred config on
an interleaved compute/memory stream), which exercises every hot layer
at once: LSU transaction batching, the CBF-approximated 512-way STT
search, swap-buffer/tag-queue traffic and the off-chip read path.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time
from typing import List, Optional

from repro.engine.spec import RunSpec, execute_spec
from repro.telemetry.callcount import profile_run
from repro.workloads.arena import arena_cache_stats, reset_arena_cache

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: measured (config, workload) pairs; the first is the headline hot
#: path.  A third element runs that pair on its own SM count instead of
#: the report's.
FULL_PAIRS = [
    ("Dy-FUSE", "SS"),
    ("Dy-FUSE", "2DCONV"),
    ("FA-FUSE", "SS"),
    ("Hybrid", "PVC"),
    ("By-NVM", "ATAX"),
    ("L1-SRAM", "2DCONV"),
]
SMOKE_PAIRS = [
    ("Dy-FUSE", "SS"),
    ("L1-SRAM", "2DCONV"),
    ("Base-FUSE", "ATAX"),
    # the paper's 15-SM machine, where retry storms cost the most
    ("Base-FUSE", "ATAX", 15),
]


def host_metadata() -> dict:
    """Where this report was measured: interpreter, machine and the
    ``REPRO_*`` environment in effect.

    Stamped into every report so a ``--check`` mismatch can say *why*
    two numbers might legitimately differ (different interpreter,
    different core count, a ``REPRO_*`` knob flipped) before anyone
    chases a phantom regression.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "repro_env": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.startswith("REPRO_")
        },
    }


def describe_host(host: dict) -> str:
    """One-line rendering of a host stamp (old reports may lack one)."""
    if not host:
        return "(no host metadata recorded)"
    env = ",".join(
        f"{key}={value}" for key, value in host.get("repro_env", {}).items()
    )
    return (
        f"{host.get('implementation', '?')} {host.get('python', '?')} on "
        f"{host.get('platform', '?')} ({host.get('cpu_count', '?')} cpus"
        + (f"; {env}" if env else "")
        + ")"
    )


def measure_pair(
    config: str,
    workload: str,
    scale: str,
    num_sms: int,
    repeats: int,
    seed: int = 0,
) -> dict:
    """Run one pair *repeats* times; keep the best (lowest-noise) time.

    The arena cache is reset first, so the pair's first repeat pays the
    trace pack exactly once and the kept best-of-N time reflects the
    warm (simulation-only) path -- the steady state of a config sweep.
    """
    spec = RunSpec.build(
        config, workload, gpu_profile="fermi", scale=scale,
        seed=seed, num_sms=num_sms,
    )
    reset_arena_cache()
    before = arena_cache_stats()
    best: Optional[float] = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = execute_spec(spec)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    after = arena_cache_stats()
    # the noise-free proxy, counted once the pair's caches are warm
    _, calls = profile_run(lambda: execute_spec(spec))
    transactions = result.load_transactions + result.store_transactions
    return {
        "config": config,
        "workload": workload,
        "scale": scale,
        "num_sms": num_sms,
        "repeats": repeats,
        "simulated_cycles": result.cycles,
        "instructions": result.instructions,
        "transactions": transactions,
        "l1d_accesses": result.l1d.accesses,
        "wall_seconds": best,
        "trace_gen_seconds": after["pack_seconds"] - before["pack_seconds"],
        "trace_packs": after["packs"] - before["packs"],
        "cycles_per_sec": result.cycles / best if best else 0.0,
        "transactions_per_sec": transactions / best if best else 0.0,
        "py_calls": calls.calls,
        "py_calls_per_access": calls.calls_per_access,
    }


def run_benchmark(scale: str, num_sms: int, repeats: int, pairs) -> dict:
    rows: List[dict] = []
    for config, workload, *pair_sms in pairs:
        sms = pair_sms[0] if pair_sms else num_sms
        row = measure_pair(config, workload, scale, sms, repeats)
        rows.append(row)
        print(
            f"{config:>9} x {workload:<8} {sms:>2} SMs "
            f"{row['simulated_cycles']:>9,} cyc "
            f"in {row['wall_seconds']:6.2f}s  -> "
            f"{row['cycles_per_sec']:>10,.0f} cyc/s  "
            f"{row['transactions_per_sec']:>9,.0f} txn/s  "
            f"{row['py_calls_per_access']:6.2f} calls/access  "
            f"(trace-gen {row['trace_gen_seconds']:5.2f}s, "
            f"{row['trace_packs']} pack)",
            flush=True,
        )
    return {
        "python": platform.python_version(),
        "host": host_metadata(),
        "scale": scale,
        "num_sms": num_sms,
        "repeats": repeats,
        "rows": rows,
    }


def _pair_key(row: dict, num_sms: Optional[int]) -> tuple:
    """A row's pair: config, workload and SM count (the report's when
    the row predates per-row SM counts)."""
    return row["config"], row["workload"], row.get("num_sms", num_sms)


def _pair_name(key: tuple) -> str:
    config, workload, sms = key
    return f"{config:>9} x {workload:<8} {sms:>2} SMs"


def check_against_baseline(
    report: dict, baseline_path: pathlib.Path, tolerance: float
) -> int:
    """Compare each pair against a recorded baseline.

    Returns the number of regressed pairs.  A pair regresses when its
    cycles/sec falls below ``old * (1 - tolerance)`` (wall-clock, so
    with a tolerance for host noise), or when its
    ``py_calls_per_access`` exceeds the baseline's by any amount (a
    deterministic count, gated exactly; skipped when the baseline
    predates it).  A pair is a config, a workload and an SM count.
    Pairs absent from the baseline, and baseline pairs not measured
    now, are reported but never fail the check.
    Improvements always pass.  When anything regresses, both host
    stamps are printed so interpreter/machine/env drift is the first
    hypothesis on the table, not the last.
    """
    baseline = json.loads(baseline_path.read_text())
    if (baseline.get("scale"), baseline.get("num_sms")) != (
        report["scale"], report["num_sms"]
    ):
        print(
            f"warning: baseline recorded at scale={baseline.get('scale')} "
            f"sms={baseline.get('num_sms')}, comparing against "
            f"scale={report['scale']} sms={report['num_sms']}",
            file=sys.stderr,
        )
    old_rows = {
        _pair_key(row, baseline.get("num_sms")): row
        for row in baseline.get("rows", [])
    }
    regressed = 0
    for row in report["rows"]:
        key = _pair_key(row, report["num_sms"])
        old = old_rows.pop(key, None)
        if old is None:
            print(f"note: {_pair_name(key)} has no baseline entry")
            continue
        floor = old["cycles_per_sec"] * (1.0 - tolerance)
        ratio = (
            row["cycles_per_sec"] / old["cycles_per_sec"]
            if old["cycles_per_sec"] else float("inf")
        )
        status = "ok" if row["cycles_per_sec"] >= floor else "REGRESSED"
        print(
            f"baseline check: {_pair_name(key)} "
            f"{old['cycles_per_sec']:>10,.0f} -> "
            f"{row['cycles_per_sec']:>10,.0f} cyc/s "
            f"({ratio:5.2f}x)  {status}"
        )
        old_calls = old.get("py_calls_per_access")
        if old_calls is not None:
            calls_status = (
                "ok" if row["py_calls_per_access"] <= old_calls
                else "REGRESSED"
            )
            print(
                f"baseline check: {_pair_name(key)} "
                f"{old_calls:>10.3f} -> {row['py_calls_per_access']:>10.3f} "
                f"calls/access (exact)  {calls_status}"
            )
            if calls_status == "REGRESSED":
                status = "REGRESSED"
        if status == "REGRESSED":
            regressed += 1
    for key in old_rows:
        print(f"note: baseline pair {_pair_name(key)} not measured")
    if regressed:
        print(
            "host now:      " + describe_host(report.get("host", {})),
            file=sys.stderr,
        )
        print(
            "host baseline: " + describe_host(baseline.get("host", {})),
            file=sys.stderr,
        )
    return regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", default="bench", choices=("smoke", "test", "bench"),
        help="trace scale preset (default bench)",
    )
    parser.add_argument(
        "--sms", type=int, default=4, help="SMs to simulate (default 4)",
    )
    parser.add_argument(
        "--repeats", type=int, default=2,
        help="timed repetitions per pair, best kept (default 2; >= 2 "
             "makes the kept time warm-arena, i.e. simulation-only)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI preset: smoke scale, 2 SMs (one pair on 15), reduced "
             "pair list",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the report as JSON to PATH",
    )
    parser.add_argument(
        "--check", metavar="BASELINE", default=None,
        help="compare against a recorded baseline JSON; exit 1 when any "
             "pair's cycles/sec regresses more than --tolerance or its "
             "py_calls_per_access exceeds the baseline's, exit 2 when "
             "--repeats differs from the baseline's",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed fractional cycles/sec regression for --check "
             "(default 0.30, absorbing machine noise; see "
             "docs/performance.md)",
    )
    args = parser.parse_args(argv)

    if args.check:
        # best-of-N wall-clock is comparable only at the baseline's N:
        # a single repeat keeps a time that paid the arena warm-up
        recorded = json.loads(pathlib.Path(args.check).read_text()).get(
            "repeats")
        if recorded is not None and recorded != args.repeats:
            print(
                f"error: {args.check} was recorded with --repeats "
                f"{recorded}; this run asks for --repeats {args.repeats}. "
                f"Check with --repeats {recorded}.",
                file=sys.stderr,
            )
            return 2

    if args.smoke:
        scale, num_sms, pairs = "smoke", 2, SMOKE_PAIRS
    else:
        scale, num_sms, pairs = args.scale, args.sms, FULL_PAIRS

    report = run_benchmark(scale, num_sms, args.repeats, pairs)

    headline = report["rows"][0]
    trace_gen = sum(row["trace_gen_seconds"] for row in report["rows"])
    print(
        f"\nheadline ({headline['config']} x {headline['workload']}): "
        f"{headline['cycles_per_sec']:,.0f} simulated-cycles/sec, "
        f"{headline['transactions_per_sec']:,.0f} transactions/sec\n"
        f"trace generation: {trace_gen:.2f}s total across "
        f"{sum(row['trace_packs'] for row in report['rows'])} packs "
        "(paid once per trace; warm repeats simulate only)"
    )
    if args.json:
        path = pathlib.Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    if args.check:
        regressed = check_against_baseline(
            report, pathlib.Path(args.check), args.tolerance
        )
        if regressed:
            print(
                f"FAIL: {regressed} pair(s) regressed against "
                f"{args.check} (cycles/sec beyond {args.tolerance:.0%}, "
                "or calls per access above the baseline)",
                file=sys.stderr,
            )
            return 1
        print(f"baseline check passed (cycles/sec tolerance "
              f"{args.tolerance:.0%}, calls per access exact)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
