"""Command-line interface: ``python -m repro <command>`` (or ``repro``).

Thirteen commands cover the workflows a downstream user reaches for
first:

* ``list``    -- show the available L1D configurations and every
  registered workload (Table II, the DNN suite, user registrations).
* ``run``     -- simulate one (configuration, workload) pair and print
  the headline metrics.
* ``compare`` -- run several configurations on one workload and print a
  normalized comparison table (a one-workload slice of Figure 13).
* ``sweep``   -- run a configs x workloads matrix through the parallel
  experiment engine, backed by the persistent result store: the first
  invocation fans out across worker processes, repeats complete from
  disk with zero fresh simulations.  ``--workloads`` accepts workload
  names, suite names (e.g. ``DNN``) and ``all``.  ``--profile`` pipes
  the sweep through :mod:`cProfile` (serial, store bypassed) so hot-path
  regressions are diagnosable from the CLI.
* ``profile`` -- simulate one pair under :mod:`cProfile` and print the
  top entries plus simulated-cycles/sec (the simulator's own speed, not
  the model's), Python calls per L1D access and the run's self time by
  package.
* ``serve``   -- run the HTTP job service (``docs/service-api.md``):
  sweeps over the wire, single-flight dedup, results served from the
  store.  ``--remote`` turns it into a lease-granting scheduler that
  dispatches runs to pulling workers (``docs/distributed.md``).
* ``submit``  -- send a sweep to a running service and stream its
  progress to completion (the client side of ``serve``).
* ``worker``  -- pull leased runs from a ``serve --remote`` scheduler,
  execute them locally and settle the outcomes back (the execution
  side of the distributed fabric).
* ``store``   -- operator tooling for the result store: ``info``,
  ``compact``, ``path``.
* ``journal`` -- inspect a coordinator job journal (``repro serve
  --journal``): events by type, skipped lines, and per-job recovery
  state -- what a restart on this journal would do.
* ``metrics`` -- scrape a running service's ``GET /metrics`` exposition
  (optionally grep-filtered, optionally repeating with ``--watch N``)
  without needing curl.
* ``spans``   -- summarise a phase-span log (``REPRO_SPANS``), export
  it as a Chrome ``trace_event`` JSON for Perfetto, or ``spans merge
  <log>... --chrome`` several process' logs (coordinator + workers)
  into one timeline with per-process tracks
  (see ``docs/observability.md``).
* ``top``     -- live refreshing fleet console over a running service:
  queue depth, active jobs with ETAs, per-worker throughput and
  liveness, lease ages (``--once`` for a single snapshot).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from typing import List, Optional

# Each command imports its dependencies inside its ``_cmd_*`` function,
# so ``import repro.cli`` costs only argparse and the standard library
# (ARCHITECTURE.md, "Imports follow the role").

__all__ = [
    "main",
]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FUSE (HPCA 2019) reproduction: heterogeneous "
                    "SRAM/STT-MRAM GPU L1D cache simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list configurations and workloads")

    run = sub.add_parser("run", help="simulate one config on one workload")
    run.add_argument("config", help="L1D configuration name (see 'list')")
    run.add_argument("workload", help="benchmark name (see 'list')")
    _add_machine_args(run)

    compare = sub.add_parser(
        "compare", help="compare configurations on one workload"
    )
    compare.add_argument("workload", help="benchmark name")
    compare.add_argument(
        "--configs",
        default="L1-SRAM,By-NVM,Hybrid,Base-FUSE,FA-FUSE,Dy-FUSE",
        help="comma-separated configuration names",
    )
    _add_machine_args(compare)

    sweep = sub.add_parser(
        "sweep",
        help="run a configs x workloads matrix through the parallel "
             "engine + persistent store",
    )
    sweep.add_argument(
        "--configs",
        default="L1-SRAM,By-NVM,Hybrid,Base-FUSE,FA-FUSE,Dy-FUSE",
        help="comma-separated configuration names",
    )
    sweep.add_argument(
        "--workloads", default="all",
        help="comma-separated workload names, suite names (e.g. DNN), "
             "or 'all' (default: every registered workload)",
    )
    sweep.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: REPRO_WORKERS env or CPU count)",
    )
    sweep.add_argument(
        "--store", default=None,
        help="result-store path (default: REPRO_STORE env or "
             "~/.cache/repro/results.jsonl)",
    )
    sweep.add_argument(
        "--no-store", action="store_true",
        help="disable the persistent store for this sweep",
    )
    sweep.add_argument(
        "--seed", type=int, default=0, help="simulation seed (default 0)",
    )
    sweep.add_argument(
        "--timeline", type=int, default=0, metavar="CYCLES",
        help="sample the in-simulation timeline every CYCLES cycles "
             "(0 = off; sampled runs key separately in the store)",
    )
    sweep.add_argument(
        "--json", action="store_true",
        help="emit results as JSON instead of a table",
    )
    sweep.add_argument(
        "--quiet", action="store_true", help="suppress the progress ticker",
    )
    sweep.add_argument(
        "--profile", action="store_true",
        help="run the sweep serially under cProfile and print the top "
             "entries (forces --workers 1, bypasses the store so every "
             "run is really simulated)",
    )
    _add_profile_args(sweep)
    _add_machine_args(sweep)

    profile = sub.add_parser(
        "profile",
        help="profile one simulation with cProfile (hot-path diagnosis)",
    )
    profile.add_argument("config", help="L1D configuration name (see 'list')")
    profile.add_argument("workload", help="benchmark name (see 'list')")
    _add_profile_args(profile)
    _add_machine_args(profile)

    serve = sub.add_parser(
        "serve",
        help="run the HTTP simulation service (see docs/service-api.md)",
    )
    serve.add_argument(
        "--host", default=None,
        help="bind address (default: REPRO_SERVICE_HOST or 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=None,
        help="TCP port, 0 for ephemeral (default: REPRO_SERVICE_PORT "
             "or 8177)",
    )
    serve.add_argument(
        "--workers", type=int, default=None,
        help="engine worker processes (default: REPRO_WORKERS or CPU "
             "count)",
    )
    serve.add_argument(
        "--queue", type=int, default=None,
        help="max jobs waiting before 429 (default: REPRO_SERVICE_QUEUE "
             "or 32)",
    )
    serve.add_argument(
        "--active", type=int, default=None,
        help="max jobs executing concurrently (default: "
             "REPRO_SERVICE_ACTIVE or 1)",
    )
    serve.add_argument(
        "--store", default=None,
        help="result-store path (default: REPRO_STORE env or "
             "~/.cache/repro/results.jsonl)",
    )
    serve.add_argument(
        "--no-store", action="store_true",
        help="serve without a persistent store (in-memory dedup only)",
    )
    serve.add_argument(
        "--remote", action="store_true",
        help="dispatch runs to pulling `repro worker` processes over "
             "the lease protocol instead of simulating in-process "
             "(also REPRO_SERVICE_REMOTE=1; see docs/distributed.md)",
    )
    serve.add_argument(
        "--journal", default=None, metavar="PATH",
        help="write-ahead job journal: accepted jobs survive "
             "coordinator restarts, replayed against the store on "
             "startup (also REPRO_SERVICE_JOURNAL; see "
             "docs/distributed.md)",
    )

    worker = sub.add_parser(
        "worker",
        help="pull leased runs from a `repro serve --remote` scheduler, "
             "execute them and settle the outcomes back",
    )
    worker.add_argument(
        "--url", default=None,
        help="scheduler base URL (default: REPRO_SERVICE_URL or "
             "http://127.0.0.1:8177)",
    )
    worker.add_argument(
        "--name", default=None,
        help="worker identity shown in lease grants (default host:pid)",
    )
    worker.add_argument(
        "--max-runs", type=int, default=None,
        help="max runs per lease batch (default 8, server clamps to 64)",
    )
    worker.add_argument(
        "--ttl", type=float, default=None,
        help="requested lease TTL in seconds (default 60); a batch's "
             "outcomes settle at its end, or after half the TTL, so it "
             "must outlast twice the slowest run or runs are re-issued",
    )
    worker.add_argument(
        "--poll", type=float, default=0.5, metavar="SECONDS",
        help="longest the coordinator holds an empty lease before the "
             "worker asks again (long poll, capped at 10; default 0.5)",
    )
    worker.add_argument(
        "--once", action="store_true",
        help="exit after the first settled (or empty) lease",
    )
    worker.add_argument(
        "--quiet", action="store_true", help="suppress progress lines",
    )

    submit = sub.add_parser(
        "submit",
        help="submit a sweep to a running service and follow it",
    )
    submit.add_argument(
        "--url", default=None,
        help="service base URL (default: REPRO_SERVICE_URL or "
             "http://127.0.0.1:8177)",
    )
    submit.add_argument(
        "--configs",
        default="L1-SRAM,By-NVM,Hybrid,Base-FUSE,FA-FUSE,Dy-FUSE",
        help="comma-separated configuration names",
    )
    submit.add_argument(
        "--workloads", default="all",
        help="comma-separated workload names, suite names, or 'all'",
    )
    submit.add_argument(
        "--seed", type=int, default=0, help="simulation seed (default 0)",
    )
    submit.add_argument(
        "--timeline", type=int, default=0, metavar="CYCLES",
        help="sample the in-simulation timeline every CYCLES cycles "
             "(0 = off; fetch the series from /v1/jobs/{id}/timeline)",
    )
    submit.add_argument(
        "--timeout", type=float, default=600.0,
        help="seconds to wait for completion (default 600)",
    )
    submit.add_argument(
        "--json", action="store_true",
        help="emit the final job snapshot as JSON instead of a table",
    )
    submit.add_argument(
        "--quiet", action="store_true", help="suppress the progress ticker",
    )
    _add_machine_args(submit)

    store_cmd = sub.add_parser(
        "store",
        help="inspect or maintain the persistent result store",
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    for name, help_text in (
        ("info", "record counts, schema version and on-disk size"),
        ("compact", "rewrite the file keeping one live record per key"),
        ("path", "print the resolved store path"),
    ):
        entry = store_sub.add_parser(name, help=help_text)
        entry.add_argument(
            "--store", default=None,
            help="result-store path (default: REPRO_STORE env or "
                 "~/.cache/repro/results.jsonl)",
        )

    journal_cmd = sub.add_parser(
        "journal",
        help="inspect a coordinator job journal (repro serve --journal)",
    )
    journal_cmd.add_argument(
        "path", help="journal file written under `repro serve --journal`",
    )
    journal_cmd.add_argument(
        "--json", action="store_true",
        help="emit the replay summary as JSON instead of tables",
    )

    metrics = sub.add_parser(
        "metrics",
        help="scrape a running service's GET /metrics exposition",
    )
    metrics.add_argument(
        "--url", default=None,
        help="service base URL (default: REPRO_SERVICE_URL or "
             "http://127.0.0.1:8177)",
    )
    metrics.add_argument(
        "--grep", default=None, metavar="SUBSTRING",
        help="print only lines containing SUBSTRING (HELP/TYPE lines "
             "of matching families included)",
    )
    metrics.add_argument(
        "--watch", type=float, default=None, metavar="SECONDS",
        help="re-scrape every SECONDS seconds (clear + redraw) until "
             "Ctrl-C instead of printing once",
    )

    spans = sub.add_parser(
        "spans",
        help="summarise a phase-span log or export it for Perfetto",
    )
    spans.add_argument(
        "log", nargs="+",
        help="span JSONL written under REPRO_SPANS=<path>; 'merge "
             "<log>...' joins several process' logs into one "
             "--chrome timeline with per-process tracks",
    )
    spans.add_argument(
        "--chrome", default=None, metavar="OUT",
        help="write a Chrome trace_event JSON to OUT (load it in "
             "Perfetto / chrome://tracing) instead of the summary table",
    )

    top = sub.add_parser(
        "top",
        help="live terminal console over a running service: jobs, "
             "workers, leases (see docs/observability.md)",
    )
    top.add_argument(
        "--url", default=None,
        help="service base URL (default: REPRO_SERVICE_URL or "
             "http://127.0.0.1:8177)",
    )
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh interval (default 2.0, floor 0.2)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print one snapshot and exit (no screen clearing; exit 1 "
             "if the service is unreachable)",
    )
    return parser


def _add_profile_args(parser: argparse.ArgumentParser) -> None:
    """cProfile report shaping, shared by ``profile`` and
    ``sweep --profile``."""
    parser.add_argument(
        "--sort", default="cumulative", choices=("cumulative", "tottime"),
        help="profile stat ordering (default cumulative)",
    )
    parser.add_argument(
        "--limit", type=int, default=25,
        help="profile entries to print (default 25)",
    )


def _add_machine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sms", type=int, default=4,
        help="streaming multiprocessors to simulate (default 4)",
    )
    parser.add_argument(
        "--scale", default="test", choices=("smoke", "test", "bench"),
        help="trace scale preset (default test)",
    )
    parser.add_argument(
        "--gpu", default="fermi", choices=("fermi", "volta"),
        help="machine profile (default fermi)",
    )


def _cmd_list() -> int:
    from repro.core.factory import known_configs, l1d_config
    from repro.harness.report import format_table
    from repro.workloads.benchmarks import benchmark_class, workload_names
    from repro.workloads.suites import suite_of

    config_rows = [
        [name, l1d_config(name).description] for name in known_configs()
    ]
    print(format_table(
        ["config", "description"], config_rows,
        title="L1D configurations (Table I)",
    ))
    print()
    names = workload_names()
    workload_rows = [
        [name, suite_of(name), benchmark_class(name).apki_paper,
         benchmark_class(name).description]
        for name in names
    ]
    print(format_table(
        ["workload", "suite", "APKI", "description"], workload_rows,
        title=f"Registered workloads ({len(names)}: Table II + DNN suite)",
    ))
    return 0


def _print_result(result, title: str) -> None:
    from repro.harness.report import format_table

    stats = result.l1d
    rows = [
        ["cycles", result.cycles],
        ["instructions", result.instructions],
        ["IPC", result.ipc],
        ["L1D miss rate", result.l1d_miss_rate],
        ["L1D accesses", stats.accesses],
        ["bypass ratio", stats.bypass_ratio],
        ["STT write stalls (cycles)", stats.stt_write_stall_cycles],
        ["off-chip latency share", result.offchip_fraction],
        ["L1D energy (uJ)", result.energy.l1d_nj / 1000.0],
        ["total energy (uJ)", result.energy.total_nj / 1000.0],
    ]
    print(format_table(["metric", "value"], rows, title=title))


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.harness.runner import Runner

    runner = Runner(
        gpu_profile=args.gpu, scale=args.scale, num_sms=args.sms,
    )
    result = runner.run(args.config, args.workload)
    _print_result(
        result,
        f"{args.config} on {args.workload} "
        f"({args.gpu}, {args.sms} SMs, {args.scale} scale)",
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.harness.report import format_table
    from repro.harness.runner import Runner

    configs = [c.strip() for c in args.configs.split(",") if c.strip()]
    runner = Runner(
        gpu_profile=args.gpu, scale=args.scale, num_sms=args.sms,
    )
    rows = []
    baseline: Optional[float] = None
    for config in configs:
        result = runner.run(config, args.workload)
        if baseline is None:
            baseline = result.ipc or 1.0
        rows.append([
            config, result.ipc, result.ipc / baseline,
            result.l1d_miss_rate, result.l1d.stt_write_stall_cycles,
        ])
    print(format_table(
        ["config", "IPC", f"vs {configs[0]}", "miss rate", "STT stalls"],
        rows,
        title=f"Configuration comparison on {args.workload}",
    ))
    return 0


def _profiled(callable_, sort: str = "cumulative", limit: int = 25):
    """Run *callable_* under cProfile.

    Returns ``(result, stats_text, elapsed_seconds)`` where *elapsed*
    covers only the callable itself (not the pstats aggregation), so
    throughput numbers derived from it describe the simulation alone.
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    start = time.perf_counter()
    try:
        result = callable_()
    finally:
        elapsed = time.perf_counter() - start
        profiler.disable()
    buffer = io.StringIO()
    pstats.Stats(profiler, stream=buffer).sort_stats(sort).print_stats(limit)
    return result, buffer.getvalue(), elapsed


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.engine.spec import RunSpec, execute_spec
    from repro.telemetry.callcount import profile_run
    from repro.workloads.arena import arena_cache_stats

    spec = RunSpec.build(
        args.config, args.workload, gpu_profile=args.gpu, scale=args.scale,
        num_sms=args.sms,
    )
    before = arena_cache_stats()
    result, stats_text, elapsed = _profiled(
        lambda: execute_spec(spec), sort=args.sort, limit=args.limit
    )
    after = arena_cache_stats()
    print(stats_text, end="")
    cycles_per_sec = result.cycles / elapsed if elapsed else 0.0
    transactions = result.load_transactions + result.store_transactions
    trace_gen = after["pack_seconds"] - before["pack_seconds"]
    packs = after["packs"] - before["packs"]
    simulate = max(0.0, elapsed - trace_gen)
    print(
        f"{args.config} on {args.workload} ({args.scale} scale, "
        f"{args.sms} SMs): {result.cycles:,} simulated cycles in "
        f"{elapsed:.2f}s wall -> {cycles_per_sec:,.0f} "
        f"cycles/sec, {transactions / elapsed if elapsed else 0.0:,.0f} "
        "transactions/sec"
    )
    print(
        f"phase split: trace generation {trace_gen:.2f}s "
        f"({packs} arena pack{'s' if packs != 1 else ''}"
        + (", cached from an earlier run" if packs == 0 else "")
        + f"), simulation {simulate:.2f}s"
    )
    # a second, run-only profile of the same (now warm) simulation:
    # the deterministic calls-per-access proxy and where the run's
    # self time goes by package
    _, calls = profile_run(lambda: execute_spec(spec))
    print(
        f"inside GPUSimulator.run: {calls.calls:,} Python calls / "
        f"{calls.accesses:,} L1D accesses = "
        f"{calls.calls_per_access:.2f} calls per access"
    )
    print(f"self time by package: {calls.split_line()}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.factory import l1d_config
    from repro.engine.engine import ExperimentEngine, stderr_progress
    from repro.engine.serialize import result_to_dict
    from repro.engine.store import ResultStore, default_store_path
    from repro.harness.report import format_table
    from repro.workloads.suites import resolve_workloads

    configs = [c.strip() for c in args.configs.split(",") if c.strip()]
    workloads = resolve_workloads(args.workloads)
    for config in configs:
        l1d_config(config)  # fail fast on unknown names

    store = None
    if not args.no_store and not args.profile:
        # --store "" disables persistence, mirroring REPRO_STORE=""
        path = args.store if args.store is not None else default_store_path()
        if path:
            store = ResultStore(path)
    engine = ExperimentEngine(
        store=store,
        # profiling needs the work in-process (and really executed, hence
        # no store above) for cProfile to see it
        workers=1 if args.profile else args.workers,
        progress=None if args.quiet else stderr_progress,
    )
    run = lambda: engine.run_matrix(  # noqa: E731 - tiny dispatch shim
        configs, workloads,
        gpu_profile=args.gpu, scale=args.scale, seed=args.seed,
        num_sms=args.sms, timeline_interval=args.timeline,
    )
    if args.profile:
        # stderr, like the progress ticker: --json consumers own stdout
        (table, outcomes), profile_text, _ = _profiled(
            run, sort=args.sort, limit=args.limit
        )
        print(profile_text, end="", file=sys.stderr)
    else:
        table, outcomes = run()

    store_hits = sum(1 for o in outcomes if o.source == "store")
    fresh = sum(1 for o in outcomes if o.source == "fresh")
    errors = [o for o in outcomes if o.error is not None]

    if args.json:
        payload = {
            "runs": [
                {
                    "config": o.spec.l1d.name,
                    "workload": o.spec.workload,
                    "key": o.key,
                    "source": o.source,
                    "error": o.error,
                    "result": (
                        result_to_dict(o.result)
                        if o.result is not None else None
                    ),
                }
                for o in outcomes
            ],
            "store_hits": store_hits,
            "fresh": fresh,
            "errors": len(errors),
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        rows = []
        for workload in workloads:
            per_config = table.get(workload, {})
            # normalize strictly against configs[0]; if the baseline run
            # failed, leave the ratio column blank rather than silently
            # renormalizing against the next surviving config
            base_result = per_config.get(configs[0])
            baseline = base_result.ipc or 1.0 if base_result else None
            for config in configs:
                result = per_config.get(config)
                if result is None:
                    rows.append([workload, config, "FAILED", "", ""])
                    continue
                rows.append([
                    workload, config, result.ipc,
                    result.ipc / baseline if baseline is not None else "",
                    result.l1d_miss_rate,
                ])
        print(format_table(
            ["workload", "config", "IPC", f"vs {configs[0]}", "miss rate"],
            rows,
            title=f"Sweep: {len(configs)} configs x {len(workloads)} "
                  f"workloads ({args.gpu}, {args.sms} SMs, "
                  f"{args.scale} scale)",
        ))
        print(
            f"\n{len(outcomes)} runs: {store_hits} from store, "
            f"{fresh} fresh, {len(errors)} failed"
            + (f" (store: {store.path})" if store is not None else "")
        )
        if args.timeline:
            sampled = sum(
                1 for o in outcomes
                if o.result is not None and o.result.timeline is not None
            )
            print(
                f"timeline: {sampled}/{len(outcomes)} runs carry a "
                f"series sampled every {args.timeline} cycles "
                "(--json to export)"
            )
    for outcome in errors:
        print(
            f"error: {outcome.spec.l1d.name} on {outcome.spec.workload}:\n"
            f"{outcome.error}",
            file=sys.stderr,
        )
    return 1 if errors else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import (
        DEFAULT_HOST,
        DEFAULT_PORT,
        build_service,
        env_int,
        serve,
    )

    host = args.host or os.environ.get("REPRO_SERVICE_HOST") or DEFAULT_HOST
    port = (
        args.port if args.port is not None
        else env_int("REPRO_SERVICE_PORT", DEFAULT_PORT)
    )
    service = build_service(
        host=host, port=port, store_path=args.store, no_store=args.no_store,
        workers=args.workers, max_queue=args.queue, max_active=args.active,
        remote=True if args.remote else None,
        journal=args.journal,
    )
    store = service.scheduler.store

    def announce(svc) -> None:
        engine = svc.scheduler.engine
        mode = (
            "remote (workers pull leases)" if engine is None
            else f"workers {engine.workers}"
        )
        journal = svc.scheduler.journal
        print(
            f"repro service on http://{svc.host}:{svc.port} "
            f"({mode}, "
            f"queue {svc.scheduler.max_queue}, "
            f"store {store.path if store is not None else 'disabled'}"
            + (f", journal {journal.path}" if journal is not None else "")
            + ")",
            flush=True,
        )
        recovered = svc.scheduler.recovered
        if recovered and recovered["events"]:
            print(
                f"journal replay: {recovered['events']} events -> "
                f"{recovered['recovered_done']} finished jobs restored, "
                f"{recovered['requeued_jobs']} re-queued "
                f"({recovered['requeued_runs']} runs), "
                f"{recovered['unrecoverable_jobs']} unrecoverable",
                flush=True,
            )

    serve(service, announce=announce)
    print("drained; bye")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.harness.report import format_table
    from repro.service.client import ServiceClient, ServiceError

    url = (
        args.url or os.environ.get("REPRO_SERVICE_URL")
        or "http://127.0.0.1:8177"
    )
    client = ServiceClient(url)

    def on_event(name: str, payload: dict) -> None:
        if args.quiet:
            return
        if name == "run":
            sys.stderr.write(
                f"\r[submit] {payload['completed']}/{payload['total']} "
                f"({payload['source']})   "
            )
        elif name == "done":
            sys.stderr.write("\n")
        sys.stderr.flush()

    try:
        snapshot = client.run_to_completion(
            args.configs, args.workloads, gpu_profile=args.gpu,
            scale=args.scale, seed=args.seed, num_sms=args.sms,
            timeline=args.timeline, timeout=args.timeout, on_event=on_event,
        )
    except (ServiceError, TimeoutError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(snapshot, sort_keys=True))
    else:
        rows = [
            [run["workload"], run["config"],
             run["source"] or run["state"], run["key"][:16]]
            for run in snapshot.get("runs", [])
        ]
        print(format_table(
            ["workload", "config", "source", "key"], rows,
            title=f"Job {snapshot['job'][:16]} [{snapshot['state']}] "
                  f"via {url}",
        ))
        print(
            f"\n{snapshot['total']} runs: {snapshot['store_hits']} from "
            f"store, {snapshot['fresh']} fresh, "
            f"{snapshot['coalesced']} coalesced, "
            f"{snapshot['errors']} failed "
            f"({snapshot['elapsed_s']:.2f}s)"
        )
        if args.timeline:
            print(
                f"timeline: GET {url}/v1/jobs/{snapshot['job']}/timeline"
            )
    failed = snapshot["state"] == "failed" or snapshot["errors"] > 0
    for run in snapshot.get("runs", []):
        if run.get("error"):
            print(
                f"error: {run['config']} on {run['workload']}:\n"
                f"{run['error']}",
                file=sys.stderr,
            )
    return 1 if failed else 0


def _cmd_worker(args: argparse.Namespace) -> int:
    import signal

    from repro.service.client import ServiceError
    from repro.service.worker import run_worker

    url = (
        args.url or os.environ.get("REPRO_SERVICE_URL")
        or "http://127.0.0.1:8177"
    )
    log = None if args.quiet else (
        lambda line: print(f"[worker] {line}", file=sys.stderr, flush=True)
    )
    # fleet managers stop workers with SIGTERM: exit cleanly -- any
    # in-flight lease is covered by its TTL (the scheduler re-issues it)
    with contextlib.suppress(ValueError):  # not the main thread
        signal.signal(signal.SIGTERM, lambda *_args: sys.exit(0))
    try:
        return run_worker(
            url, name=args.name, max_runs=args.max_runs, ttl=args.ttl,
            poll_s=args.poll, once=args.once, log=log,
        )
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130
    finally:
        # already exiting: interpreter shutdown restores the default
        # SIGTERM action, so a fleet manager's SIGTERM landing now
        # (say, right after a draining grant) would turn exit 0 into
        # 143; an ignored signal stays ignored through shutdown
        with contextlib.suppress(ValueError):
            signal.signal(signal.SIGTERM, signal.SIG_IGN)


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.engine.store import ResultStore, default_store_path
    from repro.harness.report import format_table

    path = args.store if args.store is not None else default_store_path()
    if not path:
        print(
            "error: no store configured (REPRO_STORE is empty and no "
            "--store given)",
            file=sys.stderr,
        )
        return 2
    if args.store_command == "path":
        print(path)
        return 0
    store = ResultStore(path)
    if args.store_command == "info":
        print(format_table(
            ["field", "value"],
            [[key, value] for key, value in store.info().items()],
            title="Result store",
        ))
        return 0
    # compact: rewrite keeping one live record per key, dropping
    # stale-schema and superseded records
    before = store.info()
    raw_records = 0
    with contextlib.suppress(OSError):
        with store.path.open("r", encoding="utf-8") as handle:
            raw_records = sum(1 for line in handle if line.strip())
    live = store.compact()
    after = store.info()
    print(
        f"compacted {store.path}: {live} live records, "
        f"{max(0, raw_records - live)} dropped (stale or superseded), "
        f"{before['size_bytes']} -> {after['size_bytes']} bytes"
    )
    return 0


def _cmd_journal(args: argparse.Namespace) -> int:
    import pathlib

    from repro.harness.report import format_table
    from repro.service.journal import load_journal

    path = pathlib.Path(args.path)
    if not path.exists():
        print(f"error: no journal at {path}", file=sys.stderr)
        return 2
    replay = load_journal(path)
    completed = replay.completed()
    incomplete = replay.incomplete()
    if args.json:
        print(json.dumps({
            "path": str(path),
            "events": replay.events,
            "by_event": replay.by_event,
            "skipped": replay.skipped,
            "jobs": {
                "total": len(replay.jobs),
                "done": sum(
                    1 for e in completed if e["state"] == "done"
                ),
                "failed": sum(
                    1 for e in completed if e["state"] == "failed"
                ),
                "incomplete": len(incomplete),
            },
            "incomplete": [
                {
                    "job": entry["job"],
                    "runs": len(entry["specs"]),
                    "settled": len(entry["settled"]),
                }
                for entry in incomplete
            ],
        }, sort_keys=True))
        return 0
    rows = [
        [kind, str(count)]
        for kind, count in sorted(replay.by_event.items())
    ]
    print(format_table(
        ["event", "count"], rows,
        title=(
            f"{path}: {replay.events} events "
            f"(skipped: {replay.skipped['corrupt']} corrupt, "
            f"{replay.skipped['stale']} stale)"
        ),
    ))
    if replay.jobs:
        job_rows = [
            [
                entry["job"][:16], entry["state"],
                str(len(entry["specs"])), str(len(entry["settled"])),
            ]
            for entry in replay.jobs.values()
        ]
        print()
        print(format_table(
            ["job", "state", "runs", "settled"], job_rows,
            title=(
                f"{len(replay.jobs)} jobs -- a restart on this journal "
                f"re-queues {len(incomplete)}"
            ),
        ))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    url = (
        args.url or os.environ.get("REPRO_SERVICE_URL")
        or "http://127.0.0.1:8177"
    )
    client = ServiceClient(url)

    def scrape() -> int:
        try:
            text = client.metrics()
        except ServiceError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if args.grep:
            needle = args.grep
            for line in text.splitlines():
                if needle in line:
                    print(line)
        else:
            print(text, end="")
        return 0

    if args.watch is None:
        return scrape()
    # watch mode: clear + re-scrape until Ctrl-C; a transient scrape
    # failure prints and keeps watching (the service may be restarting)
    from repro.service.console import CLEAR

    interval = max(0.2, args.watch)
    try:
        while True:
            print(CLEAR, end="")
            print(f"repro metrics --watch {interval:g} -- {url}")
            scrape()
            sys.stdout.flush()
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0


def _cmd_spans(args: argparse.Namespace) -> int:
    from repro.harness.report import format_table
    from repro.telemetry.spans import (
        export_chrome_trace,
        merge_chrome_trace,
        read_spans,
    )

    if args.log[0] == "merge":
        # `spans merge <log>... --chrome OUT`: one Perfetto timeline
        # with a track per (file, pid) -- coordinator next to workers
        paths = args.log[1:]
        if not paths:
            print("error: spans merge needs at least one log",
                  file=sys.stderr)
            return 2
        if not args.chrome:
            print("error: spans merge requires --chrome OUT",
                  file=sys.stderr)
            return 2
        try:
            trace = merge_chrome_trace(paths)
        except OSError as error:
            print(f"error: cannot read span logs: {error}",
                  file=sys.stderr)
            return 2
        if not trace["traceEvents"]:
            print("error: no spans in any input log", file=sys.stderr)
            return 1
        with open(args.chrome, "w", encoding="utf-8") as handle:
            json.dump(trace, handle)
        tracks = sum(
            1 for event in trace["traceEvents"]
            if event.get("ph") == "M"
        )
        print(
            f"merged {len(paths)} logs -> {args.chrome}: "
            f"{len(trace['traceEvents']) - tracks} trace events on "
            f"{tracks} process tracks (open in Perfetto)"
        )
        return 0

    if len(args.log) > 1:
        print(
            "error: multiple logs only make sense under "
            "'spans merge <log>... --chrome OUT'",
            file=sys.stderr,
        )
        return 2
    log_path = args.log[0]
    try:
        spans = read_spans(log_path)
    except OSError as error:
        print(f"error: cannot read {log_path}: {error}", file=sys.stderr)
        return 2
    if not spans:
        print(f"{log_path}: no spans", file=sys.stderr)
        return 1

    if args.chrome:
        trace = export_chrome_trace(spans)
        with open(args.chrome, "w", encoding="utf-8") as handle:
            json.dump(trace, handle)
        print(
            f"wrote {len(trace['traceEvents'])} trace events -> "
            f"{args.chrome} (open in Perfetto or chrome://tracing)"
        )
        return 0

    # default view: one row per span name with count and duration stats
    by_name: dict = {}
    for entry in spans:
        bucket = by_name.setdefault(
            entry["name"], {"cat": entry.get("cat", "run"),
                            "count": 0, "total_us": 0, "max_us": 0}
        )
        bucket["count"] += 1
        bucket["total_us"] += entry["dur_us"]
        bucket["max_us"] = max(bucket["max_us"], entry["dur_us"])
    rows = [
        [
            name, info["cat"], info["count"],
            info["total_us"] / 1e6,
            info["total_us"] / info["count"] / 1e3,
            info["max_us"] / 1e3,
        ]
        for name, info in sorted(
            by_name.items(), key=lambda item: -item[1]["total_us"]
        )
    ]
    print(format_table(
        ["span", "cat", "count", "total s", "mean ms", "max ms"], rows,
        title=f"{log_path}: {len(spans)} spans",
    ))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.service.console import run_top

    url = (
        args.url or os.environ.get("REPRO_SERVICE_URL")
        or "http://127.0.0.1:8177"
    )
    try:
        return run_top(url, interval=args.interval, once=args.once)
    except KeyboardInterrupt:
        return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "profile":
            return _cmd_profile(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "worker":
            return _cmd_worker(args)
        if args.command == "store":
            return _cmd_store(args)
        if args.command == "journal":
            return _cmd_journal(args)
        if args.command == "metrics":
            return _cmd_metrics(args)
        if args.command == "spans":
            return _cmd_spans(args)
        if args.command == "top":
            return _cmd_top(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
