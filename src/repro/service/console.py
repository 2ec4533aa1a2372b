"""``repro top``: a live terminal console over a running service.

One refreshing screen answers "what is the fleet doing right now":
queue depth and backpressure, active jobs with progress and a
completion ETA, every registered worker with liveness and throughput,
and the active leases with their ages -- assembled from the plain
operator endpoints (``/healthz``, ``/metrics``, ``/v1/jobs``, and in
remote mode ``/v1/workers`` + ``/v1/leases``).  Pure stdlib: the
screen clears with an ANSI escape, and ``--once`` prints a single
snapshot for scripts and tests.

The fetch (:func:`fetch_state`) and the rendering (:func:`render`) are
separate pure-ish pieces so tests can drive :func:`render` on a
hand-built state dict without a terminal or a live fleet.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional

from repro.service.client import ServiceClient, ServiceError

__all__ = ["fetch_state", "render", "run_top"]

#: ANSI: clear screen + home the cursor (stdlib-only "refresh")
CLEAR = "\x1b[2J\x1b[H"


def _metric(exposition: str, name: str) -> Optional[float]:
    """First sample value of an unlabeled family in a text exposition."""
    for line in exposition.splitlines():
        if line.startswith(name + " "):
            try:
                return float(line.split()[-1])
            except ValueError:
                return None
    return None


def fetch_state(client: ServiceClient, limit: int = 12) -> Dict:
    """One console frame's worth of service state.

    Local-mode services answer 400 on the fleet endpoints; those
    sections come back ``None`` and :func:`render` omits them, so the
    console degrades gracefully from fleet view to single-process view.
    """
    state: Dict = {"url": client.base_url, "error": None}
    try:
        state["health"] = client.healthz()
    except ServiceError as error:
        if error.status != 503:  # draining still renders
            state["error"] = str(error)
            return state
        state["health"] = error.payload or {"status": "draining"}
    state["metrics"] = client.metrics()
    try:
        state["workers"] = client.workers()
    except ServiceError:
        state["workers"] = None  # local mode (400) or old server (404)
    try:
        state["leases"] = client.leases()
    except ServiceError:
        state["leases"] = None
    try:
        state["jobs"] = client.jobs(limit=limit)
    except ServiceError:
        state["jobs"] = None
    return state


def _job_line(job: Dict) -> str:
    total = max(1, int(job.get("total") or 0) or 1)
    completed = int(job.get("completed") or 0)
    elapsed = float(job.get("elapsed_s") or 0.0)
    eta = ""
    if job.get("state") == "running" and 0 < completed < total and elapsed:
        remaining = elapsed / completed * (total - completed)
        eta = f" eta {remaining:5.1f}s"
    bar_width = 20
    filled = int(bar_width * completed / total)
    bar = "#" * filled + "-" * (bar_width - filled)
    return (
        f"  {job.get('job', '?')[:12]}  {job.get('state', '?'):7s} "
        f"[{bar}] {completed:4d}/{total:<4d} "
        f"{elapsed:7.1f}s{eta}"
    )


def render(state: Dict, now: Optional[float] = None) -> str:
    """One console frame as a string (testable without a terminal)."""
    if state.get("error"):
        return f"repro top: {state['url']} unreachable: {state['error']}\n"
    lines: List[str] = []
    health = state.get("health") or {}
    exposition = state.get("metrics") or ""
    stamp = time.strftime(
        "%H:%M:%S", time.localtime(now if now is not None else time.time())
    )
    queue_depth = _metric(exposition, "repro_service_queue_depth")
    active = _metric(exposition, "repro_service_active_jobs")
    pending = _metric(exposition, "repro_lease_pending_runs")
    fleet_cps = _metric(exposition, "repro_fleet_cycles_per_second")
    head = (
        f"repro top -- {state['url']}  {stamp}  "
        f"status={health.get('status', '?')}  "
        f"uptime={health.get('uptime_s', 0.0):.0f}s"
    )
    lines.append(head)
    summary = (
        f"jobs: {int(active or 0)} active, "
        f"{int(queue_depth or 0)} queued"
    )
    if pending is not None:
        summary += f" | lease queue: {int(pending)} runs pending"
    if fleet_cps:
        summary += f" | fleet: {fleet_cps:,.0f} sim cycles/s"
    lines.append(summary)

    workers = state.get("workers")
    if workers is not None:
        lines.append("")
        lines.append(
            f"WORKERS ({len(workers.get('workers', []))} registered, "
            f"{workers.get('expired_total', 0)} expired)"
        )
        lines.append(
            "  name                      state  runs  err   cycles/s"
            "  last seen"
        )
        for worker in workers.get("workers", []):
            lines.append(
                f"  {worker.get('name', '?')[:24]:24s}  "
                f"{worker.get('state', '?'):5s}  "
                f"{worker.get('runs_settled', 0):4d}  "
                f"{worker.get('errors', 0):3d}  "
                f"{worker.get('cycles_per_s', 0.0):9,.0f}"
                f"  {worker.get('last_seen_s', 0.0):5.1f}s ago"
            )
        if not workers.get("workers"):
            lines.append("  (no workers have reported yet)")

    leases = state.get("leases")
    if leases is not None and leases.get("active"):
        lines.append("")
        lines.append(f"LEASES ({len(leases['active'])} active)")
        for lease in leases["active"]:
            lines.append(
                f"  {lease.get('lease', '?')[:12]}  "
                f"{lease.get('worker', '?')[:24]:24s}  "
                f"{lease.get('unsettled', 0):3d}/"
                f"{lease.get('granted', 0):<3d} unsettled  "
                f"expires in {lease.get('expires_in', 0.0):5.1f}s"
            )

    jobs = state.get("jobs")
    if jobs is not None:
        listed = jobs.get("jobs", [])
        lines.append("")
        lines.append(
            f"JOBS (showing {len(listed)} of {jobs.get('known', 0)})"
        )
        for job in listed:
            lines.append(_job_line(job))
        if not listed:
            lines.append("  (no jobs submitted yet)")
    return "\n".join(lines) + "\n"


def run_top(
    url: str,
    interval: float = 2.0,
    once: bool = False,
    out=None,
    clock: Callable[[], float] = time.time,
) -> int:
    """The ``repro top`` loop: fetch, render, clear + redraw.

    ``--once`` prints a single frame without clearing (snapshot mode
    for scripts/tests); otherwise the console refreshes every
    *interval* seconds until Ctrl-C.
    """
    out = out if out is not None else sys.stdout
    client = ServiceClient(url, timeout=10.0)
    while True:
        frame = render(fetch_state(client), now=clock())
        if once:
            out.write(frame)
            return 0 if "unreachable" not in frame.splitlines()[0] else 1
        out.write(CLEAR + frame)
        out.flush()
        try:
            time.sleep(max(0.2, interval))
        except KeyboardInterrupt:
            return 0
