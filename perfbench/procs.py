"""Launching, stopping and measuring the processes a workload runs on."""

from __future__ import annotations

import os
import pathlib
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
LAUNCHER = HERE / "launch.py"
#: seconds a launched process may take to come up or shut down
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0

_ANNOUNCE = re.compile(r"repro service on (http://\S+) ")


class Launched:
    """One ``repro`` CLI process started through ``launch.py``."""

    def __init__(self, args: List[str], log_path: pathlib.Path,
                 env: Dict[str, str]) -> None:
        self.log_path = log_path
        self._log = log_path.open("wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER), *args],
            stdout=self._log, stderr=subprocess.STDOUT, env=env,
        )

    def wait_for_url(self) -> str:
        """The service URL from its start-up announcement."""
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            match = _ANNOUNCE.search(self.log_path.read_text(errors="replace"))
            if match:
                return match.group(1)
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(
            f"service did not announce itself; log:\n{self.tail()}")

    def tail(self) -> str:
        return self.log_path.read_text(errors="replace")[-2000:]

    def stop(self) -> None:
        """SIGTERM, then wait (SIGKILL past the timeout)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        if self.proc.returncode not in (0, -signal.SIGTERM):
            raise RuntimeError(
                f"{self.proc.args[2:4]} exited {self.proc.returncode}; "
                f"log:\n{self.tail()}")


def clean_environ() -> None:
    """Drop inherited ``REPRO_*`` and ``PERFBENCH_*`` knobs from this
    process's environment, and fix the hash seed of the processes it
    starts."""
    for key in [key for key in os.environ
                if key.startswith(("REPRO_", "PERFBENCH_"))]:
        del os.environ[key]
    os.environ["PYTHONHASHSEED"] = "0"


def child_env(trace_dir: Optional[pathlib.Path], tmp: pathlib.Path) -> dict:
    """Environment for launched processes: this process's (cleaned by
    :func:`clean_environ`), temp files inside the checkout, tracing on
    or off."""
    env = dict(os.environ)
    env["TMPDIR"] = str(tmp)
    if trace_dir is not None:
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    return env


# ----------------------------------------------------------------------
def _tree(root: int) -> List[int]:
    """*root* and every live descendant (all threads' children)."""
    pids, pending = [], [root]
    while pending:
        pid = pending.pop()
        pids.append(pid)
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{pid}/task/{tid}/children") as handle:
                    pending.extend(int(child) for child in handle.read().split())
            except OSError:
                pass
    return pids


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class RssMonitor:
    """Peak RSS of this process and everything it launched.

    A background thread samples the process tree every 100 ms and
    keeps each process's high-water mark (``VmHWM``); :attr:`peak_mb`
    is the sum of those marks in MB -- the footprint the benchmark's
    processes reached, counting pages they share once per process.
    """

    INTERVAL_S = 0.1

    def __init__(self) -> None:
        self._peaks: Dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        for pid in _tree(os.getpid()):
            kb = _hwm_kb(pid)
            if kb > self._peaks.get(pid, 0):
                self._peaks[pid] = kb

    def _loop(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            self._sample()

    def __enter__(self) -> "RssMonitor":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join()

    def sample(self) -> None:
        """Take a sample now (before stopping processes)."""
        self._sample()

    @property
    def peak_mb(self) -> float:
        return sum(self._peaks.values()) / 1024.0
