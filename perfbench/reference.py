"""Serial ``execute_spec`` reference and the noise-free counting pass.

:func:`reference` runs every spec of a matrix through
:func:`repro.engine.spec.execute_spec` directly -- no engine, store or
service -- in two fresh interpreters (``python3 reference.py``, specs
pickled on stdin, rows as JSON on stdout; both are waited for on every
path out), and returns each run's serialized
result payload (the bytes every benchmark path must reproduce) plus the
simulated totals the modelled metrics are computed from.

With ``count=True`` the same pass also counts, per run, the Python
function calls made inside ``GPUSimulator.run`` (via ``cProfile``,
whose per-call cost stays out of every timed repetition because this
pass is separate from them) and the calls to ``L1DCacheModel.access``.
Each process handles a fixed group of workloads in a fixed order from
a fresh interpreter, so the counts repeat exactly from run to run.
"""

from __future__ import annotations

import cProfile
import json
import pathlib
import pickle
import subprocess
import sys
from typing import Dict, List, Sequence

HERE = pathlib.Path(__file__).resolve().parent
#: processes the reference pass uses (the host has two CPUs)
REFERENCE_PROCESSES = 2


def payload_text(result) -> str:
    """The canonical bytes of one run's result payload."""
    from repro.engine.serialize import result_to_dict

    return json.dumps(result_to_dict(result), sort_keys=True)


def _count_calls(run, counts: Dict[str, int]):
    """Wrap ``GPUSimulator.run`` to count Python calls inside it."""

    def counted(self, *args, **kwargs):
        profile = cProfile.Profile()
        profile.enable()
        try:
            return run(self, *args, **kwargs)
        finally:
            profile.disable()
            calls = access = 0
            for entry in profile.getstats():
                code = entry.code
                if isinstance(code, str):
                    continue  # a builtin, not a Python function
                calls += entry.callcount
                if (code.co_name == "access"
                        and code.co_filename.endswith("interface.py")):
                    access += entry.callcount
            counts["py_calls"] = calls
            counts["access_calls"] = access

    return counted


def run_group(specs: Sequence, count: bool) -> List[dict]:
    """Execute *specs* in order in this process (a child's body)."""
    from repro.engine.spec import execute_spec
    from repro.gpu.simulator import GPUSimulator

    counts: Dict[str, int] = {}
    if count:
        GPUSimulator.run = _count_calls(GPUSimulator.run, counts)
    rows = []
    for spec in specs:
        result = execute_spec(spec)
        row = {
            "key": spec.key().digest,
            "config": spec.l1d.name,
            "workload": spec.workload,
            "payload": payload_text(result),
            "cycles": result.cycles,
            "instructions": result.instructions,
            "l1d_accesses": result.l1d.accesses,
            "offchip": result.memory.reads + result.memory.writebacks,
        }
        if count:
            row["py_calls"] = counts["py_calls"]
            row["access_calls"] = counts["access_calls"]
        rows.append(row)
    return rows


def reference(specs: Sequence, count: bool = False) -> Dict[str, dict]:
    """Reference rows for *specs*, keyed by run key.

    Workloads are dealt to the processes alternately in matrix order,
    each process running its share serially.
    """
    workloads = list(dict.fromkeys(spec.workload for spec in specs))
    groups = [
        [spec for spec in specs
         if workloads.index(spec.workload) % REFERENCE_PROCESSES == index]
        for index in range(REFERENCE_PROCESSES)
    ]
    children = []
    try:
        for group in groups:
            child = subprocess.Popen(
                [sys.executable, str(HERE / "reference.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            )
            children.append(child)
            child.stdin.write(pickle.dumps((group, count)))
            child.stdin.close()
        rows = []
        for child in children:
            out = child.stdout.read()
            if child.wait() != 0:
                raise RuntimeError(
                    f"reference process exited {child.returncode}")
            rows.extend(json.loads(out))
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()
            child.stdout.close()
    return {row["key"]: row for row in rows}


def main() -> int:
    """Child entry: pickled ``(specs, count)`` on stdin, rows on stdout."""
    sys.path.insert(0, str(HERE.parent / "src"))
    specs, count = pickle.load(sys.stdin.buffer)
    json.dump(run_group(specs, count), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
