"""The benchmark's own tests: its contract file, its output check and
its noise-free counts.

Run from the repository root (about a minute)::

    python3 -m pytest perfbench/ -q
"""

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from sweeps import Rep  # noqa: E402

COUNT_TABLE = "noise-free counts per (config, workload)"


def test_benchmark_json_lists_what_the_benchmark_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    for section, metrics in (("end_to_end", run.END_TO_END),
                             ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in doc[section]]
        assert listed == list(metrics), section
        for metric in doc[section]:
            expected = ("higher" if metric["name"] in run.HIGHER_IS_BETTER
                        else "lower")
            assert metric["better"] == expected, metric["name"]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_output_check_counts_a_changed_payload():
    reference = {
        "k1": {"payload": '{"cycles": 1}', "config": "L1-SRAM",
               "workload": "SS"},
        "k2": {"payload": '{"cycles": 2}', "config": "Dy-FUSE",
               "workload": "SS"},
    }
    good = {"k1": '{"cycles": 1}', "k2": '{"cycles": 2}'}
    rep = Rep(traced=False, payloads=[
        ("cold", good), ("warm", dict(good, k2='{"cycles": 3}')),
        ("warm", {"k1": '{"cycles": 1}'}),
    ])
    attempted, failed, notes = run.check_outputs([rep], reference)
    assert (attempted, failed, len(notes)) == (6, 2, 2)


def _traced_fig13(seed):
    """One short traced run: (result line, per-run count table)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fig13-sweep",
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    table = out[out.index(next(line for line in out
                               if line.startswith(COUNT_TABLE))):-1]
    return result, table


def test_counts_repeat_exactly_across_traced_runs():
    first, first_table = _traced_fig13(seed=3)
    second, second_table = _traced_fig13(seed=3)
    assert first["correct"] and second["correct"]
    for name in ("gpu.sim_cycles", "cache.access_calls",
                 "gpu.py_calls_per_access", "workloads.packs",
                 "cache.fill_calls", "memory.read_calls"):
        assert (first["metrics"][name]["value"]
                == second["metrics"][name]["value"]), name
    # 20 runs: simulated cycles, access calls and Python calls per
    # access of every (config, workload), from two separate processes
    assert len(first_table) == 2 + 20
    assert first_table == second_table
