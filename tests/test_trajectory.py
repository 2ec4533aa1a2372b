"""The committed performance trajectory is well formed.

Each ``BENCH_<n>.json`` at the repository root records one perfbench
run per ``BENCHMARK.json`` workload (see ``docs/performance.md``, "The
committed trajectory").  A file that names another workload set, a run
that was not correct or lost operations, or a metric missing or in
another unit would not compare with its neighbours.  This module only
reads ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TRAJECTORY = sorted(ROOT.glob("BENCH_*.json"))


def test_trajectory_is_committed():
    assert TRAJECTORY, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", TRAJECTORY, ids=lambda p: p.name)
def test_trajectory_point_matches_the_benchmark(path):
    point = json.loads(path.read_text())
    assert re.fullmatch(r"[0-9a-f]{40}", point["commit"])
    assert point["host"].startswith("host: ")

    workloads = point["workloads"]
    assert set(workloads) == {w["name"] for w in BENCHMARK["workloads"]}
    for name, run in workloads.items():
        assert run["correct"] is True, name
        assert run["failed"] == 0, name
        metrics = run["metrics"]
        for metric in BENCHMARK["end_to_end"]:
            assert metric["name"] in metrics, (name, metric["name"])
            assert metrics[metric["name"]]["unit"] == metric["unit"], (
                name, metric["name"]
            )
