"""Table II: APKI and By-NVM bypass ratio per workload.

Prints measured APKI (normalised back from the warp-level access
density, see ``TraceScale.apki_scale``) and the dead-write bypass ratio
next to the paper's values.  The relative APKI ordering across
workloads must match Table II.

At the scale and SM count CI runs (``table2_bypass_reference.json``:
smoke, 2 SMs) every workload's bypass ratio must also equal the
committed reference exactly, so a dead-write predictor change that
leaves APKI alone still shows.  Other scales print a note and keep only
the ranking check.
"""

import json

from benchmarks.common import (
    BENCH_SCALE,
    BENCH_SMS,
    RESULTS_DIR,
    emit,
    fermi_runner,
    rows_to_table,
)
from repro.harness.experiments import table2_apki

#: the bypass ratios Table II's CI run must reproduce
BYPASS_REFERENCE = RESULTS_DIR / "table2_bypass_reference.json"


def test_table2_apki(benchmark):
    runner = fermi_runner()
    rows = benchmark.pedantic(
        lambda: table2_apki(runner), rounds=1, iterations=1
    )
    scale = runner.scale.apki_scale
    for row in rows:
        row["apki_norm"] = row["apki_measured"] / scale
    table = rows_to_table(
        rows,
        columns=["suite", "apki_norm", "apki_paper", "bypass_measured",
                 "bypass_paper"],
        title="Table II: measured vs paper APKI and By-NVM bypass ratio",
    )
    emit("table2_apki", table)

    # rank correlation of APKI against the paper (dense streams must
    # stay dense); allow slack for the capped extreme rows
    measured = [r["apki_norm"] for r in rows]
    paper = [r["apki_paper"] for r in rows]
    top_measured = {rows[i]["workload"]
                    for i in sorted(range(len(rows)),
                                    key=lambda i: -measured[i])[:8]}
    top_paper = {rows[i]["workload"]
                 for i in sorted(range(len(rows)),
                                 key=lambda i: -paper[i])[:8]}
    assert len(top_measured & top_paper) >= 5

    reference = json.loads(BYPASS_REFERENCE.read_text())
    if (BENCH_SCALE, BENCH_SMS) != (reference["scale"], reference["num_sms"]):
        print(f"note: the bypass reference is for {reference['scale']} scale "
              f"on {reference['num_sms']} SMs; checking the APKI ranking only")
        return
    measured_bypass = {row["workload"]: row["bypass_measured"] for row in rows}
    assert measured_bypass == reference["bypass_measured"]
