"""Golden-parity pin for the simulation core.

Every refactor of the cache engines, the GPU issue loop or the memory
subsystem must preserve **bit-identical** simulation results.  This
module pins that contract: ``tests/data/golden_parity.json`` holds the
complete counter payload (cycles, instructions, every L1D counter,
every memory-system counter, transaction/retry totals) of one
simulation per (Table I config, workload, scale) tuple, recorded on the
pre-refactor engine.  The test re-runs each tuple through
:func:`repro.engine.spec.execute_spec` -- the single execution path all
harnesses share -- and asserts the payload matches field for field.

Regenerating the goldens (only legitimate after an *intentional*
model-behaviour change, never to paper over a refactor diff)::

    PYTHONPATH=src python tests/test_golden_parity.py --record

A model change must also invalidate every stored result, which the
store does by its ``SCHEMA_VERSION`` tag.  So the file records one
model digest per schema version (a hash over every run's payload
digest), the test checks the current version's against the current
payloads, and ``--record`` refuses to overwrite a different digest
already recorded under the current version: re-recorded goldens force
a ``SCHEMA_VERSION`` bump.

The energy report is derived arithmetically from these counters and is
excluded from the payload (float formatting would add noise without
adding coverage).
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import sys

import pytest

from repro.engine.serialize import SCHEMA_VERSION, result_to_dict
from repro.engine.spec import RunSpec, execute_spec

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_parity.json"

#: (config, workload, scale) tuples pinned by the golden file.  Smoke
#: scale covers every Table I engine; the test-scale rows warm up the
#: dead-write and read-level predictors enough to exercise bypass,
#: migration and flush paths that smoke traces barely touch.
GOLDEN_RUNS = [
    *[(config, workload, "smoke")
      for config in ("L1-SRAM", "FA-SRAM", "L1-NVM", "By-NVM", "Oracle",
                     "Hybrid", "Base-FUSE", "FA-FUSE", "Dy-FUSE")
      for workload in ("2DCONV", "ATAX")],
    ("By-NVM", "PVC", "test"),
    ("Hybrid", "PVC", "test"),
    ("Dy-FUSE", "PVC", "test"),
    ("Dy-FUSE", "SS", "test"),
    # the Figure 13 matrix at test scale (Dy-FUSE x SS is pinned above);
    # L1-SRAM x ATAX is the matrix's reservation-failure retry storm
    *[(config, workload, "test")
      for config in ("L1-SRAM", "FA-SRAM", "By-NVM", "Dy-FUSE")
      for workload in ("SS", "2DCONV", "ATAX", "GEMM", "SYR2K")
      if (config, workload) != ("Dy-FUSE", "SS")],
]

#: machine shape shared by every golden run
GOLDEN_SMS = 2
GOLDEN_SEED = 0
GOLDEN_PROFILE = "fermi"


def run_id(config: str, workload: str, scale: str) -> str:
    return f"{config}|{workload}|{GOLDEN_PROFILE}|{scale}|sms{GOLDEN_SMS}|seed{GOLDEN_SEED}"


def simulate_payload(config: str, workload: str, scale: str) -> dict:
    """Execute one golden run and flatten it to the compared payload."""
    spec = RunSpec.build(
        config, workload, gpu_profile=GOLDEN_PROFILE, scale=scale,
        seed=GOLDEN_SEED, num_sms=GOLDEN_SMS,
    )
    payload = result_to_dict(execute_spec(spec))
    payload.pop("energy", None)
    return payload


def payload_digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def current_digest(config: str, workload: str, scale: str) -> str:
    """Payload digest of one golden run, simulated once per process."""
    return payload_digest(simulate_payload(config, workload, scale))


def model_digest(run_digests: dict) -> str:
    """SHA-256 over the run payload digests, in run-id order."""
    joined = "\n".join(run_digests[rid] for rid in sorted(run_digests))
    return hashlib.sha256(joined.encode()).hexdigest()


def merge_model_digest(model_digests: dict, version: int, digest: str) -> dict:
    """*model_digests* with *digest* recorded under *version*.

    Raises:
        ValueError: a different digest is already recorded under
            *version*; the model changed, so ``SCHEMA_VERSION`` must be
            bumped before the goldens are recorded again.
    """
    previous = model_digests.get(str(version))
    if previous is not None and previous != digest:
        raise ValueError(
            f"the golden payloads changed under schema version {version}: "
            "bump SCHEMA_VERSION in repro/engine/serialize.py so stored "
            "results are invalidated, then record again"
        )
    return {**model_digests, str(version): digest}


def _load_goldens() -> dict:
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def goldens() -> dict:
    if not GOLDEN_PATH.exists():  # pragma: no cover - repo invariant
        pytest.fail(
            f"{GOLDEN_PATH} missing; record it with "
            "`PYTHONPATH=src python tests/test_golden_parity.py --record`"
        )
    return _load_goldens()


def test_golden_file_covers_declared_runs(goldens):
    assert sorted(goldens["runs"]) == sorted(
        run_id(*run) for run in GOLDEN_RUNS
    )


# the "-interp" id suffix keeps the ids stable for tooling that tracks
# results by test id
@pytest.mark.parametrize(
    "config,workload,scale", GOLDEN_RUNS,
    ids=[f"{c}-{w}-{s}-interp" for c, w, s in GOLDEN_RUNS],
)
def test_golden_parity(goldens, config, workload, scale):
    recorded = goldens["runs"][run_id(config, workload, scale)]
    # digest first for a crisp one-line failure, full dict for the diff
    if current_digest(config, workload, scale) != recorded["digest"]:
        payload = simulate_payload(config, workload, scale)
        assert payload == recorded["payload"], (
            f"simulation diverged from golden recording for "
            f"{config} on {workload} ({scale} scale)"
        )
        pytest.fail("digest mismatch but payloads equal: golden file corrupt")


def test_model_digest_pins_schema_version(goldens):
    recorded = goldens["model_digests"].get(str(SCHEMA_VERSION))
    assert recorded is not None, (
        f"no model digest recorded for schema version {SCHEMA_VERSION}; "
        "record the goldens"
    )
    current = model_digest(
        {run_id(*run): current_digest(*run) for run in GOLDEN_RUNS}
    )
    assert current == recorded, (
        f"simulation payloads differ from those recorded under schema "
        f"version {SCHEMA_VERSION}: a model change must bump "
        "SCHEMA_VERSION so stored results are invalidated"
    )


def test_record_refuses_to_overwrite_a_different_model_digest():
    recorded = {"2": "a" * 64}
    assert merge_model_digest(recorded, 2, "a" * 64) == recorded
    assert merge_model_digest(recorded, 3, "b" * 64) == {
        "2": "a" * 64, "3": "b" * 64,
    }
    with pytest.raises(ValueError, match="bump SCHEMA_VERSION"):
        merge_model_digest(recorded, 2, "b" * 64)


def record() -> None:  # pragma: no cover - maintenance entry point
    runs = {}
    for config, workload, scale in GOLDEN_RUNS:
        payload = simulate_payload(config, workload, scale)
        runs[run_id(config, workload, scale)] = {
            "digest": payload_digest(payload),
            "payload": payload,
        }
        print(f"recorded {run_id(config, workload, scale)}")
    previous = _load_goldens() if GOLDEN_PATH.exists() else {}
    model_digests = merge_model_digest(
        previous.get("model_digests", {}), SCHEMA_VERSION,
        model_digest({rid: entry["digest"] for rid, entry in runs.items()}),
    )
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(
        {"comment": "golden SimulationResult payloads; see "
                    "tests/test_golden_parity.py",
         "model_digests": model_digests,
         "runs": runs},
        indent=1, sort_keys=True,
    ) + "\n")
    print(f"wrote {len(runs)} goldens to {GOLDEN_PATH}")


if __name__ == "__main__":  # pragma: no cover
    if "--record" in sys.argv:
        try:
            record()
        except ValueError as error:
            sys.exit(f"refusing to record: {error}")
    else:
        print(__doc__)
