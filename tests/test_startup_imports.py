"""Each process imports only the layers its role runs.

A fleet worker, a coordinator and every CLI command start a fresh
interpreter, so what their first imports pull in is start-up time
(``setup_s`` in perfbench's ``smoke-fleet``).  The packages in
:data:`LAZY_PACKAGES` resolve their exports lazily
(:func:`repro.lazy_exports`) and
:mod:`repro.cli` imports each command's dependencies inside the
command, so these checks read ``sys.modules`` in fresh subprocesses.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys

import pytest

from faultutil import subprocess_env

#: the packages whose ``__init__`` re-exports names from submodules
LAZY_PACKAGES = (
    "repro", "repro.core", "repro.engine", "repro.gpu", "repro.harness",
    "repro.service",
)


def loaded_after(code: str) -> set:
    """The ``sys.modules`` names of a fresh interpreter after *code*."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=subprocess_env(),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def repro_modules(modules: set) -> set:
    return {name for name in modules if name.split(".")[0] == "repro"}


class TestWorkerRole:
    @pytest.fixture(scope="class")
    def modules(self):
        return loaded_after("import repro.cli, repro.service.worker")

    @pytest.mark.parametrize("name", [
        "repro.gpu.simulator", "repro.core.fuse_cache",
        "repro.workloads.arena", "repro.engine.spec",
        "repro.engine.serialize", "repro.service.client",
        "repro.service.leases", "repro.service.retry",
        "repro.telemetry.tracectx",
    ])
    def test_loads_its_execution_chain(self, modules, name):
        assert name in modules

    @pytest.mark.parametrize("name", [
        "asyncio", "multiprocessing", "repro.harness",
        "repro.harness.runner", "repro.engine.engine",
        "repro.service.scheduler", "repro.service.server",
        "repro.service.journal",
    ])
    def test_never_loads_the_coordinator_or_pool(self, modules, name):
        assert name not in modules

    def test_first_run_imports_nothing_new(self):
        # the worker's whole per-run path -- spec decode, key check,
        # simulation, result encode, heartbeat -- runs on what the worker
        # imported at start, so no import cost moves into the sweep.  The
        # registry loads its built-in families on the first name lookup
        # by design, so that lookup happens before the snapshot.
        code = (
            "import sys\n"
            "import repro.service.worker as worker\n"
            "from repro.engine.spec import RunKey, RunSpec, spec_to_dict\n"
            "from repro.workloads.registry import ensure_builtin_workloads\n"
            "ensure_builtin_workloads()\n"
            "spec = RunSpec.build('Dy-FUSE', '2DCONV', scale='smoke', "
            "num_sms=2)\n"
            "run = {'spec': spec_to_dict(spec), 'trace': '00-' + '1' * 32 "
            "+ '-' + '2' * 16 + '-01'}\n"
            "key = RunKey.for_spec(spec).digest\n"
            "before = set(sys.modules)\n"
            "outcome = worker._execute_one(key, run)\n"
            "assert 'result' in outcome, outcome.get('error')\n"
            "worker._WorkerStats('w').heartbeat()\n"
            "print('NEW', sorted(set(sys.modules) - before))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=subprocess_env(),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "NEW []" in proc.stdout.splitlines()


def test_cli_import_costs_only_the_standard_library():
    modules = loaded_after("import repro.cli")
    assert repro_modules(modules) == {"repro", "repro.cli"}
    for name in ("asyncio", "cProfile", "multiprocessing"):
        assert name not in modules


def test_root_package_loads_no_submodule():
    assert repro_modules(loaded_after("import repro")) == {"repro"}


def test_workloads_import_first_without_the_simulator():
    # workloads.trace -> gpu.coalescer must not run gpu/__init__'s
    # simulator import: that chain reaches back into workloads.trace
    # (gpu.simulator -> sm -> warp -> workloads.arena -> workloads.trace)
    # and fails on the partially initialised module
    modules = loaded_after("import repro.workloads")
    assert "repro.gpu.coalescer" in modules
    assert "repro.gpu.simulator" not in modules


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_resolves_and_lists(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in listed, name
    with pytest.raises(AttributeError):
        module.no_such_export  # noqa: B018


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_package_import_runs_no_submodule(package):
    loaded = repro_modules(loaded_after(f"import {package}"))
    assert loaded == {"repro", package}
