"""Start a ``repro`` CLI command with the benchmark's layer wrappers.

Usage (from the repository root)::

    python3 perfbench/launch.py serve --port 0 --workers 2 --store S
    python3 perfbench/launch.py worker --url http://127.0.0.1:PORT

With ``PERFBENCH_TRACE_DIR`` set, the process installs the wrappers of
:mod:`layers` before the command builds anything and writes its span
totals to ``<dir>/<pid>.json`` when it exits; without it, the command
runs exactly as ``python -m repro`` would.
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    layers.install_for_child_process()
    sys.exit(main(sys.argv[1:]))
