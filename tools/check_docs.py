#!/usr/bin/env python3
"""Check the repository's markdown documentation against the tree.

Scans the given markdown files (default: README.md, ARCHITECTURE.md and
docs/*.md) for three kinds of drift:

* **Links.** Every relative target of an inline link/image
  ``[text](target)`` must exist on disk.  External (http/https/mailto)
  links and pure in-page anchors are skipped; a ``path#fragment``
  target is checked for the path only.
* **Commands.** In fenced blocks and inline code, every ``repro <word>``
  must name a subcommand of the CLI parser
  (:func:`repro.cli._build_parser`, read from this checkout's ``src/``),
  and every ``--long-flag`` after it on the same command line must be
  one of that subcommand's options.  ``from repro import ...`` is
  Python, not the CLI; a command line ends at ``|``, ``;`` or ``&``, and
  a fenced line ending in a backslash continues on the next.
* **Environment knobs.** Every ``REPRO_[A-Z0-9_]+`` name anywhere in
  the text must appear in a Python file under ``src/`` or
  ``benchmarks/``.  A name ending in ``_`` (``REPRO_SERVICE_*``) is a
  prefix: some name in the code must start with it.

Exit status 0 when everything resolves, 1 with a per-problem report
otherwise (the CI docs job runs this).

Usage::

    python tools/check_docs.py [file.md ...]
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from typing import Dict, Iterable, Iterator, List, Set, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: inline markdown link/image: [text](target) / ![alt](target).
#: targets never contain whitespace in this repo's docs, which keeps the
#: pattern from swallowing prose parentheses.
LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")

#: fenced code blocks and inline code
FENCE = re.compile(r"```.*?```", re.DOTALL)
INLINE = re.compile(r"`[^`]*`")

#: schemes (and in-page anchors) that are not filesystem paths
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")

#: a documented CLI invocation, ``repro <word>`` (not ``src/repro/...``)
COMMAND = re.compile(r"(?<![\w./-])repro[ \t]+([A-Za-z][\w-]*)")

#: a long option, ``--name``
FLAG = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")

#: shell operators that end one command line
SHELL_BREAK = re.compile(r"[|;&]")

#: an environment knob; a trailing ``_`` makes it a prefix
KNOB = re.compile(r"(?<!\w)REPRO_[A-Z0-9_]+")

#: trees whose Python files define the knobs the docs may name
KNOB_ROOTS = ("src", "benchmarks")


def default_files() -> List[pathlib.Path]:
    files = [REPO_ROOT / "README.md", REPO_ROOT / "ARCHITECTURE.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def strip_code(text: str) -> str:
    """Drop fenced code blocks and inline code: shell snippets routinely
    contain ``[...](...)``-shaped globs that are not links."""
    return INLINE.sub("", FENCE.sub("", text))


def code_lines(text: str) -> Iterator[str]:
    """The command lines of fenced blocks and inline code: a fenced line
    ending in a backslash joins the next, and inline code that wraps a
    line is one line."""
    for block in FENCE.findall(text):
        yield from block.replace("\\\n", " ").splitlines()
    for span in INLINE.findall(FENCE.sub("", text)):
        yield span.replace("\n", " ")


def _options(parser: argparse.ArgumentParser) -> Set[str]:
    """Every option string of *parser* and of its nested subcommands."""
    options: Set[str] = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                options |= _options(child)
    return options


def cli_commands() -> Dict[str, Set[str]]:
    """Subcommand name -> its option strings, from the CLI parser."""
    from repro.cli import _build_parser

    (sub,) = [action for action in _build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    return {name: _options(child) for name, child in sub.choices.items()}


def check_commands(text: str,
                   commands: Dict[str, Set[str]]) -> List[Tuple[str, str]]:
    """Documented ``repro`` commands and flags the CLI does not have,
    as (command, reason) pairs."""
    broken = []
    for line in code_lines(text):
        matches = list(COMMAND.finditer(line))
        for index, match in enumerate(matches):
            name = match.group(1)
            if name == "import":  # ``from repro import ...``
                continue
            if name not in commands:
                broken.append((f"repro {name}", "no such command"))
                continue
            end = (matches[index + 1].start() if index + 1 < len(matches)
                   else len(line))
            rest = SHELL_BREAK.split(line[match.end():end], 1)[0]
            for flag in FLAG.findall(rest):
                if flag not in commands[name]:
                    broken.append((f"repro {name} {flag}", "no such option"))
    return broken


def code_knobs() -> Set[str]:
    """Every ``REPRO_*`` name in the Python files of :data:`KNOB_ROOTS`."""
    knobs: Set[str] = set()
    for root in KNOB_ROOTS:
        for path in (REPO_ROOT / root).rglob("*.py"):
            knobs.update(KNOB.findall(path.read_text()))
    return knobs


def check_knobs(text: str, knobs: Set[str]) -> List[Tuple[str, str]]:
    """Documented environment knobs the code never names."""
    return [
        (name, "no such environment knob in src/ or benchmarks/")
        for name in sorted(set(KNOB.findall(text)))
        if not (any(knob.startswith(name) for knob in knobs)
                if name.endswith("_") else name in knobs)
    ]


def check_file(path: pathlib.Path, commands: Dict[str, Set[str]],
               knobs: Set[str]) -> List[Tuple[str, str]]:
    """Broken links, commands and knobs in one file as (target,
    reason) pairs."""
    text = path.read_text()
    broken = []
    for target in LINK.findall(strip_code(text)):
        if target.startswith(SKIP_PREFIXES):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            broken.append((target, f"missing: {resolved}"))
    return broken + check_commands(text, commands) + check_knobs(text, knobs)


def main(argv: Iterable[str]) -> int:
    args = list(argv)
    files = [pathlib.Path(a) for a in args] if args else default_files()
    commands = cli_commands()
    knobs = code_knobs()
    failures = 0
    for path in files:
        if not path.exists():
            print(f"FAIL {path}: file does not exist")
            failures += 1
            continue
        broken = check_file(path, commands, knobs)
        for target, reason in broken:
            print(f"FAIL {path}: [{target}] {reason}")
        failures += len(broken)
        if not broken:
            print(f"ok   {path}")
    if failures:
        print(f"\n{failures} broken link(s), command(s) or knob(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    # check against this checkout's CLI, installed or not
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
