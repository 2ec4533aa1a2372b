"""``tools/check_docs.py``: documented links and ``repro`` commands must
match the tree and the CLI parser."""

import importlib.util
import pathlib

import pytest

TOOL = (pathlib.Path(__file__).resolve().parents[1]
        / "tools" / "check_docs.py")


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repo_docs_pass(check_docs, capsys):
    assert check_docs.main([]) == 0, capsys.readouterr().out


def test_retired_command_and_flag_fail(check_docs, tmp_path, capsys):
    for text, named in (
        ("Watch it with `repro\ntop --once`.\n", "repro top"),
        ("```bash\nrepro sweep --timeline 50 --workers 2\n```\n",
         "--timeline"),
        ("```bash\nrepro sweep --workers 2 \\\n    --timeline 50\n```\n",
         "--timeline"),
    ):
        doc = tmp_path / "doc.md"
        doc.write_text(text)
        assert check_docs.main([str(doc)]) == 1
        out = capsys.readouterr().out
        assert named in out
        assert "--workers" not in out


def test_python_import_and_valid_commands_pass(check_docs, tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "```python\nfrom repro import Runner\n```\n"
        "```bash\nrepro store info --store /tmp/s.jsonl\n"
        "repro metrics --grep fleet | grep --count fleet\n```\n"
    )
    assert check_docs.main([str(doc)]) == 0


@pytest.mark.parametrize("text, ok", [
    ("Point `REPRO_STORE` at a shared file.\n", True),
    ("Set REPRO_NOT_A_KNOB=1 to go faster.\n", False),
    ("Every knob has a `REPRO_SERVICE_*` default.\n", True),
    ("A `REPRO_NOT_A_PREFIX_*` family.\n", False),
])
def test_environment_knobs_must_exist_in_code(check_docs, tmp_path,
                                              capsys, text, ok):
    doc = tmp_path / "doc.md"
    doc.write_text(text)
    assert check_docs.main([str(doc)]) == (0 if ok else 1)
    out = capsys.readouterr().out
    assert ("no such environment knob" in out) != ok
