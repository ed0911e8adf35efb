"""Every error the CLI can report exits with the code and category the README's
exit-code table gives it, and both come from the error's class."""

import json
import pathlib
import re

import pytest

from reprokit import cli, errors
from reprokit.cli import main
from reprokit.errors import ReprokitError

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
README_CODES = {category: int(code) for code, category in
                re.findall(r"^\| (\d) \| `([a-z-]+)` \|", README.read_text(encoding="utf-8"), re.M)}
ERROR_CLASSES = [c for c in vars(errors).values()
                 if isinstance(c, type) and issubclass(c, ReprokitError) and c is not ReprokitError]


def _replicate(tmp_path, *extra):
    return ["replicate", "--run-orig", str(tmp_path / "a.run"), "--run-rpl", str(tmp_path / "b.run"),
            "--qrels", str(tmp_path / "q.txt"), *extra]


def test_readme_table_lists_every_error_class():
    assert sorted(README_CODES) == sorted(c.category for c in ERROR_CLASSES)


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_each_error_exits_with_its_readme_code(error, tmp_path, monkeypatch, capsys):
    def load_run(*_):
        raise error("raised by the loader")

    monkeypatch.setattr(cli, "load_run", load_run)
    assert main(_replicate(tmp_path)) == README_CODES[error.category] == error.exit_code
    assert json.loads(capsys.readouterr().err) == {"error": error.category,
                                                   "message": "raised by the loader"}


def test_os_error_exits_5_as_io(tmp_path, capsys):
    assert main(_replicate(tmp_path)) == 5 == README_CODES["io"]
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "io" and "a.run" in record["message"]


@pytest.mark.parametrize("fmt", ["table", "csv"])
@pytest.mark.parametrize("argv", [
    lambda tmp: _replicate(tmp),
    lambda tmp: ["reproduce", *(a for role in ("a-orig", "b-orig", "a-rpd", "b-rpd")
                                for a in (f"--run-{role}", str(tmp / f"{role}.run"))),
                 "--qrels-orig", str(tmp / "q1.txt"), "--qrels-rpd", str(tmp / "q2.txt")],
    lambda tmp: ["correlate", "--manifest", str(tmp / "manifest.json")],
], ids=["replicate", "reproduce", "correlate"])
def test_provenance_needs_json_and_is_refused_before_any_input_is_read(
        argv, fmt, tmp_path, monkeypatch, capsys):
    def never(*_):
        raise AssertionError("an input was read")

    for loader in ("load_run", "load_qrels", "_load_manifest"):
        monkeypatch.setattr(cli, loader, never)
    # the files do not exist either: opening one would be exit 5
    assert main(argv(tmp_path) + ["--provenance", "--format", fmt]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config" and "--provenance" in record["message"]
