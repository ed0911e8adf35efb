"""Every error the CLI can report exits with the code and category the README's
exit-code table gives it, and both come from the error's class."""

import pathlib
import re

import pytest

from reprokit import cli, errors
from reprokit.errors import ReprokitError

from conftest import ROLES, cli_argv, run_cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
README_CODES = {category: int(code) for code, category in
                re.findall(r"^\| (\d) \| `([a-z-]+)` \|", README.read_text(encoding="utf-8"), re.M)}
ERROR_CLASSES = [c for c in vars(errors).values()
                 if isinstance(c, type) and issubclass(c, ReprokitError) and c is not ReprokitError]


def test_readme_table_lists_every_error_class():
    assert sorted(README_CODES) == sorted(c.category for c in ERROR_CLASSES)


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_each_error_exits_with_its_readme_code(error, tmp_path, monkeypatch):
    def load_run(*_):
        raise error("raised by the loader")

    monkeypatch.setattr(cli, "load_run", load_run)
    assert README_CODES[error.category] == error.exit_code
    argv = cli_argv("replicate", dict.fromkeys(ROLES["replicate"], tmp_path / "nope"))
    assert run_cli(argv, error.exit_code) == {"error": error.category, "message": "raised by the loader"}


def test_os_error_exits_5_as_io(tmp_path):
    assert README_CODES["io"] == 5
    record = run_cli(cli_argv("replicate", {"run_orig": tmp_path / "a.run", "run_rpl": tmp_path / "b.run",
                                            "qrels": tmp_path / "q.txt"}), 5)
    assert record["error"] == "io" and "a.run" in record["message"]


@pytest.mark.parametrize("fmt", ["table", "csv"])
@pytest.mark.parametrize("command", ROLES)
def test_provenance_needs_json_and_is_refused_before_any_input_is_read(command, fmt, tmp_path, monkeypatch):
    def never(*_):
        raise AssertionError("an input was read")

    for loader in ("load_run", "load_qrels", "_load_manifest"):
        monkeypatch.setattr(cli, loader, never)
    # the files do not exist either: opening one would be exit 5
    argv = cli_argv(command, dict.fromkeys(ROLES[command], tmp_path / "nope"), "--provenance", "--format", fmt)
    record = run_cli(argv, 2)
    assert record["error"] == "config" and "--provenance" in record["message"]
