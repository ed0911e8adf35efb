"""The console script that pyproject.toml declares resolves to the CLI's entry point.

Reading the file needs ``tomllib`` (Python 3.11+), so the test is skipped on 3.10."""

import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_console_script_resolves_to_the_cli_and_prints_help(capsys):
    with PYPROJECT.open("rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"reprokit": "reprokit.cli:main"}
    module, _, name = scripts["reprokit"].partition(":")
    main = getattr(importlib.import_module(module), name)
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: reprokit ")
