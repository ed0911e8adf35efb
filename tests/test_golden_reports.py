"""Every report format of every subcommand, byte for byte, on seeded inputs.

The files under ``tests/golden/`` pin the numbers, their formatting and the
order of the warnings (see ``golden_inputs.py`` for what the inputs hold). A
change that is not meant to move a report must leave them all equal.
"""

import pytest

from reprokit.cli import main

from golden_inputs import COMMANDS, FORMATS, GOLDEN, golden_name, strict_json, write_inputs


@pytest.fixture(scope="module")
def argvs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden_inputs"))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", COMMANDS)
def test_report_is_byte_identical(argvs, tmp_path, command, fmt):
    out = tmp_path / golden_name(command, fmt)
    assert main(argvs[command] + ["--format", fmt, "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden_name(command, fmt)).read_bytes()


@pytest.mark.parametrize("command", COMMANDS)
def test_json_report_is_strict_json(command):
    strict_json((GOLDEN / golden_name(command, "json")).read_text())
