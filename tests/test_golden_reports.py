"""Every report format of every subcommand, byte for byte, on seeded inputs.

The files under ``tests/golden/`` pin the numbers, their formatting and the
order of the warnings (see ``golden_inputs.py`` for what the inputs hold). A
change that is not meant to move a report must leave them all equal, under
every supported CPython.
"""

import glob
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from conftest import run_cli
from golden_inputs import COMMANDS, FORMATS, GOLDEN, golden_name, strict_json, write_inputs


@pytest.fixture(scope="module")
def argvs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden_inputs"))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", COMMANDS)
def test_report_is_byte_identical(argvs, tmp_path, command, fmt):
    out = tmp_path / golden_name(command, fmt)
    run_cli(argvs[command] + ["--format", fmt, "--output", str(out)])
    assert out.read_bytes() == (GOLDEN / golden_name(command, fmt)).read_bytes()


@pytest.mark.parametrize("command", COMMANDS)
def test_json_report_is_strict_json(command):
    strict_json((GOLDEN / golden_name(command, "json")).read_text())


def _cpythons(minor: int) -> list[str]:
    """Each distinct CPython 3.<minor> that starts: ``python3.<minor>`` on PATH and pyenv's versions."""
    pyenv = os.environ.get("PYENV_ROOT") or os.path.expanduser("~/.pyenv")
    candidates = [shutil.which(f"python3.{minor}"),
                  *sorted(glob.glob(os.path.join(pyenv, "versions", f"3.{minor}.*", "bin", "python")))]
    found = {}
    for exe in filter(None, candidates):
        try:
            proc = subprocess.run([exe, "-c", "import sys; print(sys.implementation.name, sys.version)"],
                                  capture_output=True, text=True, timeout=60)
        except OSError:
            continue
        name, _, version = proc.stdout.partition(" ")
        if proc.returncode == 0 and name == "cpython" and version.startswith(f"3.{minor}."):
            found.setdefault(version, exe)
    return list(found.values())


@pytest.mark.parametrize("minor", [10, 11, 12, 13], ids=lambda m: f"3.{m}")
def test_reports_are_byte_identical_under_every_cpython(minor):
    interpreters = _cpythons(minor)
    if not interpreters:
        pytest.skip(f"no CPython 3.{minor} can be started here")
    root = pathlib.Path(__file__).resolve().parents[1]
    for exe in interpreters:
        proc = subprocess.run([exe, str(root / "tests" / "golden_inputs.py"), "--compare"], cwd=root,
                              env={**os.environ, "PYTHONPATH": str(root / "src")},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, f"{exe}:\n{proc.stdout}{proc.stderr}"


@pytest.mark.parametrize("seed", ["0", "1"])
def test_reports_do_not_depend_on_the_hash_seed(seed):
    root = pathlib.Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(root / "tests" / "golden_inputs.py"), "--compare"],
                          cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src"),
                                         "PYTHONHASHSEED": seed},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, f"PYTHONHASHSEED={seed}:\n{proc.stdout}{proc.stderr}"
