"""What every invocation pays before it reads a line: importing the CLI loads
neither ``dataclasses`` (with ``inspect``, ``ast`` and ``dis`` behind it) nor
``hashlib``, which only ``--provenance`` needs and imports when it runs, and
nothing outside the standard library."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("dataclasses", "inspect", "hashlib", "_hashlib")

_PROBE = """
import json, sys
before = set(sys.modules)
import reprokit.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _fresh_python(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_importing_the_cli_loads_no_dataclasses_or_hashlib():
    added = set(json.loads(_fresh_python("-c", _PROBE)))
    assert "reprokit.cli" in added
    assert added.isdisjoint(HEAVY), sorted(added & set(HEAVY))


def test_importing_the_cli_loads_only_the_standard_library():
    # the package depends on nothing, though numpy and scipy may be installed for the tests
    added = json.loads(_fresh_python("-c", _PROBE))
    outside = [m for m in added if m.split(".")[0] not in ("reprokit", *sys.stdlib_module_names)]
    assert not outside, outside


def test_provenance_digests_equal_hashlib(tmp_path):
    run = tmp_path / "run.txt"
    run.write_text("1 Q0 A 1 2.0 x\n1 Q0 B 2 1.0 x\n2 Q0 A 1 1.0 x\n2 Q0 C 2 0.5 x\n")
    rpl = tmp_path / "rpl.txt"
    rpl.write_text("1 Q0 B 1 2.0 y\n1 Q0 A 2 1.0 y\n2 Q0 A 1 1.0 y\n2 Q0 C 2 0.5 y\n")
    qrels = tmp_path / "qrels.txt"
    qrels.write_bytes(b"1 0 A 1\r\n2 0 C 2\r\n" * 5000)  # longer than one read chunk
    report = _fresh_python("-m", "reprokit.cli", "replicate", "--run-orig", str(run),
                           "--run-rpl", str(rpl), "--qrels", str(qrels), "--measures", "P@2",
                           "--provenance", "--format", "json")
    inputs = json.loads(report)["provenance"]["inputs"]
    assert {i["path"] for i in inputs.values()} == {str(run), str(rpl), str(qrels)}
    for entry in inputs.values():
        assert entry["sha256"] == hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest()
