"""Seeded inputs for the golden-report tests, and the argv of each report.

Stdlib ``random`` only, so the files depend on the seed alone. The inputs
take the branches a report can show:

- the runs retrieve 12 to 20 documents per topic, scores have two decimals
  (ties fall to the doc-id tie-break), and most documents are unjudged;
- topic 7 is judged but has no relevant document, so it is dropped;
- in ``orig.run`` topic 5 holds one document, so tau is degenerate there and
  tau-intersection is unavailable;
- ``b_orig.run`` lacks topic 2 and ``b_rpl.run`` and ``cand1_b.run`` lack
  topic 3, so a report (in ``correlate``, each candidate) warns ``missing
  topic ..., scored 0`` once for each, in the order the baselines are scored;
  ``reproduce`` scores ``b_orig.run`` on the topics of ``orig.run``, its
  reference run, so it warns on topic 2 too.

To regenerate the committed reports (only when a report is meant to change)::

    PYTHONPATH=src python tests/golden_inputs.py tests/golden

To regenerate them into a temporary directory and diff them against the
committed ones, without pytest and under any interpreter (exit 1 on a
difference)::

    PYTHONPATH=src python tests/golden_inputs.py --compare
"""

from __future__ import annotations

import difflib
import json
import pathlib
import random
import sys
import tempfile

SEED = 20261018
TOPICS = [str(t) for t in range(1, 9)]
MEASURES = "P@5,AP@1000,nDCG@10"
CUTOFFS = "5,10,30"  # below, within and above the run depths 12..20
FORMATS = ("json", "csv", "table")
COMMANDS = ("replicate", "reproduce", "correlate")
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def _qrels(rng: random.Random, pool: list[str]) -> dict[str, dict[str, int]]:
    grades = {}
    for topic in TOPICS:
        judged = rng.sample(pool, 25)
        grades[topic] = {d: (0 if topic == "7" else rng.choice((0, 0, 1, 1, 2, 3)))
                         for d in judged}
        if topic != "7" and not any(grades[topic].values()):
            grades[topic][judged[0]] = 1
    return grades


def _base_run(rng: random.Random, pool: list[str]) -> dict[str, list[tuple[str, float]]]:
    return {topic: [(d, round(rng.uniform(0, 20), 2)) for d in rng.sample(pool, rng.randint(12, 20))]
            for topic in TOPICS}


def _noisy(rng: random.Random, run: dict, pool: list[str], swap: float, noise: float) -> dict:
    out = {}
    for topic, docs in run.items():
        taken = {d for d, _ in docs}
        fresh = [d for d in pool if d not in taken]
        new = []
        for d, s in docs:
            if rng.random() < swap:
                d = fresh.pop(rng.randrange(len(fresh)))
            new.append((d, round(s + rng.gauss(0, noise), 2)))
        out[topic] = new
    return out


def _write_run(path: pathlib.Path, tag: str, run: dict, drop: tuple[str, ...] = ()) -> None:
    lines = []
    for topic, docs in run.items():
        if topic in drop:
            continue
        for rank, (d, s) in enumerate(docs, start=1):
            lines.append(f"{topic} Q0 {d} {rank} {s:.2f} {tag}")
    path.write_text("\n".join(lines) + "\n")


def _write_qrels(path: pathlib.Path, grades: dict) -> None:
    path.write_text("".join(f"{t} 0 {d} {g}\n" for t, docs in grades.items()
                            for d, g in docs.items()))


def write_inputs(out: pathlib.Path) -> dict[str, list[str]]:
    """Write every input file under ``out``; return the CLI argv of each
    report, without ``--format``."""
    rng = random.Random(SEED)
    pool = [f"D{i:03d}" for i in range(60)]
    grades = _qrels(rng, pool)
    orig = _base_run(rng, pool)
    orig["5"] = orig["5"][:1]
    runs = {
        "orig": orig,
        "rpl": _noisy(rng, orig, pool, 0.15, 1.5),
        "b_orig": (b_orig := _base_run(rng, pool)),
        "b_rpl": _noisy(rng, b_orig, pool, 0.15, 1.5),
    }
    for i in range(3):
        runs[f"cand{i}"] = _noisy(rng, orig, pool, 0.05 + 0.1 * i, 0.5 + i)
        runs[f"cand{i}_b"] = _noisy(rng, b_orig, pool, 0.1, 1.0 + i)
    for name, run in runs.items():
        drop = {"b_orig": ("2",), "b_rpl": ("3",), "cand1_b": ("3",)}.get(name, ())
        _write_run(out / f"{name}.run", name, run, drop=drop)
    _write_qrels(out / "qrels.txt", grades)

    # the re-created collection: fresh judgments and a fresh pair of runs
    pool_rpd = [f"E{i:03d}" for i in range(60)]
    _write_qrels(out / "qrels_rpd.txt", _qrels(rng, pool_rpd))
    a_rpd = _base_run(rng, pool_rpd)
    _write_run(out / "a_rpd.run", "a_rpd", a_rpd)
    _write_run(out / "b_rpd.run", "b_rpd", _noisy(rng, a_rpd, pool_rpd, 0.3, 3.0))

    (out / "manifest.json").write_text(json.dumps({
        "qrels": "qrels.txt",
        "run_orig": "orig.run",
        "run_b_orig": "b_orig.run",
        "candidates": [{"run": f"cand{i}.run", "run_b": f"cand{i}_b.run"} for i in range(3)],
    }))
    p = {name: str(out / name) for name in (
        "orig.run", "rpl.run", "b_orig.run", "b_rpl.run", "qrels.txt",
        "a_rpd.run", "b_rpd.run", "qrels_rpd.txt", "manifest.json")}
    return {
        "replicate": ["replicate", "--run-orig", p["orig.run"], "--run-rpl", p["rpl.run"],
                      "--qrels", p["qrels.txt"], "--run-b-orig", p["b_orig.run"],
                      "--run-b-rpl", p["b_rpl.run"], "--measures", MEASURES,
                      "--cutoffs", CUTOFFS],
        "reproduce": ["reproduce", "--run-a-orig", p["orig.run"], "--run-b-orig", p["b_orig.run"],
                      "--qrels-orig", p["qrels.txt"], "--run-a-rpd", p["a_rpd.run"],
                      "--run-b-rpd", p["b_rpd.run"], "--qrels-rpd", p["qrels_rpd.txt"],
                      "--measures", MEASURES],
        "correlate": ["correlate", "--manifest", p["manifest.json"], "--measures", MEASURES],
    }


def golden_name(command: str, fmt: str) -> str:
    return f"{command}.{'txt' if fmt == 'table' else fmt}"


def strict_json(text: str):
    """``json.loads`` that rejects the bare ``NaN``, ``Infinity`` and ``-Infinity`` of Python's encoder."""
    def reject(constant):
        raise ValueError(f"bare {constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def compare() -> int:
    """Regenerate every report into a temporary directory and print a diff
    for each that differs from its file under ``GOLDEN``; each JSON report must
    also parse as strict JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        code = main([tmp])
        if code != 0:
            return code
        names = [golden_name(command, fmt) for command in COMMANDS for fmt in FORMATS]
        for name in names:
            if name.endswith(".json"):
                strict_json((pathlib.Path(tmp) / name).read_text())
        differ = [n for n in names if (GOLDEN / n).read_bytes() != (pathlib.Path(tmp) / n).read_bytes()]
        for name in differ:
            sys.stdout.writelines(difflib.unified_diff(
                (GOLDEN / name).read_text().splitlines(keepends=True),
                (pathlib.Path(tmp) / name).read_text().splitlines(keepends=True),
                f"golden/{name}", f"regenerated/{name}"))
    print(f"{sys.version.split()[0]}: {len(names) - len(differ)} of {len(names)} reports byte-identical")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if argv == ["--compare"]:
        return compare()
    from reprokit.cli import main as cli_main

    out = pathlib.Path(argv[0])
    inputs = out / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    for command, args in write_inputs(inputs).items():
        for fmt in FORMATS:
            code = cli_main(args + ["--format", fmt, "--output", str(out / golden_name(command, fmt))])
            if code != 0:
                return code
    for f in inputs.iterdir():
        f.unlink()
    inputs.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
