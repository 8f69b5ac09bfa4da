#!/usr/bin/env python3
"""Self-check of the benchmark harness (about 20 s).

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json lists exactly the workloads and metrics that
run.py reports, that an unknown workload exits 2 with a one-line message,
that a corrupted reference makes its job fail and the run exit nonzero,
and that a directory holding only the benchmark files (no sources) exits
nonzero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

RUN = [sys.executable, str(run.BENCH / "run.py")]


def check(ok: bool, what: str) -> bool:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    return ok


def spawn(argv, cwd=run.ROOT):
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def main() -> int:
    results = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    results.append(check(
        [w["name"] for w in spec["workloads"]] == list(run.LISTED_WORKLOADS),
        "BENCHMARK.json workloads match run.LISTED_WORKLOADS"))
    results.append(check(
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        == list(run.PER_LAYER),
        "BENCHMARK.json per_layer matches run.PER_LAYER"))

    proc = spawn(RUN + ["--workload", "no-such-workload"])
    results.append(check(
        proc.returncode == 2 and not proc.stdout
        and len(proc.stderr.strip().splitlines()) == 1,
        f"unknown workload exits 2 with one line: {proc.stderr.strip()!r}"))

    run.use_sources()
    refs = json.loads((run.BENCH / "references.json").read_text())
    refs["rows_queen_q4"]["unlabelled"]["10"] += 1
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        summary, code = run.run_workload("tables", 1, 1, False, refs)
    results.append(check(
        code != 0 and "FAILED count-queen-q4" in printed.getvalue()
        and summary["failed"] == 1 and summary["correct"] is False,
        f"a corrupted reference fails its job and the run exits {code}"))

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = spawn([sys.executable, f"{run.BENCH.name}/run.py", "--workload",
                  "tables", "--seed", "1", "--seconds", "1", "--trace", "0"],
                 cwd=bare)
    shutil.rmtree(bare)
    results.append(check(proc.returncode != 0 and not proc.stdout,
                         "without sources the run exits "
                         f"{proc.returncode} and prints no result"))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
