#!/usr/bin/env python3
"""riderpoly benchmark: real CLI jobs, one fresh process at a time.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all             # tables, recon and chain

Run from the repository root.  Each job runs ``riderpoly.cli`` as
``python -m`` does, against ``src/`` in a fresh process, so in-process
caches start cold.  With ``--trace 0`` the workload's jobs are repeated
in passes for ``--seconds`` seconds, with a fixed calibration run after
each job, and the end-to-end metrics are reported at the calibration's
reference speed; with ``--trace 1`` each job runs untraced and traced
back to back, in passes, which give the per-layer split (see
trace_job.py) and the tracing overhead.  Every job's output is checked,
outside the timed region, against references.json or against the other
counting route.  The last line of standard output is one JSON object; a
results file with machine metadata goes to .perfbench/.

Exit codes: 0 all checks passed, 1 a job failed or the sources are
missing, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DEFAULT_SEED = 1
SETUP_REPEATS = 3
# A traced run makes at least this many untraced/traced pairs per job, so
# the overhead is a median of pairs rather than one difference.
TRACE_MIN_PASSES = 3
# A listed workload's run must end within 180 s, so its jobs are killed
# this many seconds after the run starts.
RUN_LIMIT_S = 170.0
# Runs the CLI as ``python -m riderpoly.cli`` does, then reports the
# process's own peak RSS on stderr.  A child's ru_maxrss is not used: it
# also counts the harness's own peak RSS at the time of the spawn.
HWM_TAG = "perfbench-VmHWM-kB"
LAUNCHER = ("import runpy, sys\n"
            "try:\n"
            "    runpy.run_module('riderpoly.cli', run_name='__main__', alter_sys=True)\n"
            "finally:\n"
            "    with open('/proc/self/status') as status:\n"
            "        hwm = [line.split()[1] for line in status if line.startswith('VmHWM:')]\n"
            f"    print({HWM_TAG!r}, *hwm, file=sys.stderr)\n")
PROBE = ("import sys\n"
         "from riderpoly.cli import build_parser\n"
         "build_parser().parse_args(sys.argv[1:])\n")
# A fixed computation, in a fresh Python, that riderpoly's code cannot
# change: rational and dictionary work, as in the jobs.  It runs after
# every timed job and every set-up probe.  Its median time over a phase of
# the run, against CALIBRATION_REFERENCE_S (its median on the 2-CPU host
# the benchmark was sized on), gives the host's speed during that phase.
CALIBRATION = ("from fractions import Fraction\n"
               "total = Fraction(0)\n"
               "for i in range(1, 12001):\n"
               "    total += Fraction(i % 97, i % 89 + 1)\n"
               "seen = {}\n"
               "for i in range(150000):\n"
               "    seen[(i * 7919) % 65536] = i & 255\n"
               "assert total.denominator > 0 and len(seen) == 65536\n")
CALIBRATION_REFERENCE_S = 0.175

PER_LAYER = (
    ("kernel.count_nonattacking_subsets.s", "s", "lower"),
    ("kernel.count_nonattacking_subsets.calls", "count", "lower"),
    ("kernel.count_nonattacking_subsets.cells", "count", "lower"),
    ("counting.census_types.s", "s", "lower"),
    ("counting.census_types.calls", "count", "lower"),
    ("counting.count_nonattacking.s", "s", "lower"),
    ("geometry.interior_lattice_points.s", "s", "lower"),
    ("geometry.interior_lattice_points.calls", "count", "lower"),
    ("arrangement.intersection_semilattice.s", "s", "lower"),
    ("arrangement.intersection_semilattice.flats", "count", "lower"),
    ("arrangement.intersection_semilattice.iso_classes", "count", "lower"),
    ("linalg.canonical_int_rows.calls", "count", "lower"),
    ("linalg.in_row_space.calls", "count", "lower"),
    ("arrangement.new_flat_ratio", "ratio", "higher"),
    ("arrangement.alpha.s", "s", "lower"),
    ("arrangement.alpha.calls", "count", "lower"),
    ("arrangement.alpha.evaluations", "count", "lower"),
    ("arrangement.alpha.hit_ratio", "ratio", "higher"),
    ("symbolic.flat_polytope_denominator.s", "s", "lower"),
    ("symbolic.flat_polytope_denominator.calls", "count", "lower"),
    ("symbolic.alpha_qp.s", "s", "lower"),
    ("symbolic.alpha_qp.calls", "count", "lower"),
    ("symbolic.reconstruction_quasipolynomials.s", "s", "lower"),
    ("bounds.denominator.s", "s", "lower"),
    ("bounds.denominator.calls", "count", "lower"),
    ("bounds.denominator.systems", "count", "lower"),
    ("bounds.scan_vertices.s", "s", "lower"),
    ("bounds.scan_vertices.calls", "count", "lower"),
    ("bounds.scan_vertices.vertices", "count", "lower"),
    ("bounds.lcmd_direct.s", "s", "lower"),
    ("bounds.lcmd_direct.minors", "count", "lower"),
    ("linalg.bareiss_determinant.calls", "count", "lower"),
    ("quasipoly.fit_values.s", "s", "lower"),
    ("quasipoly.fit_values.calls", "count", "lower"),
    ("quasipoly.fit_values.held_out_rows", "count", "higher"),
    ("quasipoly.detect_period.s", "s", "lower"),
    ("quasipoly.detect_period.candidates", "count", "lower"),
    ("cli.main.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


# -- workloads ------------------------------------------------------------

@dataclass(frozen=True)
class Job:
    name: str
    args: str          # CLI arguments; "{piece}" is the seeded piece
    check: str         # name of a check_* function below
    ref: str = ""      # key into references.json


WORKLOADS = {
    # Brute-force route and table fits: the kernel counts in count_series
    # and iterates in census_types; piece, board and q all vary.
    "tables": (
        Job("types-queen-q3", "types --piece queen --q 3 --n 1:16 --census 4:6",
            "check_types", "types_queen_q3"),
        Job("fit-nightrider-q2", "fit --piece nightrider --q 2 --n 1:20",
            "check_fit", "fit_nightrider_q2"),
        Job("count-nightrider-q3", "count --piece nightrider --q 3 --n 1:14",
            "check_rows", "rows_nightrider_q3"),
        Job("count-queen-q4", "count --piece queen --q 4 --n 1:10",
            "check_rows", "rows_queen_q4"),
        Job("types-bishop-q3-triangle",
            "types --piece bishop --q 3 --board poly:-1,0,0;0,-1,0;1,1,1 "
            "--n 1:20 --census 10:10", "check_types", "types_bishop_q3_triangle"),
        Job("count-seeded-q3", "count --piece={piece} --q 3 --n 1:12",
            "check_seeded_rows"),
    ),
    # The Mobius route: closure, per-flat denominators, alpha, fits and
    # assembly, with the kernel only in the n <= 6 cross-check.  Scaled
    # stand-in for queen4, which alone outlasts a run (see README.md).
    "recon": (
        Job("recon-rook-q4",
            "count --method reconstruction --piece rook --q 4 --n 1:70",
            "check_recon", "recon_rook_q4"),
        Job("recon-queen-q3",
            "count --method reconstruction --piece queen --q 3 --n 1:70",
            "check_recon", "recon_queen_q3"),
        Job("recon-bishop-q3",
            "count --method reconstruction --piece bishop --q 3 --n 1:70",
            "check_recon", "recon_bishop_q3"),
        Job("recon-nightrider-q2",
            "count --method reconstruction --piece nightrider --q 2 --n 1:70",
            "check_recon", "recon_nightrider_q2"),
    ),
    # Full 2q-dimensional vertex scans in bounds.denominator, against the
    # many small per-flat scans that the reconstruction makes.
    "chain": (
        Job("bounds-queen-q2", "bounds --piece queen --q 2",
            "check_bounds", "bounds_queen_q2"),
        Job("bounds-nightrider-q2", "bounds --piece nightrider --q 2",
            "check_bounds", "bounds_nightrider_q2"),
        Job("bounds-bishop-q3", "bounds --piece bishop --q 3",
            "check_bounds", "bounds_bishop_q3"),
        Job("bounds-rook-q3", "bounds --piece rook --q 3",
            "check_bounds", "bounds_rook_q3"),
        Job("bounds-semiqueen-q3", "bounds --piece semiqueen --q 3",
            "check_bounds", "bounds_semiqueen_q3"),
        # q = 2: at q = 3 the scan time varies by up to 1.5x with the
        # drawn piece, which would make the seed, not the code, move wall_s.
        Job("bounds-seeded-q2", "bounds --piece={piece} --q 2", "check_chain"),
        Job("bounds-nightrider-q4", "bounds --piece nightrider --q 4",
            "check_bounds", "bounds_nightrider_q4"),
    ),
    # The full q = 3 chain: the queen and nightrider scans take 10-12 s
    # each, too long to repeat in passes, so it is run by hand.
    "chain-q3": (
        Job("bounds-queen-q3", "bounds --piece queen --q 3",
            "check_bounds", "bounds_queen_q3"),
        Job("bounds-nightrider-q3", "bounds --piece nightrider --q 3",
            "check_bounds", "bounds_nightrider_q3"),
        Job("bounds-bishop-q3-period",
            "bounds --piece bishop --q 3 --observe-period-n 16",
            "check_bounds", "bounds_bishop_q3_period"),
        Job("bounds-seeded-q3", "bounds --piece={piece} --q 3", "check_chain"),
        Job("bounds-nightrider-q4", "bounds --piece nightrider --q 4",
            "check_bounds", "bounds_nightrider_q4"),
    ),
    # The paper's reach result.  Its one job runs 75-110 s on a 2-CPU host,
    # longer than a run may take, so BENCHMARK.json does not list it.
    "queen4": (
        Job("recon-queen-q4",
            "count --method reconstruction --piece queen --q 4 --n 1:70",
            "check_recon", "recon_queen_q4"),
    ),
}
LISTED_WORKLOADS = ("tables", "recon", "chain")


def seeded_piece(seed: int) -> str:
    """Three coprime, pairwise non-parallel moves with entries in [-2, 2]."""
    rng = random.Random(seed)
    moves: list[tuple[int, int]] = []
    while len(moves) < 3:
        c, d = rng.randint(-2, 2), rng.randint(-2, 2)
        if math.gcd(c, d) != 1:
            continue
        if any(c * d2 - d * c2 == 0 for c2, d2 in moves):
            continue
        moves.append((c, d))
    return ";".join(f"{c},{d}" for c, d in moves)


# -- reference checks (outside the timed region) -----------------------------

class Checker:
    """Checks one job's JSON output; each check returns a list of problems."""

    def __init__(self, refs: dict, piece: str):
        self.refs = refs
        self.piece = piece
        self._seeded_rows = None

    def __call__(self, job: Job, stdout: str) -> list[str]:
        try:
            data = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        from riderpoly.errors import RiderPolyError
        try:
            return getattr(self, job.check)(data, self.refs.get(job.ref, {}))
        except (KeyError, TypeError, ValueError, ArithmeticError,
                RiderPolyError) as exc:
            return [f"output fails its check: {exc!r}"]

    @staticmethod
    def _rows(data) -> dict[int, int]:
        return {row["n"]: int(row["unlabelled"]) for row in data["rows"]}

    def check_types(self, data, ref):
        problems = []
        if int(data["types"]["unlabelled"]) != ref["unlabelled"]:
            problems.append(f"types {data['types']['unlabelled']} != {ref['unlabelled']}")
        if f"(period {ref['period']}," not in data["types"]["from"]:
            problems.append(f"fit period is not {ref['period']}: {data['types']['from']}")
        census = {row["n"]: int(row["unlabelled_types"]) for row in data["census"]}
        if census != {int(n): v for n, v in ref["census"].items()}:
            problems.append(f"census {census} != {ref['census']}")
        return problems

    def check_fit(self, data, ref):
        got = data["quasipolynomial"]
        want = ref["quasipolynomial"]
        if data["period"] != ref["period"] or got["constituents"] != want["constituents"]:
            return [f"fit {got} != {want}"]
        return []

    def check_rows(self, data, ref):
        want = {int(n): v for n, v in ref["unlabelled"].items()}
        got = self._rows(data)
        bad = {n: (got.get(n), v) for n, v in want.items() if got.get(n) != v}
        bad.update({n: (v, None) for n, v in got.items() if n not in want})
        return [f"rows differ (got, reference): {bad}"] if bad else []

    def check_seeded_rows(self, data, ref):
        got = self._rows(data)
        want = self.seeded_reference()
        bad = {n: (got.get(n), v) for n, v in want.items() if got.get(n) != v}
        return [f"brute force != reconstruct_count/q! at {bad}"] if bad else []

    def seeded_reference(self) -> dict[int, int]:
        """The other route: Mobius reconstruction of the seeded piece, n <= 8."""
        if self._seeded_rows is None:
            from riderpoly.arrangement import intersection_semilattice, reconstruct_count
            from riderpoly.geometry import BoardPolygon, piece_from_text
            sl = intersection_semilattice(piece_from_text(self.piece), 3)
            board = BoardPolygon.square()
            self._seeded_rows = {n: reconstruct_count(sl, board, n) // 6
                                 for n in range(1, 9)}
        return self._seeded_rows

    def check_recon(self, data, ref):
        from riderpoly import quasipoly as qp
        rows = self._rows(data)
        problems = []
        fitted = qp.fit_values(rows, ref["period"], ref["degree"])
        types = qp.types_count(fitted)
        if types != ref["types"]:
            problems.append(f"types at n=-1: {types} != {ref['types']}")
        gamma0 = set(qp.coefficient(fitted, 0))
        if gamma0 != {Fraction(ref["gamma0"])}:
            problems.append(f"gamma_0 {gamma0} != {ref['gamma0']}")
        for n, v in ref.get("unlabelled", {}).items():
            if rows.get(int(n)) != v:
                problems.append(f"row {n}: {rows.get(int(n))} != {v}")
        return problems

    def check_bounds(self, data, ref):
        problems = [f"{key} {data.get(key)!r} != {want!r}"
                    for key, want in ref.items()
                    if key not in ("source", "notes_mention") and data.get(key) != want]
        for word in ref.get("notes_mention", []):
            if not any(word in note for note in data["notes"]):
                problems.append(f"no note mentions {word!r}")
        return problems + self._divisibility(data)

    def check_chain(self, data, ref):
        problems = self._divisibility(data)
        if not data["exhaustive"]:
            problems.append("not scanned exhaustively")
        return problems

    @staticmethod
    def _divisibility(data) -> list[str]:
        """Observed period | denominator | lcmd, wherever they were computed."""
        period, denom, lcmd = (data["period_observed"], data["denominator"],
                               data["lcmd"])
        problems = []
        if period is not None and (denom is None or denom % period):
            problems.append(f"period {period} does not divide denominator {denom}")
        if denom is not None and (lcmd is None or lcmd % denom):
            problems.append(f"denominator {denom} does not divide lcmd {lcmd}")
        return problems


# -- running jobs -----------------------------------------------------------

@dataclass
class Run:
    job: str
    wall_s: float
    rss_mb: float | None   # peak RSS, reported by untraced jobs
    exit: int
    stdout: str
    problems: list
    trace: dict | None = None   # spans and counts of a traced run


def spawn(argv: list[str], deadline: float, tag: str) -> tuple[float, int, str, str]:
    """Run argv to its exit; (wall seconds, exit code, stdout, stderr)."""
    OUT.mkdir(exist_ok=True)
    out_path, err_path = OUT / f"{tag}.out", OUT / f"{tag}.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=err,
                                env=dict(os.environ, PYTHONPATH=str(SRC)))
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            proc.wait()
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    return wall, proc.returncode, out_path.read_text(), err_path.read_text()


def job_argv(job: Job, piece: str) -> list[str]:
    return job.args.format(piece=piece).split() + ["--format", "json"]


def run_job(job: Job, piece: str, deadline: float, traced: bool = False) -> Run:
    args = job_argv(job, piece)
    spans_path = OUT / f"{job.name}.spans.json"
    if traced:
        spans_path.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "trace_job.py"),
                str(spans_path), job.name, *args]
    else:
        argv = [sys.executable, "-c", LAUNCHER, *args]
    wall, code, stdout, stderr = spawn(argv, deadline, job.name)
    hwm = [line.split()[1:] for line in stderr.splitlines() if line.startswith(HWM_TAG)]
    rss_mb = int(hwm[-1][0]) / 1024 if hwm and hwm[-1] else None
    run = Run(job.name, wall, rss_mb, code, stdout, [])
    if traced and spans_path.is_file():
        run.trace = json.loads(spans_path.read_text())
    return run


def check_runs(jobs, runs, checker, traced=False) -> None:
    for job, run in zip(jobs, runs):
        if run.exit != 0:
            run.problems = [f"exit code {run.exit}"]
        elif traced and run.trace is None:
            run.problems = ["the traced job wrote no spans"]
        else:
            run.problems = checker(job, run.stdout)


def repeat(one_pass, seconds: int, deadline: float, min_passes: int = 1) -> list:
    """Run passes until another would end after ``seconds`` or the deadline."""
    passes = []
    start = time.monotonic()
    while True:
        pass_start = time.monotonic()
        passes.append(one_pass(len(passes)))
        now = time.monotonic()
        end = now + (now - pass_start)
        if end > deadline or (len(passes) >= min_passes and end > start + seconds):
            return passes


def calibrate(deadline: float) -> float:
    wall, code, _, _ = spawn([sys.executable, "-c", CALIBRATION], deadline,
                             "calibration")
    if code != 0:
        raise SystemExit("calibration probe failed")
    return wall


def setup_times(jobs, piece, deadline) -> tuple[dict[str, list[float]], list[float]]:
    """Per job: times to start Python, import riderpoly.cli and parse; and
    the calibration times taken between them."""
    samples, calibration = {}, []
    for job in jobs:
        argv = [sys.executable, "-c", PROBE, *job_argv(job, piece)]
        samples[job.name] = []
        for _ in range(SETUP_REPEATS):
            wall, code, _, _ = spawn(argv, deadline, "setup")
            if code != 0:
                raise SystemExit(f"setup probe failed for {job.name}")
            samples[job.name].append(wall)
            calibration.append(calibrate(deadline))
    return samples, calibration


# -- trace analysis ---------------------------------------------------------

def self_times(spans) -> dict[str, float]:
    """Per span name: total duration minus the time covered by child spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, float] = {}
    for idx, (name, start, end, _) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - child[idx]
    return totals


def layer_values(traced_runs) -> tuple[dict, dict, dict]:
    """One traced pass: self seconds by span name, counters by name, and
    each job's cli.main self seconds."""
    selfs: dict[str, float] = {}
    counts: dict[str, float] = {}
    main_by_job: dict[str, float] = {}
    candidates = 0
    for run in traced_runs:
        if run.trace is None:
            continue  # the job died before writing; it is counted as failed
        spans = run.trace["spans"]
        job_selfs = self_times(spans)
        main_by_job[run.job] = job_selfs.get("cli.main", 0.0)
        for name, value in job_selfs.items():
            selfs[name] = selfs.get(name, 0.0) + value
        for name, value in run.trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
        candidates += sum(1 for name, _, _, parent in spans
                          if name == "quasipoly.fit_values" and parent >= 0
                          and spans[parent][0] == "quasipoly.detect_period")
    counts["quasipoly.detect_period.candidates"] = candidates
    flats = counts.get("arrangement.intersection_semilattice.flats", 0)
    tried = counts.get("arrangement.intersection_semilattice.canonical_calls", 0)
    counts["arrangement.new_flat_ratio"] = flats / tried if tried else 0.0
    calls = counts.get("arrangement.alpha.calls", 0)
    evaluations = counts.get("arrangement.alpha.evaluations", 0)
    counts["arrangement.alpha.hit_ratio"] = 1 - evaluations / calls if calls else 0.0
    return selfs, counts, main_by_job


def per_layer(jobs, passes) -> tuple[dict, dict]:
    """Per-layer metrics, each the median over passes, and the overhead.

    ``passes`` holds, per pass, one (untraced, traced) pair of runs per job.
    """
    values = [layer_values([traced for _, traced in pairs]) for pairs in passes]
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        if name.endswith(".s"):
            samples = [selfs.get(name[:-2], 0.0) for selfs, _, _ in values]
        else:
            samples = [counts.get(name, 0) for _, counts, _ in values]
        metrics[name] = {"value": statistics.median(samples), "unit": unit}

    # The overhead of each job is the median of its traced-minus-untraced
    # differences; each difference compares two runs made back to back.
    diffs = {job.name: [pairs[i][1].wall_s - pairs[i][0].wall_s for pairs in passes]
             for i, job in enumerate(jobs)}
    overhead = sum(statistics.median(d) for d in diffs.values())
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    per_pass = [sum(t.wall_s - u.wall_s for u, t in pairs) for pairs in passes]
    # Told apart from the host's drift only when at least nine tenths of
    # all pairs agree on its sign.
    every = [d for job_diffs in diffs.values() for d in job_diffs]
    agree = max(sum(d > 0 for d in every), sum(d < 0 for d in every))
    resolved = agree >= 0.9 * len(every)

    untraced_wall = statistics.median(sum(u.wall_s for u, _ in pairs) for pairs in passes)
    traced_wall = sum(t.wall_s for pairs in passes for _, t in pairs)
    shares: dict[str, float] = {}
    for selfs, _, _ in values:
        for name, value in selfs.items():
            layer = name.split(".", 1)[0]
            shares[layer] = shares.get(layer, 0.0) + value / traced_wall
    shares["outside cli.main (start-up, imports)"] = 1 - sum(shares.values())
    detail = {"layer_shares_of_traced_wall": shares,
              "cli_main_self_s_per_job": {
                  job.name: statistics.median(main[job.name] for _, _, main in values
                                              if job.name in main)
                  for job in jobs if any(job.name in main for _, _, main in values)},
              "untraced_wall_s": untraced_wall,
              "overhead_s_per_job": diffs,
              "overhead_s_per_pass": per_pass,
              "overhead_pairs_agreeing": [agree, len(every)],
              "overhead_resolved": resolved,
              "overhead_share": overhead / untraced_wall}
    return metrics, detail


# -- metadata and reporting -------------------------------------------------

def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def metadata(workload: str, seed: int, piece: str) -> dict:
    from riderpoly import kernel
    return {
        "workload": workload,
        "seed": seed,
        "seeded_piece": piece,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "kernel": kernel.implementation_name(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "loadavg_start": loadavg(),
    }


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    pct = math.floor(100 * (n - 10) / n)
    return pct, ordered[math.ceil(pct / 100 * n) - 1]


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 refs: dict) -> tuple[dict, int]:
    started = time.monotonic()
    limit = RUN_LIMIT_S if workload in LISTED_WORKLOADS else 3600
    deadline = started + limit
    jobs = WORKLOADS[workload]
    piece = seeded_piece(seed)
    checker = Checker(refs, piece)
    meta = metadata(workload, seed, piece)
    result: dict = {"metadata": meta}

    if trace:
        def traced_pass(index: int) -> list[tuple[Run, Run]]:
            pairs = []
            for j, job in enumerate(jobs):
                # Alternate which of the two runs first, so that a drift in
                # the host's speed does not always land on the same side.
                order = (True, False) if (index + j) % 2 else (False, True)
                pair = {t: run_job(job, piece, deadline, traced=t) for t in order}
                pairs.append((pair[False], pair[True]))
            check_runs(jobs, [u for u, _ in pairs], checker)
            check_runs(jobs, [t for _, t in pairs], checker, traced=True)
            return pairs

        passes = repeat(traced_pass, seconds, deadline, TRACE_MIN_PASSES)
        runs = [run for pairs in passes for pair in pairs for run in pair]
        metrics, detail = per_layer(jobs, passes)
        result["passes"] = len(passes)
        result["trace"] = detail
    else:
        setup, setup_calibration = setup_times(jobs, piece, deadline)
        calibration: list[float] = []

        def untraced_pass(index: int) -> list[Run]:
            runs = []
            for job in jobs:
                runs.append(run_job(job, piece, deadline))
                calibration.append(calibrate(deadline))
            check_runs(jobs, runs, checker)
            return runs

        passes = repeat(untraced_pass, seconds, deadline)
        runs = [run for p in passes for run in p]
        per_job = {job.name: [p[i].wall_s for p in passes]
                   for i, job in enumerate(jobs)}
        totals = [sum(r.wall_s for r in p) for p in passes]
        # The host's speed drifts by up to 2x within minutes, so each phase
        # is scaled to the calibration's reference speed by the calibration
        # runs made during it.
        wall_raw = sum(statistics.median(v) for v in per_job.values())
        setup_raw = sum(statistics.median(v) for v in setup.values())
        scale = CALIBRATION_REFERENCE_S / statistics.median(calibration)
        setup_scale = CALIBRATION_REFERENCE_S / statistics.median(setup_calibration)
        metrics = {
            "wall_s": {"value": wall_raw * scale, "unit": "s"},
            "setup_s": {"value": setup_raw * setup_scale, "unit": "s"},
            "peak_rss_mb": {"value": max(r.rss_mb or 0.0 for r in runs), "unit": "MB"},
        }
        result["passes"] = len(passes)
        result["wall_s_raw"] = wall_raw
        result["setup_s_raw"] = setup_raw
        result["speed_scale"] = scale
        result["setup_speed_scale"] = setup_scale
        result["calibration_s"] = calibration
        result["setup_calibration_s"] = setup_calibration
        result["wall_s_per_pass"] = totals
        result["wall_s_per_job"] = per_job
        result["setup_s_per_job"] = setup
        tail = tail_percentile(totals)
        result["wall_s_tail"] = (
            {"percentile": tail[0], "value": tail[1], "samples": len(totals)}
            if tail else f"needs 11 passes, have {len(totals)}")

    failed = sum(1 for r in runs if r.problems)
    meta["loadavg_end"] = loadavg()
    meta["elapsed_s"] = time.monotonic() - started
    result["jobs"] = [{"job": r.job, "wall_s": r.wall_s, "rss_mb": r.rss_mb,
                       "exit": r.exit, "problems": r.problems} for r in runs]
    result["failed_share"] = failed / len(runs)
    result["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {workload}: seed {seed} (piece {piece}), kernel {meta['kernel']}, "
          f"{len(runs)} job runs, results in {OUT.name}/{name}")
    for r in runs:
        for problem in r.problems:
            print(f"  FAILED {r.job}: {problem}")
    for key, m in metrics.items():
        print(f"  {key:52s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_share':52s} {failed / len(runs):.6g} share "
          f"({failed} of {len(runs)} job runs)")
    if not trace:
        print(f"  wall_s over {len(passes)} passes: {', '.join(f'{t:.3f}' for t in totals)}"
              f"; unscaled wall_s {result['wall_s_raw']:.3f} s (scale"
              f" {scale:.4f}), setup_s {setup_raw:.3f} s (scale {setup_scale:.4f})"
              f"; tail: {result['wall_s_tail']}")
    else:
        detail = result["trace"]
        agree, pairs = detail["overhead_pairs_agreeing"]
        print(f"  trace.overhead_s over {len(passes)} passes: "
              f"{', '.join(f'{d:+.3f}' for d in detail['overhead_s_per_pass'])}; "
              f"{agree} of {pairs} pairs agree on its sign, so it is "
              + ("resolved" if detail["overhead_resolved"] else "unresolved"))
        for layer, share in sorted(detail["layer_shares_of_traced_wall"].items(),
                                   key=lambda kv: -kv[1]):
            print(f"  share of traced wall  {layer:40s} {share:7.1%}")
    summary = {"correct": failed == 0, "attempted": len(runs), "failed": failed,
               "metrics": metrics}
    return summary, (0 if failed == 0 else 1)


def use_sources() -> None:
    """Import riderpoly from src/; jobs and checks run with its defaults."""
    sys.path.insert(0, str(SRC))
    for key in [k for k in os.environ if k.startswith("RIDERPOLY_")]:
        del os.environ[key]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help=f"{', '.join(WORKLOADS)} or all (= {', '.join(LISTED_WORKLOADS)})")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if not (SRC / "riderpoly" / "cli.py").is_file():
        print(f"run.py: no riderpoly sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 1
    use_sources()
    refs = json.loads((BENCH / "references.json").read_text())

    names = LISTED_WORKLOADS if args.workload == "all" else (args.workload,)
    summaries, code = {}, 0
    for name in names:
        summaries[name], status = run_workload(name, args.seed, args.seconds,
                                               bool(args.trace), refs)
        code = max(code, status)
    print(json.dumps(summaries[names[0]] if len(names) == 1 else summaries))
    return code


if __name__ == "__main__":
    sys.exit(main())
