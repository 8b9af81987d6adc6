"""Benchmark of the dynamic-linking simulator: one command, three workloads.

Run from the repository root::

    python3 simbench/run.py --workload campaign-cold --seed 2015 --seconds 25 --trace 0

``--trace 0`` times closed-loop repetitions of the workload's unit of work
(tracing off) and prints the end-to-end metrics; ``--trace 1`` makes one
traced pass and prints the per-layer metrics, writing its spans to
``.simbench_out/``.  Either way the simulated outputs are checked, and the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it reports the non-blank line count of each top-level module of
``src/repro``, ungated.

Workloads, metrics and bounds are described in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("campaign-cold", "abtb-sweep", "paper-tables")
#: What a user's process imports before its first run.
IMPORTS = (
    "import repro.experiments.runner, repro.experiments.table2, "
    "repro.experiments.table4, repro.sweep.engine"
)
#: Fresh interpreters timed for the start-up part of ``setup_s``.
IMPORT_REPS = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument(
        "--seed", type=int, default=2015,
        help="picks the cross-checked point and, with --trace 1, the held-out "
        "recipe seed (default 2015, the calibrated recipe seed)",
    )
    parser.add_argument("--seconds", type=float, default=25.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def reset_peak_rss() -> bool:
    """Restart this process's peak-RSS counter (Linux ``clear_refs`` 5)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb(reset_ok: bool) -> float:
    """Peak RSS of this process since the reset, plus its largest child's.

    The children's figure is a lifetime maximum, so no other child may have
    ended before the reading: only the workers of the timed loop count.
    """
    parent_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if reset_ok:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    parent_kb = int(line.split()[1])
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (parent_kb + child_kb) / 1024


def import_seconds() -> float:
    """Wall seconds for a fresh interpreter to import the simulator."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORTS], env=env, check=True, cwd=ROOT)
    return time.perf_counter() - start


def timed_loop(scenario, seconds: float) -> list:
    """Closed loop of units, ending as close to ``seconds`` as units allow.

    Another unit runs while at least half of one (at the mean so far)
    still fits, so the measured time stays within half a unit of
    ``seconds``.
    """
    reps = []
    used = 0.0
    while True:
        rep = scenario.unit()
        used += rep.wall_s
        if reps:
            scenario.drop(reps[-1])  # verify() reads only the last unit's stores
        reps.append(rep)
        if used + used / len(reps) / 2 >= seconds:
            return reps


def end_to_end(scenario, seconds: float) -> dict:
    from metrics import failed_points, median

    prepare = [scenario.prepare() for _ in range(scenario.prepare_reps)]
    reset_ok = reset_peak_rss()
    reps = timed_loop(scenario, seconds)
    rss = peak_rss_mb(reset_ok)
    # Interpreter start-up is timed after the loop, so that these small
    # child interpreters stay out of the children's peak RSS.
    imports = [import_seconds() for _ in range(IMPORT_REPS)]
    verdict = scenario.verify(reps)
    for rep in reps:
        scenario.drop(rep)
    for line in verdict.checks:
        print(f"check failed: {line}", file=sys.stderr)
    keys = scenario.keys()
    attempted = len(keys) * len(reps)
    failed = failed_points([(r.summaries, r.errored) for r in reps], keys, verdict.bad_keys)
    print(
        f"{scenario.name}: {len(reps)} unit(s) of {len(keys)} point(s), "
        f"walls {[round(r.wall_s, 3) for r in reps]}, "
        f"imports {[round(s, 3) for s in imports]}, prepare {[round(s, 3) for s in prepare]}",
        file=sys.stderr,
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "sim_instr_per_s": (median(r.sim_instructions / r.wall_s for r in reps), "instr/s"),
            "setup_s": (median(imports) + median(prepare), "s"),
            "peak_rss_mb": (rss, "MB"),
            "ok_frac": (1.0 - failed / attempted, "ratio"),
            "paper_t2_err": (verdict.paper_t2_err, "log"),
            "paper_t4_err": (verdict.paper_t4_err, "log"),
        },
    }


def traced(scenario, seed: int, out_dir: Path) -> dict:
    from layers import traced_run
    from metrics import src_line_counts
    from spans import SpanRecorder

    rec = SpanRecorder()
    try:
        with rec.span("run", point=scenario.name):
            metrics, attempted, failures = traced_run(scenario, rec, seed)
    finally:
        rec.write(out_dir / f"{scenario.name}-seed{seed}-spans.json")
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    metrics["src.lines"] = (sum(src_line_counts(ROOT / "src" / "repro").values()), "lines")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work_root = ROOT / ".simbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    # Keep every temporary file the program makes inside the checkout.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    try:
        try:
            from metrics import src_line_counts
            from scenarios import SCENARIOS
        except ImportError as exc:
            print(f"error: cannot import the simulator: {exc}", file=sys.stderr)
            return 2
        scenario = SCENARIOS[args.workload](work, args.seed)
        if args.trace:
            result = traced(scenario, args.seed, ROOT / ".simbench_out")
        else:
            result = end_to_end(scenario, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps({"src_lines": src_line_counts(ROOT / "src" / "repro")}))
    result["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    start = time.perf_counter()
    code = main()
    print(f"done in {time.perf_counter() - start:.1f}s", file=sys.stderr)
    sys.exit(code)
