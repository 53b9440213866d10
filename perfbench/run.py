"""cmreg benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload routes --seed 1 --seconds 19 --trace 0

Paths are resolved from this file, so any working directory works.  The
run is serial: this process starts one worker process at a time (see
worker.py), so at most two are alive.  Each worker is one pass over the
workload's fixed op list in a fresh interpreter, in the order the seed
sets.  A run makes as many passes as fit in --seconds at the reference
machine's speed, at least two; the count does not depend on the machine,
so every run pools the same op mix.

Times are calibrated (see speed.py): each op's measured time is scaled
to the reference machine's speed, using a fixed probe sampled on a timer
while the op runs.  The sandbox this was built on slows every process by
up to 1.6x in phases of a few seconds, and the calibrated times are
several times steadier than raw ones; README.md has the measurements.
wall_s is the sum over ops of each op's median over the passes, and
op_p50_s the median over ops of the same per-op medians.  op_tail_s is
taken over every op run of every pass: the latency at the highest
percentile with ten runs beyond it.  setup_s is the median calibrated
set-up time of at least fifteen fresh interpreters.  Raw seconds are
kept in the run's details.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1
passes alternate untraced and traced, and the metrics are the per-layer
ones from the traced passes.  The line before it records the run's
details: seeds, passes, failures, git hash, Python and numpy versions and
nproc.  Both are also written under perfbench/out/.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from tracer import COUNT_METRICS, LAYER_METRICS  # noqa: E402
from workloads import DEFAULT_CORPUS_SEED, WORKLOADS  # noqa: E402

# Calibrated seconds for one pass (set-up, ops, probes and the first
# pass's gates) on the reference machine at the seed commit.
PASS_REF_S = {"routes": 7.1, "checks": 6.6, "scroll": 3.6, "sessions": 5.3}
MIN_PASSES = 2
SETUP_SAMPLES = 15
TAIL_BEYOND = 10
# every run must end well inside the 180 s a run is allowed
RUN_BUDGET_S = 170.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND ops beyond it,
    and that percentile; the maximum when there are too few ops."""
    lat = sorted(latencies, reverse=True)
    k = min(TAIL_BEYOND, len(lat) - 1)
    return lat[k], 100.0 * (len(lat) - k) / len(lat)


def _per_op(reports, key):
    """{op name: [value in each pass]} over the given passes."""
    out = {}
    for r in reports:
        for row in r["ops"]:
            out.setdefault(row["name"], []).append(row[key])
    return out


def _env():
    git = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            git = None
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "cmreg", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {"git": git, "src_sha256": h.hexdigest()[:16],
            "python": platform.python_version(),
            "machine": platform.machine(), "nproc": os.cpu_count()}


class Runner:
    """Starts worker processes one at a time inside the run's budget."""

    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()

    def elapsed(self):
        return time.monotonic() - self.started

    def worker(self, *flags, spans=None):
        a = self.args
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", a.workload, "--seed", str(a.seed),
               "--corpus-seed", str(a.corpus_seed), *flags]
        if spans:
            cmd += ["--spans", spans]
        left = RUN_BUDGET_S - self.elapsed()
        if left <= 1.0:
            return None, "run budget exhausted"
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired:
            return None, "worker timed out"
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None, (f"worker exit {proc.returncode}: "
                          + proc.stderr.strip()[-300:])
        return json.loads(lines[-1]), None


def _passes(runner, args, stem):
    """Run the passes.  The first runs every op's gate; later untraced
    passes only render outputs, which must match the first pass exactly.
    Traced passes run the gates too, so the oracle layer shows in them."""
    count = max(MIN_PASSES, int(args.seconds // PASS_REF_S[args.workload]))
    reports, errors = [], []
    for k in range(count):
        traced = bool(args.trace) and k % 2 == 1
        flags = ["--trace"] if traced else []
        if k > 0 and not traced:
            flags.append("--no-gate")
        spans = (os.path.join(OUT_DIR, f"{stem}.spans.jsonl")
                 if traced and k == 1 else None)
        rep, err = runner.worker(*flags, spans=spans)
        if err:
            errors.append(err)
            break
        rep["traced"] = traced
        reports.append(rep)
    return reports, errors


def run(args):
    runner = Runner(args)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    # untimed: compiles bytecode and warms the file cache
    runner.worker("--setup-only")
    reports, errors = _passes(runner, args, stem)
    setups = list(reports)
    while len(setups) < SETUP_SAMPLES and not errors:
        rep, err = runner.worker("--setup-only")
        if err:
            errors.append(err)
        else:
            setups.append(rep)

    # correctness: every gate passed, and every pass gave every op the
    # same output, traced or not
    first, failures = {}, []
    attempted = failed = 0
    for rep in reports:
        for row in rep["ops"]:
            attempted += 1
            want = first.setdefault(row["name"], row["digest"])
            problems = row["problems"] or (
                [] if row["digest"] == want
                else ["output differs between passes"])
            if problems:
                failed += 1
                failures.append({"op": row["name"], "problems": problems})
    ops_per_pass = len(reports[0]["ops"]) if reports else 1
    attempted += ops_per_pass * len(errors)
    failed += ops_per_pass * len(errors)
    attempted = max(attempted, 1)
    failed = min(failed, attempted)
    correct = failed == 0 and not errors

    plain = [r for r in reports if not r["traced"]]
    cal = _per_op(plain, "cal")
    pooled = [x for v in cal.values() for x in v]
    tail, tail_pct = _tail(pooled) if pooled else (0.0, 0.0)
    raw = _per_op(plain, "s")
    info = {
        "workload": args.workload, "seed": args.seed,
        "corpus_seed": args.corpus_seed, "trace": args.trace,
        "seconds": args.seconds, "passes": len(reports),
        "ops_per_pass": ops_per_pass, "op_runs": len(pooled),
        "op_tail_percentile": tail_pct,
        "failed_frac": failed / attempted,
        "raw_wall_median_s": sum(statistics.median(v) for v in raw.values()),
        "raw_wall_best_s": sum(min(v) for v in raw.values()),
        "raw_setup_s": [r["setup_s"] for r in setups],
        "setup_cal_s": [r["setup_cal"] for r in setups],
        "pass_raw_s": [sum(row["s"] for row in r["ops"]) for r in reports],
        "pass_cal_s": [sum(row["cal"] for row in r["ops"]) for r in reports],
        "gate_s": [r["gate_s"] for r in reports],
        "errors": errors, "failures": failures[:10], "env": _env(),
        "numpy": reports[0]["numpy"] if reports else None,
    }

    if not args.trace:
        metrics = {
            "setup_s": _metric(statistics.median(r["setup_cal"]
                                                 for r in setups)
                               if setups else 0.0, "s"),
            "wall_s": _metric(sum(statistics.median(v)
                                  for v in cal.values()), "s"),
            "op_p50_s": _metric(statistics.median(
                statistics.median(v) for v in cal.values())
                if cal else 0.0, "s"),
            "op_tail_s": _metric(tail, "s"),
            "peak_rss_mb": _metric(
                statistics.median(r["rss_mb"] for r in plain)
                if plain else 0.0, "MB"),
        }
    else:
        traced = [r for r in reports if r["traced"]]
        # layer times are calibrated with their pass's speed factor
        speed = [sum(row["cal"] for row in r["ops"])
                 / max(sum(row["s"] for row in r["ops"]), 1e-9)
                 for r in traced]
        metrics = {}
        for name in LAYER_METRICS:
            values = [r["layers"][name] for r in traced]
            if name in COUNT_METRICS and len(set(values)) > 1:
                correct = False
                failures.append({"metric": name, "problems": [
                    f"differs between traced passes: {values}"]})
            if name.endswith("_s"):
                values = [v * f for v, f in zip(values, speed)]
                value = statistics.median(values) if values else 0.0
            else:
                value = values[0] if values else 0
            unit = ("s" if name.endswith("_s") else
                    "ratio" if name.endswith("_ratio") else "count")
            metrics[name] = _metric(value, unit)
        traced_cal = _per_op(traced, "cal")
        over = (sum(statistics.median(v) for v in traced_cal.values())
                / sum(statistics.median(v) for v in cal.values()) - 1.0
                if traced_cal and cal else 0.0)
        metrics["trace.overhead_frac"] = _metric(over, "ratio")
        info["spans_per_pass"] = [r["spans"] for r in traced]
        info["failures"] = failures[:10]

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"{stem}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"info": info, "result": result,
                   "passes": [{"traced": r["traced"], "ops": r["ops"]}
                              for r in reports]}, fh, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Run one cmreg benchmark workload and print its metrics.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True,
                    help="sets the op order within each pass")
    ap.add_argument("--seconds", type=float, required=True,
                    help="run length on the reference machine; sets the "
                         "number of passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus-seed", type=int, default=DEFAULT_CORPUS_SEED,
                    help="random_ideal_corpus seed; stored results exist "
                         "for the default only")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "cmreg", "__init__.py")):
        print(f"perfbench: no cmreg sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
