"""One benchmark pass in a fresh interpreter.

A fresh process per pass means hilbert's module-global numerator cache
and every ring's and module's ``_cache`` start empty, as they do for a
CLI user.  The pass times set-up (importing cmreg, numpy included, and
building the inputs), then each op, then renders the op's output and,
unless --no-gate, runs its correctness gate, both outside the op's time.
Times are kept raw and calibrated (see speed.py).  With --trace the
tracer is installed after set-up.  The last stdout line is one JSON object for run.py.

    python3 perfbench/worker.py --workload routes --seed 1 [--trace]
"""

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import sys
import time

from speed import SpeedSampler

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_pass(workload, seed, corpus_seed, trace=False, gate=True,
             setup_only=False, spans_path=None):
    sampler = SpeedSampler().start()
    t0 = sampler.clock()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import cmreg  # noqa: F401  (numpy comes in through cmreg.oracle)
    import numpy
    import workloads
    ops = workloads.build(workload, corpus_seed, ROOT)
    random.Random(f"perfbench:{workload}:{seed}").shuffle(ops)
    t1 = sampler.clock()
    report = {"numpy": numpy.__version__}
    if setup_only:
        sampler.stop()
        report.update(setup_s=sampler.measured(t0, t1),
                      setup_cal=sampler.calibrate(t0, t1))
        return report

    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer().install()
    rows, intervals, gate_s = [], [], 0.0
    clock = time.perf_counter
    for k, op in enumerate(ops):
        if tracer:
            tracer.op_id = k
        # every op starts with no garbage left by the one before, as in a
        # fresh CLI process
        gc.collect()
        start = sampler.clock()
        try:
            out, problems = op.run(), []
        except Exception as e:  # a failing op is recorded; the pass goes on
            out, problems = None, [f"{type(e).__name__}: {e}"]
        intervals.append((start, sampler.clock()))
        if tracer:
            tracer.op_id = None
        g = clock()
        text = None
        if not problems:
            try:
                text = op.render(out)
                if gate:
                    problems = op.gate(out, text)
            except Exception as e:  # a gate that raises fails the op
                problems = [f"gate raised {type(e).__name__}: {e}"]
        gate_s += clock() - g
        rows.append({
            "name": op.name, "ok": not problems,
            "digest": (hashlib.sha256(text.encode()).hexdigest()[:16]
                       if text is not None else None),
            "problems": problems[:3],
        })
    sampler.stop()
    for row, (start, end) in zip(rows, intervals):
        row["s"] = sampler.measured(start, end)
        row["cal"] = sampler.calibrate(start, end)
    report.update(setup_s=sampler.measured(t0, t1),
                  setup_cal=sampler.calibrate(t0, t1),
                  ops=rows, gate_s=gate_s,
                  rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  / 1024.0)
    if tracer:
        tracer.uninstall()
        cache = len(sys.modules["cmreg.hilbert"]._NUMERATOR_CACHE)
        report["layers"] = tracing.layer_metrics(tracer.spans, cache)
        report["spans"] = len(tracer.spans)
        if spans_path:
            with open(spans_path, "w", encoding="utf-8") as fh:
                for row in tracer.export():
                    fh.write(json.dumps(row) + "\n")
    return report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--corpus-seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--no-gate", action="store_true",
                    help="only render outputs; run.py compares them with "
                         "a gated pass")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the pass's spans here (JSON lines)")
    args = ap.parse_args(argv)
    report = run_pass(args.workload, args.seed, args.corpus_seed,
                      trace=args.trace, gate=not args.no_gate,
                      setup_only=args.setup_only,
                      spans_path=args.spans)
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
