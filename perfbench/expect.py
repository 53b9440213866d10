"""Write the stored results that the benchmark's gates compare against.

    python3 perfbench/expect.py [workload ...]

Runs every op of each named workload (default: all) once, in canonical
order and for the default corpus seed, and writes perfbench/expected/
<workload>.json.  Refuses to write when an op fails its own gate.  The
committed files were generated at the seed commit; regenerate them only
when a change is meant to alter the engine's output.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def expected_for(workload):
    out = {}
    for op in workloads.build(workload, workloads.DEFAULT_CORPUS_SEED, ROOT,
                              expected={}):
        got = op.run()
        text = op.render(got)
        problems = op.gate(got, text)
        if problems:
            raise SystemExit(f"{workload}/{op.name}: {problems}")
        if workload == "scroll":
            # the repeats of one n share a stored result
            out[op.name.rsplit("-", 1)[0]] = {"exit": got[0], "stdout": got[1]}
        elif workload == "sessions":
            out[op.name] = {"exit": got[0], "stdout": got[1]}
        else:
            out[op.name] = text
    return out


def main(argv):
    os.makedirs(workloads.EXPECTED_DIR, exist_ok=True)
    for workload in argv or workloads.WORKLOADS:
        data = expected_for(workload)
        path = os.path.join(workloads.EXPECTED_DIR, f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{path}: {len(data)} ops")


if __name__ == "__main__":
    main(sys.argv[1:])
