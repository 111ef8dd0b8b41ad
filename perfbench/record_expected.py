"""Write perfbench/expected.json: the answers on the default seed.

    python3 perfbench/record_expected.py

Runs every instance of the default seed for each workload that records
values (the piercing numbers of pierce-2d and the s1 verdicts of
s1-hrep) and stores them. run.py compares its answers on that seed with
this file. Re-record only from a commit whose answers are trusted, and
say so in the change that does it.
"""
from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    pq = run.Program()
    expected = {}
    for name, workload in sorted(workloads.WORKLOADS.items()):
        insts = workload.instances(pq, workloads.DEFAULT_SEED)
        summaries = []
        for inst in insts:
            out = workload.run(pq, inst)
            problems = workload.check(inst, out)
            if problems:
                print(f"{name}: {problems}", file=sys.stderr)
                return 1
            summaries.append(workload.summary(out))
        values = workload.recorded(summaries)
        if values:
            expected[name] = values
    workloads.EXPECTED_PATH.write_text(json.dumps(expected) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
