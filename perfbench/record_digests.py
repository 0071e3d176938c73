"""Record the output digest of every operation the benchmark can run.

    PYTHONPATH=src python3 perfbench/record_digests.py

Runs every workload's operations once, in this process, and writes their
digests to ``perfbench/digests.json``.
For ``ls-rank3`` it runs every reduced word of w0, a superset of the
words the seed can draw.  Run
it only on a commit whose outputs are known to be right; the benchmark
then counts any operation whose output differs as failed.
"""

import json
import sys
from pathlib import Path

import workloads
from rep import digest

PATH = Path(__file__).resolve().parent / "digests.json"


def record(name: str) -> dict:
    if name == "ls-rank3":
        rs = workloads.build_root_system("B3")
        plans = [workloads.ls_ops(rs, letters) for letters in workloads.reduced_words_of_w0("B3")]
    else:
        plans = [workloads.WORKLOADS[name](0, 0)[1]]
    out = {}
    for ops in plans:
        for label, op in ops():
            ok, render = op()
            if not ok:
                raise SystemExit(f"{label}: verdict is false; not recording")
            out[label] = digest(render())
        print(f"{name}: {len(out)} operations", file=sys.stderr)
    return out


def main() -> None:
    doc = {name: record(name) for name in workloads.WORKLOADS}
    PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
