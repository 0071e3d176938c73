"""Run every workload once and print its metrics as one table.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` the table holds the end-to-end metrics (wall_s,
setup_s, peak_rss_mb) and ops_failed / ops_total of each workload; with
``--trace 1`` it holds the per-layer metrics.  Exits 1 if any operation
failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, WORKLOADS


def run_bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    """One run.py run; returns its result object and its full stdout."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    results = {w: run_bench(w, args.seed, args.seconds, args.trace)[0] for w in WORKLOADS}
    first = results[WORKLOADS[0]]["metrics"]
    print("metric\tunit\t" + "\t".join(WORKLOADS))
    for name, m in first.items():
        cells = [f"{results[w]['metrics'][name]['value']:.6g}" for w in WORKLOADS]
        print(f"{name}\t{m['unit']}\t" + "\t".join(cells))
    print("ops_failed\tops\t" + "\t".join(str(results[w]["failed"]) for w in WORKLOADS))
    print("ops_total\tops\t" + "\t".join(str(results[w]["attempted"]) for w in WORKLOADS))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
