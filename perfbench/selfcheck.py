"""Self-check of the traced run and of the workload seed.

    python3 perfbench/selfcheck.py

- Runs every workload traced twice with seed 1 and checks that no
  operation fails under tracing, that every per-layer metric is nonzero on
  at least one workload, that the counts predicted to be zero are exactly
  zero, and that every count (unit ``count``) is identical between the two
  runs.
- Runs ``ls-rank3``, the one workload whose inputs depend on the seed,
  untraced with seeds 1 and 2 and checks that they draw different words and
  that no operation fails on either.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import re
import sys

from report import WORKLOADS, run_bench

SEED, OTHER_SEED = 1, 2

# (workload, metric prefix): counts that must read exactly 0 there
PREDICTED_ZERO = [
    ("weyl-strata", "coeffs."),
    ("weyl-strata", "pbw."),
    ("serre-echelon", "pbw."),
    ("serre-echelon", "full."),
]


def main() -> int:
    checks: list[tuple[str, bool]] = []

    results = {w: [run_bench(w, SEED, 1, 1)[0] for _ in range(2)] for w in WORKLOADS}
    for w in WORKLOADS:
        failed = sum(r["failed"] for r in results[w])
        checks.append((f"{w}: traced runs fail {failed} operations", failed == 0))
    runs = {w: [r["metrics"] for r in results[w]] for w in WORKLOADS}
    names = list(runs[WORKLOADS[0]][0])
    for name in names:
        fired = [w for w in WORKLOADS if runs[w][0][name]["value"] != 0]
        checks.append((f"{name} fires on {', '.join(fired) or 'no workload'}", bool(fired)))
    for workload, prefix in PREDICTED_ZERO:
        for name in names:
            if name.startswith(prefix):
                value = runs[workload][0][name]["value"]
                checks.append((f"{name} = {value} on {workload} (predicted 0)", value == 0))
    for w in WORKLOADS:
        first, second = runs[w]
        differ = [
            n for n in names
            if first[n]["unit"] == "count" and first[n]["value"] != second[n]["value"]
        ]
        note = f" (differ: {differ})" if differ else ""
        checks.append((f"{w}: counts repeat exactly across two traced runs{note}", not differ))

    words = {}
    for seed in (SEED, OTHER_SEED):
        result, stdout = run_bench("ls-rank3", seed, 1, 0)
        words[seed] = re.findall(r"word (B3 [\d,]+)", stdout)
        drawn = "; ".join(words[seed])
        text = f"ls-rank3 seed {seed} draws {drawn}: ops_failed = {result['failed']}"
        checks.append((text, result["failed"] == 0))
    differ = words[SEED] != words[OTHER_SEED]
    checks.append(("the two seeds draw different words", differ))

    for text, ok in checks:
        print(("PASS " if ok else "FAIL ") + text)
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
