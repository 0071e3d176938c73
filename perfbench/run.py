"""qborel benchmark: one workload, closed loop, repetitions in fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Each repetition runs the workload's fixed operation list once, back to back
in one single-threaded child interpreter, so module-level caches start
cold as they do for a CLI call.  Repetitions continue until ``--seconds``
would be exceeded, with at least three.

``--trace 0`` reports the end-to-end metrics as medians over the
repetitions: ``wall_s`` (first operation to last verdict), ``setup_s``
(spawn to ready: interpreter, import, root systems) and ``peak_rss_mb``.
Both times are calibrated to the host's speed with ``hostspeed.py``; the
raw medians are printed above the result.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``tracer.py`` (medians over the traced repetitions)
and ``trace.overhead_s``, the traced minus the untraced median wall time.
Spans go to ``perfbench/traces/``.

Every operation's verdict must hold and its output digest must equal the
one recorded in ``digests.json``; other operations count as failed.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACES = HERE / "traces"

sys.path.insert(0, str(HERE))
from hostspeed import calibrate  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

WORKLOADS = ("weyl-strata", "serre-echelon", "ls-rank3", "hopf-coideal")
MIN_REPS = 3
DEADLINE_S = 170  # the whole run, set-up included, ends within this


class BenchError(Exception):
    """A child failed to produce a result; the run has no valid metrics."""


def spawn(
    workload: str, seed: int, rep: int, mode: str, deadline: float, trace_file: Path | None = None
) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # import from cached bytecode, as an installed package does
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, str(HERE / "rep.py"), workload, str(seed), str(rep), mode]
    if trace_file is not None:
        cmd.append(str(trace_file))
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} repetition of {workload} passed the {DEADLINE_S} s limit")
    if proc.returncode != 0:
        raise BenchError(
            f"{mode} repetition of {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(out["qborel"]).resolve().is_relative_to(SRC):
        raise BenchError(f"qborel was imported from {out['qborel']}, not from {SRC}")
    out["setup_raw_s"] = out["ready"] - started
    out["setup_s"] = calibrate(out["setup_raw_s"], out["setup_samples"])
    return out


def failures(rep: dict, recorded: dict) -> list[str]:
    """Labels of the operations whose verdict is false or digest differs."""
    return [label for label, ok, dg in rep["ops"] if not ok or recorded.get(label) != dg]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list, list]:
    """Run repetitions; returns (metrics, untraced reps, traced reps)."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    spawn(workload, seed, 0, "setup", deadline)  # warm the bytecode cache
    plain, traced = [], []
    if trace:
        TRACES.mkdir(exist_ok=True)
    while True:
        t0 = time.monotonic()
        rep = len(plain)
        plain.append(spawn(workload, seed, rep, "plain", deadline))
        if trace:
            path = TRACES / f"{workload}-seed{seed}-rep{rep}.json"
            traced.append(spawn(workload, seed, rep, "traced", deadline, path))
        last = time.monotonic() - t0
        elapsed = time.monotonic() - start
        enough = len(plain) >= (1 if trace else MIN_REPS)
        if (enough and elapsed + last > seconds) or elapsed + last > DEADLINE_S - 10:
            break
    if trace:
        metrics = {
            name: {"value": median(r["trace"][name] for r in traced), "unit": unit}
            for name, (unit, _) in PER_LAYER.items()
        }
        overhead = median(r["wall_s"] for r in traced) - median(r["wall_s"] for r in plain)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": median(r["wall_cal_s"] for r in plain), "unit": "s"},
            "setup_s": {"value": median(r["setup_s"] for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": median(r["peak_rss_mb"] for r in plain), "unit": "MB"},
        }
    return metrics, plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qborel" / "__init__.py").is_file():
        print(f"error: no qborel sources under {SRC}; run from a checkout's root", file=sys.stderr)
        return 2
    recorded = json.loads((HERE / "digests.json").read_text())[args.workload]
    try:
        metrics, plain, traced = measure(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    reps = plain + traced
    attempted = sum(len(r["ops"]) for r in reps)
    bad = [label for r in reps for label in failures(r, recorded)]
    print(f"# {args.workload}  seed {args.seed}  trace {args.trace}  {len(plain)} repetitions")
    for k, r in enumerate(plain):
        inputs = ", ".join(f"{key} {v}" for key, v in r["inputs"].items())
        walls = f"{r['wall_s']:.3f} s, calibrated {r['wall_cal_s']:.3f} s"
        if traced:
            walls += f", traced {traced[k]['wall_s']:.3f} s"
        print(f"# repetition {k}: {walls}; {inputs}")
    for name in ("wall_s", "setup_raw_s"):
        print(f"# raw {name}: median {median(r[name] for r in plain):.4f} s")
    for label in sorted(set(bad)):
        print(f"FAILED {label}")
    for name, m in metrics.items():
        print(f"{name}\t{m['value']:.6g}\t{m['unit']}")
    print(f"ops_failed\t{len(bad)}\tops")
    print(f"ops_total\t{attempted}\tops")
    result = {"correct": not bad, "attempted": attempted, "failed": len(bad), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
