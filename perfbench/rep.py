"""One repetition of a workload, in a fresh interpreter.

Usage: python3 rep.py WORKLOAD SEED REP {setup,plain,traced} [TRACE_FILE]

Prints one JSON object: the monotonic time at which set-up finished and
the durations of three reference samples taken right after it (see
``hostspeed.py``), and for a full repetition the wall time from the first
operation to the last verdict, the peak RSS, and each operation's label,
verdict and output digest.  ``setup`` stops after set-up.  ``plain`` also
reports the wall time calibrated to the host's speed.  ``traced`` installs
the layer tracer instead of the sampler, adds its per-layer metrics and
writes its spans to TRACE_FILE.
"""

import hashlib
import json
import resource
import sys
import time

import hostspeed
import workloads


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def main() -> int:
    name, seed, rep, mode = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
    inputs, ops = workloads.WORKLOADS[name](seed, rep)
    ready = time.monotonic()
    out = {"ready": ready, "inputs": inputs, "qborel": workloads.cli.__file__}
    out["setup_samples"] = [hostspeed.sample() for _ in range(3)]
    if mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = sampler = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        sampler = hostspeed.Sampler()
        sampler.start()
    results = []
    start = time.perf_counter()
    for label, op in ops():
        opened = tracer.begin_op(label) if tracer else None
        try:
            ok, render = op()
        except Exception as exc:  # a raising operation is a failed operation
            ok, render = False, lambda exc=exc: f"raised {exc!r}"
        if tracer:
            tracer.end_op(opened)
        results.append((label, ok, render))
    out["wall_s"] = time.perf_counter() - start
    if sampler:
        sampler.stop()
        out["wall_s"], out["wall_cal_s"] = sampler.times()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        out["trace"] = tracer.metrics()
        tracer.uninstall()
        tracer.write(sys.argv[5], {"workload": name, "seed": seed, "rep": rep, "inputs": inputs})
    out["ops"] = [[label, ok, digest(render())] for label, ok, render in results]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
