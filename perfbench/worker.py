"""One benchmark process: set-up, timed passes, then output checks.

Started by run.py with PYTHONPATH pointing at the checkout's `src`.
It prints `ready` once set-up is done, so the parent can time set-up
from process start, and one JSON result line at exit.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import time

import spans
import workloads

# A traced process stops starting passes past this many spans, which
# bounds its memory (about 250 bytes a span).
MAX_SPANS = 400_000


def machine_facts() -> dict:
    import numpy
    from wordcode import _kernels
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": _kernels.backend_name(),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "WORDCODE_THREADS": os.environ.get("WORDCODE_THREADS"),
        "WORDCODE_KERNELS": os.environ.get("WORDCODE_KERNELS"),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    caches = workloads.lru_caches()
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        tracer.recording = True
    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.seed, caches)
    print("ready", flush=True)

    rec = workloads.Recorder(tracer)
    deadline = time.perf_counter() + args.seconds
    while True:
        rec.begin_pass()
        wl.run_pass(rec)
        if time.perf_counter() >= deadline:
            break
        if tracer is not None and len(tracer.spans) >= MAX_SPANS:
            break
    if tracer is not None:
        tracer.recording = False
    extra = wl.finish(rec)

    result = {"facts": machine_facts(), "extra": extra}
    if tracer is not None:
        layers, problems = spans.layer_metrics(tracer.spans, len(rec.passes))
        for problem in problems:
            rec.check(False, problem)
        layers["sighash.separated_frac"] = extra.get("separated_frac", 0.0)
        layers["sighash.rho_bound"] = extra.get("rho_bound", 0.0)
        result["layers"] = layers
        result["spans"] = len(tracer.spans)
        tracer.uninstall()
        path = os.path.join(workloads.OUT_DIR, f"trace-{args.workload}.jsonl.gz")
        tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                           "passes": len(rec.passes), "facts": result["facts"]})
    result.update(samples=rec.samples, passes=rec.passes, attempted=rec.attempted,
                  failed=rec.failed, problems=rec.problems)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
