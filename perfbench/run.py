"""wordcode benchmark: build, encode and keyset workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {build,encode,keyset} --seed N \\
        --seconds S --trace {0,1}

With --trace 0 the measuring time is split over PROCS fresh worker
processes, run one after another, and their samples are pooled.  The
last stdout line is the result object with the end-to-end metrics
`setup_s` and `cycle_s`; the line before it is a report with the
workload's own metrics, sample counts, checks and machine facts.

With --trace 1 one untraced and one traced worker split the time; the
result carries the per-layer metrics of the traced worker, the
fresh-process import time, and the tracing overhead.  Spans are written
to perfbench/out/trace-<workload>.jsonl.gz.

See perfbench/README.md for every metric and the layer it measures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from spans import LAYER_UNITS
from workloads import OUT_DIR, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
PROCS = 3
IMPORT_SAMPLES = 3
# Every worker is killed past this point, so a run ends within 180 s.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # The workloads run at the library defaults: one scan thread and the
    # default kernel choice.
    env.pop("WORDCODE_THREADS", None)
    env.pop("WORDCODE_KERNELS", None)
    return env


def run_process(cmd, deadline):
    """Start cmd, time it until it prints `ready`, collect its last line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env())
    timer = threading.Timer(max(deadline - time.perf_counter(), 1.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = rest.strip().splitlines()
    if code != 0 or first.strip() != "ready" or not lines:
        raise BenchError(f"worker {cmd[2:]} exited with {code}")
    return ready, json.loads(lines[-1])


def worker(args, seconds, trace, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    return run_process(cmd, deadline)


def import_seconds(deadline):
    """Fresh-process `import wordcode` time, median of IMPORT_SAMPLES."""
    code = ("import time; t = time.perf_counter(); import wordcode.cli; "
            "print('ready'); print(time.perf_counter() - t)")
    times = [run_process([sys.executable, "-c", code], deadline)[1]
             for _ in range(IMPORT_SAMPLES)]
    return statistics.median(times)


def cycle_seconds(results):
    """One pass at the best speed seen: for each call class, its calls
    per pass times its fastest call, summed.

    Other tenants of a shared machine only ever add time to a call, and
    on a 2-vCPU host they slow whole stretches of seconds, so pass
    medians of separate runs differ by tens of percent; the fastest of
    many calls of a class does not.
    """
    passes = sum(len(r["passes"]) for r in results)
    total = 0.0
    for cls in {c for r in results for c in r["samples"]}:
        times = [t for r in results for t in r["samples"][cls]]
        total += len(times) / passes * min(times)
    return total, passes


def measure(args, deadline):
    wl = WORKLOADS[args.workload]
    setups, results = [], []
    for _ in range(PROCS):
        ready, result = worker(args, args.seconds / PROCS, 0, deadline)
        setups.append(ready)
        results.append(result)
    cycle, passes = cycle_seconds(results)
    e2e = {
        "setup_s": {"value": statistics.median(setups), "unit": "s", "n": len(setups)},
        "cycle_s": {"value": cycle, "unit": "s", "n": passes},
    }
    return e2e, wl.summarize(results), results


def trace(args, deadline):
    wl = WORKLOADS[args.workload]
    _, plain = worker(args, args.seconds / 2, 0, deadline)
    _, traced = worker(args, args.seconds / 2, 1, deadline)
    plain_cycle = cycle_seconds([plain])[0]
    traced_cycle = cycle_seconds([traced])[0]
    layers = dict(traced["layers"])
    layers["cli.import_s"] = import_seconds(deadline)
    layers["trace.overhead_s"] = traced_cycle - plain_cycle
    layers["trace.overhead_frac"] = (traced_cycle - plain_cycle) / plain_cycle
    detail = {"untraced_cycle_s": plain_cycle, "traced_cycle_s": traced_cycle,
              "spans": traced["spans"], "traced": wl.summarize([traced]),
              "untraced": wl.summarize([plain])}
    return layers, detail, [plain, traced]


def main():
    ap = argparse.ArgumentParser(description="wordcode benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "wordcode", "__init__.py")):
        print("perfbench: no src/wordcode here; run from the root of a wordcode "
              "checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.perf_counter() + DEADLINE_S
    try:
        if args.trace:
            metrics, detail, results = trace(args, deadline)
            final = {k: {"value": metrics[k], "unit": unit}
                     for k, unit in LAYER_UNITS.items()}
        else:
            e2e, detail, results = measure(args, deadline)
            final = {k: {"value": v["value"], "unit": v["unit"]} for k, v in e2e.items()}
            detail = dict(e2e, **detail)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "facts": results[0]["facts"],
        "metrics": detail, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "problems": [p for r in results for p in r["problems"]][:20],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
