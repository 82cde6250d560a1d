"""Run one benchmark workload and print its metrics as a JSON line.

    python3 bench/run.py --workload {certify,reject,closure,cli} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout: the program is imported from
``src/``.  The inputs are generated from the seed (gen.py) into
``bench/out/<workload>-<seed>/``.  The set-up time is the median over
SETUPS fresh worker processes (worker.py) of the time from spawning the
interpreter to its ``ready``: ``import lefschetz``, reading the inputs and
one warm-up operation.  The last of them then runs the timed loop.  With
``--trace 1`` a single worker runs traced and the per-layer metrics are
printed instead.  The last line of stdout is the result.
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

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402

WORKLOADS = tuple(gen.GENERATORS)
SETUPS = 5
# Everything, set-up probes included, must end within this many seconds
# beyond --seconds.
LIMIT_S = 120


def spawn(args, deadline):
    """Start a worker and wait for its ``ready``; returns the process
    and the seconds from spawn to ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0), proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    watchdog.cancel()
    if line.strip() != "ready":
        finish(proc, "exit", deadline)
        raise SystemExit(f"worker did not get ready: {line!r}")
    return proc, elapsed


def finish(proc, command, deadline):
    """Send the command, read the worker's last line and reap it."""
    try:
        out, _ = proc.communicate(
            command + "\n", timeout=max(deadline - time.monotonic(), 0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("worker ran past its time limit")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return out.strip().splitlines()[-1] if out.strip() else ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "lefschetz", "__init__.py")):
        print("run from the root of a checkout: src/lefschetz is missing",
              file=sys.stderr)
        return 2

    directory = os.path.join(HERE, "out", f"{args.workload}-{args.seed}")
    gen.write_inputs(args.workload, args.seed, directory)
    worker_args = [args.workload, directory, str(args.seconds),
                   str(args.trace)]

    deadline = time.monotonic() + args.seconds + LIMIT_S
    setups = []
    proc, elapsed = spawn(worker_args, deadline)
    setups.append(elapsed)
    if not args.trace:
        for _ in range(SETUPS - 1):
            finish(proc, "exit", deadline)
            proc, elapsed = spawn(worker_args, deadline)
            setups.append(elapsed)
    result = json.loads(finish(proc, "run", deadline))

    metrics = result["metrics"]
    if args.trace:
        units = {}
        for name in metrics:
            units[name] = ("ms" if name.endswith("_ms") else
                           "%" if name.endswith("_pct") else "count")
        print(f"{args.workload} traced: {result['attempted']} ops, "
              f"{result['spans']} spans, overhead "
              f"{metrics['trace.overhead_pct']:.1f}%")
    else:
        metrics["setup_s"] = statistics.median(setups)
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                 "peak_rss_mb": "MB"}
        wall, cpu, tail = result["wall_ms"], result["cpu_ms"], result["tail_ms"]
        print(f"{args.workload}: {result['attempted']} ops in "
              f"{result['rounds']} rounds, {result['elapsed_s']:.2f} s; "
              f"wall ms q1/median/q3 {wall['q1']:.3f}/{wall['median']:.3f}/"
              f"{wall['q3']:.3f}; cpu ms {cpu['q1']:.3f}/{cpu['median']:.3f}/"
              f"{cpu['q3']:.3f}; setups s "
              + " ".join(f"{s:.3f}" for s in setups))
        if tail:
            print(f"{args.workload}: p{tail['pct']:g} wall "
                  f"{tail['value']:.3f} ms of {tail['samples']} samples")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
