"""One benchmark process: set up, warm up, then run timed operations.

Usage (started by run.py): ``python3 bench/worker.py WORKLOAD DIR SECONDS
TRACE``.  The worker imports ``lefschetz`` from ``src/``, reads the inputs
that gen.py wrote to DIR, runs one untimed warm-up operation on the
workload's smallest input and prints ``ready``.  It then waits for one
line on stdin: ``exit`` ends it, ``run`` starts the timed loop.  The loop
runs whole rounds of the workload's operations, one at a time, until
SECONDS have passed, checks every result against properties computed
without the program, and prints one JSON line of results.

With TRACE 1 untraced rounds alternate with rounds in which the program's
public functions are wrapped (spans.py); the worker reports per-layer
metrics and the tracing overhead instead of end-to-end ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import gen

SRC = os.path.abspath("src")


def load_program():
    sys.path.insert(0, SRC)
    import lefschetz
    if not os.path.abspath(lefschetz.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"lefschetz was imported from {lefschetz.__file__}")
    from lefschetz import (cli, fileformat, freegroup, invariants,  # noqa: F401
                           monodromy, symplectic)
    return sys.modules


class Op:
    """One benchmark operation: ``run`` calls the program, ``check``
    judges its result (untimed) and returns True when it is right.
    The warm-up runs the operation of least ``size``."""

    def __init__(self, label, run, check, size):
        self.label, self.run, self.check, self.size = label, run, check, size


def _read(directory, name):
    with open(os.path.join(directory, name), encoding="utf-8") as fh:
        return fh.read()


# -- certify, reject, closure ------------------------------------------------

def certify_ops(mods, items, directory):
    fileformat = mods["lefschetz.fileformat"]
    monodromy = mods["lefschetz.monodromy"]
    invariants = mods["lefschetz.invariants"]
    ops = []
    for item in items:
        f = fileformat.parse_factorization(_read(directory, item["file"]))

        def run(f=f):
            return (monodromy.identity_check(f, "homology").passed,
                    monodromy.identity_check(f, "exact").passed,
                    monodromy.ns_type(f),
                    str(invariants.first_homology(f)),
                    invariants.invariant_report(f))

        def check(result, item=item):
            homology, exact, ns, h1, report = result
            return (homology and exact
                    and ns == (item["n"], item["s"])
                    and h1 == item["h1"]
                    and report.euler == item["euler"]
                    and report.signature == item["signature"]
                    and str(report.h1) == item["h1"])

        ops.append(Op(item["file"], run, check, item["work"]))
    return ops


def reject_ops(mods, items, directory):
    fileformat = mods["lefschetz.fileformat"]
    monodromy = mods["lefschetz.monodromy"]
    ops = []
    for item in items:
        f = fileformat.parse_factorization(_read(directory, item["file"]))
        homology_ok = []

        def run(f=f):
            return monodromy.identity_check(f, "exact").passed

        def check(exact, f=f, homology_ok=homology_ok):
            # T_s1 acts trivially on homology but is not inner.
            if not homology_ok:
                homology_ok.append(
                    monodromy.identity_check(f, "homology").passed)
            return homology_ok[0] and not exact

        ops.append(Op(item["file"], run, check, item["work"]))
    return ops


def closure_ops(mods, items, directory):
    fileformat = mods["lefschetz.fileformat"]
    monodromy = mods["lefschetz.monodromy"]
    symplectic = mods["lefschetz.symplectic"]
    ops = []
    for item in items:
        f = fileformat.parse_factorization(_read(directory, item["file"]))

        def run(f=f):
            gens = [symplectic.transvection(monodromy.curve_class(c, f.genus))
                    for c in f.cycles]
            cert = symplectic.transitivity_certificate(gens, (2, 3))
            return [(e.prime, e.order) for e in cert.entries]

        def check(orders, item=item):
            return ([p for p, _ in orders] == [2, 3]
                    and all(order == item["orders"][str(p)]
                            and gen.sp4_order(p) % order == 0
                            for p, order in orders)
                    and orders[1][1] == gen.sp4_order(3))

        ops.append(Op(item["file"], run, check, item["generators"]))
    return ops


# -- cli -------------------------------------------------------------------

def _fields(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def _same_word(have, want):
    """Equal base labels and freely equal conjugators."""
    return len(have) == len(want) and all(
        hb == wb and gen.reduce_tokens(hc) == gen.reduce_tokens(wc)
        for (hb, hc), (wb, wc) in zip(have, want))


def _admissible(n_max, s_max):
    return {(n, s) for n in range(n_max + 1) for s in range(s_max + 1)
            if (n, s) != (0, 0) and (n + 12 * s) % 10 == 0
            and n + 7 * s >= 20 and 2 * n - s >= 5}


def check_cli(item, stdout, out_path, directory):
    """Whether one CLI command printed (or wrote) the right values."""
    cmd = item["cmd"]
    word = item.get("word")
    fields = _fields(stdout)
    if cmd == "type":
        return stdout == f"({word['n']}, {word['s']})\n"
    if cmd == "invariants":
        b1 = "2" if word["h1"] == "Z + Z" else "0"
        return (fields.get("euler") == str(word["euler"])
                and fields.get("signature") == str(word["signature"])
                and fields.get("h1") == word["h1"] and fields.get("b1") == b1)
    if cmd == "check":
        return stdout == "identity: exact\n"
    if cmd == "catalog-verify":
        lines = stdout.splitlines()
        return (len(lines) == 3 and lines[0].startswith("identity (exact)")
                and all(line.endswith(": ok") for line in lines))
    if cmd == "family":
        k = item["k"]
        n, s = 2 * k, 4 * k - 5
        return (fields.get("type") == f"({n}, {s})"
                and fields.get("euler") == str(n + s - 4)
                and fields.get("signature") == str(-(3 * n + s) // 5)
                and fields.get("b1") == "2"
                and fields.get("indecomposable") == "indecomposable")
    if cmd == "feasibility":
        lines = stdout.splitlines()
        rows = [line.split(",") for line in lines[1:]]
        return (lines[0] == "n,s,status,b1_forced,b2_plus"
                and all(r[2] in ("known", "unknown") for r in rows)
                and {(int(r[0]), int(r[1])) for r in rows}
                == _admissible(item["n_max"], item["s_max"]))
    source = gen.read_word(os.path.join(directory, word["file"]))
    moved = gen.read_word(out_path)
    if stdout:
        return False
    if cmd == "hurwitz":
        return _same_word(moved, gen.hurwitz(source, item["index"],
                                             item["dir"]))
    if cmd == "conjugate":
        return _same_word(moved, gen.conjugate(source, item["prefix"]))
    raise ValueError(f"unknown command {cmd!r}")


def _argv(item, directory):
    out = []
    for arg in item["args"]:
        if arg.startswith("@"):
            arg = os.path.join(directory, item["word"]["file"])
        elif arg.startswith("%"):
            arg = os.path.join(directory, arg[1:])
        out.append(arg)
    return out


def cli_ops(mods, items, directory, in_process):
    """Fresh ``python -m lefschetz.cli`` processes; in a traced run,
    ``cli.main`` in this process on the same argument lists."""
    cli = mods["lefschetz.cli"]
    env = dict(os.environ, PYTHONPATH=SRC)
    ops = []
    for item in items:
        argv = _argv(item, directory)
        out_path = argv[argv.index("-o") + 1] if "-o" in argv else None
        first = []

        def run(argv=argv):
            if in_process:
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    try:
                        code = cli.main(list(argv))
                    except SystemExit as exc:  # argparse rejected argv
                        code = exc.code
                return code, stdout.getvalue()
            proc = subprocess.run(
                [sys.executable, "-m", "lefschetz.cli", *argv], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            return proc.returncode, proc.stdout.decode()

        def check(result, item=item, out_path=out_path, first=first):
            code, stdout = result
            written = b""
            if out_path is not None:
                with open(out_path, "rb") as fh:
                    written = fh.read()
            # Repeated calls must give byte-identical output.
            if not first:
                first.append((stdout, written))
            return (code == 0 and first[0] == (stdout, written)
                    and check_cli(item, stdout, out_path, directory))

        ops.append(Op(" ".join(argv), run, check,
                      0 if item["cmd"] == "type" else 1))
    return ops


def build_ops(workload, mods, directory, trace):
    with open(os.path.join(directory, "manifest.json"),
              encoding="utf-8") as fh:
        items = json.load(fh)["items"]
    if workload == "cli":
        return cli_ops(mods, items, directory, in_process=trace)
    return {"certify": certify_ops, "reject": reject_ops,
            "closure": closure_ops}[workload](mods, items, directory)


# -- timing ----------------------------------------------------------------

def _cpu_ns(children):
    if children:
        r = resource.getrusage(resource.RUSAGE_CHILDREN)
        return int((r.ru_utime + r.ru_stime) * 1e9)
    return time.process_time_ns()


def run_round(ops, children, tracer=None):
    """Time each operation once; returns (walls, cpus, failed)."""
    walls, cpus, failed = [], [], 0
    for op in ops:
        c0 = _cpu_ns(children)
        t0 = time.perf_counter_ns()
        try:
            result = op.run() if tracer is None else tracer.run_op(op.run)
            ok = None
        except Exception as exc:  # a raised result is a failed operation
            ok = False
            print(f"{op.label}: {exc!r}", file=sys.stderr)
        t1 = time.perf_counter_ns()
        c1 = _cpu_ns(children)
        if ok is None:
            try:
                ok = bool(op.check(result))
            except Exception as exc:
                ok = False
                print(f"{op.label}: check raised {exc!r}", file=sys.stderr)
            if not ok:
                print(f"{op.label}: wrong result", file=sys.stderr)
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        failed += not ok
    return walls, cpus, failed


def run_rounds(ops, seconds, children):
    """Whole rounds until ``seconds`` have passed."""
    walls, cpus, failed, rounds = [], [], 0, 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        w, c, f = run_round(ops, children)
        walls += w
        cpus += c
        failed += f
        rounds += 1
    return walls, cpus, failed, time.perf_counter() - start, rounds


def import_ms(samples=7):
    """Median time of a fresh ``import lefschetz`` beyond a bare
    interpreter start, from alternating child processes."""
    env = dict(os.environ, PYTHONPATH=SRC)
    diffs = []
    for _ in range(samples):
        times = []
        for code in ("pass", "import lefschetz"):
            t0 = time.perf_counter_ns()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            times.append(time.perf_counter_ns() - t0)
        diffs.append((times[1] - times[0]) / 1e6)
    return statistics.median(diffs)


def quantiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3}


def tail(values_ms):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(values_ms)
    best = None
    for pct in (90, 99, 99.9):
        if n * (1 - pct / 100) >= 10:
            best = pct
    if best is None:
        return None
    ordered = sorted(values_ms)
    return {"pct": best, "value": ordered[min(n - 1, int(n * best / 100))],
            "samples": n}


def main(argv):
    workload, directory, seconds, trace = (
        argv[0], argv[1], float(argv[2]), argv[3] == "1")
    mods = load_program()
    ops = build_ops(workload, mods, directory, trace)
    children = workload == "cli" and not trace
    warm = min(ops, key=lambda op: op.size)
    run_round([warm], children)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0

    if not trace:
        walls, cpus, failed, elapsed, rounds = run_rounds(
            ops, seconds, children)
        rss = resource.getrusage(
            resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
        wall_ms = [w / 1e6 for w in walls]
        cpu_ms = [c / 1e6 for c in cpus]
        result = {
            "attempted": len(walls), "failed": failed, "rounds": rounds,
            "elapsed_s": elapsed,
            "metrics": {
                # Time inside operations only: checks are not counted.
                "ops_per_s": len(walls) / (sum(walls) / 1e9),
                "op_p50_ms": statistics.median(wall_ms),
                "peak_rss_mb": rss.ru_maxrss / 1024,
            },
            "wall_ms": quantiles(wall_ms), "cpu_ms": quantiles(cpu_ms),
            "tail_ms": tail(wall_ms),
        }
        with open(os.path.join(directory, "ops.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"wall_ns": walls, "cpu_ns": cpus}, fh)
    else:
        # Untraced and traced rounds alternate, so the overhead compares
        # the same inputs under the same machine load.
        from spans import Tracer
        tracer = Tracer()
        plain_ns = traced_ns = failed = rounds = 0
        start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - start < seconds:
            walls, _, f = run_round(ops, children)
            plain_ns += sum(walls)
            tracer.install()
            try:
                walls, _, g = run_round(ops, children, tracer)
            finally:
                tracer.uninstall()
            traced_ns += sum(walls)
            failed += f + g
            rounds += 1
        metrics = tracer.layer_metrics()
        metrics["cli.import_ms"] = import_ms()
        metrics["trace.overhead_pct"] = 100 * (traced_ns / plain_ns - 1)
        tracer.write(os.path.join(directory, "trace.json"))
        result = {"attempted": 2 * rounds * len(ops), "failed": failed,
                  "rounds": rounds, "spans": len(tracer.start),
                  "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
