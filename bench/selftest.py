"""Self-test of the benchmark itself; run ``python3 bench/selftest.py``
from the root of a checkout.

It shows two things:
- the same workload and seed give byte-identical input files, and
  another seed gives other files;
- a deliberately wrong verdict is counted as a failed operation on every
  workload, while the true results on the same inputs all pass.
"""

from __future__ import annotations

import filecmp
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import worker  # noqa: E402

OUT = os.path.join(HERE, "out", "selftest")
SEED = 7
OPS_PER_WORKLOAD = 2


def _flip_certify(result):
    homology, exact, ns, h1, report = result
    return homology, not exact, ns, h1, report


def _flip_closure(orders):
    # A proper subgroup at p = 3 reads "provably not transitive".
    return [(p, order // 2 if p == 3 else order) for p, order in orders]


def _flip_cli(result):
    code, stdout = result
    return 1, stdout


WRONG = {
    "certify": _flip_certify,
    "reject": lambda exact: not exact,
    "closure": _flip_closure,
    "cli": _flip_cli,
}


def same_seed_same_files():
    for workload in gen.GENERATORS:
        dirs = [os.path.join(OUT, f"{workload}-{tag}") for tag in "abc"]
        for d, seed in zip(dirs, (SEED, SEED, SEED + 1)):
            shutil.rmtree(d, ignore_errors=True)
            gen.write_inputs(workload, seed, d)
        names = sorted(os.listdir(dirs[0]))
        match, mismatch, errors = filecmp.cmpfiles(
            dirs[0], dirs[1], names, shallow=False)
        assert names == sorted(os.listdir(dirs[1])), workload
        assert not mismatch and not errors, (workload, mismatch, errors)
        other = filecmp.cmp(os.path.join(dirs[0], "manifest.json"),
                            os.path.join(dirs[2], "manifest.json"),
                            shallow=False)
        assert not other, f"{workload}: seeds {SEED} and {SEED + 1} agree"
        print(f"{workload}: seed {SEED} gives byte-identical files "
              f"({len(match)} files); seed {SEED + 1} differs")


def wrong_verdicts_fail(mods):
    for workload, flip in WRONG.items():
        directory = os.path.join(OUT, f"{workload}-a")
        ops = worker.build_ops(workload, mods, directory,
                               trace=True)[:OPS_PER_WORKLOAD]
        _, _, failed = worker.run_round(ops, children=False)
        assert failed == 0, f"{workload}: true results failed"
        for op in ops:
            op.run = (lambda run: lambda: flip(run()))(op.run)
        _, _, failed = worker.run_round(ops, children=False)
        assert failed == len(ops), f"{workload}: wrong verdict passed"
        print(f"{workload}: {len(ops)} true results pass, "
              f"{failed} wrong verdicts counted as failed")


def main():
    if not os.path.isfile(os.path.join("src", "lefschetz", "__init__.py")):
        print("run from the root of a checkout", file=sys.stderr)
        return 2
    same_seed_same_files()
    wrong_verdicts_fail(worker.load_program())
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
