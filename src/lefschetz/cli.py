"""Command-line front end for factorization files and catalog entries.

Sources are file paths in the standard format, or ``catalog:NAME`` for a
built-in entry.  Commands that produce a new factorization write it with
``-o`` or print it to stdout.  Exit codes: 0 on success, 1 when a check
fails, 2 on usage or parse errors, when the exact check's free-group
images pass ``monodromy.IMAGE_LETTER_BOUND``, and when a computation
runs out of memory or recursion depth.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import catalog, feasibility, fileformat, invariants, monodromy, symplectic

_LEVELS = ("homology", "exact")


def _load(src: str) -> monodromy.Factorization:
    if src.startswith("catalog:"):
        return catalog.get_factorization(src[len("catalog:"):])
    with open(src, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:  # its args[0] is only "utf-8"
            raise ValueError(
                f"{src} is not UTF-8 text: {exc.reason}") from None
    return fileformat.parse_factorization(text)


def _write(text: str, path: Optional[str]) -> None:
    """Write command output to ``path``, or to stdout when it is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_check(args: argparse.Namespace) -> int:
    f = _load(args.src)
    # Without --level, run every level defined at the word's genus; the
    # exact level needs genus 2.
    default = _LEVELS if f.genus == 2 else ("homology",)
    passed = None
    for level in (args.level,) if args.level else default:
        if not monodromy.identity_check(f, level):
            if passed is None:
                print(f"identity check failed at level {level}")
                return 1
            break
        passed = level
    print(f"identity: {passed}")
    return 0


def _cmd_invariants(args: argparse.Namespace) -> int:
    f = _load(args.src)
    try:
        report = invariants.invariant_report(f)
    except ValueError as exc:
        print(exc)
        return 1
    for key, value in report.items():
        if value is not None:  # not computed at the word's genus
            print(f"{key}: {value}")
    for warning in report.warnings:
        print(f"warning: {warning}")
    return 0


def _cmd_type(args: argparse.Namespace) -> int:
    n, s = monodromy.ns_type(_load(args.src))
    print(f"({n}, {s})")
    return 0


def _cmd_hurwitz(args: argparse.Namespace) -> int:
    f = monodromy.hurwitz_move(_load(args.src), args.index, args.dir)
    _write(fileformat.serialize_factorization(f), args.output)
    return 0


def _cmd_conjugate(args: argparse.Namespace) -> int:
    f = _load(args.src)
    tokens = tuple(
        monodromy.parse_token(part)
        for part in args.word.split(",")
        if part
    )
    f = monodromy.global_conjugate(f, tokens)
    _write(fileformat.serialize_factorization(f), args.output)
    return 0


def _cmd_fibersum(args: argparse.Namespace) -> int:
    f = monodromy.fiber_sum(_load(args.src1), _load(args.src2))
    _write(fileformat.serialize_factorization(f), args.output)
    return 0


def _cmd_sub(args: argparse.Namespace) -> int:
    f = _load(args.src)
    try:
        if args.relation == "lantern":
            result = monodromy.lantern_substitute(f, args.at)
        else:
            result = monodromy.chain_substitute(f, args.at, args.dir)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    _write(fileformat.serialize_factorization(result), args.output)
    return 0


def _cmd_transitivity(args: argparse.Namespace) -> int:
    try:  # a repeated prime is reported once, at its first place
        primes = tuple(dict.fromkeys(map(int, args.primes.split(","))))
    except ValueError:
        raise ValueError("--primes takes comma-separated integers, "
                         f"got {args.primes!r}") from None
    f = _load(args.src)
    generators = [symplectic.transvection(c) for c in f.classes]
    certificate = symplectic.transitivity_certificate(generators, primes)
    for entry in certificate.entries:
        tag = "full" if entry.is_full else "proper subgroup"
        print(
            f"p={entry.prime}: closure order {entry.order}"
            f" of {entry.full_group_order} ({tag})"
        )
    print(f"verdict: {certificate.verdict}")
    return 0


def _cmd_feasibility(args: argparse.Namespace) -> int:
    reports = feasibility.enumerate_types(args.n_max, args.s_max)
    _write(feasibility.emit_chart(reports, args.n_max, args.s_max,
                                  args.format), args.output)
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    report = feasibility.family_invariants(args.k)
    print(f"k: {report.k}")
    print(f"type: ({report.n}, {report.s})")
    print(f"euler: {report.euler}")
    print(f"signature: {report.signature}")
    print(f"b1: {report.b1}")
    print(f"b2: {report.b2}")
    print(f"b2_plus: {report.b2_plus}")
    print(f"b2_minus: {report.b2_minus}")
    check = feasibility.indecomposability_check(report.n, report.s)
    print(f"indecomposable: {check.verdict}")
    print(f"reason: {check.reason}")
    return 0


def _cmd_basis_pairs(args: argparse.Namespace) -> int:
    f = _load(args.src)
    pairs = invariants.basis_pair_search(f)
    if not pairs:
        print("no unimodular pair of vanishing-cycle classes")
        return 1
    for i, j in pairs:
        print(f"{i} {j}")
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.action == "list":
        for entry in catalog.list_entries():
            flags = []
            if entry.external_data:
                flags.append("external")
            if entry.derived:
                flags.append("derived")
            suffix = f"  [{', '.join(flags)}]" if flags else ""
            if entry.kind == "factorization":
                shape = "({}, {})".format(*entry.expected_type)
            else:
                shape = "lantern"
            print(f"{entry.name}  {shape}  {entry.level}{suffix}")
        return 0
    entry = catalog.entry(args.name)
    if args.action == "show":
        print(f"name: {entry.name}")
        print(f"kind: {entry.kind}")
        if entry.kind == "factorization":
            print("type: ({}, {})".format(*entry.expected_type))
            print(f"b1: {entry.expected_b1}")
        print(f"level: {entry.level}")
        print(f"external_data: {entry.external_data}")
        print(f"derived: {entry.derived}")
        if entry.summary:
            print(f"summary: {entry.summary}")
        return 0
    check = catalog.verify(args.name)
    print(f"identity ({check.level}): {'ok' if check.identity_ok else 'FAIL'}")
    print(f"type: {'ok' if check.type_ok else 'FAIL'}")
    print(f"homology: {'ok' if check.homology_ok else 'FAIL'}")
    return 0 if check else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lefschetz",
        description="Work with positive Dehn-twist factorizations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the identity check")
    p.add_argument("src")
    p.add_argument("--level", choices=_LEVELS)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("invariants", help="report total-space invariants")
    p.add_argument("src")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("type", help="print the (n, s) twist count")
    p.add_argument("src")
    p.set_defaults(func=_cmd_type)

    p = sub.add_parser("hurwitz", help="apply one Hurwitz move")
    p.add_argument("src")
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--dir", choices=("left", "right"), required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_hurwitz)

    p = sub.add_parser("conjugate", help="conjugate the whole word")
    p.add_argument("src")
    p.add_argument("--word", required=True,
                   help="comma-separated tokens, e.g. t1,T3,s1")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_conjugate)

    p = sub.add_parser("fibersum", help="concatenate two words")
    p.add_argument("src1")
    p.add_argument("src2")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_fibersum)

    p = sub.add_parser("sub", help="apply a relation substitution")
    action = p.add_subparsers(dest="relation", required=True)
    q = action.add_parser("lantern", help="trade a lantern window")
    q.add_argument("src")
    q.add_argument("--at", type=int, required=True)
    q.add_argument("-o", "--output")
    q.set_defaults(func=_cmd_sub)
    q = action.add_parser("chain", help="trade a two-chain window")
    q.add_argument("src")
    q.add_argument("--at", type=int, required=True)
    q.add_argument("--dir", choices=("expand", "contract"), required=True)
    q.add_argument("-o", "--output")
    q.set_defaults(func=_cmd_sub)

    p = sub.add_parser("transitivity",
                       help="mod-p closure of the twist images")
    p.add_argument("src")
    p.add_argument("--primes", default="2,3,5")
    p.set_defaults(func=_cmd_transitivity)

    p = sub.add_parser("feasibility", help="chart admissible (n, s) types")
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--s-max", type=int, default=15)
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_feasibility)

    p = sub.add_parser("family", help="sharp-line family member at k")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("basis-pairs",
                       help="list unimodular cycle pairs: those that "
                            "extend to an integral basis")
    p.add_argument("src")
    p.set_defaults(func=_cmd_basis_pairs)

    p = sub.add_parser("catalog", help="inspect built-in entries")
    action = p.add_subparsers(dest="action", required=True)
    q = action.add_parser("list")
    q.set_defaults(func=_cmd_catalog)
    q = action.add_parser("show")
    q.add_argument("name")
    q.set_defaults(func=_cmd_catalog)
    q = action.add_parser("verify")
    q.add_argument("name")
    q.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # str() names the path and why it cannot be used
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, IndexError, ValueError, OverflowError,
            MemoryError, RecursionError) as exc:
        message = exc.args[0] if exc.args else type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
