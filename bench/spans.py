"""Spans around calls into the program's public functions.

``Tracer.install`` replaces each named function, in every ``lefschetz``
module that refers to it, with a wrapper that records a span (name,
start, end, parent, operation) in flat arrays.  Spans stay in memory
until ``write``; ``layer_metrics`` turns them into per-operation self
times, call counts and the size counters the wrappers collect.  A span's
self time is its duration minus that of its direct children, which never
overlap because the program is single threaded.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter_ns

# (module, function, metric prefix); ``surface`` is lru-cached and left to
# its callers.
LAYERS = (
    ("cli", "main", "cli.main"),
    ("catalog", "get", "catalog.get"),
    ("fileformat", "parse_factorization", "fileformat.parse"),
    ("fileformat", "serialize_factorization", "fileformat.serialize"),
    ("monodromy", "curve_twist_endo", "monodromy.curve_twist_endo"),
    ("monodromy", "composite_endo", "monodromy.composite_endo"),
    ("monodromy", "curve_class", "monodromy.curve_class"),
    ("freegroup", "compose", "freegroup.compose"),
    ("freegroup", "is_inner", "freegroup.is_inner"),
    ("symplectic", "evaluate_classes", "symplectic.evaluate_classes"),
    ("symplectic", "mod_p_closure", "symplectic.mod_p_closure"),
    ("intlinalg", "smith_normal_form", "intlinalg.smith_normal_form"),
    ("invariants", "invariant_report", "invariants.invariant_report"),
    ("invariants", "first_homology", "invariants.first_homology"),
    ("feasibility", "enumerate_types", "feasibility.enumerate_types"),
)
# Layers whose call counts are reported beside their self time.
COUNTED = ("monodromy.curve_twist_endo", "monodromy.curve_class",
           "freegroup.compose", "freegroup.is_inner",
           "symplectic.mod_p_closure", "intlinalg.smith_normal_form")


def _letters(images):
    return sum(len(im) for im in images)


def _measure_composite(sizes, args, result):
    n = _letters(result)
    sizes["composite_calls"] += 1
    sizes["composite_letters"] += n
    sizes["composite_letters_max"] = max(sizes["composite_letters_max"], n)


def _measure_is_inner(sizes, args, result):
    sizes["is_inner_calls"] += 1
    sizes["is_inner_budget"] += _letters(args[0]) + 2


def _measure_closure(sizes, args, result):
    gens, p = args[0], args[1]
    sizes["closure_calls"] += 1
    sizes["closure_elements"] += result.order
    sizes["generators"] += len(gens)
    sizes["distinct_generators"] += len(
        {tuple(tuple(x % p for x in row) for row in g) for g in gens})


MEASURES = {
    "monodromy.composite_endo": _measure_composite,
    "freegroup.is_inner": _measure_is_inner,
    "symplectic.mod_p_closure": _measure_closure,
}


class Tracer:
    def __init__(self):
        self.names = ["op"] + [metric for _, _, metric in LAYERS]
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.stack = []
        self.ops = 0
        self.sizes = dict.fromkeys(
            ("composite_calls", "composite_letters", "composite_letters_max",
             "is_inner_calls", "is_inner_budget", "closure_calls",
             "closure_elements", "generators", "distinct_generators"), 0)
        self._restore = []

    def _open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.ops)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    def run_op(self, fn):
        """Run one operation under a root span."""
        idx = self._open(0)
        try:
            return fn()
        finally:
            self._close(idx)
            self.ops += 1

    def _wrapper(self, name_id, fn, measure):
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if measure is not None:
                measure(self.sizes, args, result)
            return result
        return traced

    def install(self):
        """Wrap every function in LAYERS wherever a lefschetz module
        holds a reference to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "lefschetz" or n.startswith("lefschetz.")]
        for name_id, (mod_name, fn_name, metric) in enumerate(LAYERS, 1):
            original = getattr(sys.modules[f"lefschetz.{mod_name}"], fn_name)
            traced = self._wrapper(name_id, original, MEASURES.get(metric))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._restore.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def layer_metrics(self):
        """Per-operation self time (ms) and calls of every layer, plus
        the size counters."""
        k = len(self.names)
        self_ns = [0] * k
        calls = [0] * k
        child_ns = [0] * len(self.start)
        for i in range(len(self.start) - 1, -1, -1):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += dur
            self_ns[self.name[i]] += dur - child_ns[i]
            calls[self.name[i]] += 1
        ops = max(self.ops, 1)
        out = {}
        for name_id, metric in enumerate(self.names[1:], start=1):
            out[f"{metric}_ms"] = self_ns[name_id] / ops / 1e6
            if metric in COUNTED:
                out[f"{metric}_calls"] = calls[name_id] / ops
        s = self.sizes
        out["freegroup.composite_letters"] = (
            s["composite_letters"] / s["composite_calls"]
            if s["composite_calls"] else 0)
        out["freegroup.composite_letters_max"] = s["composite_letters_max"]
        out["freegroup.is_inner_budget"] = (
            s["is_inner_budget"] / s["is_inner_calls"]
            if s["is_inner_calls"] else 0)
        out["symplectic.closure_elements"] = s["closure_elements"] / ops
        for key in ("generators", "distinct_generators"):
            out[f"symplectic.{key}"] = (
                s[key] / s["closure_calls"] if s["closure_calls"] else 0)
        return out

    def write(self, path):
        """Write the spans as columns; times are ns from the first span."""
        t0 = self.start[0] if len(self.start) else 0
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "start_ns": [t - t0 for t in self.start],
            "end_ns": [t - t0 for t in self.end],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
