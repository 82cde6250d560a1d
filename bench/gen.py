"""Seeded benchmark inputs, built without the program's surgery code.

Words are read from the catalog data files under ``src/lefschetz/data``
and scrambled here with this module's own token code: Hurwitz moves and
a global conjugation, exactly as the file format documents them.  The
program under test only ever sees the files this module writes, so a
change to its own ``hurwitz_move`` or ``global_conjugate`` cannot change
the inputs.

A twist token is a string: ``t1``..``t5`` and ``s1`` are the positive
twists about the chain curves ``c1``..``c5`` and the separating curve
``s1``; the uppercase forms are their inverses.  A curve is a pair
``(base, conj)`` with ``conj`` a tuple of tokens, outermost first.

Inputs are kept inside a band of a cost proxy, ``work``: the letters of
every twist automorphism and every partial composite an exact check has
to build, computed here with a small free-group evaluator of its own.
Conjugator length alone does not bound that cost: exact checks of
scrambles with about 50 tokens took from 2 ms to 570 ms.

Run ``python3 bench/gen.py WORKLOAD SEED DIR`` to write one input set.
"""

from __future__ import annotations

import json
import os
import random
import sys

DATA_DIR = os.path.join("src", "lefschetz", "data")

CHAIN_SOURCES = ("chakiris-alpha", "chakiris-beta", "chakiris-gamma",
                 "hyperelliptic-sq")
# The six exact catalog entries with data files.  The lantern-derived words
# are left out: their relation is being rebuilt, and fibersum-12-4 has no file.
CERTIFY_SOURCES = CHAIN_SOURCES + ("matsumoto-62", "baykur-korkmaz-43")
# First homology of the total space, as published for each source.
SOURCE_H1 = {name: "0" for name in CHAIN_SOURCES}
SOURCE_H1.update({"matsumoto-62": "Z + Z", "baykur-korkmaz-43": "Z + Z"})

TOKENS = ("t1", "t2", "t3", "t4", "t5", "s1",
          "T1", "T2", "T3", "T4", "T5", "S1")

# Scramble shape and cost bands for each workload: Hurwitz moves and
# conjugator prefix length are drawn from the ranges, and a word is kept
# only if its ``work`` lies in the band.  ``per_source`` words of each
# source make up one round; every run repeats whole rounds.
CERTIFY = {"per_source": 20, "moves": (1, 6), "prefix": (0, 2),
           "work": (4000, 8000)}
# The reject band is low so that is_inner's search, whose bound is fixed
# by the 82-letter composite, dominates.  baykur-korkmaz-43 is left out:
# its scrambles start above the band.
REJECT = {"per_source": 24, "moves": (1, 6), "prefix": (0, 2),
          "work": (1200, 2000)}
REJECT_SOURCES = CHAIN_SOURCES + ("matsumoto-62",)
# Closure cost grows with the number of transvections, so the 20-twist
# sources appear twice per round; the median then falls inside one class.
CLOSURE_ROUND = ("chakiris-gamma", "hyperelliptic-sq", "chakiris-alpha",
                 "chakiris-gamma", "hyperelliptic-sq", "chakiris-beta")
# Closure inputs are rotated and conjugated, not Hurwitz-moved: both keep
# the generating set up to conjugacy and order, hence the size of every
# breadth-first level, which fixes the closure's time and peak memory.
# Hurwitz moves change the generating set; with them, the ten-seed spread
# of peak memory was 11%.
CLOSURE_PREFIX = (2, 6)
CLI_COPIES = 2
MAX_TRIES = 20000


# -- token words ---------------------------------------------------------

def inverse_tokens(tokens):
    return tuple(t.swapcase() for t in reversed(tokens))


def reduce_tokens(tokens):
    out = []
    for t in tokens:
        if out and out[-1] == t.swapcase():
            out.pop()
        else:
            out.append(t)
    return tuple(out)


def base_token(base):
    """The positive twist token about a standard curve label."""
    return "t" + base[1:] if base.startswith("c") else base


def hurwitz(cycles, i, direction):
    """Elementary transformation of the pair at i, i+1; the right move
    sends (x, y) to (y, T_y(x)), the left move is its inverse."""
    (xb, xc), (yb, yc) = cycles[i], cycles[i + 1]
    if direction == "right":
        moved = reduce_tokens(yc + (base_token(yb),) + inverse_tokens(yc) + xc)
        pair = [(yb, yc), (xb, moved)]
    else:
        moved = reduce_tokens(
            xc + (base_token(xb).upper(),) + inverse_tokens(xc) + yc)
        pair = [(yb, moved), (xb, xc)]
    return cycles[:i] + pair + cycles[i + 2:]


def conjugate(cycles, prefix):
    return [(b, reduce_tokens(tuple(prefix) + c)) for b, c in cycles]


def random_prefix(rng, length):
    out = []
    while len(out) < length:
        t = rng.choice(TOKENS)
        if not out or out[-1] != t.swapcase():
            out.append(t)
    return out


# -- the cost proxy: a free-group evaluator of the benchmark's own ----------
# The twist action on pi1 of the one-holed genus-2 surface, generators
# a1, b1, a2, b2 = 1..4, in the standard model.  It only sizes inputs; the
# verdicts are checked against properties, never against this evaluator.

def _conj(word, by):
    return _reduce(tuple(by) + tuple(word) + _inv(by))


def _inv(word):
    return tuple(-x for x in reversed(word))


def _reduce(letters):
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


_D = (2, 1, -2, -1)
_TWIST = {
    "t1": ((1,), (2, 1), (3,), (4,)),
    "T1": ((1,), (2, -1), (3,), (4,)),
    "t2": ((1, -2), (2,), (3,), (4,)),
    "T2": ((1, 2), (2,), (3,), (4,)),
    "t3": ((-3, 1, 3), (-3, -1, 3, 1, 2, 1, 3), (-3, -1, 3, 1, 3), (4, 1, 3)),
    "T3": ((1, 3, 1, -3, -1), (1, 3, -1, -3, 2, -3, -1), (1, 3, -1),
           (4, -3, -1)),
    "t4": ((1,), (2,), (3, -4), (4,)),
    "T4": ((1,), (2,), (3, 4), (4,)),
    "t5": ((1,), (2,), (3,), (4, 3)),
    "T5": ((1,), (2,), (3,), (4, -3)),
    "s1": (_conj((1,), _D), _conj((2,), _D), (3,), (4,)),
    "S1": (_conj((1,), _inv(_D)), _conj((2,), _inv(_D)), (3,), (4,)),
}
_IDENTITY = ((1,), (2,), (3,), (4,))


def _apply(images, word):
    out = []
    for x in word:
        piece = images[x - 1] if x > 0 else _inv(images[-x - 1])
        for y in piece:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return tuple(out)


def _compose(outer, inner):
    return tuple(_apply(outer, im) for im in inner)


def _letters(images):
    return sum(len(im) for im in images)


def exact_cost(cycles, cap):
    """(work, letters): the letters of every twist automorphism and
    partial composite the exact check builds, and of the final composite.
    Stops once ``work`` passes ``cap``, so a returned work > cap means
    only "too large"."""
    work = 0
    acc = _IDENTITY
    for base, conj in cycles:
        psi = psi_inv = _IDENTITY
        for t in conj:
            psi = _compose(psi, _TWIST[t])
            work += _letters(psi)
        for t in inverse_tokens(conj):
            psi_inv = _compose(psi_inv, _TWIST[t])
            work += _letters(psi_inv)
        if work > cap:
            break
        twist = _compose(psi, _compose(_TWIST[base_token(base)], psi_inv))
        acc = _compose(twist, acc)
        work += _letters(twist) + _letters(acc)
        if work > cap:
            break
    return work, _letters(acc)


# -- homology, for the closure orders -------------------------------------

# Classes in the basis a1, b1, a2, b2 with <a_i, b_i> = -1.
_CLASS = {"c1": (1, 0, 0, 0), "c2": (0, 1, 0, 0), "c3": (1, 0, 1, 0),
          "c4": (0, 0, 0, 1), "c5": (0, 0, 1, 0), "s1": (0, 0, 0, 0)}


def _pair(u, v):
    return u[1] * v[0] - u[0] * v[1] + u[3] * v[2] - u[2] * v[3]


def transvection_mod(c, p):
    """x -> x + <x, c> c over Z/p, as a 4x4 matrix acting on columns."""
    cols = []
    for k in range(4):
        e = tuple(1 if i == k else 0 for i in range(4))
        cols.append(tuple((e[i] + _pair(e, c) * c[i]) % p for i in range(4)))
    return tuple(tuple(cols[j][i] for j in range(4)) for i in range(4))


def _mat_mul_mod(a, b, p):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(4)) % p for j in range(4))
        for i in range(4)
    )


def closure_order(cycles, p):
    """Order of the group generated by the twist transvections mod p, by
    breadth-first closure; used only on unscrambled chain words, whose
    classes are the standard ones."""
    gens = {transvection_mod(_CLASS[b], p) for b, conj in cycles if not conj}
    if len(gens) != len({b for b, _ in cycles}):
        raise ValueError("closure_order needs unconjugated curves")
    ident = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = _mat_mul_mod(m, g, p)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return len(seen)


def sp4_order(p):
    return p ** 4 * (p ** 2 - 1) * (p ** 4 - 1)


# -- files -----------------------------------------------------------------

def read_word(path):
    """Twist list of a factorization file: '#' lines are comments."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    doc = json.loads("\n".join(
        "" if line.lstrip().startswith("#") else line
        for line in text.splitlines()))
    if doc.get("genus") != 2 or doc.get("base_genus", 0) != 0:
        raise ValueError(f"{path}: expected a genus-2 word over the sphere")
    return [(r["base"], tuple(r.get("conj", []))) for r in doc["twists"]]


def read_source(name):
    return read_word(os.path.join(DATA_DIR, f"{name}.json"))


def word_text(cycles):
    lines = ["# benchmark input: twists in application order",
             "{", '"genus": 2,', '"base_genus": 0,', '"twists": [']
    for i, (base, conj) in enumerate(cycles):
        comma = "," if i + 1 < len(cycles) else ""
        lines.append(json.dumps({"base": base, "conj": list(conj)}) + comma)
    lines += ["]", "}"]
    return "\n".join(lines) + "\n"


def ns_counts(cycles):
    """(n, s): every s1-based curve separates, every chain curve does not,
    and Hurwitz moves and conjugation keep each base label."""
    s = sum(1 for b, _ in cycles if b == "s1")
    return len(cycles) - s, s


# -- workloads ---------------------------------------------------------------

def _scramble(rng, source, shape, tail=()):
    """Random Hurwitz moves, a global conjugation, then ``tail`` appended;
    retried until the word's work lies inside the shape's band."""
    for _ in range(MAX_TRIES):
        cycles = list(source)
        moves = rng.randint(*shape["moves"])
        for _ in range(moves):
            cycles = hurwitz(cycles, rng.randrange(len(cycles) - 1),
                             rng.choice(("left", "right")))
        prefix = random_prefix(rng, rng.randint(*shape["prefix"]))
        cycles = conjugate(cycles, prefix) + list(tail)
        work = letters = 0
        if "work" in shape:
            lo, hi = shape["work"]
            work, letters = exact_cost(cycles, hi)
            if not lo <= work <= hi:
                continue
        return cycles, moves, prefix, work, letters
    raise RuntimeError("no scramble inside the cost band")


def _word_item(rng, name, shape, tail, file):
    cycles, moves, prefix, work, letters = _scramble(
        rng, read_source(name), shape, tail)
    n, s = ns_counts(cycles)
    return {
        "file": file, "source": name, "moves": moves, "prefix": prefix,
        "tokens": sum(len(c) for _, c in cycles), "work": work,
        "letters": letters, "n": n, "s": s, "h1": SOURCE_H1[name],
        "euler": n + s - 4, "signature": -(3 * n + s) // 5,
        "text": word_text(cycles),
    }


def certify_inputs(rng):
    return [_word_item(rng, name, CERTIFY, (), f"{name}-{k}.json")
            for name in CERTIFY_SOURCES for k in range(CERTIFY["per_source"])]


def reject_inputs(rng):
    """Identity words with one s1 twist appended last."""
    return [_word_item(rng, name, REJECT, (("s1", ()),), f"{name}-{k}.json")
            for name in REJECT_SOURCES for k in range(REJECT["per_source"])]


def closure_inputs(rng):
    """Rotated, conjugated chain words.  The mod-2 order of each source
    comes from this module's own closure; at p = 3 every source generates
    all of Sp(4, 3).  Conjugation keeps the order of the generated group."""
    orders = {}
    items = []
    for k, name in enumerate(CLOSURE_ROUND):
        source = read_source(name)
        if name not in orders:
            orders[name] = {"2": closure_order(source, 2), "3": sp4_order(3)}
        turn = rng.randrange(len(source))
        prefix = random_prefix(rng, rng.randint(*CLOSURE_PREFIX))
        cycles = conjugate(source[turn:] + source[:turn], prefix)
        items.append({
            "file": f"{name}-{k}.json", "source": name, "rotation": turn,
            "prefix": prefix, "generators": len(cycles),
            "orders": orders[name], "text": word_text(cycles),
        })
    return items


def cli_inputs(rng):
    """Light commands on generated words and catalog entries; each
    command appears CLI_COPIES times per round, on different inputs."""
    items = []
    for copy in range(CLI_COPIES):
        words = [_word_item(rng, name, CERTIFY, (), f"word-{copy}-{k}.json")
                 for k, name in enumerate(rng.sample(CERTIFY_SOURCES, 4))]
        moved = words[3]
        i = rng.randrange(moved["n"] + moved["s"] - 1)
        direction = rng.choice(("left", "right"))
        prefix = random_prefix(rng, rng.randint(1, 3))
        k = rng.randint(2, 60)
        n_max, s_max = rng.randint(16, 24), rng.randint(12, 18)
        items += [
            {"cmd": "type", "args": ["type", "@"], "word": words[0]},
            {"cmd": "invariants", "args": ["invariants", "@"],
             "word": words[1]},
            {"cmd": "check", "args": ["check", "@", "--level", "exact"],
             "word": words[2]},
            {"cmd": "catalog-verify",
             "args": ["catalog", "verify", rng.choice(CERTIFY_SOURCES)]},
            {"cmd": "hurwitz", "word": moved, "index": i, "dir": direction,
             "args": ["hurwitz", "@", "--index", str(i), "--dir", direction,
                      "-o", f"%out-{copy}-hurwitz.json"]},
            {"cmd": "conjugate", "word": words[0], "prefix": prefix,
             "args": ["conjugate", "@", "--word", ",".join(prefix),
                      "-o", f"%out-{copy}-conjugate.json"]},
            {"cmd": "family", "k": k, "args": ["family", "--k", str(k)]},
            {"cmd": "feasibility", "n_max": n_max, "s_max": s_max,
             "args": ["feasibility", "--n-max", str(n_max),
                      "--s-max", str(s_max)]},
        ]
    return items


GENERATORS = {
    "certify": certify_inputs,
    "reject": reject_inputs,
    "closure": closure_inputs,
    "cli": cli_inputs,
}


def write_inputs(workload, seed, out_dir):
    """Write one input set and its manifest; returns the manifest path.
    The same workload and seed always give byte-identical files."""
    rng = random.Random(f"{workload}:{seed}")
    items = GENERATORS[workload](rng)
    os.makedirs(out_dir, exist_ok=True)
    for item in items:
        for w in (item, item.get("word", {})):
            if "text" in w:
                with open(os.path.join(out_dir, w["file"]), "w",
                          encoding="utf-8") as fh:
                    fh.write(w.pop("text"))
    manifest = {"workload": workload, "seed": seed, "items": items}
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in GENERATORS:
        sys.exit(f"usage: {sys.argv[0]} {{{','.join(GENERATORS)}}} SEED DIR")
    print(write_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3]))
