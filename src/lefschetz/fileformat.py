"""Reading and writing factorization files.

The on-disk format is JSON with a small comment convention: lines whose
first nonblank character is ``#`` are ignored.  A document holds one
object with integer fields ``genus`` and ``base_genus`` and a ``twists``
list; each twist record has a ``base`` curve label and a ``conj`` list
of signed twist tokens (lowercase for a positive twist, uppercase for a
negative one, so "t3" and "T3" are the two twists about the third chain
curve and "s1"/"S1" those about the standard separating curve).  The
twist list is written in application order: the first record acts first.

The serializer emits one twist record per line, so catalog data files
diff cleanly, and parse(serialize(f)) returns f exactly.  The format
holds factorizations only; the registered lantern relation is defined
in code, by ``monodromy.standard_lantern``.
"""

from __future__ import annotations

import json
from typing import Any

from .monodromy import Curve, Factorization, parse_token, token_string
from .surface import standard_surface


class ParseError(ValueError):
    """A factorization document failed syntactic or structural checks."""


def _strip_comments(text: str) -> str:
    lines = []
    for line in text.splitlines():
        lines.append("" if line.lstrip().startswith("#") else line)
    return "\n".join(lines)


def _load_document(text: str) -> Any:
    try:
        return json.loads(_strip_comments(text))
    except json.JSONDecodeError as err:
        raise ParseError(
            f"line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err


def _parse_twist(record: Any, index: int, genus: int) -> Curve:
    if not isinstance(record, dict):
        raise ParseError(f"twist {index}: expected an object, got {record!r}")
    base = record.get("base")
    if not isinstance(base, str):
        raise ParseError(f"twist {index}: missing or non-string 'base'")
    surf = standard_surface(genus)
    if base not in surf.labels:
        raise ParseError(
            f"twist {index}: unknown curve label {base!r} for genus {genus}"
        )
    raw_conj = record.get("conj", [])
    if not isinstance(raw_conj, list):
        raise ParseError(f"twist {index}: 'conj' must be a list of tokens")
    conj = []
    for tok in raw_conj:
        if not isinstance(tok, str):
            raise ParseError(f"twist {index}: non-string conjugator token {tok!r}")
        try:
            label, sign = parse_token(tok)
        except ValueError as err:
            raise ParseError(f"twist {index}: {err}") from err
        if label not in surf.labels:
            raise ParseError(
                f"twist {index}: conjugator token {tok!r} names no curve "
                f"at genus {genus}"
            )
        conj.append((label, sign))
    return Curve(base, tuple(conj))


def parse_factorization(text: str) -> Factorization:
    """Parse a factorization document; errors carry their location."""
    doc = _load_document(text)
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    # ``type(...) is int`` rejects JSON booleans, which load as bools.
    genus = doc.get("genus")
    if type(genus) is not int or genus < 1:
        raise ParseError("'genus' must be a positive integer")
    base_genus = doc.get("base_genus", 0)
    if type(base_genus) is not int or base_genus < 0:
        raise ParseError("'base_genus' must be a nonnegative integer")
    twists = doc.get("twists")
    if not isinstance(twists, list):
        raise ParseError("'twists' must be a list")
    cycles = tuple(
        _parse_twist(record, i, genus) for i, record in enumerate(twists)
    )
    return Factorization(genus, cycles, base_genus)


def _twist_line(curve: Curve) -> str:
    conj = ", ".join(json.dumps(token_string(t)) for t in curve.conj)
    return f'{{"base": {json.dumps(curve.base)}, "conj": [{conj}]}}'


def serialize_factorization(f: Factorization) -> str:
    """Render a factorization, one twist per line, parseable back to f."""
    lines = [
        "# monodromy factorization: twists are listed in application order,",
        "# first entry acts first; uppercase conjugator tokens are inverse twists",
        "{",
        f'"genus": {f.genus},',
        f'"base_genus": {f.base_genus},',
        '"twists": [',
    ]
    for i, curve in enumerate(f.cycles):
        comma = "," if i + 1 < len(f.cycles) else ""
        lines.append(_twist_line(curve) + comma)
    lines.append("]")
    lines.append("}")
    return "\n".join(lines) + "\n"

