"""Reading and writing factorization files.

The on-disk format is JSON with a small comment convention: lines whose
first nonblank character is ``#`` are ignored.  A document holds one
object with integer fields ``genus`` and ``base_genus`` and a ``twists``
list; each twist record has a ``base`` curve label and a ``conj`` list
of signed twist tokens (lowercase for a positive twist, uppercase for a
negative one, so "t3" and "T3" are the two twists about the third chain
curve and "s1"/"S1" those about the standard separating curve).  The
twist list is written in application order: the first record acts first.

The parser checks only the document's shape: valid JSON, an object, a
``twists`` list of records, string labels and well-formed tokens.  The
rules of a word (the genus, the labels that exist at that genus, the
token signs) are checked once, by ``Factorization``.

The serializer emits one twist record per line, so catalog data files
diff cleanly, and parse(serialize(f)) returns f exactly.  The format
holds factorizations only; the registered lantern relation is defined
in code, by ``monodromy.standard_lantern``.
"""

from __future__ import annotations

import json
from typing import Any

from .monodromy import Curve, Factorization, parse_token, token_string


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
    except RecursionError as err:
        raise ParseError("document nests too deeply") from err
    except ValueError as err:  # e.g. an integer past the digit limit
        raise ParseError(str(err)) from err


def _parse_twist(record: Any, index: int) -> Curve:
    if not isinstance(record, dict):
        raise ParseError(f"twist {index}: expected an object, got {record!r}")
    base = record.get("base")
    if not isinstance(base, str):
        raise ParseError(f"twist {index}: missing or non-string 'base'")
    raw_conj = record.get("conj", [])
    if not isinstance(raw_conj, list):
        raise ParseError(f"twist {index}: 'conj' must be a list of tokens")
    conj = []
    for tok in raw_conj:
        if not isinstance(tok, str):
            raise ParseError(f"twist {index}: non-string conjugator token {tok!r}")
        try:
            conj.append(parse_token(tok))
        except ValueError as err:
            raise ParseError(f"twist {index}: {err}") from err
    return Curve(base, tuple(conj))


def parse_factorization(text: str) -> Factorization:
    """Parse a factorization document; errors carry their location.
    ``Factorization``'s own rule errors come back as ``ParseError``."""
    doc = _load_document(text)
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    twists = doc.get("twists")
    if not isinstance(twists, list):
        raise ParseError("'twists' must be a list")
    cycles = tuple(_parse_twist(record, i) for i, record in enumerate(twists))
    try:
        return Factorization(doc.get("genus"), cycles, doc.get("base_genus", 0))
    except ValueError as err:
        raise ParseError(str(err)) from err


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

