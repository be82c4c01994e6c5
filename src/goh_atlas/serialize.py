"""The artifact format: deterministic JSON/CSV emission, the header every
writer puts first and every loader checks, exact rationals as "p/q"
strings, and words over the letters 1, 2, ... as digit strings or lists.

Floats are rendered with 17 significant digits so that reruns with the
same flags and seed produce byte-identical artifacts.  A long all-int row
(one entry per line) is rendered once per row and indent in a dumps call.
"""

from __future__ import annotations

import sys
from fractions import Fraction

INDENT = "  "  # per nesting level of a JSON object or list
SCHEMA = "goh-atlas/1"


def artifact(kind: str, fields: dict) -> dict:
    """A SCHEMA JSON object of type kind holding fields (check_artifact's
    counterpart)."""
    return {"schema": SCHEMA, "type": kind, **fields}


def check_artifact(data, kind: str, *keys: str) -> None:
    """ValueError unless data is a SCHEMA JSON object of type kind that has
    every one of keys (those its loader reads)."""
    found = (data.get("schema"), data.get("type")) \
        if isinstance(data, dict) else (None, type(data).__name__)
    if found != (SCHEMA, kind):
        raise ValueError(f"expected a {SCHEMA} {kind!r} artifact, found "
                         f"schema {found[0]!r}, type {found[1]!r}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{kind!r} artifact is missing key {key!r}")


def _ratio(c):
    """An exact rational as "p/q" (an integer too: "3/1"); other values,
    such as a float, are returned as they are."""
    return f"{c.numerator}/{c.denominator}" if isinstance(c, Fraction) else c


def _words_to_json(words) -> list:
    """Words over the letters 1, 2, ...: digit strings ("112") while every
    letter is below 10, else lists of letters ([10, 2])."""
    if all(k < 10 for w in words for k in w):
        return ["".join(map(str, w)) for w in words]
    return [list(w) for w in words]


def _words_from_json(items, what: str) -> tuple:
    """Inverse of _words_to_json; ValueError naming the first bad entry."""
    if not isinstance(items, list):
        raise ValueError(f"{what}s must be a list, got {items!r}")
    words = []
    for i, w in enumerate(items, 1):
        if isinstance(w, str) and w.isascii() and w.isdigit():
            w = [int(c) for c in w]
        if not (w and isinstance(w, list)
                and all(type(k) is int and k > 0 for k in w)):
            raise ValueError(f"{what} {i}: {items[i - 1]!r} is not a word "
                             f"over the letters 1, 2, ...")
        words.append(tuple(w))
    return tuple(words)


def _render_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite float has no JSON rendering")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def _escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def _emit(obj, parts: list, pad: str, rows: dict):
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(_render_float(obj))
    elif isinstance(obj, Fraction):
        parts.append(f'"{obj}"')
    elif isinstance(obj, str):
        parts.append(f'"{_escape(obj)}"')
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        inner = pad + INDENT
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
            parts.append(f'{inner}"{_escape(k)}": ')
            _emit(v, parts, inner, rows)
            parts.append(",\n" if i + 1 < len(obj) else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            parts.append("[]")
            return
        # ints (not bools, which print true) in one join; a long row, such
        # as an exponent tuple, recurs across an artifact and is rendered
        # once per indent (keyed only after the int check: True == 1)
        if type(seq[0]) is int and all(type(v) is int for v in seq):
            if len(seq) <= 16:
                parts.append("[" + ", ".join(map(str, seq)) + "]")
                return
            key = (tuple(seq), pad)
            text = rows.get(key)
            if text is None:
                inner = pad + INDENT
                text = rows[key] = (f"[\n{inner}" + f",\n{inner}".join(
                    map(str, seq)) + f"\n{pad}]")
            parts.append(text)
            return
        scalars = all(not isinstance(v, (dict, list, tuple)) for v in seq)
        if scalars and len(seq) <= 16:
            parts.append("[")
            for i, v in enumerate(seq):
                _emit(v, parts, pad, rows)
                if i + 1 < len(seq):
                    parts.append(", ")
            parts.append("]")
            return
        parts.append("[\n")
        inner = pad + INDENT
        for i, v in enumerate(seq):
            parts.append(inner)
            _emit(v, parts, inner, rows)
            parts.append(",\n" if i + 1 < len(seq) else "\n")
        parts.append(pad + "]")
    elif hasattr(obj, "tolist"):  # numpy scalars and arrays
        _emit(obj.tolist(), parts, pad, rows)
    elif hasattr(obj, "to_json"):
        _emit(obj.to_json(), parts, pad, rows)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    parts: list = []
    _emit(obj, parts, "", {})
    parts.append("\n")
    return "".join(parts)


def write_output(text: str, out: str | None):
    """Write to a file, or stdout when out is None or '-'."""
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def curve_csv(ts, points) -> str:
    m = len(points[0])
    lines = ["t," + ",".join(f"x{j + 1}" for j in range(m))]
    for t, row in zip(ts, points):
        lines.append(",".join([format(float(t), ".17g")]
                              + [format(float(v), ".17g") for v in row]))
    return "\n".join(lines) + "\n"
