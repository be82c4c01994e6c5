"""The artifact format: deterministic JSON/CSV emission, the header every
writer puts first and every loader checks, exact rationals as "p/q"
strings, and words over the letters 1, 2, ... as digit strings or lists.

Floats are rendered with 17 significant digits so that reruns with the
same flags and seed produce byte-identical artifacts.  The emitter
dispatches on the exact type and renders an all-int or all-float row in one
join; a subclass of a JSON type, a numpy value or an object with to_json is
turned into its plain value first, so every type has one renderer.  Within
a dumps call each all-int row and each '"key": ' prefix is rendered once
per indent, and a string with nothing to escape is written as it is.  The
floats of an all-float row are rendered by one "%.17g" format call, and
those of a list of all-float rows by one call per FLOAT_BATCH floats, with
_render_float's texts.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import chain, compress, count

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


def _float_texts(xs: list) -> list:
    """[_render_float(x) for x in xs] from one "%.17g" format of all of xs;
    each integral x below 1e16 is then rendered again, as .1f."""
    text = ("%.17g\0" * len(xs) % tuple(xs))[:-1]
    if "n" in text:  # inf, nan
        raise ValueError("non-finite float has no JSON rendering")
    texts = text.split("\0")
    for i in compress(count(), map(float.is_integer, xs)):
        if abs(xs[i]) < 1e16:
            texts[i] = f"{xs[i]:.1f}"
    return texts


FLOAT_BATCH = 512  # floats per format call of _float_rows


def _float_rows(rows, pad: str) -> list | None:
    """Each of rows (curve points, pairings, candidates; rows[0] is not
    empty) rendered by _row at pad, about FLOAT_BATCH floats from one format
    call; None unless every entry is a float.  The batch bounds the
    temporary texts."""
    out = []
    step = max(1, FLOAT_BATCH // len(rows[0]))
    for lo in range(0, len(rows), step):
        batch = rows[lo:lo + step]
        flat = list(chain.from_iterable(batch))
        if set(map(type, flat)) != {float}:
            return None
        texts, at = _float_texts(flat), 0
        for row in batch:
            out.append(_row(texts[at:at + len(row)], len(row), pad))
            at += len(row)
    return out


_ESCAPED = re.compile(r'["\\\x00-\x1f]')  # every character _escape rewrites
_SHORT_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t",
                  "\r": "\\r"}


def _escape(s: str) -> str:
    """s as the inside of a JSON string; s itself when nothing needs an
    escape."""
    return _ESCAPED.sub(lambda m: _SHORT_ESCAPES.get(m[0])
                        or f"\\u{ord(m[0]):04x}", s)


def _plain(obj):
    """The plain JSON value obj is rendered as: an instance of a subclass of
    int, float, Fraction, str, dict, list or tuple as that type (bool has
    none), a numpy scalar or array as its tolist(), else its to_json()."""
    for kind in (int, float, Fraction, str, dict, list, tuple):
        if isinstance(obj, kind):
            return kind(obj)
    if hasattr(obj, "tolist"):
        return obj.tolist()
    if hasattr(obj, "to_json"):
        return obj.to_json()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _row(texts, size: int, pad: str) -> str:
    """A list of size rendered scalars: inline up to 16, else one a line."""
    if size <= 16:
        return "[" + ", ".join(texts) + "]"
    inner = pad + INDENT
    return f"[\n{inner}" + f",\n{inner}".join(texts) + f"\n{pad}]"


def _emit(obj, parts: list, pad: str, memo: dict):
    """Render obj into parts.  memo holds, for one dumps call, the text of
    each all-int row per (row, indent) and of each '"key": ' prefix per
    (key, indent)."""
    kind = type(obj)
    if kind is str:
        parts.append(f'"{_escape(obj)}"')
    elif kind is int:
        parts.append(str(obj))
    elif kind is float:
        parts.append(_render_float(obj))
    elif kind is Fraction:
        parts.append(f'"{obj}"')
    elif kind is bool:
        parts.append("true" if obj else "false")
    elif obj is None:
        parts.append("null")
    elif kind is dict:
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        inner = pad + INDENT
        last = len(obj) - 1
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):  # before the lookup: memo has rows
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
            prefix = memo.get((k, inner))
            if prefix is None:
                prefix = memo[k, inner] = f'{inner}"{_escape(k)}": '
            parts.append(prefix)
            _emit(v, parts, inner, memo)
            parts.append(",\n" if i < last else "\n")
        parts.append(pad + "}")
    elif kind is list or kind is tuple:
        if not obj:
            parts.append("[]")
            return
        kinds = set(map(type, obj))
        # ints (not bools, which print true) and floats in one join; an int
        # row, such as an exponent tuple, recurs across an artifact and is
        # rendered once per indent (keyed only after the type test: True == 1)
        if kinds == {int}:
            key = (tuple(obj), pad)
            text = memo.get(key)
            if text is None:
                text = memo[key] = _row(map(str, obj), len(obj), pad)
            parts.append(text)
            return
        if kinds == {float}:
            parts.append(_row(_float_texts(obj), len(obj), pad))
            return
        if kinds <= {list, tuple} and obj[0] and type(obj[0][0]) is float:
            inner = pad + INDENT
            rows = _float_rows(obj, inner)
            if rows is not None:
                parts.append(f"[\n{inner}" + f",\n{inner}".join(rows)
                             + f"\n{pad}]")
                return
        if len(obj) <= 16 and not any(issubclass(t, (dict, list, tuple))
                                      for t in kinds):
            parts.append("[")
            for i, v in enumerate(obj):
                if i:
                    parts.append(", ")
                _emit(v, parts, pad, memo)
            parts.append("]")
            return
        parts.append("[\n")
        inner = pad + INDENT
        last = len(obj) - 1
        for i, v in enumerate(obj):
            parts.append(inner)
            _emit(v, parts, inner, memo)
            parts.append(",\n" if i < last else "\n")
        parts.append(pad + "]")
    else:
        _emit(_plain(obj), parts, pad, memo)


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
