"""The package's one JSON writer: ``json.dumps(plain(obj), sort_keys=True, indent=2)``.

``write`` hands ``out`` that text in pieces, without the standard library's
pure-Python indent encoder.  The skeleton (dicts, lists, scalars) becomes a
``%`` template filled from one call of the C encoder.  An array leaf, an
``ndarray`` or a ``Table`` of equal-length columns (a list of row dicts), is
written ``SLICE`` rows at a time: one encoder call per column slice and a
``%`` template per row.  A slice of ``_DISTINCT_MIN`` values or more encodes
each distinct value once (numbers compared by their bits, so ``0.0`` and
``-0.0`` stay apart).  So neither a whole array's Python floats nor the whole
text is held.  A non-str key, or any value ``json.dumps`` rejects, raises
TypeError.
"""

from __future__ import annotations

import json
import math
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

__all__ = ["SLICE", "Table", "plain", "write"]

#: rows of an array leaf per piece handed to ``out``
SLICE = 4096

# The C encoder is used when no indent is set.  A raw newline never occurs
# inside an encoded scalar (it is escaped in strings), so it can separate
# the items of one encoded list.
_SCALARS = json.JSONEncoder(separators=("\n", ":"))
_SCALAR = (str, int, float, type(None))  # bool is an int
# A shorter column slice is encoded value by value.  Finding the distinct
# values costs about 15 us a slice plus a sort, against about 1 us per float
# encoded, so a shorter slice with few repeats (the many small reports) loses
# by it, while from here on an all-distinct slice costs about as much either way.
_DISTINCT_MIN = 512


class Table:
    """A list of dicts held as equal-length columns (each of one or more
    dimensions): row r is ``{name: columns[name][r]}``."""

    def __init__(self, columns: dict):
        self.columns = {name: np.asarray(c) for name, c in columns.items()}
        if len({len(c) for c in self.columns.values()}) != 1:
            raise ValueError("a table needs one or more columns of one length")

    def __len__(self):
        return len(next(iter(self.columns.values())))


def plain(obj):
    """The JSON-native tree ``write`` writes: arrays and tables as lists."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Table):
        names = list(obj.columns)
        return [dict(zip(names, row)) for row in zip(*(c.tolist() for c in obj.columns.values()))]
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return list(map(plain, obj))
    return obj


def write(obj, out) -> None:
    """Call ``out`` on the pieces of ``json.dumps(plain(obj), sort_keys=True,
    indent=2)`` in order; a piece holds at most ``SLICE`` rows of a leaf."""
    pending = _Pending(out)
    pending.value(obj, "")
    pending.flush()


class _Pending:
    """The text since the last array leaf: a ``%`` template and its scalars."""

    def __init__(self, out):
        self.out = out
        self.parts: list[str] = []
        self.scalars: list = []

    def flush(self):
        text = "".join(self.parts)
        self.out(text % tuple(_encode(self.scalars)) if self.scalars else text)
        self.parts, self.scalars = [], []

    def value(self, obj, indent: str):
        if isinstance(obj, dict):
            keys = sorted(obj)
            if not all(isinstance(k, str) for k in keys):
                raise TypeError(f"keys must be str, got {keys!r}")
            values, brackets = [obj[k] for k in keys], "{}"
        elif isinstance(obj, (list, tuple)):
            keys, values, brackets = None, obj, "[]"
        elif isinstance(obj, Table) or isinstance(obj, np.ndarray) and obj.ndim:
            return self.leaf(obj, indent)
        elif isinstance(obj, np.ndarray):  # 0-d
            return self.value(obj.tolist(), indent)
        else:  # a scalar; the encoder raises json's TypeError on any other object
            self.parts.append("%s")
            self.scalars.append(obj)
            return
        if all(map(isinstance, values, repeat(_SCALAR))):  # one template for them all
            fields = ["%s" if keys is None else "%s: %s"] * len(values)
            self.parts.append(_template(brackets, fields, indent))
            self.scalars += values if keys is None else chain.from_iterable(zip(keys, values))
            return
        if keys is None and _scalar_rows(values):  # a list of rows, such as the seeds
            row = _template("[]", ["%s"] * len(values[0]), indent + "  ")
            self.parts.append(_template("[]", [row] * len(values), indent))
            self.scalars += chain.from_iterable(values)
            return
        inner = indent + "  "
        for i, v in enumerate(values):
            self.parts.append(",\n" + inner if i else brackets[0] + "\n" + inner)
            if keys is not None:
                self.parts.append("%s: ")
                self.scalars.append(keys[i])
            self.value(v, inner)
        self.parts.append("\n" + indent + brackets[1])

    def leaf(self, obj, indent: str):
        """The pending text, then the leaf's rows a slice at a time."""
        if not len(obj):
            self.parts.append("[]")
            return
        inner = indent + "  "
        if isinstance(obj, Table):
            names = sorted(obj.columns)
            keys = [encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in names]
            row = _template("{}", keys, inner)

            def rows(s):
                return map(row.__mod__, zip(*(_row_texts(obj.columns[k][s], inner + "  ")
                                              for k in names)))
        else:
            def rows(s):
                return _row_texts(obj[s], inner)
        self.parts.append("[\n" + inner)
        self.flush()
        sep = ",\n" + inner
        for start in range(0, len(obj), SLICE):
            if start:
                self.out(sep)
            self.out(sep.join(rows(slice(start, start + SLICE))))
        self.parts.append("\n" + indent + "]")


def _scalar_rows(values) -> bool:
    """Whether values are lists (or tuples) of scalars, all of one length."""
    return (all(map(isinstance, values, repeat((list, tuple))))
            and len(set(map(len, values))) == 1
            and all(map(isinstance, chain.from_iterable(values), repeat(_SCALAR))))


def _encode(values: list) -> list[str]:
    """The JSON text of each scalar, from one call of the C encoder."""
    return _SCALARS.encode(values)[1:-1].split("\n") if values else []


def _row_texts(a: np.ndarray, indent: str) -> list[str]:
    """The text of each row ``a[r].tolist()``, nested at ``indent``."""
    flat = a.ravel()
    kind = a.dtype.kind
    if len(flat) >= _DISTINCT_MIN and (kind == "U" or kind in "biuf" and a.itemsize <= 8):
        encoded = _distinct_texts(flat)
    else:
        encoded = _encode(flat.tolist())
    if a.ndim == 1:
        return encoded
    template = _nested(a.shape[1:], indent)
    width = math.prod(a.shape[1:])
    if not width:
        return [template] * len(a)
    return list(map(template.__mod__, zip(*[iter(encoded)] * width)))


def _distinct_texts(flat: np.ndarray) -> list[str]:
    """The text of each value of ``flat``, each distinct string or bit pattern
    encoded once.  Bits, not values: ``0.0`` and ``-0.0`` are equal but encode
    apart, while every NaN encodes as ``NaN``."""
    bits = flat if flat.dtype.kind == "U" else flat.view(f"u{flat.itemsize}")
    _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
    return np.array(_encode(flat[first].tolist()), dtype=object)[inverse].tolist()


def _nested(shape: tuple, indent: str) -> str:
    """The template of one nested list of this shape at ``indent``."""
    if not shape:
        return "%s"
    return _template("[]", [_nested(shape[1:], indent + "  ")] * shape[0], indent)


def _template(brackets: str, fields: list[str], indent: str) -> str:
    """A container's text at ``indent``, one ``%s`` per item still to fill."""
    if not fields:
        return brackets
    inner = indent + "  "
    sep = ",\n" + inner
    return f"{brackets[0]}\n{inner}{sep.join(fields)}\n{indent}{brackets[1]}"
