"""The package's one JSON writer: ``json.dumps(plain(obj), sort_keys=True, indent=2)``.

``write`` hands ``out`` that text in pieces, without the standard library's
pure-Python indent encoder.  The skeleton (dicts, lists, scalars) becomes a
``%`` template filled from one call of the C encoder.  An array leaf, an
``ndarray`` or a ``Table`` of equal-length columns (a list of row dicts), is
written ``SLICE`` rows at a time, one ``"".join`` per slice: its row text is
built once and split where the values go, and the constant text before each
value is joined to that value's texts (one encoder call per value column).
From ``_DISTINCT_MIN`` values on, a column slice encodes and joins each
distinct value once (numbers compared by their bits, so ``0.0`` and ``-0.0``
stay apart).  So neither a whole array's Python floats nor the whole text is
held.  A non-str key, or any value ``json.dumps`` rejects, raises TypeError.
"""

from __future__ import annotations

import json
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
# values costs about 15 us a slice and 0.03 us a value; each repeat saves its
# encoding (0.6 us a float, 0.1 us an int or short string) and its join to the
# text before it (0.04 us).  So few distinct values win from about 128 on, and
# all-distinct floats lose 7 to 18 % from 256 on, more below.
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
        """The pending text, then the leaf's rows, one join per slice: a row is,
        for each value, the row text before it joined to its text, then a tail."""
        if not len(obj):
            self.parts.append("[]")
            return
        inner = indent + "  "
        if isinstance(obj, Table):
            names = sorted(obj.columns)
            arrays = [obj.columns[k] for k in names]
            row = _template("{}", [encode_basestring_ascii(k) + ": "
                                   + _nested(a.shape[1:], inner + "  ")
                                   for k, a in zip(names, arrays)], inner)
        else:
            arrays, row = [obj], _nested(obj.shape[1:], inner)
        *before, tail = row.split("\0")  # the text before each value, then the row's tail
        stride = len(before) + 1
        self.parts.append("[\n" + inner)
        self.flush()
        sep = ",\n" + inner
        for start in range(0, len(obj), SLICE):
            s, rows = slice(start, start + SLICE), min(SLICE, len(obj) - start)
            if start:
                self.out(sep)
            if row == "\0":  # bare values
                self.out(sep.join(_texts(obj[s], "")))
                continue
            buf = [tail + sep] * (stride * rows)
            columns = (c for a in arrays for c in a[s].reshape(rows, -1).T)  # one per value
            for p, (c, b) in enumerate(zip(columns, before)):
                buf[p::stride] = _texts(c, b)
            buf[-1] = tail
            self.out("".join(buf))
        self.parts.append("\n" + indent + "]")


def _scalar_rows(values) -> bool:
    """Whether values are lists (or tuples) of scalars, all of one length."""
    return (all(map(isinstance, values, repeat((list, tuple))))
            and len(set(map(len, values))) == 1
            and all(map(isinstance, chain.from_iterable(values), repeat(_SCALAR))))


def _encode(values: list) -> list[str]:
    """The JSON text of each scalar, from one call of the C encoder."""
    return _SCALARS.encode(values)[1:-1].split("\n") if values else []


def _texts(a: np.ndarray, before: str) -> list[str]:
    """``before`` joined to the text of each value of the 1-D ``a``.  From
    ``_DISTINCT_MIN`` values on, each distinct string or bit pattern is
    encoded and joined to ``before`` once.  Bits, not values: ``0.0`` and
    ``-0.0`` are equal but encode apart, while every NaN encodes as ``NaN``."""
    kind = a.dtype.kind
    if len(a) >= _DISTINCT_MIN and (kind == "U" or kind in "biuf" and a.itemsize <= 8):
        _, first, inverse = np.unique(a if kind == "U" else a.view(f"u{a.itemsize}"),
                                      return_index=True, return_inverse=True)
        texts = np.array(_encode(a[first].tolist()), dtype=object)
        return (before + texts if before else texts)[inverse].tolist()
    texts = _encode(a.tolist())
    return [before + t for t in texts] if before else texts


def _nested(shape: tuple, indent: str) -> str:
    """One nested list of this shape at ``indent``, a NUL for each value: the
    encoder escapes NUL, so no key or value text holds one."""
    if not shape:
        return "\0"
    return _template("[]", [_nested(shape[1:], indent + "  ")] * shape[0], indent)


def _template(brackets: str, fields: list[str], indent: str) -> str:
    """A container's text at ``indent``, from the texts of its items."""
    if not fields:
        return brackets
    inner = indent + "  "
    sep = ",\n" + inner
    return f"{brackets[0]}\n{inner}{sep.join(fields)}\n{indent}{brackets[1]}"
