"""The package's one JSON writer: ``json.dumps(obj, sort_keys=True, indent=2)``.

With ``indent`` set, the standard library skips its C encoder and walks the
tree with a pure-Python generator, one step per value.  ``dumps`` gives the
same text while it handles many values of one kind together:

- it walks the tree one depth at a time.  Containers of one shape (a list
  length, or a dict's key tuple) at one depth form a group, and a group's
  items are taken out row by row, in sorted key order for dicts;
- a group whose items are all scalars has them encoded with the scalars
  of its own depth, and the other groups' items make up the next depth;
- walking back up, the scalars of each depth go through one call of the
  C encoder, and each container's text is its shape's ``%`` template,
  filled from one row of encoded items.  A depth's encoded scalars are
  dropped once its texts are built, to keep the peak memory low.

Only str keys are supported; any other key raises TypeError.  A value
``json.dumps`` rejects raises the same TypeError here.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter, not_

__all__ = ["dumps"]

_NESTED = (dict, list, tuple)
# The C encoder is used when no indent is set.  A raw newline never occurs
# inside an encoded scalar (it is escaped in strings), so it can separate
# the items of one encoded list.
_SCALARS = json.JSONEncoder(separators=("\n", ":"))


def dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte."""
    depths = []
    values, indent = [obj], ""
    while values:
        if len(depths) > sys.getrecursionlimit():  # as deep as json.dumps goes
            raise RecursionError("report nested too deeply, or circular")
        is_nested = list(map(isinstance, values, repeat(_NESTED)))
        scalars = list(compress(values, map(not_, is_nested)))
        own = len(scalars)
        containers = list(compress(values, is_nested))
        shapes = [tuple(v) if isinstance(v, dict) else len(v) for v in containers]
        groups: dict = {}
        for shape, v in zip(shapes, containers):
            groups.setdefault(shape, []).append(v)
        plans, deeper = [], []
        for shape, members in groups.items():
            if isinstance(shape, tuple):
                template, row = _dict_layout(shape, indent)
                items = list(chain.from_iterable(map(row, members)))
                width = len(shape)
            else:
                template = _template("[]", ["%s"] * shape, indent)
                items = list(chain.from_iterable(members))
                width = shape
            nested = _nests(items)
            store = deeper if nested else scalars
            plans.append((template, width, len(members), nested, len(store)))
            store.extend(items)
        depths.append((is_nested, scalars, own, shapes, plans))
        values, indent = deeper, indent + "  "

    below: list[str] = []  # texts of the values one depth down
    for is_nested, scalars, own, shapes, plans in reversed(depths):
        encoded = _SCALARS.encode(scalars)[1:-1].split("\n") if scalars else []
        group_texts = []
        for template, width, m, nested, at in plans:
            if not width:
                group_texts.append([template] * m)
                continue
            items = iter((below if nested else encoded)[at : at + width * m])
            group_texts.append(list(map(template.__mod__, zip(*[items] * width))))
        if len(group_texts) == 1:
            container_texts = group_texts[0]
        else:
            index = {shape: g for g, shape in enumerate(dict.fromkeys(shapes))}
            container_texts = _interleave(list(map(index.__getitem__, shapes)), *group_texts)
        below = _interleave(is_nested, encoded[:own], container_texts)
    return below[0]


def _nests(values: list) -> bool:
    return any(map(issubclass, set(map(type, values)), repeat(_NESTED)))


def _interleave(picks: list, *texts: list[str]) -> list[str]:
    """Item i is the next unused text of ``texts[picks[i]]``."""
    sources = tuple(map(iter, texts))
    return list(map(next, map(sources.__getitem__, picks)))


@lru_cache(maxsize=1024)  # a report has few key sets, met again in every report
def _dict_layout(keys: tuple, indent: str):
    """(template, row) of dicts with these keys nested at ``indent``:
    row(d) is the tuple of d's values in sorted key order."""
    keys = sorted(keys)
    fields = [k.replace("%", "%%") + ": %s" for k in map(encode_basestring_ascii, keys)]
    # itemgetter of a single key returns the value, not a 1-tuple
    row = itemgetter(*keys) if len(keys) > 1 else lambda d: tuple(d[k] for k in keys)
    return _template("{}", fields, indent), row


def _template(brackets: str, fields: list[str], indent: str) -> str:
    """A container's text at ``indent``, one ``%s`` per item still to fill."""
    if not fields:
        return brackets
    inner = indent + "  "
    sep = ",\n" + inner
    return f"{brackets[0]}\n{inner}{sep.join(fields)}\n{indent}{brackets[1]}"
