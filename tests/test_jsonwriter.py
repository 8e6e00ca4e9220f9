import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bishadow.jsonwriter
from bishadow import assign_splittings, certify_pseudo_orbit, generate
from bishadow.jsonwriter import SLICE, Table, plain, write
from bishadow.systems import cat_map


def dumps(obj) -> str:
    pieces = []
    write(obj, pieces.append)
    return "".join(pieces)


def check(obj):
    """The written text equals the reference; on failure, name the first line
    that differs instead of diffing two long texts."""
    got = dumps(obj).split("\n")
    want = json.dumps(plain(obj), sort_keys=True, indent=2).split("\n")
    first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    assert got == want, f"line {first}: {got[first:first + 1]} != {want[first:first + 1]}"


# '%' would break a template that did not escape it; quotes, backslashes,
# control characters and non-ASCII characters are escaped by the encoder
TEXT = st.text(alphabet=st.sampled_from('ab%"\\\n\t\x00\x1fé€😀 '), max_size=6)
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300]
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SPECIAL))
SCALARS = st.one_of(
    st.none(), st.booleans(), TEXT,
    st.integers(min_value=-10**30, max_value=10**30),
    FLOATS,
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)
# (elements, dtype) of the arrays a report holds
KINDS = [(FLOATS, float), (st.integers(-2**63, 2**63 - 1), np.int64), (st.booleans(), bool),
         (TEXT, str)]


def arrays(shape, kinds=st.sampled_from(KINDS)):
    """Arrays of one kind and this shape."""
    size = math.prod(shape)
    return kinds.flatmap(lambda kind: st.lists(kind[0], min_size=size, max_size=size).map(
        lambda xs: np.array(xs, dtype=kind[1]).reshape(shape)))


SHAPES = st.lists(st.integers(0, 3), max_size=3).map(tuple)  # 0-d, empty and 3-d included


def tables(rows):
    """Tables of `rows` rows: one to four columns, each of any kind, with
    up to two more dimensions."""
    def columns(names):
        shapes = st.lists(st.integers(0, 2), max_size=2).map(lambda rest: (rows, *rest))
        return st.fixed_dictionaries({k: shapes.flatmap(arrays) for k in names}).map(Table)
    return st.lists(TEXT, min_size=1, max_size=4, unique=True).flatmap(columns)


LEAVES = st.one_of(SCALARS, SHAPES.flatmap(arrays), st.integers(0, 4).flatmap(tables))


def containers(children):
    same_keys = st.lists(TEXT, max_size=4, unique=True).flatmap(
        lambda keys: st.lists(
            st.permutations(keys).flatmap(
                lambda order: st.fixed_dictionaries({k: children for k in order})),
            max_size=4))
    same_length = st.integers(0, 3).flatmap(
        lambda n: st.lists(st.lists(children, min_size=n, max_size=n), max_size=4))
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(TEXT, children, max_size=5),
        same_keys,
        same_length,
    )


TREES = st.recursive(SCALARS, containers, max_leaves=40)
ARRAY_TREES = st.recursive(LEAVES, containers, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(TREES)
@example([])
@example({})
@example({"a": [{}, [], [[]], {"b": {}}]})
@example([{"k": 1, "j": [1.5, "x"]}, {"j": [2.5], "k": None}, {"k": 3}])
@example([[1, 2], [3], [], [[4, 5], "6"], [7, 8]])
@example({"%s": "%d", "%%": [1, "%"], "é": "€"})
def test_matches_json_dumps(tree):
    check(tree)


def skeleton_table(rows):
    """A table of `rows` rows whose row text has every kind of piece: a
    nested column, zero-width columns whose ``[]`` joins the text before the
    next value, repeated and distinct values, and keys that hold ``%``, ``"``
    and NUL."""
    i = np.arange(rows)
    return Table({"a": (i / 7).reshape(-1, 1, 1) * [[1.0], [-0.0]],
                  "b": np.empty((rows, 0)), "c": np.empty((rows, 2, 0)),
                  "d": np.array(["%s", 'x"', "\x00"])[i % 3], '%"\x00': i % 5 - 2.5})


@settings(max_examples=200, deadline=None)
@given(ARRAY_TREES)
@example(np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324]))
@example({"a": np.array(2.5), "b": np.empty((0, 3)), "c": np.zeros((2, 0, 1))})
@example(np.arange(24.0).reshape(2, 3, 4))
@example(Table({"x": np.empty(0), "y": np.empty((0, 2, 2))}))
@example(Table({"%s": np.array(['%d"', "\x1f\n", "é😀"]), "u": np.ones((3, 2, 1))}))
@example(Table({"b": np.empty((2, 0)), "c": np.empty((2, 2, 0))}))  # no value in a row
@example({"%": skeleton_table(3), '"': np.ones((3, 0)), "\x00": np.empty((3, 2, 0))})
@example(skeleton_table(bishadow.jsonwriter._DISTINCT_MIN - 1))
@example(skeleton_table(bishadow.jsonwriter._DISTINCT_MIN))
@example(skeleton_table(SLICE + 1))
def test_array_leaves_match_json_dumps(tree):
    check(tree)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([SLICE - 1, SLICE, SLICE + 1, 2 * SLICE + 3]).flatmap(
    lambda rows: st.tuples(st.just(rows), st.integers(1, 3).flatmap(tables))))
def test_leaves_across_the_slice_boundary(rows_and_pattern):
    """Leaves of a few slices, tiled from a small random pattern, written
    at most one slice of rows per piece."""
    rows, pattern = rows_and_pattern
    tile = np.arange(rows) % len(pattern)
    table = Table({k: c[tile] for k, c in pattern.columns.items()})
    tree = {"table": table, "array": next(iter(table.columns.values()))}
    check(tree)
    pieces = []
    write(table, pieces.append)
    per_piece = [p.count("\n  {") + p.startswith("{") for p in pieces]
    assert max(per_piece) <= SLICE and sum(per_piece) == rows


def _nan(payload: int) -> np.float64:
    """A NaN whose bits differ from ``np.nan``'s."""
    return (np.array([np.nan]).view(np.uint64) | np.uint64(payload)).view(np.float64)[0]


# equal values that encode apart (signed zeros) and unequal bits that encode
# alike (NaNs of other payloads and signs), among other odd floats
ODD_FLOATS = [0.0, -0.0, math.nan, _nan(1), _nan(2**63 | 5), math.inf, -math.inf, 5e-324, 0.1]
ODD_COLUMNS = {  # name: (elements, dtype, shape of one row)
    "float": (st.sampled_from(ODD_FLOATS), np.float64, ()),
    "int": (st.sampled_from([-2**63, 2**63 - 1, 0, -1]), np.int64, ()),
    "bool": (st.booleans(), bool, ()),
    "pairs": (st.sampled_from(ODD_FLOATS), np.float64, (2, 1)),
    "str": (TEXT, str, ()),
}


def odd_patterns(size):
    """One column of each kind in ODD_COLUMNS, of `size` rows."""
    def column(element, dtype, shape):
        n = size * math.prod(shape)
        return st.lists(element, min_size=n, max_size=n).map(
            lambda xs: np.array(xs, dtype=dtype).reshape(size, *shape))
    return st.fixed_dictionaries({name: column(*kind) for name, kind in ODD_COLUMNS.items()})


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([511, 512, 513, SLICE + 513]), st.integers(1, 6).flatmap(odd_patterns),
       st.sets(st.sampled_from(["float", "int", "pairs", "str"])))
def test_columns_across_the_distinct_boundary(rows, pattern, mostly_distinct):
    """Columns tiled from a few odd values, around the length from which
    each distinct value is encoded once.  In a column named in
    mostly_distinct, three rows in four get a value of their own."""
    tile = np.arange(rows) % len(pattern["float"])
    columns = {name: c[tile] for name, c in pattern.items()}
    for name in mostly_distinct:
        c = columns[name]
        own = {"f": np.arange(c.size) / 7, "i": np.arange(c.size),
               "U": np.arange(c.size).astype(str)}[c.dtype.kind]
        kept = (np.arange(rows) % 4 == 0).reshape(-1, *[1] * (c.ndim - 1))
        columns[name] = np.where(kept, c, own.reshape(c.shape))
    check({"table": Table(columns), **columns})


def test_signed_zeros_stay_apart():
    column = np.tile([0.0, -0.0], 300)
    check(column)
    check(Table({"z": column}))


@pytest.fixture
def encoded(monkeypatch):
    """The number of values handed to each call of ``jsonwriter._encode``."""
    counts = []
    real = bishadow.jsonwriter._encode

    def counting(values):
        counts.append(len(values))
        return real(values)

    monkeypatch.setattr(bishadow.jsonwriter, "_encode", counting)
    return counts


@pytest.mark.parametrize("column", [np.zeros, lambda n: np.full(n, "ok")], ids=["float", "str"])
def test_only_long_slices_encode_each_distinct_value_once(encoded, column):
    """A slice shorter than ``_DISTINCT_MIN`` is encoded value by value, a
    longer one a distinct value at a time."""
    short = bishadow.jsonwriter._DISTINCT_MIN - 1
    check(column(short))
    check(column(short + 1))
    assert encoded == [short, 1]


def test_long_certificate_encodes_each_distinct_value_once(encoded):
    """Writing a 1000-step cat-map certificate (two slices of its margin
    table, 4096 and 154 rows) hands the encoder each column slice of
    ``_DISTINCT_MIN`` rows or more once per distinct bit pattern, and a
    shorter one value by value, between the scalars before and after it."""
    f = cat_map()
    po = generate(f, [0.13, 0.41], [4] * 250, 1e-4, 1)
    cert = certify_pseudo_orbit(po, assign_splittings(po, f), f, 0.4, 0.0, 1e-4)
    table = cert.report()["margins"]
    check(cert.report())
    want = []
    for start in range(0, len(table), SLICE):
        for name in sorted(table.columns):
            c = table.columns[name][start:start + SLICE]
            bits = c if c.dtype.kind == "U" else c.view(f"u{c.itemsize}")
            want.append(len(np.unique(bits)) if len(c) >= bishadow.jsonwriter._DISTINCT_MIN
                        else len(c))
    assert len(table) == 4250 and encoded[1:-1] == want
    assert sum(want) < len(table) * len(table.columns) / 4


def test_report_sized_rows():
    rows = [{"condition": "ratio", "lhs": i / 7.0, "margin": -i * 1e-17, "segment": i // 4,
             "step": i % 4} for i in range(3000)]
    tree = {"margins": rows, "points": [[i * 0.1, -i * 0.3] for i in range(3000)],
            "lengths": list(range(3000)), "passed": False}
    check(tree)


def test_plain_is_the_tree_of_lists():
    table = Table({"s": np.array(["a", "b"]), "v": np.array([[1.0, 2.0], [3.0, 4.0]])})
    assert plain({"t": table, "a": (np.arange(2), np.array(1.5))}) == {
        "t": [{"s": "a", "v": [1.0, 2.0]}, {"s": "b", "v": [3.0, 4.0]}],
        "a": [[0, 1], 1.5]}


def test_table_columns_share_one_length():
    with pytest.raises(ValueError):
        Table({"a": np.zeros(2), "b": np.zeros(3)})
    with pytest.raises(ValueError):
        Table({})


@pytest.mark.parametrize("bad", [{"a": object()}, [np.int64(1)], {"a": {1: "b"}}])
def test_rejects_what_it_cannot_write(bad):
    with pytest.raises(TypeError):
        dumps(bad)


def test_circular_tree_raises():
    loop = []
    loop.append(loop)
    with pytest.raises(RecursionError):
        dumps(loop)
