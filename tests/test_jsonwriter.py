import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bishadow.jsonwriter import dumps


def check(obj):
    """dumps(obj) equals the reference; on failure, name the first line that
    differs instead of diffing two long texts."""
    got, want = dumps(obj).split("\n"), json.dumps(obj, sort_keys=True, indent=2).split("\n")
    first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    assert got == want, f"line {first}: {got[first:first + 1]} != {want[first:first + 1]}"


# '%' would break a template that did not escape it; quotes, backslashes,
# control characters and non-ASCII characters are escaped by the encoder
TEXT = st.text(alphabet=st.sampled_from('ab%"\\\n\t\x00\x1fé€😀 '), max_size=6)
SCALARS = st.one_of(
    st.none(), st.booleans(), TEXT,
    st.integers(min_value=-10**30, max_value=10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300]),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)


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


def test_report_sized_rows():
    rows = [{"condition": "ratio", "lhs": i / 7.0, "margin": -i * 1e-17, "segment": i // 4,
             "step": i % 4} for i in range(3000)]
    tree = {"margins": rows, "points": [[i * 0.1, -i * 0.3] for i in range(3000)],
            "lengths": list(range(3000)), "passed": False}
    check(tree)


@pytest.mark.parametrize("bad", [{"a": object()}, [np.int64(1)], {"a": {1: "b"}}])
def test_rejects_what_it_cannot_write(bad):
    with pytest.raises(TypeError):
        dumps(bad)


def test_circular_tree_raises():
    loop = []
    loop.append(loop)
    with pytest.raises(RecursionError):
        dumps(loop)
