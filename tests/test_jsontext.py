import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from tropicone.jsontext import emit

# quotes, backslashes, control characters and non-ASCII text among the rest
TEXT = st.text(alphabet=st.sampled_from('"\\\x00\x01\x1f\x7f\n\t/ é€😀aZ_:,{}[]') | st.characters(), max_size=12)
SCALARS = (
    st.none()
    | st.booleans()
    | st.sampled_from([0, 1, -1])
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | TEXT
)
KEYS = TEXT | st.integers() | st.booleans() | st.none() | st.floats(allow_nan=False)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.lists(st.integers(), max_size=5)
    | st.dictionaries(TEXT, inner, max_size=5)
    | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=30,
)


@settings(max_examples=100)
@given(VALUES)
def test_emit_matches_json_dumps(obj):
    assert emit(obj) == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {},
        [[], {}, [[]], {"": {}}],
        {"a": [1, -2, 10**30], "b": [True, 1, False, 0], "c": None},
        (1, (2, "x"), ()),
        {"x": [1.5, float("nan"), float("inf"), -float("inf")]},
        {1: "int key", "s": {None: [True]}},
        {"é\"\\\x00": "€\n\x1f"},
    ],
)
def test_emit_matches_json_dumps_on_edge_cases(obj):
    assert emit(obj) == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("obj", [{1, 2}, {"a": [1, {2}]}])
def test_emit_rejects_what_json_dumps_rejects(obj):
    with pytest.raises(TypeError) as expected:
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError) as got:
        emit(obj)
    assert str(got.value) == str(expected.value) == "Object of type set is not JSON serializable"
