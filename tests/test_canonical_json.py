"""Property tests of the one-pass canonical JSON writer against json.dumps.
Kept apart from test_schema.py so that only this module needs the optional
`hypothesis` test dependency."""
import json

import pytest
from hypothesis import given, settings, strategies as st

from tribranch.schema import canonical_json


def reference(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


class Str(str):
    pass


class Int(int):
    def __repr__(self):
        return "Int(...)"


class Float(float):
    pass


TRICKY_STRINGS = ['"', "\\", '\\"', "\x00", "\x1f\x7f", "\n\r\t\b\f", " ",
                  "\ud800", "\udfff", "a\udc80b", "\U0001f600", "é"]

strings = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=6),
    st.sampled_from(TRICKY_STRINGS),
)
integers = st.one_of(
    st.integers(),
    st.integers(min_value=2**64 - 2, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64) + 2),
)
floats = st.one_of(st.floats(), st.sampled_from([-0.0, 0.0, float("nan"),
                                                  float("inf"), float("-inf"), 1e308]))
leaves = st.one_of(
    st.none(), st.booleans(), integers, floats, strings,
    strings.map(Str), integers.map(Int), floats.map(Float),
)
# Keys json accepts besides str; each dict keeps one kind, or json cannot
# sort them.
other_keys = st.one_of(st.integers(), st.floats(), st.booleans(), st.none())


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(strings, children, max_size=4),
        st.dictionaries(strings.map(Str), children, max_size=3),
        other_keys.flatmap(
            lambda key: st.dictionaries(st.just(key) | st.from_type(type(key)),
                                        children, max_size=3)),
    )


json_values = st.recursive(leaves, containers, max_leaves=40)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(json_values)
def test_writer_matches_json_dumps(value):
    assert canonical_json(value) == reference(value)


def set_leaf(value):
    return {"a": [value, {1, 2}]}


def mixed_keys(value):
    return [value, {"a": value, 2: value}]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(json_values, st.sampled_from([set_leaf, mixed_keys]),
       st.sampled_from([lambda x: x, lambda x: [x], lambda x: {"k": (x,)}]))
def test_writer_raises_json_type_errors(value, poison, wrap):
    doc = wrap(poison(value))
    with pytest.raises(TypeError):
        reference(doc)
    with pytest.raises(TypeError):
        canonical_json(doc)


@pytest.mark.parametrize("value", [
    {}, [], (), "", 0, -0.0, None, True,
    [[], {}, [[{}]]], {"": {"": [[], ()]}},
    {"b": 1, "a": [True, False, None], "c": {"y": 2.5, "x": "s"}},
    {3: "int", 1: "keys"}, {1.5: 0, -2.0: 1}, {True: 1, False: 0}, {None: []},
    {Str("k"): Int(7)}, [Float(1.5), 2**70, -(2**70)],
], ids=repr)
def test_writer_named_cases(value):
    assert canonical_json(value) == reference(value)


def test_circular_and_deep_documents_raise_as_json_does():
    loop = {"a": []}
    loop["a"].append(loop)
    for doc in (loop, [loop]):
        with pytest.raises(ValueError, match="Circular reference"):
            canonical_json(doc)
    deep = []
    for _ in range(100_000):
        deep = [deep]
    with pytest.raises(RecursionError):
        canonical_json(deep)
