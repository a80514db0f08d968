"""The text readers on arbitrary text (test-only dependency: hypothesis).

Whatever a file holds, read_json returns a value or raises DataError, and
load_obj returns an ObjectMesh or raises DataError. The text mixes arbitrary
characters with the two inputs json.loads fails on with other exceptions:
deep bracket nesting (RecursionError) and long digit runs (ValueError, from
the interpreter's limit on integer digits).
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from retargetkit.errors import DataError
from retargetkit.motionio import ObjectMesh, load_obj, read_json

NESTING = st.integers(1, 50_000).map(lambda n: "[" * n + "]" * n)
OPEN_NESTING = st.integers(1, 50_000).map(lambda n: "{\"a\":" * n)
DIGITS = st.integers(1, 6000).map(lambda n: "7" * n)


def documents(tokens):
    """Text pieced from arbitrary text, the given tokens, deep nesting and long digit runs."""
    pieces = st.one_of(st.text(max_size=20), st.sampled_from(tokens), NESTING, OPEN_NESTING, DIGITS)
    return st.lists(pieces, max_size=8).map("".join)


JSON_TOKENS = ["[", "]", "{", "}", ",", ":", '"a"', "-", ".", "e", "E+", "true", "null", "NaN", "Infinity", " "]
OBJ_TOKENS = ["v ", "f ", "\n", " ", "/", "-", ".", "e", "nan", "inf", "#", "vt ", "0", "1", "2 3 4"]


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("readers") / "document"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(text=documents(JSON_TOKENS))
def test_read_json_returns_a_value_or_raises_data_error(path, text):
    path.write_text(text, encoding="utf-8")
    try:
        read_json(path)
    except DataError:
        pass


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(text=documents(OBJ_TOKENS))
def test_load_obj_returns_a_mesh_or_raises_data_error(path, text):
    path.write_text(text, encoding="utf-8")
    try:
        assert isinstance(load_obj(path), ObjectMesh)
    except DataError:
        pass
