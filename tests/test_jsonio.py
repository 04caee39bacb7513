"""The JSON boundary: strict parsing rejects duplicate object keys
with paths; canonical rendering is the stdlib's indented dump, byte for
byte."""

import enum
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.jsonio import loads_strict, render_document


class TestLoadsStrict:
    def test_plain_documents_parse_identically(self):
        text = json.dumps({
            "kind": "faults",
            "faults": {"rates": [0.0, 0.5], "trials": 3},
            "nested": {"deep": [{"a": 1}, {"b": None}]},
        })
        assert loads_strict(text) == json.loads(text)

    def test_scalars_and_arrays(self):
        assert loads_strict("3") == 3
        assert loads_strict("[1, 2, {\"x\": true}]") == [1, 2, {"x": True}]

    def test_top_level_duplicate(self):
        with pytest.raises(ValidationError) as excinfo:
            loads_strict('{"trials": 1, "trials": 2}')
        err = excinfo.value
        assert err.path == "trials"
        assert err.value == "trials"
        assert "duplicate" in str(err)

    def test_nested_duplicate_has_dotted_path(self):
        with pytest.raises(ValidationError) as excinfo:
            loads_strict('{"faults": {"seed": 1, "seed": 2}}')
        assert excinfo.value.path == "faults.seed"

    def test_duplicate_inside_array_element(self):
        with pytest.raises(ValidationError) as excinfo:
            loads_strict('{"post": [{}, {"k": 1, "k": 2}]}')
        assert excinfo.value.path == "post[1].k"

    def test_last_binding_never_shadows_silently(self):
        # The stdlib default quietly keeps the last value; strict mode
        # must refuse rather than pick one.
        assert json.loads('{"jobs": 1, "jobs": 8}') == {"jobs": 8}
        with pytest.raises(ValidationError):
            loads_strict('{"jobs": 1, "jobs": 8}')

    def test_syntax_errors_stay_json_errors(self):
        with pytest.raises(json.JSONDecodeError):
            loads_strict("{not json")


# ----------------------------------------------------------------------
# render_document: byte-identical to the stdlib's indented dump
# ----------------------------------------------------------------------
class _Colour(str, enum.Enum):
    RED = "red"
    QUOTED = 'a "quoted" \\ value'
    ACCENTED = "café "


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 10**20


def _oracle(doc):
    return json.dumps(
        doc, sort_keys=True, indent=2, separators=(",", ": "),
        allow_nan=False,
    ) + "\n"


def _outcome(render, doc):
    """The rendered text, or the type of the error rendering raised."""
    try:
        return render(doc)
    except (TypeError, ValueError) as exc:
        return type(exc)


_TEXT = st.text(alphabet=st.one_of(
    st.characters(),  # any code point, controls and non-ASCII included
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "é", " ",
                     "\U0001f600"]),
))
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1e16, 5e-324, 1.7976931348623157e308]),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-10**40, max_value=10**40),
    _FLOATS,
    _FLOATS.map(np.float64),
    _TEXT,
    st.sampled_from(list(_Colour)),
    st.sampled_from(list(_Level)),
)
#: Key families that sort among themselves, as ``sort_keys`` needs.
_KEYS = st.one_of(
    st.lists(st.one_of(_TEXT, st.sampled_from(list(_Colour)))),
    st.lists(st.one_of(st.integers(), st.booleans(),
                       st.sampled_from(list(_Level)), _FLOATS)),
    st.just([None]),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.tuples(_KEYS, st.lists(children, max_size=5)).map(
            lambda pair: dict(zip(pair[0], pair[1]))
        ),
    )


_DOCUMENTS = st.recursive(_SCALARS, _containers, max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS)
def test_render_document_is_the_indented_stdlib_dump(doc):
    """Same bytes as ``json.dumps(..., indent=2) + "\\n"``, or the same
    error type where the stdlib refuses the document."""
    assert _outcome(render_document, doc) == _outcome(_oracle, doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                 float("-inf"), np.float64("nan")])
@pytest.mark.parametrize("place", [
    lambda v: v,
    lambda v: [1, v],
    lambda v: {"a": {"b": [0.5, v]}, "c": [[]]},
    lambda v: {v: 1},
    lambda v: {v: [1]},
])
def test_render_document_refuses_non_finite_floats(bad, place):
    with pytest.raises(ValueError):
        render_document(place(bad))
    with pytest.raises(ValueError):
        _oracle(place(bad))


def test_render_document_spells_like_the_stdlib():
    doc = {
        "empty": {"list": [], "dict": {}, "tuple": ()},
        "nested": [[1, [2.5, None]], {"k": (True, False)}],
        "keys": {1.5: 0, 2: [1], True: 2},
    }
    assert render_document(doc) == _oracle(doc)
    assert render_document("text") == '"text"\n'
    assert render_document([]) == "[]\n"

