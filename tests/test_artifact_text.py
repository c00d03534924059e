"""The text of every JSON artifact: ``cli._json_text`` writes what
``json.dumps(value, indent=2)`` writes, and every artifact of a seeded corpus
of runs reads back to the same bytes."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trispin.cli import _json_text, main

# strings with non-ASCII and control characters, quotes and backslashes
TEXT = st.text(
    st.characters(codec="utf-8") | st.sampled_from('"\\/\x00\x1f\x7f é€😀'),
    max_size=8,
)
NUMBERS = (
    st.integers()
    | st.integers(2**63 - 2, 2**200)
    | st.integers(-(2**200), -(2**63) + 2)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308])
    | st.floats().map(np.float64)
)
LEAVES = st.none() | st.booleans() | NUMBERS | TEXT
KEYS = TEXT | st.integers() | st.floats() | st.booleans() | st.none()
JSON_VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4)
    | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=20,
)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(JSON_VALUES)
def test_writer_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[[], {}], ()],
    {"": {"": [[], [[]]]}}, [math.nan, math.inf, -math.inf, -0.0],
    {"é\"\\\n\t": "\x00 \ud800"}, [2**64, -(2**63) - 1, 10**400],
    {1: "int", 2.5: "float", True: "true", None: "null", math.nan: "nan"},
])
def test_writer_matches_json_dumps_on_edge_values(value):
    assert _json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    {1, 2}, np.int64(3), np.bool_(True), [np.int64(3)], {"a": np.bool_(False)},
    {"a": [1, {2j}]}, {(1, 2): 0}, b"bytes", object(),
])
def test_writer_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as raised:
        _json_text(value)
    assert str(raised.value) == str(expected.value)


# The byte guard: one seeded run of each artifact kind, and compute documents
# of every size the benchmark sends.
RNG = np.random.default_rng(7)


def _dicke(n_atoms):
    coeffs = RNG.normal(size=(n_atoms + 1, 2))
    coeffs /= np.linalg.norm(coeffs)
    return {"n_atoms": n_atoms, "representation": "dicke", "coeffs": coeffs.tolist()}


def _product(n_atoms):
    qubit = RNG.normal(size=(2, 2))
    qubit /= np.linalg.norm(qubit)
    return {"n_atoms": n_atoms, "representation": "product",
            "coeffs": [qubit.tolist()] * n_atoms}


SIZES = [*range(3, 15), 100, 1000]
R = 1 / math.sqrt(2)
CORPUS = [
    *(pytest.param(["compute"], _dicke(n), 0, id=f"compute-dicke-{n}") for n in SIZES),
    *(pytest.param(["compute"], _product(n), 0, id=f"compute-product-{n}")
      for n in SIZES),
    pytest.param(["sample", "--shots", "2000", "--seed", "11"], _dicke(6), 0,
                 id="sample"),
    pytest.param(["verify", "--trials", "5", "--seed", "3"], None, 0, id="verify"),
    pytest.param(["compute"], {"n_atoms": 3, "representation": "dicke",
                               "coeffs": [[1, 0], [1, 0], [0, 0], [0, 0]]}, 2,
                 id="error-invalid_input"),
    pytest.param(["compute"], {"n_atoms": 3, "representation": "dicke",
                               "coeffs": [[R, 0], [0, 0], [0, 0], [R, 0]]}, 3,
                 id="error-frame_undefined"),
]


@pytest.mark.parametrize("argv, document, exit_code", CORPUS)
def test_artifact_bytes_are_json_dumps_bytes(
    argv, document, exit_code, monkeypatch, capsys
):
    if document is not None:
        argv = argv + ["--input", "-"]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(document)))
    assert main(argv) == exit_code
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
