import copy
import io
import json
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micpkit.bruteforce import extensive_form
from micpkit.cli import main
from micpkit.errors import ModelError
from micpkit.generate import PROFILES, generate_instance
from micpkit.modelio import dumps, from_document, load, save, to_document
from micpkit.section6 import build_instance
from micpkit.twostage import TwoStageInstance

_X01 = [{"name": "x", "kind": "continuous", "lb": 0.0, "ub": 1.0}]


def _with_param_block(block):
    """The extensive form of twostage-small seed 2001 (block [0, 1]) with another block.

    Written with ``json.dumps``: ``dumps`` would turn a block of booleans into integers.
    """
    doc = json.loads(dumps(to_document(extensive_form(generate_instance(2001, "twostage-small")))))
    doc["param_block"] = block
    return json.dumps(doc)


# documents that loaded with a traceback or solved to a wrong answer; with the
# two parameter blocks, decomposition stalled (exit 3) or reported a feasible
# model infeasible (exit 2)
MALFORMED = {
    "no-objective": '{"variables": []}',
    "row-without-coeffs": json.dumps({
        "variables": _X01, "objective": {"linear": {"c": [1.0]}}, "linear": [{"rhs": 1.0}]}),
    "top-level-list": "[1, 2]",
    "rhs-overflows": json.dumps({
        "variables": _X01, "objective": {"linear": {"c": [1.0]}},
        "linear": [{"coeffs": [1.0], "rhs": 0.0}]}).replace('"rhs": 0.0', '"rhs": -1e999'),
    "rhs-nan": json.dumps({
        "variables": _X01, "objective": {"linear": {"c": [-1.0]}},
        "linear": [{"coeffs": [1.0], "rhs": float("nan")}]}),
    "param-block-negative": _with_param_block([-6, -5]),
    "param-block-repeated": _with_param_block([0, 0, 1]),
    "param-block-bool": _with_param_block([True, False]),
}


@pytest.mark.parametrize("profile,seed", [
    ("micp-smooth", 0), ("micp-smooth", 3), ("micp-separable", 1), ("twostage-small", 2),
])
def test_round_trip_identity(profile, seed, tmp_path):
    inst = generate_instance(seed, profile)
    doc = to_document(inst)
    text = dumps(doc)
    again = to_document(from_document(json.loads(text)))
    assert dumps(again) == text
    path = tmp_path / "m.json"
    save(inst, path)
    loaded = load(path)
    assert dumps(to_document(loaded)) == text


def test_walkthrough_instance_round_trip(tmp_path):
    inst = build_instance()
    path = tmp_path / "s6.json"
    save(inst, path)
    loaded = load(path)
    assert dumps(to_document(loaded)) == dumps(to_document(inst))
    assert len(loaded.scenarios) == 2
    assert loaded.ambiguity.is_singleton()


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_seventeen_digit_float_round_trip(x):
    assert float(f"{x:.17g}") == x


def test_malformed_document_rejected():
    with pytest.raises((ModelError, KeyError)):
        from_document({"variables": [{"name": "x"}], "objective": {"linear": {"c": [1.0]}}})


def test_unreadable_file_raises(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ModelError):
        load(path)


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_file_raises_model_error_naming_it(name, tmp_path):
    path = tmp_path / f"{name}.json"
    path.write_text(MALFORMED[name], encoding="utf-8")
    with pytest.raises(ModelError, match=f"{name}.json"):
        load(path)


@pytest.mark.parametrize("text", ["Infinity", "-Infinity", "1e400"])
def test_non_finite_numbers_rejected(text, tmp_path):
    path = tmp_path / "m.json"
    doc = json.dumps({"variables": _X01, "objective": {"linear": {"c": [0.0]}}})
    path.write_text(doc.replace("[0.0]", f"[{text}]"), encoding="utf-8")
    with pytest.raises(ModelError):
        load(path)


def _first_atom(node, kind):
    """The first atom of ``kind`` in a serialized atom tree, or None."""
    if node["kind"] == kind:
        return node
    for term in node.get("terms", []):
        if (atom := _first_atom(term, kind)) is not None:
            return atom
    return None


@pytest.mark.parametrize("where", ["squared_norm", "softplus", "linear"])
def test_coefficient_that_overflows_over_the_box_exits_four(where, tmp_path, capsys):
    # one coefficient of 1e300 on a binary: the inner map stays finite, its
    # square does not, and the solver would run phase 1 on inf and nan
    doc = to_document(generate_instance(1000, "micp-separable"))
    if where == "linear":
        row, coeffs = "linear row 0", doc["linear"][0]["coeffs"]
    else:
        i, atom = next((i, a) for i, g in enumerate(doc["convex"]) if (a := _first_atom(g, where)))
        row, coeffs = f"convex row {i}", atom["A"][0] if "A" in atom else atom["a"]
    coeffs[0] = 1e300
    path = tmp_path / "big.json"
    path.write_text(dumps(doc), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ModelError, match=f"big.json: {row} can overflow"):
            load(path)
        assert main(["solve", str(path)]) == 4
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("profile", PROFILES)
def test_generator_documents_pass_the_scale_check(profile):
    for seed in (*range(20), *range(1000, 1050), *range(2000, 2030)):
        from_document(json.loads(dumps(to_document(generate_instance(seed, profile)))))


# well-formed documents the malformed ones are drawn from: one per generator
# profile, and the walkthrough instance
_DOCUMENTS = [json.loads(dumps(to_document(generate_instance(0, profile)))) for profile in PROFILES]
_DOCUMENTS.append(json.loads(dumps(to_document(build_instance()))))
_WRONG_VALUES = [None, True, "x", 0, -3, 2.5, 1e300, [], [0.0], [[1.0, 2.0]], {}, {"x": 1}]


def _paths(node, prefix=()):
    """Every key or index path below ``node``, parents before children."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def malformed_documents(draw):
    """A model document with one or two fields deleted, or given a value of
    another type or shape."""
    doc = copy.deepcopy(draw(st.sampled_from(_DOCUMENTS)))
    for _ in range(draw(st.integers(1, 2))):
        *head, last = draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for key in head:
            parent = parent[key]
        action = draw(st.sampled_from(["delete", "shorten", "lengthen", "replace"]))
        value = parent[last]
        if action == "delete":
            del parent[last]
        elif action == "shorten":
            parent[last] = value[:-1] if isinstance(value, list) else [value]
        elif action == "lengthen":
            parent[last] = value + value[:1] if isinstance(value, list) else [value, value]
        else:
            parent[last] = copy.deepcopy(draw(st.sampled_from(_WRONG_VALUES)))
        if not list(_paths(doc)):
            break
    return doc


@settings(max_examples=200, deadline=None)
@given(malformed_documents())
def test_malformed_documents_load_or_raise_and_solve_exits_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        try:
            model = load(path)
        except ModelError:
            model = None
        mode = "twostage" if isinstance(model, TwoStageInstance) else "direct"
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["solve", "--mode", mode, "--max-iter", "5", path])
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if model is None:
        assert code == 4
