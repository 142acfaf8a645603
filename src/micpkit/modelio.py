"""JSON model files: plain mixed-integer convex models and two-stage instances.

Atom trees serialize by kind tag plus coefficient arrays.  Numbers are parsed
as IEEE-754 doubles and written back through a 17-significant-digit round trip
so parse -> serialize -> parse is the identity.  ``load`` rejects non-finite
numbers (NaN, Infinity, literals that overflow a double), malformed
documents and rows that can overflow a double over the variable box
(``_check_scale``) with a ``ModelError`` naming the file.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ModelError
from .expr import Affine, expr_from_dict
from .model import LinearObjective, ModelInstance, VariableSpec
from .twostage import AmbiguitySet, Scenario, TwoStageInstance


def _canon(obj):
    """Round floats through 17 significant digits (identity on doubles)."""
    if isinstance(obj, float):
        return float(f"{obj:.17g}")
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.17g}")
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_canon(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    return obj


def dumps(document: dict) -> str:
    return json.dumps(_canon(document), sort_keys=True, indent=1) + "\n"


def _varspec_to_dict(v: VariableSpec):
    return {"name": v.name, "kind": v.kind, "lb": v.lb, "ub": v.ub}


def _varspec_from_dict(d):
    try:
        return VariableSpec(d["name"], d["kind"], d["lb"], d["ub"])
    except KeyError as exc:
        raise ModelError(f"variable entry missing field {exc}") from exc


def _rows_to_list(A, b, sense):
    return [{"coeffs": list(a), "rhs": float(r), "sense": sense} for a, r in zip(A, b)]


def _rows_from_list(rows, n):
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for r in rows:
        coeffs = np.asarray(r["coeffs"], dtype=float)
        if coeffs.size != n:
            raise ModelError("linear row length mismatch")
        sense = r.get("sense", "<=")
        rhs = float(r["rhs"])
        if sense == "<=":
            A_ub.append(coeffs)
            b_ub.append(rhs)
        elif sense == ">=":
            A_ub.append(-coeffs)
            b_ub.append(-rhs)
        elif sense == "=":
            A_eq.append(coeffs)
            b_eq.append(rhs)
        else:
            raise ModelError(f"unknown row sense {sense!r}")
    return (
        np.vstack(A_ub) if A_ub else None, np.array(b_ub) if b_ub else None,
        np.vstack(A_eq) if A_eq else None, np.array(b_eq) if b_eq else None,
    )


def _scale(d, M):
    """A finite number when no part of the atom tree ``d`` (its ``to_dict``
    form) overflows a double over the box |x| <= M, and inf or nan otherwise.
    Each atom's inner map has magnitude at most m = |A| @ M + |b| there; m,
    its square (the Newton matrix multiplies the map's coefficients
    pairwise) and the atom's value at m must be finite."""
    if d["kind"] == "sum":
        return sum(w * _scale(t, M) for w, t in zip(d["weights"], d["terms"])) + abs(d["const"])
    m = np.abs(np.atleast_2d(d["A"] if "A" in d else d["a"])) @ M + np.abs(np.atleast_1d(d["b"]))
    if not np.all(np.isfinite(m * m)):
        return np.inf
    unit = {"a": [1.0], "b": 0.0} if "a" in d else {"A": np.eye(m.size), "b": np.zeros(m.size)}
    return abs(expr_from_dict({**d, **unit}).value(m))


def _check_scale(M, rows):
    """Raise ``ModelError`` naming the first of ``rows`` ((name, expression)
    pairs) that can overflow a double over the box |x| <= M, by the test of
    ``_scale``; the solver would run on inf and nan there."""
    with np.errstate(all="ignore"):
        for name, g in rows:
            if not np.isfinite(_scale(g.to_dict(), M)):
                raise ModelError(f"{name} can overflow a double over the variable box")


def _linear_rows(rows):
    """The document's linear rows as (name, affine map) pairs for ``_check_scale``."""
    return [(f"linear row {i}", Affine(r["coeffs"], r["rhs"])) for i, r in enumerate(rows)]


def model_to_document(model: ModelInstance) -> dict:
    doc = {
        "variables": [_varspec_to_dict(v) for v in model.variables],
        "linear": (_rows_to_list(model.A_ub, model.b_ub, "<=")
                   + _rows_to_list(model.A_eq, model.b_eq, "=")),
        "convex": [g.to_dict() for g in model.convex],
    }
    if model.has_linear_objective():
        doc["objective"] = {"linear": {"c": list(model.objective.c), "const": model.objective.const}}
    else:
        doc["objective"] = {"atom": model.objective.to_dict()}
    if model.param_block is not None:
        doc["param_block"] = [int(i) for i in model.param_block]
    return doc


def model_from_document(doc: dict) -> ModelInstance:
    variables = [_varspec_from_dict(d) for d in doc["variables"]]
    n = len(variables)
    A_ub, b_ub, A_eq, b_eq = _rows_from_list(doc.get("linear", []), n)
    convex = [expr_from_dict(d) for d in doc.get("convex", [])]
    obj = doc["objective"]
    if "linear" in obj:
        objective = LinearObjective(obj["linear"]["c"], obj["linear"].get("const", 0.0))
    else:
        objective = expr_from_dict(obj["atom"])
    model = ModelInstance(
        variables=variables, objective=objective,
        A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
        convex=convex, param_block=doc.get("param_block"),
    )
    rows = _linear_rows(doc.get("linear", [])) + [(f"convex row {i}", g) for i, g in enumerate(convex)]
    if "linear" not in obj:
        rows.append(("objective", objective))
    _check_scale(np.maximum(np.abs(model.lb), np.abs(model.ub)), rows)
    return model


def twostage_to_document(inst: TwoStageInstance) -> dict:
    return {
        "two_stage": {
            "c": list(inst.c),
            "x_names": list(inst.x_names),
            "linear": _rows_to_list(inst.A_ub, inst.b_ub, "<="),
            "first_convex": [g.to_dict() for g in inst.first_convex],
            "scenarios": [
                {
                    "name": sc.name,
                    "q": list(sc.q),
                    "y_vars": [_varspec_to_dict(v) for v in sc.y_vars],
                    "constraints": [g.to_dict() for g in sc.constraints],
                }
                for sc in inst.scenarios
            ],
            "ambiguity": {
                "A_ub": [list(r) for r in inst.ambiguity.A_ub],
                "b_ub": list(inst.ambiguity.b_ub),
            },
        }
    }


def twostage_from_document(doc: dict) -> TwoStageInstance:
    ts = doc["two_stage"]
    c = np.asarray(ts["c"], dtype=float)
    A_ub, b_ub, A_eq, _ = _rows_from_list(ts.get("linear", []), c.size)
    if A_eq is not None:
        raise ModelError("first-stage equality rows are not supported")
    scenarios = []
    for sd in ts["scenarios"]:
        scenarios.append(Scenario(
            name=sd["name"], q=sd["q"],
            y_vars=[_varspec_from_dict(v) for v in sd["y_vars"]],
            constraints=[expr_from_dict(g) for g in sd["constraints"]],
        ))
    amb = ts.get("ambiguity", {})
    ambiguity = AmbiguitySet(
        len(scenarios),
        np.asarray(amb.get("A_ub", []), dtype=float) if amb.get("A_ub") else None,
        np.asarray(amb.get("b_ub", []), dtype=float) if amb.get("b_ub") else None,
    )
    inst = TwoStageInstance(
        c=c, x_names=list(ts["x_names"]), scenarios=scenarios, ambiguity=ambiguity,
        A_ub=A_ub, b_ub=b_ub,
        first_convex=[expr_from_dict(g) for g in ts.get("first_convex", [])],
    )
    ones = np.ones(c.size)   # the binary first stage
    _check_scale(ones, _linear_rows(ts.get("linear", []))
                 + [(f"first-stage convex row {i}", g) for i, g in enumerate(inst.first_convex)])
    for sc in scenarios:
        M = np.concatenate([ones, [max(abs(v.lb), abs(v.ub)) for v in sc.y_vars]])
        _check_scale(M, [(f"scenario {sc.name}: convex row {i}", g) for i, g in enumerate(sc.constraints)])
    return inst


def to_document(obj) -> dict:
    if isinstance(obj, TwoStageInstance):
        return twostage_to_document(obj)
    if isinstance(obj, ModelInstance):
        return model_to_document(obj)
    raise ModelError(f"cannot serialize {type(obj).__name__}")


def from_document(doc: dict):
    if "two_stage" in doc:
        return twostage_from_document(doc)
    return model_from_document(doc)


def save(obj, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps(to_document(obj)))


def _finite_float(text):
    value = float(text)
    if not np.isfinite(value):
        raise ModelError(f"number {text} overflows a double")
    return value


def _no_constant(text):
    raise ModelError(f"non-finite number {text} is not allowed")


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_float=_finite_float, parse_constant=_no_constant)
        except ValueError as exc:   # bad JSON, bad UTF-8 or a non-finite number
            raise ModelError(f"invalid model file {path}: {exc}") from exc
    try:
        return from_document(doc)
    except ModelError as exc:
        raise ModelError(f"invalid model file {path}: {exc}") from exc
    except (KeyError, TypeError, IndexError, ValueError, AttributeError, OverflowError) as exc:
        raise ModelError(f"malformed model file {path}: {exc!r}") from exc
