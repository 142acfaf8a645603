import json

import numpy as np
import pytest

from micpkit.cli import main
from micpkit.modelio import save
from micpkit.section6 import build_instance
from test_modelio import MALFORMED


@pytest.fixture()
def s6_file(tmp_path):
    path = tmp_path / "section6.json"
    save(build_instance(), path)
    return str(path)


def test_solve_twostage_prints_answer(s6_file, capsys):
    code = main(["solve", "--mode", "twostage", s6_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "x* = [1, 0]" in out
    assert "1.75" in out


def test_solve_direct_on_plain_model(tmp_path, capsys):
    from micpkit.bruteforce import extensive_form
    path = tmp_path / "ext.json"
    save(extensive_form(build_instance(y_upper=6)), path)
    code = main(["solve", "--mode", "direct", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "1.75" in out


def test_solve_decompose_mode(tmp_path, capsys):
    from micpkit.bruteforce import extensive_form
    path = tmp_path / "ext.json"
    save(extensive_form(build_instance(y_upper=6)), path)
    code = main(["solve", "--mode", "decompose", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "1.75" in out


@pytest.mark.parametrize("mode,solver", [
    ("direct", "micp_solve"), ("decompose", "decompose_solve"), ("twostage", "dr_solve"),
])
def test_solve_writes_the_certificate_trace(mode, solver, s6_file, tmp_path, monkeypatch, capsys):
    from micpkit import cli
    from micpkit.bruteforce import extensive_form
    path = s6_file
    if mode != "twostage":
        path = str(tmp_path / "ext.json")
        save(extensive_form(build_instance(y_upper=6)), path)
    certs = []
    real = getattr(cli, solver)

    def solve(*args, **kwargs):
        certs.append(real(*args, **kwargs))
        return certs[-1]

    monkeypatch.setattr(cli, solver, solve)
    trace_path = tmp_path / "t.jsonl"
    assert main(["solve", "--mode", mode, path, "--trace", str(trace_path)]) == 0
    (cert,) = certs
    assert cert.trace and len(cert.trace) == cert.iterations
    lines = trace_path.read_text(encoding="utf-8").splitlines()
    assert lines == [json.dumps(row, sort_keys=True) for row in cert.trace]


@pytest.mark.parametrize("mode", ["twostage", "decompose"])
def test_milp_mode_reaches_the_first_stage_master(mode, s6_file, tmp_path, monkeypatch, capsys):
    from micpkit import twostage
    from micpkit.generate import generate_instance
    path = s6_file
    if mode == "decompose":
        path = str(tmp_path / "separable.json")
        save(generate_instance(1000, "micp-separable"), path)
    # the scenario solves go through benders, so this sees the masters alone
    seen = []
    real = twostage.micp_solve

    def master_solve(model, opts=None, **kwargs):
        seen.append(opts)
        return real(model, opts, **kwargs)

    monkeypatch.setattr(twostage, "micp_solve", master_solve)
    assert main(["solve", "--mode", mode, path, "--milp-mode", "cp"]) == 0
    assert seen and all(opts.milp_mode == "cp" for opts in seen)
    seen.clear()
    assert main(["solve", "--mode", mode, path]) == 0
    assert seen and all(opts.milp_mode == "bb" for opts in seen)


def test_verify_random_suite(capsys):
    code = main(["verify", "--profile", "micp-smooth", "--count", "3", "--seed", "100"])
    out = capsys.readouterr().out
    assert code == 0
    assert "MATCH 3/3" in out


def test_generate_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["generate", "--profile", "twostage-small", "--seed", "5", "--out", str(p1)]) == 0
    assert main(["generate", "--profile", "twostage-small", "--seed", "5", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_replay_writes_trace(tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    code = main(["replay-section6", "--trace", str(trace_path)])
    assert code == 0
    rows = [json.loads(line) for line in trace_path.read_text().splitlines()]
    tangent = next(r for r in rows if r["step"] == "scenario1-tangent-cut")
    assert tangent["coeffs"] == pytest.approx([1.272, 0.586], abs=1e-2)
    assert tangent["rhs"] == pytest.approx(0.918, abs=1e-2)


def test_unknown_flag_exits_four(capsys):
    assert main(["solve", "--nonsense"]) == 4


def test_missing_file_exits_four(capsys):
    assert main(["solve", "--mode", "twostage", "/nonexistent/file.json"]) == 4


def test_infeasible_model_exits_two(tmp_path, capsys):
    doc = {
        "variables": [{"name": "x", "kind": "continuous", "lb": 0.0, "ub": 1.0}],
        "objective": {"linear": {"c": [1.0], "const": 0.0}},
        "linear": [
            {"coeffs": [1.0], "rhs": -1.0, "sense": "<="},
        ],
        "convex": [],
    }
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["solve", "--mode", "direct", str(path)]) == 2


def test_budget_exhaustion_exits_three(tmp_path, capsys):
    from micpkit.modelio import save as save_model
    from micpkit.expr import Affine, Softplus, WeightedSum
    from micpkit.model import LinearObjective, ModelInstance, VariableSpec
    g = WeightedSum([Softplus([1.0, 1.0]), Affine([-2.0, -float(np.log1p(np.e))], 0.0)])
    m = ModelInstance(
        variables=[VariableSpec("a", "integer", 0, 10), VariableSpec("b", "integer", 0, 10)],
        objective=LinearObjective([0.5, 1.0]),
        convex=[g],
    )
    path = tmp_path / "slow.json"
    save_model(m, path)
    trace_path = tmp_path / "t.jsonl"
    assert main(["solve", "--mode", "direct", "--max-iter", "1", str(path),
                 "--trace", str(trace_path)]) == 3
    # the budget line reads the last trace row; a bound not yet found prints as inf
    assert capsys.readouterr().out == "status: budget-exhausted\nbounds: L=0.0 U=inf\n"
    (row,) = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert row["L"] == 0.0 and row["U"] is None


def test_no_interior_exits_three(tmp_path, capsys):
    # min x1 on the unit disk with x0 >= 1 as a linear row: the single point
    # (1, 0), where the convex kernel raises NumericalFailure
    from micpkit.expr import Affine, SquaredNorm, WeightedSum
    from micpkit.model import LinearObjective, ModelInstance, VariableSpec
    disk = WeightedSum([SquaredNorm(np.eye(2)), Affine(np.zeros(2), -1.0)])
    m = ModelInstance(
        variables=[VariableSpec("x0", "continuous", -2, 2), VariableSpec("x1", "continuous", -2, 2)],
        objective=LinearObjective([0.0, 1.0]), A_ub=[[-1.0, 0.0]], b_ub=[-1.0], convex=[disk],
    )
    path = tmp_path / "disk.json"
    save(m, path)
    assert main(["solve", "--tol", "1e-7", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: feasible set has no interior")


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_model_exits_four(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(MALFORMED[name], encoding="utf-8")
    assert main(["solve", str(path)]) == 4
    captured = capsys.readouterr()
    assert "status:" not in captured.out
    assert "Traceback" not in captured.err and f"{name}.json" in captured.err


@pytest.mark.parametrize("flags", [
    ["verify", "--count", "0"], ["verify", "--count", "-3"],
    ["verify", "--tol", "nan"], ["verify", "--tol", "-0.001"], ["verify", "--tol", "0"],
    ["verify", "--tol", "inf"], ["solve", "m.json", "--tol", "nan"], ["solve", "m.json", "--tol", "-1"],
    ["solve", "m.json", "--max-iter", "0"], ["solve", "m.json", "--max-iter", "-5"],
    ["generate", "--profile", "micp-smooth", "--seed", "-1"], ["verify", "--seed", "-1"],
])
def test_flags_that_check_nothing_or_never_converge_exit_four(flags, capsys):
    assert main(flags) == 4
    captured = capsys.readouterr()
    assert "MATCH" not in captured.out and "error: argument" in captured.err


@pytest.mark.parametrize("mode", ["decompose", "twostage"])
def test_coupled_norm_row_exits_four(mode, tmp_path, capsys):
    # ||(b0 + y, y)|| <= 1 is nonsmooth and couples the parameter b0 with y,
    # so no parametric cut is valid: an input error, raised before any solve
    from micpkit.expr import Affine, NormAffine, WeightedSum
    from micpkit.model import LinearObjective, ModelInstance, VariableSpec
    from micpkit.twostage import AmbiguitySet, Scenario, TwoStageInstance
    row = WeightedSum([NormAffine([[1.0, 1.0], [0.0, 1.0]]), Affine([0.0, 0.0], -1.0)])
    y = VariableSpec("y", "continuous", -1, 1)
    if mode == "decompose":
        model = ModelInstance(variables=[VariableSpec("b0", "binary", 0, 1), y],
                              objective=LinearObjective([1.0, -1.0]), convex=[row],
                              param_block=[0])
    else:
        model = TwoStageInstance(c=[1.0], x_names=["b0"], ambiguity=AmbiguitySet.singleton([1.0]),
                                 scenarios=[Scenario("s", [-1.0], [y], [row])])
    path = tmp_path / "coupled.json"
    save(model, path)
    assert main(["solve", "--mode", mode, str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: convex rows [0] are nonsmooth and couple the parameter "
                            "block; parametric cuts would be invalid\n")


def test_verify_a_model_file(s6_file, tmp_path, capsys):
    # a plain model goes to micp_solve and brute_force, a two-stage document
    # to dr_solve and brute_force_two_stage
    from micpkit.bruteforce import extensive_form
    plain = tmp_path / "ext.json"
    save(extensive_form(build_instance(y_upper=6)), plain)
    for path in (str(plain), s6_file):
        assert main(["verify", path]) == 0
        assert capsys.readouterr().out == "MATCH 1/1\n"


def test_verify_reports_a_mismatch(tmp_path, monkeypatch, capsys):
    from dataclasses import replace

    from micpkit import cli
    from micpkit.bruteforce import extensive_form
    real = cli.micp_solve
    monkeypatch.setattr(cli, "micp_solve",
                        lambda *args, **kwargs: replace(real(*args, **kwargs), objective=2.0))
    path = tmp_path / "ext.json"
    save(extensive_form(build_instance(y_upper=6)), path)
    assert main(["verify", str(path)]) == 3
    out = capsys.readouterr().out
    assert out.startswith("MISMATCH on instance 0: reference=optimal/1.75")
    assert out.endswith("solver=optimal/2.0\nMATCH 0/1\n")


@pytest.mark.parametrize("mode,kind", [
    ("twostage", "plain"), ("decompose", "twostage"), ("direct", "twostage"),
])
def test_mode_and_file_kind_mismatch_exits_four(mode, kind, s6_file, tmp_path, capsys):
    from micpkit.bruteforce import extensive_form
    path = s6_file
    if kind == "plain":
        path = str(tmp_path / "ext.json")
        save(extensive_form(build_instance(y_upper=6)), path)
    assert main(["solve", "--mode", mode, path]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: --mode {mode} ")


def test_verify_missing_file_exits_four(capsys):
    assert main(["verify", "/nonexistent/file.json"]) == 4
    assert capsys.readouterr().err.startswith("error: ")
