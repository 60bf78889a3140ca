"""End-to-end CLI tests driving ``bci.cli.main`` in process."""

from __future__ import annotations

import csv
import inspect
import io
import json

import pytest

from bci.cli import BUILTINS, main
from bci.document import document_from_scenario, dumps, to_jsonable
from bci.scenarios import example_3_1, example_3_1_profile


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv: str):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def test_verify_builtin_json(capsys):
    payload = run_json(capsys, "verify", "-b", "example_3_1", "--profile", "covariate")
    assert payload["verdict"] == "epsilon_equilibrium"
    assert abs(payload["welfare_loss"] - 0.4) < 1e-12
    assert abs(payload["error_probability"] - 0.8) < 1e-12
    assert payload["sup_gap"] == 0.0
    assert payload.get("witness") is None  # nothing to report on a pass


def test_verify_limit_flag(capsys):
    payload = run_json(
        capsys, "verify", "-b", "example_3_1", "--profile", "covariate", "--limit"
    )
    assert payload["verdict"] == "equilibrium_limit"
    assert len(payload["ladder"]) == 17
    assert all(r["passed"] for r in payload["ladder"])


def test_verify_text_output(capsys):
    code, out, _ = run_cli(capsys, "verify", "-b", "example_3_1", "--profile", "covariate")
    assert code == 0
    assert "verdict: epsilon_equilibrium" in out


def test_scenario_run_example_4_1(capsys):
    payload = run_json(
        capsys, "scenario", "run", "example_4_1", "--gamma", "0.3", "--c", "0.5"
    )
    sigma = payload["profile"][0]
    assert abs(sigma[0] - 3.0 / 7.0) < 1e-6
    assert sigma[1] == 1.0
    assert payload["report"]["verdict"] == "equilibrium_limit"
    assert abs(payload["report"]["welfare_loss"] - 0.15) < 1e-6
    assert payload["scenario"]["schema_version"] == 1
    assert payload["scenario"]["variables"] == []


def test_scenario_run_pandemic(capsys):
    payload = run_json(capsys, "scenario", "run", "pandemic")
    assert payload["report"]["verdict"] == "epsilon_equilibrium"
    assert abs(payload["report"]["welfare_loss"] - 0.05) < 1e-9


def test_scenario_run_witness_builtin(capsys):
    payload = run_json(capsys, "scenario", "run", "prop2_incomplete")
    assert payload["report"]["verdict"] == "equilibrium_limit"
    assert payload["report"]["welfare_loss"] > 0.85


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_every_builtin_runs_and_sweeps(capsys, name):
    payload = run_json(capsys, "scenario", "run", name)
    assert payload["report"]["verdict"] in (
        "epsilon_equilibrium", "equilibrium_limit", "not_equilibrium", "undefined_cells"
    )
    assert payload["builtin"] == name
    code, out, err = run_cli(capsys, "sweep", name)
    assert code == 0, err
    assert len(list(csv.DictReader(io.StringIO(out)))) == 1


@pytest.mark.parametrize(
    "witness, builtin",
    [("incomplete", "prop2_incomplete"), ("cycle", "prop2_cycle"),
     ("incomplete_hetero", "prop4"), ("full_loss", "prop5")],
)
def test_worstcase_witness_is_scenario_run_payload(capsys, witness, builtin):
    expected = run_json(capsys, "scenario", "run", builtin)
    del expected["builtin"], expected["parameters"]
    assert run_json(capsys, "worstcase", "witness", witness) == expected


def test_delta_csv_golden(capsys):
    code, out, _ = run_cli(capsys, "delta", "-b", "example_3_1", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["cell"] for r in rows if r["type"] == "1"] == ["x1=0", "x1=1"]
    by_key = {(r["type"], r["cell"]): r for r in rows}
    high = by_key[("1", "x1=1")]
    assert abs(float(high["delta"]) - 8.0 / 9.0) < 1e-12
    assert high["defined"] == "true"
    assert high["reachable"] == "true"
    assert float(by_key[("1", "x1=0")]["delta"]) == 0.0


def test_delta_type_filter(capsys):
    payload = run_json(capsys, "delta", "-b", "example_3_1", "--type", "2")
    assert len(payload["deltas"]) == 1
    assert payload["deltas"][0]["type"] == 2
    code, _, err = run_cli(capsys, "delta", "-b", "example_3_1", "--type", "5")
    assert code == 3
    assert "--type must lie in 1..2" in err


def test_order_inline_types(capsys):
    payload = run_json(
        capsys, "order", "--types", "[{C:[1],D:[1]},{C:[2],D:[2]}]"
    )
    assert payload["complete"] is False
    assert payload["quasitransitive"] is True
    assert payload["relation"] == "incomplete"
    assert payload["layers"] is None
    assert "not complete" in payload["layer_error"]


def test_order_builtin_chain(capsys):
    payload = run_json(capsys, "order", "-b", "example_1_1_confounder")
    assert payload["complete"] is True
    assert payload["quasitransitive"] is True
    assert payload["layers"] == [[1], [2]]  # the seeing type strictly dominates


def test_sweep_crosses_feasibility_boundary(capsys):
    code, out, _ = run_cli(capsys, "sweep", "example_3_1", "--q", "0.5:0.95:0.05", "--c", "0.5")
    assert code == 0
    # an infeasible first row carries no metric columns, yet the header keeps
    # the parameters in declared order, then the metrics, then the effects
    assert next(csv.reader(io.StringIO(out))) == [
        "beta", "q", "c", "blind_second_type",
        "verdict", "welfare_loss", "error_probability",
        "delta_1(x1=0)", "delta_1(x1=1)", "delta_2(x2=0)", "delta_2(x2=1)",
    ]
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 10
    assert rows[0]["beta"] == "0.8"  # un-swept params still appear per row
    feasible = [r for r in rows if r["verdict"] != "infeasible"]
    infeasible = [r for r in rows if r["verdict"] == "infeasible"]
    # default beta 0.8 requires beta * (2 - q) <= 1, i.e. q >= 0.75
    assert all(float(r["q"]) >= 0.75 - 1e-9 for r in feasible)
    assert all(float(r["q"]) < 0.75 for r in infeasible)
    assert len(feasible) == 5 and len(infeasible) == 5
    for r in infeasible:
        assert r["welfare_loss"] == ""
        assert r["delta_1(x1=1)"] == ""
    for r in feasible:
        q = float(r["q"])
        assert abs(float(r["delta_1(x1=1)"]) - 2.0 * q / (1.0 + q)) < 1e-12
        assert float(r["delta_1(x1=0)"]) == 0.0
        assert r["verdict"] == "epsilon_equilibrium"


def test_sweep_all_feasible_with_lower_beta(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "example_3_1", "--beta", "0.5", "--q", "0.5:0.95:0.05", "--c", "0.5"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 10
    queues = [float(r["q"]) for r in rows]
    assert queues == sorted(queues)  # grid order: outer to inner
    for r in rows:
        assert r["verdict"] != "infeasible"
        q = float(r["q"])
        assert abs(float(r["delta_1(x1=1)"]) - 2.0 * q / (1.0 + q)) < 1e-12


def test_sweep_two_axes_and_json(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "example_4_1", "--gamma", "0.2:0.4:0.1",
        "--c", "0.3:0.5:0.2", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert [(r["gamma"], r["c"]) for r in rows] == [
        (0.2, 0.3), (0.2, 0.5), (0.30000000000000004, 0.3),
        (0.30000000000000004, 0.5), (0.4, 0.3), (0.4, 0.5),
    ]
    assert all("verdict" in r for r in rows)


def test_sweep_no_covariate_example_certifies_off_the_tie(capsys):
    # an interior mix below gamma = c, the all-act corner above it; both err
    # with probability min(gamma, 1 - gamma)
    rows = run_json(capsys, "sweep", "example_4_1", "--gamma", "0.1:0.9:0.1", "--c", "0.5")
    assert len(rows) == 9
    for r in rows:
        if abs(r["gamma"] - 0.5) < 1e-9:
            continue
        assert r["verdict"] == "equilibrium_limit", r
        assert abs(r["error_probability"] - min(r["gamma"], 1 - r["gamma"])) < 1e-6, r


def test_sweep_range_takes_exponent_literals(capsys):
    rows = run_json(capsys, "sweep", "prop4", "--beta", "1e-3:1e-2:1e-3")
    assert [r["beta"] for r in rows] == pytest.approx([k * 1e-3 for k in range(1, 11)])
    assert all(r["verdict"] == "equilibrium_limit" for r in rows)


@pytest.mark.parametrize(
    "value, message",
    [("inf", "finite"), ("0.5:inf:0.1", "finite"), ("0.5:0.9", "start:stop:step"),
     ("0.5:0.9:1e-5", "more than 10000 points"), ("0.5:0.9:1e-300", "more than 10000 points")],
)
def test_sweep_rejects_bad_ranges(capsys, value, message):
    code, out, err = run_cli(capsys, "sweep", "example_3_1", "--q", value)
    assert code == 3
    assert message in err
    assert out == ""


def test_sweep_rejects_oversized_grid_before_running(capsys):
    # two axes of 4,001 and 8,001 points: each fits the bound, their product does not
    code, out, err = run_cli(
        capsys, "sweep", "example_3_1", "--q", "0.5:0.9:1e-4", "--c", "0.1:0.9:1e-4"
    )
    assert code == 3
    assert "sweep grid has 32012001 points, more than 10000" in err
    assert out == ""


def test_witness_flags_cover_every_builder_parameter():
    # a witness builtin's flags come from the witness signature, so it must
    # take every parameter of the scenario builder, with the same default
    witnesses = {name: spec for name, spec in BUILTINS.items() if spec.witness is not None}
    assert sorted(witnesses) == ["prop2_cycle", "prop2_incomplete", "prop4", "prop5"]
    for name, spec in witnesses.items():
        built = inspect.signature(spec.build).parameters
        taken = inspect.signature(spec.witness).parameters
        for pname, param in built.items():
            assert pname in taken, (name, pname)
            assert taken[pname].default == param.default, (name, pname)


def test_worstcase_witness_lists_witnesses_in_order(capsys):
    code, out, err = run_cli(capsys, "worstcase", "witness", "bogus")
    assert code == 3
    assert "(choose from incomplete, cycle, incomplete_hetero, full_loss)" in err
    assert out == ""


def test_exit_code_unknown_builtin(capsys):
    code, _, err = run_cli(capsys, "verify", "-b", "frobnicate")
    assert code == 3
    assert "unknown builtin" in err


def test_exit_code_source_required(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 3
    assert "exactly one" in err
    code, _, err = run_cli(capsys, "verify", "-b", "example_3_1", "-s", "doc.json")
    assert code == 3


def test_exit_code_foreign_flag(capsys):
    code, _, err = run_cli(capsys, "verify", "-b", "example_3_1", "--gamma", "0.4")
    assert code == 3
    assert "takes no --gamma" in err
    for argv in (("sweep", "example_3_1"), ("worstcase", "witness", "cycle")):
        code, out, err = run_cli(capsys, *argv, "--gamma", "0.3")
        assert code == 3, argv
        assert "takes no --gamma" in err
        assert out == ""


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("sweep", "prop2_cycle", "--lambdas", "a,b"), "--lambdas"),
        (("sweep", "example_3_1", "--q", "abc"), "--q"),
        (("sweep", "example_3_1", "--blind-second-type", "maybe"), "--blind-second-type"),
        (("worstcase", "witness", "incomplete", "--eps", "abc"), "--eps"),
    ],
)
def test_exit_code_bad_builtin_value(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert f"bad value for {flag}" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "var, value",
    [("BCI_TIE_TOL", "-0.5"), ("BCI_TIE_TOL", "abc"),
     ("BCI_LADDER_FLOOR", "0"), ("BCI_LADDER_FLOOR", "abc")],
)
def test_exit_code_bad_tolerance_setting(monkeypatch, capsys, var, value):
    monkeypatch.setenv(var, value)
    code, out, err = run_cli(capsys, "verify", "-b", "pandemic", "--limit")
    assert code == 1
    assert err.startswith("invariant violation:") and var in err
    assert out == ""


@pytest.mark.parametrize(
    "var, value", [("BCI_TIE_TOL", "-0.5"), ("BCI_LADDER_FLOOR", "abc")]
)
def test_delta_reads_no_tolerance_setting(monkeypatch, capsys, var, value):
    # perceived effects decide no best reply and walk no ladder
    expected = run_cli(capsys, "delta", "-b", "pandemic", "--format", "json")
    monkeypatch.setenv(var, value)
    assert run_cli(capsys, "delta", "-b", "pandemic", "--format", "json") == expected
    assert expected[0] == 0


def test_flags_do_not_carry_over_between_calls(capsys):
    # the parser is built once per process; each call starts from the defaults
    default = run_cli(capsys, "verify", "-b", "pandemic", "--format", "json")
    moved = run_cli(capsys, "verify", "-b", "pandemic", "--q", "0.7", "--format", "json")
    assert moved != default
    assert run_cli(capsys, "verify", "-b", "pandemic", "--format", "json") == default
    assert default[0] == 0


@pytest.mark.parametrize("types", ["[{C:['a'],D:[1]}]", "[{C:1,D:[1]}]", "[{C:[1.7],D:[1]}]"])
def test_exit_code_bad_order_types(capsys, types):
    code, out, err = run_cli(capsys, "order", "--types", types)
    assert code == 3
    assert "cannot parse --types" in err
    assert "Traceback" not in err
    assert out == ""


def test_exit_code_infeasible_parameters(capsys):
    code, _, err = run_cli(capsys, "verify", "-b", "example_3_1", "--beta", "1.5")
    assert code == 1
    assert "invariant violation" in err


def test_exit_code_solver_did_not_converge(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "-b", "example_4_1", "--gamma", "0.3", "--c", "0.5",
        "--max-iters", "1", "--inits", "0", "--format", "json",
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["equilibria"] == []
    assert all(r["status"] != "converged" for r in payload["runs"])


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (("solve", "-b", "example_3_1", "--inits", "-1"), 3, "--inits"),
        (("worstcase", "search", "--restarts", "2", "--param-scale", "-1"), 1, "param_scale"),
        (("worstcase", "search", "--restarts", "2", "--refine-rounds", "-1"), 1, "refine_rounds"),
        (("solve", "-b", "example_3_1", "--max-iters", "-1", "--inits", "0"), 3, "--max-iters"),
        (("solve", "-b", "example_3_1", "--max-iters", "0", "--inits", "0"), 3, "--max-iters"),
        (("solve", "-b", "example_3_1", "--damping", "0.5"), 3, "--damping"),
    ],
)
def test_exit_code_bad_numeric_option(capsys, argv, code, message):
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert message in err
    assert "Traceback" not in err
    assert out == ""


def test_exit_code_unknown_command(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 3
    assert "error:" in err


def test_solve_is_seed_reproducible(capsys):
    argv = (
        "solve", "-b", "example_4_1", "--gamma", "0.6", "--c", "0.5",
        "--seed", "11", "--inits", "6", "--format", "json",
    )
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out2, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out1 == out2  # byte-identical under a fixed seed
    payload = json.loads(out1)
    losses = [e["welfare_loss"] for e in payload["equilibria"]]
    assert any(abs(v - 0.2) < 1e-9 for v in losses)  # the a=1 corner
    assert all(e["verdict"] == "equilibrium_limit" for e in payload["equilibria"])


def test_enumerate_pure_equilibria(capsys):
    payload = run_json(capsys, "enumerate", "-b", "example_3_1")
    losses = sorted(e["welfare_loss"] for e in payload["equilibria"])
    assert len(losses) == 2
    assert abs(losses[0] - 0.0) < 1e-12
    assert abs(losses[1] - 0.4) < 1e-12


def test_verify_from_document_file(tmp_path, capsys):
    doc_path = tmp_path / "scenario.json"
    doc_path.write_text(dumps(document_from_scenario(example_3_1())))
    payload = run_json(
        capsys, "verify", "-s", str(doc_path), "--profile", "covariate"
    )
    assert payload["verdict"] == "epsilon_equilibrium"
    assert abs(payload["welfare_loss"] - 0.4) < 1e-12


def test_verify_from_stdin(monkeypatch, capsys):
    text = dumps(document_from_scenario(example_3_1()))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    payload = run_json(capsys, "verify", "-s", "-", "--profile", "covariate")
    assert payload["verdict"] == "epsilon_equilibrium"


def test_profile_from_file(tmp_path, capsys):
    scenario = example_3_1()
    prof_path = tmp_path / "profile.json"
    prof_path.write_text(json.dumps(to_jsonable(example_3_1_profile(scenario))))
    payload = run_json(
        capsys, "verify", "-b", "example_3_1", "--profile", str(prof_path)
    )
    assert payload["verdict"] == "epsilon_equilibrium"


def test_parse_error_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    code, _, err = run_cli(capsys, "verify", "-s", str(bad))
    assert code == 3
    assert "parse error" in err


def test_invalid_document_exits_1(tmp_path, capsys):
    raw = json.loads(dumps(document_from_scenario(example_3_1())))
    raw["lambda"] = [0.9, 0.9]
    bad = tmp_path / "invalid.json"
    bad.write_text(json.dumps(raw))
    code, _, err = run_cli(capsys, "verify", "-s", str(bad))
    assert code == 1
    assert "lambda not on simplex" in err


def test_missing_file_exits_3(capsys):
    code, _, err = run_cli(capsys, "verify", "-s", "/no/such/file.json")
    assert code == 3
    assert "cannot read" in err


def test_worstcase_witness_json(capsys):
    payload = run_json(capsys, "worstcase", "witness", "incomplete")
    assert payload["report"]["verdict"] == "equilibrium_limit"
    assert abs(payload["witness"]["claimed_loss"] - 0.9 * 0.995) < 1e-12
    assert payload["annotation_max_error"] < 1e-10


def test_worstcase_search_seeded(capsys):
    argv = (
        "worstcase", "search", "--gamma", "0.3", "--t-only-outcome",
        "--restarts", "4", "--seed", "7", "--refine-rounds", "4",
        "--metric", "error_probability", "--bound", "0.21", "--format", "json",
    )
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["observed"] <= 0.21 + 1e-9
    assert payload["violated"] is False
    assert payload["evaluations"] > 0
