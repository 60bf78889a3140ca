"""End-to-end CLI tests driving ``bci.cli.main`` in process."""

from __future__ import annotations

import contextlib
import csv
import inspect
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bci
from bci._engine import profile_key
from bci.cli import BUILTINS, main
from bci.document import document_from_scenario, export_json, to_jsonable
from bci.equilibrium import certify_equilibrium
from bci.model import StrategyProfile
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


@pytest.mark.parametrize("eps", ["0", "1", "-0.01"])
def test_worstcase_witness_hetero_rejects_eps_outside_the_unit_interval(capsys, eps):
    code, out, err = run_cli(capsys, "worstcase", "witness", "incomplete_hetero", "--eps", eps)
    assert code == 1
    assert err == "invariant violation: need eps in (0,1)\n"
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
        # a float flag takes finite numbers only, as a sweep value does
        (("verify", "-b", "example_3_1", "--q", "nan"), "--q"),
        (("scenario", "run", "example_3_1", "--q", "inf"), "--q"),
        (("delta", "-b", "example_3_1", "--c", "nan"), "--c"),
        (("enumerate", "-b", "pandemic", "--q", "nan"), "--q"),
        (("worstcase", "witness", "full_loss", "--gamma", "nan"), "--gamma"),
        (("scenario", "run", "prop4", "--lambdas", "0.5,-inf"), "--lambdas"),
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


def test_order_with_no_types_exits_1(capsys):
    # an empty type list once printed a 0 x 0 relation as complete and
    # quasitransitive, with no layers, and exited 0
    code, out, err = run_cli(capsys, "order", "--types", "[]")
    assert (code, out) == (1, "")
    assert "invariant violation: a relation needs at least one type" in err
    assert "Traceback" not in err


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
        (("worstcase", "search", "--restarts", "2", "--param-scale", "-1"), 3, "param_scale"),
        (("worstcase", "search", "--restarts", "2", "--refine-rounds", "-1"), 3, "refine_rounds"),
        (("solve", "-b", "example_3_1", "--max-iters", "-1", "--inits", "0"), 3, "--max-iters"),
        (("solve", "-b", "example_3_1", "--max-iters", "0", "--inits", "0"), 3, "--max-iters"),
        (("solve", "-b", "example_3_1", "--damping", "0.5"), 3, "--damping"),
        (("solve", "-b", "example_3_1", "--seed", "-1"), 3, "--seed"),
        (("worstcase", "search", "--seed", "-1", "--restarts", "2"), 3, "seed"),
        (("worstcase", "search", "--covariates", "40", "--restarts", "1"), 3, "n_covariates"),
        (("worstcase", "search", "--restarts", "0"), 3, "restarts must be positive"),
        (("worstcase", "search", "--covariates", "0"), 3, "need at least one covariate"),
        (("worstcase", "search", "--types", "0"), 3, "need at least one covariate"),
        (("worstcase", "search", "--restarts", "1", "--c", "1.5"), 3, "c must lie in (0, 1)"),
        (("worstcase", "search", "--restarts", "1", "--gamma", "1.5"), 3, "gamma must lie"),
        (("worstcase", "search", "--restarts", "1", "--gamma", "nan"), 3, "gamma must lie"),
        (("worstcase", "search", "--restarts", "1", "--refine-rounds", "-2"), 3, "refine_rounds"),
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


def test_solve_lists_each_rest_point_once(capsys):
    # eleven converged starts reach nine distinct rest points
    payload = run_json(
        capsys, "solve", "-b", "example_4_1", "--gamma", "0.3", "--c", "0.5",
        "--seed", "0", "--inits", "8",
    )
    keys = [
        profile_key(np.concatenate([np.ravel(sigma) for sigma in e["profile"]]))
        for e in payload["equilibria"]
    ]
    assert len(keys) == len(set(keys))
    assert sum(r["status"] == "converged" for r in payload["runs"]) > len(keys) > 1


def test_enumerate_pure_equilibria(capsys):
    payload = run_json(capsys, "enumerate", "-b", "example_3_1")
    losses = sorted(e["welfare_loss"] for e in payload["equilibria"])
    assert len(losses) == 2
    assert abs(losses[0] - 0.0) < 1e-12
    assert abs(losses[1] - 0.4) < 1e-12


@pytest.mark.parametrize(
    "argv, code",
    [
        (("enumerate", "-b", "example_4_1"), 0),
        (("solve", "-b", "example_4_1", "--inits", "0", "--max-iters", "1"), 2),
    ],
)
def test_empty_equilibrium_csv_keeps_its_header(capsys, argv, code):
    # no equilibrium found: the header row is still written
    assert run_cli(capsys, *argv, "--format", "csv")[:2] == (
        code, "profile,verdict,welfare_loss,error_probability\n"
    )


def test_verify_from_document_file(tmp_path, capsys):
    doc_path = tmp_path / "scenario.json"
    doc_path.write_text(export_json(document_from_scenario(example_3_1())))
    payload = run_json(
        capsys, "verify", "-s", str(doc_path), "--profile", "covariate"
    )
    assert payload["verdict"] == "epsilon_equilibrium"
    assert abs(payload["welfare_loss"] - 0.4) < 1e-12


def test_verify_from_stdin(monkeypatch, capsys):
    text = export_json(document_from_scenario(example_3_1()))
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
    raw = document_from_scenario(example_3_1())
    raw["lambda"] = [0.9, 0.9]
    bad = tmp_path / "invalid.json"
    bad.write_text(json.dumps(raw))
    code, _, err = run_cli(capsys, "verify", "-s", str(bad))
    assert code == 1
    assert "lambda not on simplex" in err


@pytest.mark.parametrize("command", [["verify", "--limit"], ["enumerate"]])
def test_nan_probability_document_exits_1(tmp_path, capsys, command):
    # a NaN mass once passed validation and came back as an equilibrium
    # with NaN welfare loss
    raw = document_from_scenario(example_3_1())
    raw["p_tx"][0] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, command[0], "-s", str(bad), *command[1:], "--format", "json")
    assert (code, out) == (1, "")
    assert "p_tx must sum to 1" in err


@pytest.mark.parametrize(
    "cards, n_cells", [((2**64, 2), 2**66), ((2**62, 4), 2**65)], ids=["overflow", "wrap"]
)
def test_huge_cardinality_reports_its_true_cell_count(tmp_path, capsys, cards, n_cells):
    # the count once overflowed int64 (2**64) or wrapped around to 0 (2**62 * 4)
    raw = document_from_scenario(example_3_1())
    for variable, card in zip(raw["variables"], cards):
        variable["cardinality"] = card
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "enumerate", "-s", str(bad))
    assert (code, out) == (1, "")
    assert f"p_tx needs {n_cells} entries, got 8" in err


_ODD_VALUES = st.sampled_from(
    [0, -1, 1, 3, 99, 2**62, 2**64, 10**400, 0.5, 1.5, -0.5, 1e308, math.nan, math.inf, -math.inf]
)


def _mangle(raw: dict, op: str, k: int, value) -> None:
    tables = (raw["p_tx"], raw["outcome"]["y_given_tx"], raw["lambda"])
    if op == "cardinality":
        raw["variables"][k % len(raw["variables"])]["cardinality"] = value
    elif op == "entry":
        table = tables[k % 3]
        if table:
            table[k % len(table)] = value
    elif op == "c":
        raw["c"] = value
    elif op == "index":
        entry = raw["types"][k % len(raw["types"])]
        entry["CD"[k % 2]].append(value)
    elif op == "drop":
        table = tables[k % 3]
        if table:
            table.pop()
    elif op == "append":
        tables[k % 3].append(value)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["cardinality", "entry", "c", "index", "drop", "append"]),
            st.integers(0, 11),
            _ODD_VALUES,
        ),
        min_size=1,
        max_size=4,
    )
)
def test_a_mangled_document_keeps_the_exit_code_contract(tmp_path_factory, edits):
    raw = document_from_scenario(example_3_1())
    for op, k, value in edits:
        _mangle(raw, op, k, value)
    path = tmp_path_factory.getbasetemp() / "mangled.json"
    path.write_text(json.dumps(raw))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["enumerate", "-s", str(path)])
    assert code in (0, 1, 2, 3)


@pytest.mark.parametrize("source", [["-b", "example_3_1"], ["-s", "-"]])
def test_order_types_takes_no_scenario_source(capsys, source):
    # --types once won silently over the scenario the source named
    code, out, err = run_cli(capsys, "order", "--types", "[{C:[1],D:[1]}]", *source)
    assert (code, out) == (3, "")
    assert "--types takes no --builtin or --scenario" in err


@pytest.mark.parametrize("command", [["verify", "--limit"], ["delta"]])
def test_nan_strategy_profile_exits_1(tmp_path, capsys, command):
    # a NaN strategy entry once passed the range check: verify printed
    # verdict undefined_cells with NaN welfare loss, and delta printed every
    # cell as undefined, both with exit 0
    nan = float("nan")
    prof_path = tmp_path / "profile.json"
    prof_path.write_text(json.dumps([[[nan, 0.0], [1.0, 1.0]], [[0.0, 0.0], [1.0, 1.0]]]))
    code, out, err = run_cli(
        capsys, command[0], "-b", "example_3_1", "--profile", str(prof_path), *command[1:],
        "--format", "json",
    )
    assert (code, out) == (1, "")
    assert "strategy 0 has entries not in [0, 1]" in err


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


@pytest.mark.parametrize(
    "table",
    [
        [[[0, 1], [0]], [[0, 1], [0, 1]]],  # ragged
        [[[0, "x"], [0, 1]], [[0, 1], [0, 1]]],  # a string entry
        [[[False, True], [False, True]], [[0, 1], [0, 1]]],  # booleans, not numbers
    ],
)
def test_malformed_profile_file_exits_3(tmp_path, capsys, table):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(table))
    code, out, err = run_cli(capsys, "verify", "-b", "example_3_1", "--profile", str(path))
    assert (code, out) == (3, "")
    assert "profile table 0 must be a table of numbers shaped (2, 2)" in err


def test_worstcase_search_rejects_a_nan_bound(capsys):
    code, out, err = run_cli(
        capsys, "worstcase", "search", "--gamma", "0.3", "--restarts", "1",
        "--refine-rounds", "0", "--bound", "nan", "--format", "json",
    )
    assert (code, out) == (3, "")
    assert "finite" in err


def _flat_cells(prefix: str, value):
    """The JSON payload's leaves under dotted keys, as the CSV flattens them."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _flat_cells(f"{prefix}.{k}" if prefix else k, v)
    else:
        yield prefix, value


@pytest.mark.parametrize(
    "argv, nested",
    [
        (("verify", "-b", "example_1_1_collider"), True),  # a witness
        (("order", "-b", "prop2_incomplete"), False),  # no layers: None
        (("scenario", "run", "pandemic"), True),
        (("worstcase", "witness", "incomplete"), True),
    ],
)
def test_nested_payload_csv_is_one_flat_row(capsys, argv, nested):
    # one header and one row: dotted keys, lists as JSON text, None as an
    # empty cell, and every scalar the JSON output's
    expected = dict(_flat_cells("", run_json(capsys, *argv)))
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0, err
    header, *rows = csv.reader(io.StringIO(out))
    assert len(rows) == 1 and header == list(expected)
    assert any("." in key for key in header) == nested
    for key, cell in zip(header, rows[0]):
        value = expected[key]
        if isinstance(value, list):
            assert json.loads(cell) == value, key
        elif value is None:
            assert cell == "", key
        elif isinstance(value, bool):
            assert cell == str(value).lower(), key
        elif isinstance(value, float):
            assert float(cell) == value, key
        else:
            assert cell == str(value), key


def test_delta_csv_writes_an_undefined_effect_as_an_empty_cell(capsys):
    payload = run_json(capsys, "delta", "-b", "prop4")
    undefined = sum(c["delta"] is None for t in payload["deltas"] for c in t["cells"])
    code, out, _ = run_cli(capsys, "delta", "-b", "prop4", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 0 and undefined
    assert sum(r["delta"] == "" for r in rows) == undefined
    assert "None" not in out


@pytest.mark.parametrize(
    "builtin, choice, make",
    [
        ("example_3_1", "taste", StrategyProfile.matching),
        ("pandemic", "zero", lambda s: StrategyProfile.constant(s, 0.0)),
        ("example_1_1_collider", "one", lambda s: StrategyProfile.constant(s, 1.0)),
        # a builtin without a canonical profile falls back to taste
        ("example_4_1", "canonical", StrategyProfile.matching),
    ],
)
def test_named_profiles_match_the_library(capsys, builtin, choice, make):
    s = BUILTINS[builtin].build()
    report = certify_equilibrium(s, make(s))
    payload = run_json(capsys, "verify", "-b", builtin, "--profile", choice, "--limit")
    assert payload["verdict"] == report.verdict
    assert payload["welfare_loss"] == report.welfare_loss
    assert payload["error_probability"] == report.error_probability
    assert [r["passed"] for r in payload["ladder"]] == [r.passed for r in report.ladder_trace]


@pytest.mark.parametrize(
    "argv",
    [
        ("scenario", "run", "prop4", "--eps-check", "7"),
        ("sweep", "prop5", "--gamma", "0.4", "--eps-check", "0"),
        ("scenario", "run", "example_4_1", "--eps-check", "-3"),
        ("verify", "-b", "example_3_1", "--limit", "--eps-check", "9"),
        ("verify", "-b", "example_3_1", "--eps-check", "2"),
        ("verify", "-b", "example_3_1", "--eps-check", "nan"),
        ("verify", "-b", "example_3_1", "--eps-check", "1"),
    ],
)
def test_eps_check_outside_the_open_unit_interval_exits_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert "--eps-check: must be a number in (0, 1)" in err


def test_a_closed_output_pipe_ends_the_command_quietly():
    # about 95 kB of JSON, more than a pipe buffer holds, of which the reader
    # takes one line before closing its end
    src = str(Path(bci.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["sweep", "example_3_1", "--q", "0.5:0.95:0.001", "--format", "json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "bci", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path),
    )
    try:
        assert proc.stdout.readline() == b"[\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (0, b"")
    finally:
        proc.kill()
        proc.wait()
