"""Document format: parse, validate-all, round-trip, export helpers."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
from collections import OrderedDict
from typing import Any, Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import bci.cli
import bci.document

from bci.document import (
    DocumentError,
    DocumentParseError,
    document_from_scenario,
    export_csv,
    export_json,
    load_scenario,
    loads,
    profile_from_document,
    to_jsonable,
    to_scenario,
    validate,
)
from bci.equilibrium import verify_eps_equilibrium
from bci.model import DataTypeSpec, JointTable, ModelError, Scenario, StrategyProfile
from bci.scenarios import (
    example_1_1_collider,
    example_1_1_confounder,
    example_3_1,
    example_3_1_profile,
    example_4_1,
    pandemic,
    prop2_cycle,
    prop2_incomplete,
    prop4,
    prop5,
)
from test_imports import load_bench

def zero_weight_type():
    # the model allows a type of weight 0
    return dataclasses.replace(example_3_1(), lam=(1.0, 0.0))


def unary_covariate():
    # the model allows a covariate that takes one value
    ptx = np.array([[[0.3, 0.2]], [[0.1, 0.4]]])
    kernel = np.array([[[0.5, 0.9]], [[0.2, 0.7]]])
    types = (DataTypeSpec(("x1",), ("x1", "x2")), DataTypeSpec(("x2",), ("x2",)))
    return Scenario(("x1", "x2"), (1, 2), ptx, kernel, types, (0.4, 0.6), 0.5)


ALL_BUILDERS = [
    example_1_1_confounder,
    example_1_1_collider,
    example_3_1,
    lambda: example_3_1(blind_second_type=True),
    example_4_1,
    prop2_incomplete,
    prop2_cycle,
    prop4,
    prop5,
    pandemic,  # consequential branch of the outcome field
    zero_weight_type,
    unary_covariate,
]


def test_load_scenario_builds_the_scenario_once(monkeypatch):
    built = []
    real = bci.document._build_scenario

    def spy(doc):
        built.append(doc)
        return real(doc)

    monkeypatch.setattr(bci.document, "_build_scenario", spy)
    load_scenario(export_json(document_from_scenario(example_3_1())))
    assert len(built) == 1


@pytest.mark.parametrize("build", ALL_BUILDERS)
def test_round_trip_is_bit_exact(build):
    scenario = build()
    doc = document_from_scenario(scenario)
    text = export_json(doc)
    again = loads(text)
    assert again == doc  # every float survives repr -> JSON -> float intact
    rebuilt = to_scenario(again)
    assert np.array_equal(rebuilt.ptx, scenario.ptx)
    assert np.array_equal(rebuilt.kernel, scenario.kernel)
    assert rebuilt.lam == scenario.lam
    assert rebuilt.c == scenario.c
    assert rebuilt.x_names == scenario.x_names
    assert rebuilt.outcome_kind == scenario.outcome_kind
    assert [(t.condition_set, t.data_set) for t in rebuilt.types] == [
        (t.condition_set, t.data_set) for t in scenario.types
    ]
    # a second pass through the document layer is the identity
    assert document_from_scenario(rebuilt) == doc
    assert export_json(document_from_scenario(rebuilt)) == text


def test_load_scenario_from_text():
    text = export_json(document_from_scenario(example_3_1()))
    scenario = load_scenario(text)
    assert scenario.x_names == ("x1", "x2")
    assert scenario.ptx.shape == (2, 2, 2)


def test_awkward_floats_survive():
    # masses with no short decimal representation
    third = 1.0 / 3.0
    doc = {
        "schema_version": 1,
        "variables": [{"name": "x1", "cardinality": 2}],
        "p_tx": [third / 2, third / 2, third, 1.0 - third - third / 2 - third / 2],
        "outcome": {"kind": "baseline", "y_given_tx": [0.1 + 0.2, 0.0, 1.0, third]},
        "types": [{"C": [1], "D": [1]}],
        "lambda": [1.0],
        "c": 0.7,
    }
    assert not validate(doc)
    again = loads(export_json(doc))
    assert again["p_tx"] == doc["p_tx"]
    assert again["outcome"]["y_given_tx"][0] == 0.1 + 0.2  # 0.30000000000000004
    assert "0.30000000000000004" in export_json(doc)


def _valid_raw() -> dict:
    return document_from_scenario(example_3_1())


def test_validate_reports_every_violation_at_once():
    raw = _valid_raw()
    raw["types"][0] = {"C": [1, 2], "D": [2]}  # C not inside D
    raw["lambda"] = [0.5, 0.2]  # off the simplex
    raw["c"] = 1.5  # outside (0, 1)
    raw["p_tx"][0] += 0.25  # mass no longer sums to 1
    doc = loads(json.dumps(raw))
    problems = validate(doc)
    assert any("types[0]: C ⊄ D" in p for p in problems)
    assert any("lambda not on simplex" in p for p in problems)
    assert any("c must lie in (0, 1)" in p for p in problems)
    assert any("p_tx must sum to 1" in p for p in problems)
    with pytest.raises(DocumentError) as exc_info:
        to_scenario(doc)
    assert len(exc_info.value.violations) >= 4


@pytest.mark.parametrize(
    "field, messages",
    [
        ("p_tx", ("p_tx entries must be nonnegative", "p_tx must sum to 1")),
        ("lambda", ("lambda weights must be nonnegative", "lambda not on simplex")),
    ],
)
def test_validate_rejects_nan_probabilities(field, messages):
    # JSON readers accept NaN; every comparison with it is false, so both
    # checks must be written to pass only on good values
    raw = _valid_raw()
    raw[field][0] = math.nan
    problems = validate(loads(json.dumps(raw)))
    for message in messages:
        assert any(message in p for p in problems), (message, problems)


def test_validate_structural_checks():
    raw = _valid_raw()
    raw["variables"].append({"name": "x1", "cardinality": 0})
    raw["types"][1] = {"C": [2, 2], "D": [2, 5]}
    doc = loads(json.dumps(raw))
    problems = validate(doc)
    assert any("distinct" in p for p in problems)
    assert any("cardinality >= 1" in p for p in problems)
    assert any("out of range" in p for p in problems)
    assert any("repeated indices" in p for p in problems)

    raw = _valid_raw()
    raw["variables"].append({"name": "x3", "cardinality": 3})
    problems = validate(loads(json.dumps(raw)))
    # mass and kernel tables are now too short for the widened variable list
    assert any(p.startswith("p_tx needs") for p in problems)
    assert any("y_given_tx needs" in p for p in problems)


def test_validate_outcome_fields():
    raw = _valid_raw()
    raw["outcome"] = {"kind": "consequential", "z_given_tx": raw["outcome"]["y_given_tx"], "beta": 1.0}
    problems = validate(loads(json.dumps(raw)))
    assert any("beta must lie in (0, 1)" in p for p in problems)

    raw = _valid_raw()
    raw["outcome"]["y_given_tx"][0] = 1.5
    problems = validate(loads(json.dumps(raw)))
    assert any("entries must lie in [0, 1]" in p for p in problems)

    raw = _valid_raw()
    raw["schema_version"] = 99
    problems = validate(loads(json.dumps(raw)))
    assert any("schema_version 99 unsupported" in p for p in problems)


MANGLES = [
    lambda raw: raw.pop("p_tx"),
    lambda raw: raw.pop("lambda"),
    lambda raw: raw.__setitem__("p_tx", ["a", "b"]),
    lambda raw: raw.__setitem__("types", [{"C": [1]}]),
    lambda raw: raw.__setitem__("outcome", {"kind": "mystery"}),
    lambda raw: raw.__setitem__(
        "outcome", {"kind": "consequential", "z_given_tx": []}
    ),
    lambda raw: raw.__setitem__("variables", [{"name": 3, "cardinality": 2}]),
    lambda raw: raw.__setitem__("c", "cheap"),
    # JSON true is not a cardinality, although Python's bool is an int
    lambda raw: raw["variables"][0].__setitem__("cardinality", True),
    # nor a type index, an outcome-kernel entry or a schema version
    lambda raw: raw["types"][0].__setitem__("C", [True]),
    lambda raw: raw.__setitem__("outcome", {
        "kind": "consequential",
        "z_given_tx": [True] + raw["outcome"]["y_given_tx"][1:],
        "beta": 0.5,
    }),
    lambda raw: raw.__setitem__("schema_version", True),
    lambda raw: raw["outcome"]["y_given_tx"].__setitem__(0, "a"),
]


@pytest.mark.parametrize("mangle", MANGLES)
def test_malformed_documents_raise_parse_error(mangle):
    raw = _valid_raw()
    mangle(raw)
    with pytest.raises(DocumentParseError):
        loads(json.dumps(raw))


@pytest.mark.parametrize("mangle", MANGLES)
def test_a_dict_with_a_field_of_the_wrong_kind_raises_parse_error(mangle):
    # a document is its dict, and the calls that take one check its field
    # kinds themselves: a dict that never went through ``loads`` is no escape
    raw = _valid_raw()
    mangle(raw)
    with pytest.raises(DocumentParseError):
        to_scenario(raw)
    with pytest.raises(DocumentParseError):
        validate(raw)
    for not_an_object in ([1, 2, 3], "text", None):
        with pytest.raises(DocumentParseError, match="JSON object"):
            to_scenario(not_an_object)


@pytest.mark.parametrize("card", [True, 2.0, 2.5, "2"])
def test_a_scenario_needs_integer_cardinalities(card):
    # JSON has no such cardinality: a scenario built with one could not
    # round-trip through its document
    shape = (2, 2)
    with pytest.raises(ModelError, match="integer cardinality"):
        Scenario(("x1",), (card,), np.full(shape, 0.25), np.full(shape, 0.5),
                 (DataTypeSpec(("x1",), ("x1",)),), (1.0,), 0.5)


def test_a_numpy_integer_cardinality_is_stored_as_an_int_and_round_trips():
    shape = (2, 2)
    s = Scenario(("x1",), (np.int64(2),), np.full(shape, 0.25), np.full(shape, 0.5),
                 (DataTypeSpec(("x1",), ("x1",)),), (1.0,), 0.5)
    assert s.x_cards == (2,) and type(s.x_cards[0]) is int
    text = export_json(document_from_scenario(s))
    assert load_scenario(text).x_cards == (2,)


def test_parse_error_on_non_json_and_non_object():
    with pytest.raises(DocumentParseError):
        loads("{not json")
    with pytest.raises(DocumentParseError):
        loads("[1, 2, 3]")


def test_parse_error_collects_multiple_problems():
    with pytest.raises(DocumentParseError) as exc_info:
        loads(json.dumps({"schema_version": 1}))
    message = str(exc_info.value)
    for field in ("variables", "p_tx", "outcome", "types", "lambda", "c"):
        assert f"missing field {field!r}" in message


def test_profile_from_document_shapes():
    scenario = example_3_1()
    prof = example_3_1_profile(scenario)
    raw = to_jsonable(prof)
    parsed = profile_from_document(scenario, raw)
    for got, want in zip(parsed.sigmas, prof.sigmas):
        assert np.array_equal(np.asarray(got), np.asarray(want))
    # wrapping in {"sigmas": ...} is also accepted
    parsed2 = profile_from_document(scenario, {"sigmas": raw})
    for got, want in zip(parsed2.sigmas, prof.sigmas):
        assert np.array_equal(np.asarray(got), np.asarray(want))

    blind = example_3_1(blind_second_type=True)
    parsed3 = profile_from_document(blind, [[[0.0, 0.0], [1.0, 1.0]], [0.25, 0.75]])
    assert parsed3.sigmas[1].shape == (2,)

    with pytest.raises(DocumentParseError):
        profile_from_document(scenario, [[[0.0, 0.0], [1.0, 1.0]]])  # one table short
    with pytest.raises(DocumentParseError):
        profile_from_document(scenario, [[0.0, 1.0], [0.0, 1.0]])  # rank too low


def test_to_jsonable_handles_numpy_and_dataclasses():
    scenario = example_3_1()
    report = verify_eps_equilibrium(scenario, example_3_1_profile(scenario), eps=0.01)
    payload = to_jsonable(report)
    text = json.dumps(payload)  # nothing non-serializable left behind
    assert json.loads(text)["verdict"] == "epsilon_equilibrium"

    assert to_jsonable(np.float64(0.5)) == 0.5
    assert to_jsonable(np.int64(3)) == 3
    assert to_jsonable(np.bool_(True)) is True
    assert to_jsonable(np.array([[1, 2], [3, 4]])) == [[1, 2], [3, 4]]
    assert to_jsonable({1: (2, 3)}) == {"1": [2, 3]}
    assert to_jsonable({3, 1, 2}) == [1, 2, 3]
    assert to_jsonable(scenario) == document_from_scenario(scenario)


def test_to_jsonable_takes_a_0d_array():
    assert repr(to_jsonable(np.array(0.0))) == "0.0"
    assert json.loads(export_json(JointTable((), np.array(1.0))))["probs"] == 1.0


def reference_to_jsonable(obj: Any) -> Any:
    """``to_jsonable`` as it was before its dict and list branches moved
    up the isinstance chain."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [reference_to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, Scenario):
        return document_from_scenario(obj)
    if isinstance(obj, StrategyProfile):
        return [reference_to_jsonable(np.asarray(s)) for s in obj.sigmas]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: reference_to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, Mapping):
        return {str(k): reference_to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [reference_to_jsonable(v) for v in items]
    return str(obj)


def assert_same_as_reference(obj):
    # repr tells 1, 1.0, True and np.float64(1.0) apart, and NaN from nothing
    assert repr(to_jsonable(obj)) == repr(reference_to_jsonable(obj))


def test_to_jsonable_matches_the_reference_on_cli_payloads(monkeypatch):
    # every top-level conversion the benchmark's CLI scripts make, seeds 1-5
    load_bench("tracing", monkeypatch)  # workloads imports it by name
    workloads = load_bench("workloads", monkeypatch)
    real = bci.document.to_jsonable
    seen, depth = [], 0

    def spy(obj):
        nonlocal depth
        if depth == 0:
            seen.append(obj)
        depth += 1
        try:
            return real(obj)
        finally:
            depth -= 1

    monkeypatch.setattr(bci.document, "to_jsonable", spy)
    for seed in range(1, 6):
        workload = workloads.Cli(bci, seed, 0.0)
        for argv in workload.script[: len(workload.script) // workload.scripts]:
            with contextlib.redirect_stdout(io.StringIO()):
                assert bci.cli.main(argv) == 0, argv
    monkeypatch.undo()
    assert len(seen) > 100
    for obj in seen:
        assert_same_as_reference(obj)


@dataclasses.dataclass(frozen=True)
class Pair:
    left: Any
    right: Any


_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    hnp.arrays(
        st.sampled_from([np.float64, np.int64, np.bool_]),
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3),
    ),
    st.sets(st.integers(), max_size=3),
    st.frozensets(st.text(max_size=2), max_size=3),
)
_KEYS = st.one_of(st.text(max_size=3), st.integers(), st.booleans())
_NESTED = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=3),
        st.dictionaries(_KEYS, inner, max_size=3).map(OrderedDict),
        st.builds(Pair, inner, inner),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_NESTED)
def test_to_jsonable_matches_the_reference(obj):
    assert_same_as_reference(obj)


def test_export_json_is_shortest_round_trip():
    value = {"x": 2.0 / 3.0, "y": 0.1}
    text = export_json(value, indent=None)
    assert text == '{"x": 0.6666666666666666, "y": 0.1}'
    assert json.loads(text)["x"] == 2.0 / 3.0


def test_export_csv_layout():
    rows = [
        {"a": 1, "b": 2.5, "flag": True},
        {"a": 2, "extra": "note", "flag": False},
    ]
    text = export_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "a,b,flag,extra"  # first-seen order across rows
    assert lines[1] == "1,2.5,true,"
    assert lines[2] == "2,,false,note"

    # floats go through repr, so ugly decimals survive a reload
    third = export_csv([{"v": 1.0 / 3.0}])
    assert third.splitlines()[1] == "0.3333333333333333"
    assert float(third.splitlines()[1]) == 1.0 / 3.0

    # header row appears even when there is nothing to report
    assert export_csv([], columns=["a", "b"]) == "a,b\n"

    # explicit column order wins
    picked = export_csv(rows, columns=["flag", "a"])
    assert picked.splitlines()[0] == "flag,a"
    assert picked.splitlines()[1] == "true,1"


def test_export_json_keeps_nan_for_unreachable_rates():
    # a rate can be NaN where its conditioning event has zero mass; export must not choke
    text = export_json({"rate": float("nan")}, indent=None)
    assert "NaN" in text
    assert math.isnan(json.loads(text)["rate"])


def _reserved_name_and_bad_c(raw):
    raw["variables"][0]["name"] = "t"
    raw["c"] = 1.5


def _two_reserved_names(raw):
    raw["variables"][0]["name"] = "a"
    raw["variables"][1]["name"] = "y"


def _p_tx_just_off_and_bad_c(raw):
    raw["p_tx"][0] += 5e-10
    raw["c"] = 1.5


def _lambda_just_off_and_c_outside_d(raw):
    raw["lambda"][0] += 5e-10
    raw["types"][0] = {"C": [1, 2], "D": [2]}


@pytest.mark.parametrize(
    "mangle, messages",
    [
        (_reserved_name_and_bad_c, ("variable name 't' is reserved", "c must lie in (0, 1)")),
        (_two_reserved_names, ("variable name 'a' is reserved", "variable name 'y' is reserved")),
        (_p_tx_just_off_and_bad_c, ("p_tx must sum to 1", "c must lie in (0, 1)")),
        (_lambda_just_off_and_c_outside_d, ("lambda not on simplex", "types[0]: C ⊄ D")),
    ],
)
def test_validate_lists_each_of_two_independent_violations(mangle, messages):
    # the format's own checks once kept the model from running at all
    raw = _valid_raw()
    mangle(raw)
    problems = validate(loads(json.dumps(raw)))
    for message in messages:
        assert any(message in p for p in problems), (message, problems)


def test_a_bad_index_list_is_reported_once_in_the_documents_words():
    raw = _valid_raw()
    raw["types"][1] = {"C": [2, 2], "D": [2, 5]}
    problems = validate(loads(json.dumps(raw)))
    assert [p for p in problems if p.startswith("types[1]")] == [
        "types[1] index 5 out of range 1..2",
        "types[1] has repeated indices",
    ]


def _scenario_from_fields(doc: dict) -> Scenario:
    """The scenario a document's fields describe, built without the document layer."""
    names = tuple(v["name"] for v in doc["variables"])
    shape = (2,) + tuple(v["cardinality"] for v in doc["variables"])
    outcome = doc["outcome"]
    kernel = outcome["y_given_tx" if outcome["kind"] == "baseline" else "z_given_tx"]
    return Scenario(
        names,
        shape[1:],
        np.reshape(doc["p_tx"], shape),
        np.reshape(kernel, shape),
        tuple(
            DataTypeSpec(tuple(names[i - 1] for i in t["C"]), tuple(names[i - 1] for i in t["D"]))
            for t in doc["types"]
        ),
        doc["lambda"],
        doc["c"],
        outcome["kind"],
        outcome.get("beta", 0.0),
    )


def _slot(raw: dict, field: str, position: int) -> tuple[Any, Any]:
    """The container and key of one numeric entry of a raw document."""
    if field == "c":
        return raw, "c"
    if field == "kernel":
        outcome = raw["outcome"]
        table = outcome["y_given_tx" if outcome["kind"] == "baseline" else "z_given_tx"]
    else:
        table = raw[field]
    return table, position % len(table)


_PERTURBATIONS = st.one_of(
    st.just(("set", math.nan)),
    st.tuples(st.just("set"), st.floats(-1.0, -1e-300)),
    st.tuples(
        st.just("add"),
        st.builds(lambda e, sign: sign * 10.0**e, st.floats(-13.0, -6.0), st.sampled_from([-1, 1])),
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(ALL_BUILDERS),
    st.lists(
        st.tuples(
            st.sampled_from(["p_tx", "kernel", "lambda", "c"]), st.integers(0, 63), _PERTURBATIONS
        ),
        max_size=3,
    ),
)
def test_validate_is_empty_exactly_when_the_scenario_builds(build, edits):
    # NaN, negative entries and sums off by 1e-13 to 1e-6, on both sides of
    # the one tolerance
    raw = document_from_scenario(build())
    for field, position, (how, value) in edits:
        container, key = _slot(raw, field, position)
        container[key] = value if how == "set" else container[key] + value
    doc = loads(json.dumps(raw))
    try:
        _scenario_from_fields(doc)
        builds = True
    except ModelError:
        builds = False
    assert (validate(doc) == []) == builds, validate(doc)
