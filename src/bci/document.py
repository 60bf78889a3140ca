"""Text-document format for scenarios, plus JSON/CSV export helpers.

A scenario document is a JSON object, held as the dict ``json`` reads it
into, with fields:

- ``schema_version``: currently 1
- ``variables``: list of ``{"name": str, "cardinality": int}`` in declared order
- ``p_tx``: flat list of cell masses, row-major over ``[t, x1, ..., xK]``
  (t is the slowest axis, the last declared variable the fastest)
- ``outcome``: ``{"kind": "baseline", "y_given_tx": flat list}`` or
  ``{"kind": "consequential", "z_given_tx": flat list, "beta": float}``,
  the flat list row-major over the same ``[t, x1, ..., xK]`` axes
- ``types``: list of ``{"C": [...], "D": [...]}`` with 1-based variable
  indices into ``variables``
- ``lambda``: list of type weights
- ``c``: taste-mismatch cost

Worked index-order example with variables x1 (cardinality 2) and x2
(cardinality 3): ``p_tx`` has 2*2*3 = 12 entries ordered

    (t=0,x1=0,x2=0), (t=0,x1=0,x2=1), (t=0,x1=0,x2=2),
    (t=0,x1=1,x2=0), (t=0,x1=1,x2=1), (t=0,x1=1,x2=2),
    (t=1,x1=0,x2=0), ... , (t=1,x1=1,x2=2)

Loading reports every violation at once.  The format checks its own field
kinds (``loads``, ``to_scenario`` and ``validate`` each run that check),
schema version, list lengths and 1-based indices; every value rule is
``model.scenario_violations``.  ``export_json`` writes a document, floats
through ``repr`` (shortest round-trip form, at most 17 significant digits),
so load(export(s)) is bit-exact on every decimal field.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import is_dataclass, fields as dc_fields
from typing import Any, Mapping, Sequence

import numpy as np

from .model import DataTypeSpec, Scenario, StrategyProfile, scenario_violations

SCHEMA_VERSION = 1

_FLOAT_MAX = float(np.finfo(np.float64).max)

__all__ = [
    "SCHEMA_VERSION",
    "DocumentError",
    "DocumentParseError",
    "document_from_scenario",
    "validate",
    "to_scenario",
    "loads",
    "load_scenario",
    "profile_from_document",
    "to_jsonable",
    "export_json",
    "export_csv",
]


class DocumentParseError(ValueError):
    """The text is not a well-formed document (bad JSON / wrong shapes)."""


class DocumentError(ValueError):
    """A parsed document violates model invariants; carries all of them."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def document_from_scenario(scenario: Scenario) -> dict[str, Any]:
    """The scenario's document, a JSON-ready dict with deterministic field order."""
    name_index = {n: i + 1 for i, n in enumerate(scenario.x_names)}
    kernel = [float(v) for v in scenario.kernel.ravel()]
    if scenario.outcome_kind == "baseline":
        outcome: dict[str, Any] = {"kind": "baseline", "y_given_tx": kernel}
    else:
        outcome = {"kind": "consequential", "z_given_tx": kernel, "beta": float(scenario.beta)}
    return {
        "schema_version": SCHEMA_VERSION,
        "variables": [
            {"name": n, "cardinality": k} for n, k in zip(scenario.x_names, scenario.x_cards)
        ],
        "p_tx": [float(v) for v in scenario.ptx.ravel()],
        "outcome": outcome,
        "types": [
            {
                "C": [name_index[n] for n in spec.condition_set],
                "D": [name_index[n] for n in spec.data_set],
            }
            for spec in scenario.types
        ],
        "lambda": [float(v) for v in scenario.lam],
        "c": float(scenario.c),
    }


def _is_int(value: Any) -> bool:
    """A JSON integer: Python's bool is an int, but JSON true is not a number."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    """A JSON number that a float holds: an integer past 1.8e308 is not one."""
    return isinstance(value, float) or (_is_int(value) and abs(value) <= _FLOAT_MAX)


def _check_kinds(doc: Any) -> None:
    """Raise ``DocumentParseError`` listing every field of the wrong kind."""
    if not isinstance(doc, dict):
        raise DocumentParseError("document must be a JSON object")
    problems: list[str] = []

    def need(key: str, kind) -> Any:
        if key not in doc:
            problems.append(f"missing field {key!r}")
            return None
        value = doc[key]
        if kind is float:
            if not _is_number(value):
                problems.append(f"field {key!r} must be a number")
        elif not isinstance(value, kind) or isinstance(value, bool):
            problems.append(f"field {key!r} has the wrong type")
            return None
        return value

    need("schema_version", int)
    for i, entry in enumerate(need("variables", list) or ()):
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("name"), str)
            or not _is_int(entry.get("cardinality"))
        ):
            problems.append(f"variables[{i}] must be {{name, cardinality}}")
    p_tx = need("p_tx", list)
    if p_tx is not None and not all(_is_number(v) for v in p_tx):
        problems.append("p_tx entries must be numbers")
    outcome = need("outcome", dict)
    if outcome is not None:
        kind = outcome.get("kind")
        kernel_key = None
        if kind == "baseline":
            kernel_key = "y_given_tx"
        elif kind == "consequential":
            kernel_key = "z_given_tx"
            if not _is_number(outcome.get("beta")):
                problems.append("consequential outcome needs a numeric beta")
        else:
            problems.append("outcome.kind must be 'baseline' or 'consequential'")
        if kernel_key is not None and not isinstance(outcome.get(kernel_key), list):
            problems.append(f"outcome.{kernel_key} must be a flat list")
        elif kernel_key is not None and not all(_is_number(v) for v in outcome[kernel_key]):
            problems.append(f"outcome.{kernel_key} entries must be numbers")
    for i, entry in enumerate(need("types", list) or ()):
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("C"), list)
            or not isinstance(entry.get("D"), list)
            or not all(_is_int(v) for v in entry["C"] + entry["D"])
        ):
            problems.append(f"types[{i}] must be {{C: index list, D: index list}}")
    lam = need("lambda", list)
    if lam is not None and not all(_is_number(v) for v in lam):
        problems.append("lambda entries must be numbers")
    need("c", float)
    if problems:
        raise DocumentParseError("; ".join(problems))


def loads(text: str) -> dict[str, Any]:
    """Parse document text; raises DocumentParseError on malformed input."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentParseError(f"not valid JSON: {exc}") from exc
    _check_kinds(doc)
    return doc


def to_scenario(doc: dict[str, Any]) -> Scenario:
    """Validated scenario, or an error: ``DocumentParseError`` for a field of
    the wrong kind, else ``DocumentError`` listing every violation, the
    format's own first, then the model's.  The model gets only the tables of
    the right length and each type's in-range names without repeats, so a
    bad list is reported once, in the document's words."""
    _check_kinds(doc)
    problems: list[str] = []
    if doc["schema_version"] != SCHEMA_VERSION:
        problems.append(
            f"schema_version {doc['schema_version']} unsupported (expected {SCHEMA_VERSION})"
        )
    names = tuple(v["name"] for v in doc["variables"])
    cards = tuple(v["cardinality"] for v in doc["variables"])
    # counted in Python ints, so a huge cardinality neither overflows nor wraps
    n_cells = 2 * int(np.prod(cards, dtype=object))
    outcome = doc["outcome"]
    kind = outcome["kind"]
    kernel_key = "y_given_tx" if kind == "baseline" else "z_given_tx"
    tables = []
    for label, values in (("p_tx", doc["p_tx"]), (f"outcome.{kernel_key}", outcome[kernel_key])):
        table = None
        if len(values) != n_cells:
            problems.append(f"{label} needs {n_cells} entries, got {len(values)}")
        else:
            try:
                table = np.array([float(v) for v in values]).reshape((2, *cards))
            except ValueError:  # a cardinality below 1, which the model reports
                pass
        tables.append(table)

    def names_at(indices: list[int]) -> tuple[str, ...]:
        # without repeats: two indices name one variable only where the
        # variable names repeat, which the model reports
        return tuple(dict.fromkeys(names[k - 1] for k in sorted(indices) if 1 <= k <= len(names)))

    for i, entry in enumerate(doc["types"]):
        cond, data = entry["C"], entry["D"]
        for k in cond + data:
            if not 1 <= k <= len(names):
                problems.append(f"types[{i}] index {k} out of range 1..{len(names)}")
        if len(set(cond)) != len(cond) or len(set(data)) != len(data):
            problems.append(f"types[{i}] has repeated indices")
    types = [(names_at(entry["C"]), names_at(entry["D"])) for entry in doc["types"]]
    lam = tuple(float(v) for v in doc["lambda"])
    beta = float(outcome["beta"]) if kind == "consequential" else 0.0
    args = (names, cards, *tables, types, lam, float(doc["c"]), kind, beta)
    problems += scenario_violations(*args)
    if problems:
        raise DocumentError(problems)
    return _build_scenario(args)


def _build_scenario(args: tuple) -> Scenario:
    """The scenario of ``scenario_violations``-style arguments that passed it."""
    names, cards, ptx, kernel, types, *rest = args
    return Scenario(names, cards, ptx, kernel, tuple(DataTypeSpec(c, d) for c, d in types), *rest)


def validate(doc: dict[str, Any]) -> list[str]:
    """Every invariant violation in the document, in a stable order; a field
    of the wrong kind raises ``DocumentParseError``."""
    try:
        to_scenario(doc)
    except DocumentError as exc:
        return exc.violations
    return []


def load_scenario(text: str) -> Scenario:
    return to_scenario(loads(text))


def profile_from_document(scenario: Scenario, raw: Any) -> StrategyProfile:
    """Parse a profile document: a list with one 2-row table per type.

    Each entry is ``[[row for taste 0], [row for taste 1]]``, rows over the
    type's condition cells row-major in declared variable order.
    """
    if isinstance(raw, dict) and "sigmas" in raw:
        raw = raw["sigmas"]
    if not isinstance(raw, list) or len(raw) != scenario.n_types:
        raise DocumentParseError(
            f"profile must list one table per type ({scenario.n_types})"
        )
    sigmas = []
    for i, entry in enumerate(raw):
        want = scenario.sigma_shape(i)
        if not _number_table(entry, want):
            raise DocumentParseError(f"profile table {i} must be a table of numbers shaped {want}")
        sigmas.append(np.array(entry, dtype=float))
    return StrategyProfile(tuple(sigmas))


def _number_table(value: Any, shape: tuple[int, ...]) -> bool:
    """Nested lists of JSON numbers, exactly ``shape``."""
    if not shape:
        return _is_number(value)
    return (
        isinstance(value, list)
        and len(value) == shape[0]
        and all(_number_table(v, shape[1:]) for v in value)
    )


# -- generic export -----------------------------------------------------------


def to_jsonable(obj: Any) -> Any:
    """Recursively convert reports/tables/arrays into JSON-ready values."""
    if obj is None or isinstance(obj, (bool, int, str, float)):
        return obj
    # dicts and lists make up most of every payload; they go before the
    # slower checks (the ABC Mapping one above all)
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return to_jsonable(obj.tolist())
    if isinstance(obj, Scenario):
        return document_from_scenario(obj)
    if isinstance(obj, StrategyProfile):
        return [to_jsonable(np.asarray(s)) for s in obj.sigmas]
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dc_fields(obj)}
    if isinstance(obj, Mapping):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return [to_jsonable(v) for v in sorted(obj)]
    return str(obj)


def export_json(obj: Any, indent: int | None = 2) -> str:
    return json.dumps(to_jsonable(obj), indent=indent, allow_nan=True)


def export_csv(rows: Sequence[Mapping[str, Any]], columns: Sequence[str] | None = None) -> str:
    """Long-format CSV: header row always present, one row per entry.

    Column order: ``columns`` if given, else first-seen order across rows.
    Cell values serialize through repr for floats (bit-exact round-trip);
    ``None`` and a missing value are both an empty cell.
    """
    if columns is None:
        seen: dict[str, None] = {}
        for row in rows:
            for key in row:
                seen.setdefault(key, None)
        columns = list(seen)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        out = []
        for col in columns:
            v = row.get(col)
            if v is None:
                out.append("")
            elif isinstance(v, (bool, np.bool_)):
                out.append(str(bool(v)).lower())
            elif isinstance(v, (float, np.floating)):
                out.append(repr(float(v)))
            elif isinstance(v, (int, np.integer)):
                out.append(str(int(v)))
            else:
                out.append(str(v))
        writer.writerow(out)
    return buf.getvalue()
