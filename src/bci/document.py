"""Text-document format for scenarios, plus JSON/CSV export helpers.

A scenario document is a JSON object with fields:

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

Loading re-validates every model invariant and reports *all* violations,
not just the first.  Export writes floats through ``repr`` (shortest
round-trip form, at most 17 significant digits), so load(export(s)) is
bit-exact on every decimal field.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, is_dataclass, fields as dc_fields
from typing import Any, Mapping, Sequence

import numpy as np

from .model import DataTypeSpec, ModelError, Scenario, StrategyProfile

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "DocumentError",
    "DocumentParseError",
    "ScenarioDocument",
    "document_from_scenario",
    "validate",
    "to_scenario",
    "loads",
    "dumps",
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


@dataclass(frozen=True)
class ScenarioDocument:
    schema_version: int
    variables: tuple[tuple[str, int], ...]  # (name, cardinality)
    p_tx: tuple[float, ...]
    outcome: Mapping[str, Any]
    types: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # 1-based (C, D)
    lam: tuple[float, ...]
    c: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "variables": [
                {"name": n, "cardinality": k} for n, k in self.variables
            ],
            "p_tx": list(self.p_tx),
            "outcome": dict(self.outcome),
            "types": [{"C": list(c), "D": list(d)} for c, d in self.types],
            "lambda": list(self.lam),
            "c": self.c,
        }


def document_from_scenario(scenario: Scenario) -> ScenarioDocument:
    """Serialize a validated scenario; deterministic field order."""
    name_index = {n: i + 1 for i, n in enumerate(scenario.x_names)}
    if scenario.outcome_kind == "baseline":
        outcome: dict[str, Any] = {
            "kind": "baseline",
            "y_given_tx": [float(v) for v in scenario.kernel.ravel()],
        }
    else:
        outcome = {
            "kind": "consequential",
            "z_given_tx": [float(v) for v in scenario.kernel.ravel()],
            "beta": float(scenario.beta),
        }
    return ScenarioDocument(
        schema_version=SCHEMA_VERSION,
        variables=tuple((n, k) for n, k in zip(scenario.x_names, scenario.x_cards)),
        p_tx=tuple(float(v) for v in scenario.ptx.ravel()),
        outcome=outcome,
        types=tuple(
            (
                tuple(name_index[n] for n in spec.condition_set),
                tuple(name_index[n] for n in spec.data_set),
            )
            for spec in scenario.types
        ),
        lam=tuple(float(v) for v in scenario.lam),
        c=float(scenario.c),
    )


def _is_int(value: Any) -> bool:
    """A JSON integer: Python's bool is an int, but JSON true is not a number."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return _is_int(value) or isinstance(value, float)


def _parse_raw(raw: Mapping[str, Any]) -> ScenarioDocument:
    problems: list[str] = []

    def need(key: str, kind, where: Mapping[str, Any] = raw):
        if key not in where:
            problems.append(f"missing field {key!r}")
            return None
        value = where[key]
        if kind is float:
            if not _is_number(value):
                problems.append(f"field {key!r} must be a number")
                return None
            return float(value)
        if not isinstance(value, kind) or isinstance(value, bool):
            problems.append(f"field {key!r} has the wrong type")
            return None
        return value

    version = need("schema_version", int)
    variables: list[tuple[str, int]] = []
    raw_vars = need("variables", list)
    if raw_vars is not None:
        for i, entry in enumerate(raw_vars):
            if (
                not isinstance(entry, dict)
                or not isinstance(entry.get("name"), str)
                or not _is_int(entry.get("cardinality"))
            ):
                problems.append(f"variables[{i}] must be {{name, cardinality}}")
            else:
                variables.append((entry["name"], entry["cardinality"]))
    p_tx = need("p_tx", list)
    if p_tx is not None and not all(_is_number(v) for v in p_tx):
        problems.append("p_tx entries must be numbers")
        p_tx = None
    outcome = need("outcome", dict)
    kernel_key = None
    if outcome is not None:
        kind = outcome.get("kind")
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
    types: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    raw_types = need("types", list)
    if raw_types is not None:
        for i, entry in enumerate(raw_types):
            if (
                not isinstance(entry, dict)
                or not isinstance(entry.get("C"), list)
                or not isinstance(entry.get("D"), list)
                or not all(_is_int(v) for v in entry["C"] + entry["D"])
            ):
                problems.append(f"types[{i}] must be {{C: index list, D: index list}}")
            else:
                types.append((tuple(entry["C"]), tuple(entry["D"])))
    lam = need("lambda", list)
    if lam is not None and not all(_is_number(v) for v in lam):
        problems.append("lambda entries must be numbers")
        lam = None
    c = need("c", float)

    if problems:
        raise DocumentParseError("; ".join(problems))
    return ScenarioDocument(
        schema_version=int(version),
        variables=tuple(variables),
        p_tx=tuple(float(v) for v in p_tx),
        outcome=outcome,
        types=tuple(types),
        lam=tuple(float(v) for v in lam),
        c=float(c),
    )


def loads(text: str) -> ScenarioDocument:
    """Parse document text; raises DocumentParseError on malformed input."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DocumentParseError("document must be a JSON object")
    return _parse_raw(raw)


def dumps(doc: ScenarioDocument, indent: int | None = 2) -> str:
    return json.dumps(doc.to_dict(), indent=indent)


def to_scenario(doc: ScenarioDocument) -> Scenario:
    """Validated scenario, or DocumentError listing every violation in order."""
    problems: list[str] = []
    if doc.schema_version != SCHEMA_VERSION:
        problems.append(
            f"schema_version {doc.schema_version} unsupported (expected {SCHEMA_VERSION})"
        )
    names = [n for n, _ in doc.variables]
    if len(set(names)) != len(names):
        problems.append("variable names must be distinct")
    for n, k in doc.variables:
        if k < 1:
            problems.append(f"variable {n!r} needs cardinality >= 1")
    n_vars = len(doc.variables)
    n_cells = 2 * int(np.prod([k for _, k in doc.variables], dtype=np.int64)) if doc.variables else 2
    if len(doc.p_tx) != n_cells:
        problems.append(f"p_tx needs {n_cells} entries, got {len(doc.p_tx)}")
    # the mass and weight checks pass only on good values, so a NaN fails them
    if not all(v >= 0 for v in doc.p_tx):
        problems.append("p_tx entries must be nonnegative")
    total = float(sum(doc.p_tx))
    if not abs(total - 1.0) <= 1e-9:
        problems.append(f"p_tx must sum to 1 (got {total!r})")
    kernel_key = "y_given_tx" if doc.outcome.get("kind") == "baseline" else "z_given_tx"
    kernel = doc.outcome.get(kernel_key, ())
    if len(kernel) != n_cells:
        problems.append(f"outcome.{kernel_key} needs {n_cells} entries, got {len(kernel)}")
    if any(not 0.0 <= float(v) <= 1.0 for v in kernel):
        problems.append(f"outcome.{kernel_key} entries must lie in [0, 1]")
    if doc.outcome.get("kind") == "consequential":
        beta = float(doc.outcome.get("beta", -1.0))
        if not 0.0 < beta < 1.0:
            problems.append("consequential beta must lie in (0, 1)")
    if not doc.types:
        problems.append("at least one type is required")
    for i, (cond, data) in enumerate(doc.types):
        for idx in cond + data:
            if not 1 <= idx <= n_vars:
                problems.append(f"types[{i}] index {idx} out of range 1..{n_vars}")
        if len(set(cond)) != len(cond) or len(set(data)) != len(data):
            problems.append(f"types[{i}] has repeated indices")
        if not set(cond) <= set(data):
            problems.append(f"types[{i}]: C ⊄ D")
    if len(doc.lam) != len(doc.types):
        problems.append("lambda must have one weight per type")
    if not all(v >= 0 for v in doc.lam):
        problems.append("lambda weights must be nonnegative")
    if doc.lam and not abs(sum(doc.lam) - 1.0) <= 1e-9:
        problems.append("lambda not on simplex")
    if not 0.0 < doc.c < 1.0:
        problems.append("c must lie in (0, 1)")
    if not problems:
        # structural checks passed; let the model layer catch anything deeper
        try:
            return _build_scenario(doc)
        except (ModelError, ValueError) as exc:
            problems.append(str(exc))
    raise DocumentError(problems)


def _build_scenario(doc: ScenarioDocument) -> Scenario:
    names = tuple(n for n, _ in doc.variables)
    cards = tuple(k for _, k in doc.variables)
    shape = (2,) + cards
    ptx = np.array(doc.p_tx, dtype=float).reshape(shape)
    kernel_key = "y_given_tx" if doc.outcome["kind"] == "baseline" else "z_given_tx"
    kernel = np.array([float(v) for v in doc.outcome[kernel_key]], dtype=float).reshape(shape)
    types = tuple(
        DataTypeSpec(
            tuple(names[i - 1] for i in sorted(cond)),
            tuple(names[i - 1] for i in sorted(data)),
        )
        for cond, data in doc.types
    )
    if doc.outcome["kind"] == "baseline":
        return Scenario(names, cards, ptx, kernel, types, doc.lam, doc.c)
    return Scenario(
        names, cards, ptx, kernel, types, doc.lam, doc.c,
        outcome_kind="consequential", beta=float(doc.outcome["beta"]),
    )


def validate(doc: ScenarioDocument) -> list[str]:
    """Every invariant violation in the document, in a stable order."""
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
        arr = np.asarray(entry, dtype=float)
        want = scenario.sigma_shape(i)
        if arr.shape != want:
            raise DocumentParseError(
                f"profile table {i} has shape {arr.shape}, expected {want}"
            )
        sigmas.append(arr)
    return StrategyProfile(tuple(sigmas))


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
    if isinstance(obj, ScenarioDocument):
        return obj.to_dict()
    if isinstance(obj, Scenario):
        return document_from_scenario(obj).to_dict()
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
    Cell values serialize through repr for floats (bit-exact round-trip).
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
            v = row.get(col, "")
            if isinstance(v, (bool, np.bool_)):
                out.append(str(bool(v)).lower())
            elif isinstance(v, (float, np.floating)):
                out.append(repr(float(v)))
            elif isinstance(v, (int, np.integer)):
                out.append(str(int(v)))
            else:
                out.append(str(v))
        writer.writerow(out)
    return buf.getvalue()
