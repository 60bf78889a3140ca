"""Command-line surface: scenario documents in, reports and tables out.

Subcommands: ``delta``, ``verify``, ``solve``, ``enumerate``, ``order``,
``scenario run <builtin>``, ``worstcase``, ``sweep``.  Results print as
human-readable text by default; ``--format json`` / ``--format csv`` switch
to machine output on stdout.  Exit codes: 0 success, 1 invariant violation,
2 solver non-convergence, 3 parse error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from . import _engine as eng
from . import document as docmod
from . import scenarios as builtins_mod
from . import worstcase as wc
from .causal import delta_table
from .equilibrium import (
    EquilibriumError,
    EquilibriumReport,
    best_response_dynamics,
    certify_equilibrium,
    enumerate_pure_equilibria,
    verify_eps_equilibrium,
)
from .model import ModelError, Scenario, StrategyProfile
from .ordering import (
    OrderError,
    build_relation,
    is_complete,
    is_quasitransitive,
    layer_partition,
)
from .tables import TableError

__all__ = ["main"]


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse's default error() exits with status 2, which this tool
    # reserves for solver non-convergence; usage problems are parse errors
    def error(self, message: str):
        raise CliError(message, 3)


# -- builtin registry ----------------------------------------------------------


@dataclass(frozen=True)
class _Builtin:
    build: Callable[..., Scenario]
    params: tuple[tuple[str, Callable[[str], Any], Any], ...]
    runner: str  # "verify" | "solve" | "witness"
    canonical: Callable[[Scenario], StrategyProfile] | None = None
    witness: Callable[..., wc.WitnessInstance] | None = None
    witness_params: tuple[str, ...] = ()


def _lambdas(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _flag_bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


BUILTINS: dict[str, _Builtin] = {
    "example_1_1_confounder": _Builtin(
        build=builtins_mod.example_1_1_confounder,
        params=(("c", float, 0.5),),
        runner="verify",
        canonical=builtins_mod.example_3_1_profile,
    ),
    "example_1_1_collider": _Builtin(
        build=builtins_mod.example_1_1_collider,
        params=(("c", float, 0.5),),
        runner="verify",
        canonical=builtins_mod.example_3_1_profile,
    ),
    "example_3_1": _Builtin(
        build=builtins_mod.example_3_1,
        params=(
            ("beta", float, 0.8),
            ("q", float, 0.8),
            ("c", float, 0.5),
            ("blind_second_type", _flag_bool, False),
        ),
        runner="verify",
        canonical=builtins_mod.example_3_1_profile,
    ),
    "example_4_1": _Builtin(
        build=builtins_mod.example_4_1,
        params=(("gamma", float, 0.3), ("c", float, 0.5)),
        runner="solve",
    ),
    "prop2_incomplete": _Builtin(
        build=builtins_mod.prop2_incomplete,
        params=(("eps", float, 0.01), ("lambda1", float, 0.5), ("c", float, 0.9)),
        runner="witness",
        witness=wc.witness_incomplete,
        witness_params=("eps", "lambda1", "c"),
    ),
    "prop2_cycle": _Builtin(
        build=builtins_mod.prop2_cycle,
        params=(("eps", float, 0.01), ("lambdas", _lambdas, (1 / 3, 1 / 3, 1 / 3)), ("c", float, 0.9)),
        runner="witness",
        witness=wc.witness_cycle,
        witness_params=("eps", "lambdas", "c"),
    ),
    "prop4": _Builtin(
        build=builtins_mod.prop4,
        params=(
            ("gamma", float, 0.6),
            ("beta", float, 0.01),
            ("eps", float, 0.001),
            ("lambdas", _lambdas, (0.5, 0.5)),
            ("c", float, 0.9),
        ),
        runner="witness",
        witness=wc.witness_incomplete_hetero,
        witness_params=("gamma", "beta", "eps", "lambdas", "c"),
    ),
    "prop5": _Builtin(
        build=builtins_mod.prop5,
        params=(("gamma", float, 0.5), ("eps", float, 0.001), ("c", float, 0.9)),
        runner="witness",
        witness=wc.witness_full_loss,
        witness_params=("gamma", "eps", "c"),
    ),
    "pandemic": _Builtin(
        build=builtins_mod.pandemic,
        params=(("q", float, 0.8), ("lambda1", float, 0.5), ("c", float, 0.3)),
        runner="verify",
        canonical=builtins_mod.pandemic_profile,
    ),
}

# prop4's eps feeds only its witness construction, never the scenario
_SCENARIO_PARAM_SKIP = {"prop4": ("eps",)}


def _build_builtin(name: str, values: dict[str, Any]) -> Scenario:
    spec = BUILTINS[name]
    skip = _SCENARIO_PARAM_SKIP.get(name, ())
    kwargs = {k: v for k, v in values.items() if k not in skip}
    return spec.build(**kwargs)


def _add_builtin_flags(parser: argparse.ArgumentParser) -> None:
    # raw strings here; each builtin converts its own parameters, and sweep
    # accepts start:stop:step ranges in the same slots
    seen = set()
    for spec in BUILTINS.values():
        for pname, _conv, _default in spec.params:
            if pname in seen:
                continue
            seen.add(pname)
            parser.add_argument("--" + pname.replace("_", "-"), dest=pname, type=str, default=None)


def _builtin_values(name: str, args: argparse.Namespace) -> dict[str, Any]:
    if name not in BUILTINS:
        raise CliError(
            f"unknown builtin {name!r} (choose from {', '.join(sorted(BUILTINS))})", 3
        )
    spec = BUILTINS[name]
    values: dict[str, Any] = {}
    for pname, conv, default in spec.params:
        raw = getattr(args, pname, None)
        if raw is None:
            values[pname] = default
        else:
            try:
                values[pname] = conv(raw)
            except ValueError as exc:
                raise CliError(f"bad value for --{pname.replace('_', '-')}: {exc}", 3)
    known = {p for p, _, _ in spec.params}
    for other_spec in BUILTINS.values():
        for pname, _, _ in other_spec.params:
            if pname not in known and getattr(args, pname, None) is not None:
                raise CliError(f"builtin {name!r} takes no --{pname.replace('_', '-')}", 3)
    return values


# -- scenario & profile sourcing ----------------------------------------------


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", 3)


def _resolve_scenario(args: argparse.Namespace) -> tuple[Scenario, str | None]:
    name = getattr(args, "builtin", None)
    path = getattr(args, "scenario", None)
    if (name is None) == (path is None):
        raise CliError("choose exactly one of --builtin NAME or --scenario FILE", 3)
    if name is not None:
        values = _builtin_values(name, args)
        return _build_builtin(name, values), name
    return docmod.load_scenario(_read_text(path)), None


_NAMED_PROFILES = ("canonical", "taste", "zero", "one", "covariate")


def _resolve_profile(scenario: Scenario, choice: str, builtin: str | None) -> StrategyProfile:
    if choice == "canonical":
        if builtin is not None and BUILTINS[builtin].canonical is not None:
            prof = BUILTINS[builtin].canonical(scenario)
        else:
            prof = StrategyProfile.matching(scenario)
    elif choice == "taste":
        prof = StrategyProfile.matching(scenario)
    elif choice == "zero":
        prof = StrategyProfile.constant(scenario, 0.0)
    elif choice == "one":
        prof = StrategyProfile.constant(scenario, 1.0)
    elif choice == "covariate":
        prof = builtins_mod.matching_on_own_covariate(scenario)
    else:
        try:
            raw = json.loads(_read_text(choice))
        except json.JSONDecodeError as exc:
            raise CliError(f"profile file is not valid JSON: {exc}", 3)
        prof = docmod.profile_from_document(scenario, raw)
    prof.conforms(scenario)
    return prof


# -- rendering ----------------------------------------------------------------


def _cell_label(scenario: Scenario, type_index: int, cell: tuple[int, ...]) -> str:
    names = scenario.c_names(type_index)
    if not names:
        return "()"
    return ",".join(f"{n}={v}" for n, v in zip(names, cell))


def _delta_payload(scenario: Scenario, profile: StrategyProfile) -> list[dict[str, Any]]:
    tables = delta_table(scenario, profile)
    out = []
    for i, tab in enumerate(tables):
        cells = []
        for cell in np.ndindex(tab.values.shape):
            cells.append(
                {
                    "cell": _cell_label(scenario, i, cell),
                    "delta": float(tab.values[cell]) if tab.defined[cell] else None,
                    "defined": bool(tab.defined[cell]),
                    "reachable": bool(tab.reachable[cell]),
                }
            )
        out.append({"type": i + 1, "cells": cells})
    return out


def _flat_rows(payload: Any) -> list[dict[str, Any]]:
    """Rows for CSV export: lists of dicts pass through, dicts flatten."""
    if isinstance(payload, list) and all(isinstance(r, dict) for r in payload):
        return payload

    flat: dict[str, Any] = {}

    def walk(prefix: str, value: Any) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(value, (list, tuple)):
            flat[prefix] = json.dumps(docmod.to_jsonable(value))
        else:
            flat[prefix] = value

    walk("", docmod.to_jsonable(payload))
    return [flat]


def _render_text(payload: Any, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(payload, dict):
        lines = []
        for k, v in payload.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
        return "\n".join(lines)
    if isinstance(payload, list):
        if all(not isinstance(v, (dict, list)) for v in payload):
            return f"{pad}[{', '.join(str(v) for v in payload)}]"
        lines = []
        for item in payload:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.append(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {item}")
        return "\n".join(lines) if lines else f"{pad}(none)"
    return f"{pad}{payload}"


def _emit(payload: Any, fmt: str, csv_rows: list[dict[str, Any]] | None = None) -> None:
    if fmt == "json":
        print(docmod.export_json(payload))
    elif fmt == "csv":
        rows = csv_rows if csv_rows is not None else _flat_rows(payload)
        print(docmod.export_csv(rows), end="")
    else:
        print(_render_text(docmod.to_jsonable(payload)))


def _report_payload(scenario: Scenario, report: EquilibriumReport) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "verdict": report.verdict,
        "eps": report.eps,
        "welfare_loss": report.welfare_loss,
        "error_probability": report.error_probability,
        "sup_gap": report.sup_gap,
    }
    if report.witness is not None:
        w = report.witness
        payload["witness"] = {
            "type": w.type_index + 1,
            "taste": w.taste,
            "cell": _cell_label(scenario, w.type_index, w.cell),
            "action": w.action,
            "played": w.played,
            "delta": w.delta,
            "score": w.score,
        }
    if report.undefined_cells:
        payload["undefined_cells"] = [
            {"type": u.type_index + 1, "taste": u.taste,
             "cell": _cell_label(scenario, u.type_index, u.cell)}
            for u in report.undefined_cells
        ]
    if report.ladder_trace:
        payload["ladder"] = [
            {"eps": r.eps, "passed": r.passed, "max_violation": r.max_violation}
            for r in report.ladder_trace
        ]
    return payload


# -- command handlers ----------------------------------------------------------


def _cmd_delta(args) -> int:
    scenario, builtin = _resolve_scenario(args)
    profile = _resolve_profile(scenario, args.profile, builtin)
    tables = _delta_payload(scenario, profile)
    if args.type is not None:
        if not 1 <= args.type <= scenario.n_types:
            raise CliError(f"--type must lie in 1..{scenario.n_types}", 3)
        tables = [tables[args.type - 1]]
    rows = [
        {"type": t["type"], **cell}
        for t in tables
        for cell in t["cells"]
    ]
    _emit({"deltas": tables}, args.format, rows)
    return 0


def _cmd_verify(args) -> int:
    scenario, builtin = _resolve_scenario(args)
    profile = _resolve_profile(scenario, args.profile, builtin)
    if args.limit:
        report = certify_equilibrium(scenario, profile)
    else:
        report = verify_eps_equilibrium(scenario, profile, args.eps_check)
    _emit(_report_payload(scenario, report), args.format)
    return 0


def _cmd_solve(args) -> int:
    scenario, builtin = _resolve_scenario(args)
    rng = np.random.default_rng(args.seed)
    inits: list[tuple[str, StrategyProfile]] = [
        ("taste", StrategyProfile.matching(scenario)),
        ("zero", StrategyProfile.constant(scenario, 0.0)),
        ("one", StrategyProfile.constant(scenario, 1.0)),
    ]
    for k in range(args.inits):
        sigmas = tuple(
            rng.random(scenario.sigma_shape(i)) for i in range(scenario.n_types)
        )
        inits.append((f"random{k}", StrategyProfile(sigmas)))
    runs = []
    equilibria = []
    seen: set[bytes] = set()
    any_converged = False
    for label, init in inits:
        result = best_response_dynamics(
            scenario, init, max_iters=args.max_iters, damping=args.damping
        )
        entry: dict[str, Any] = {
            "init": label,
            "status": result.status,
            "iterations": result.iterations,
        }
        if result.status == "converged":
            any_converged = True
            entry["verdict"] = result.report.verdict
            key = eng.profile_key(result.profile.sigmas)
            if result.report.verdict == "equilibrium_limit" and key not in seen:
                seen.add(key)
                equilibria.append(
                    {
                        "profile": docmod.to_jsonable(result.profile),
                        "verdict": result.report.verdict,
                        "welfare_loss": result.report.welfare_loss,
                        "error_probability": result.report.error_probability,
                    }
                )
        runs.append(entry)
    payload = {"runs": runs, "equilibria": equilibria}
    _emit(payload, args.format, equilibria if equilibria else [])
    return 0 if any_converged else 2


def _cmd_enumerate(args) -> int:
    scenario, builtin = _resolve_scenario(args)
    results = enumerate_pure_equilibria(scenario)
    rows = []
    out = []
    for prof, rep in results:
        row = {
            "profile": json.dumps(docmod.to_jsonable(prof)),
            "verdict": rep.verdict,
            "welfare_loss": rep.welfare_loss,
            "error_probability": rep.error_probability,
        }
        rows.append(row)
        out.append(
            {
                "profile": docmod.to_jsonable(prof),
                "verdict": rep.verdict,
                "welfare_loss": rep.welfare_loss,
                "error_probability": rep.error_probability,
            }
        )
    _emit({"count": len(out), "equilibria": out}, args.format, rows)
    return 0


_BARE_KEY = re.compile(r"([{,]\s*)([A-Za-z_][A-Za-z0-9_]*)(\s*:)")


def _tolerant_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    fixed = _BARE_KEY.sub(r'\1"\2"\3', text.replace("'", '"'))
    try:
        return json.loads(fixed)
    except json.JSONDecodeError as exc:
        raise CliError(f"cannot parse --types: {exc}", 3)


def _cmd_order(args) -> int:
    if args.types is not None:
        raw = _tolerant_json(args.types)
        if not isinstance(raw, list):
            raise CliError("--types must be a JSON list of {C, D} objects", 3)
        from .model import DataTypeSpec

        specs = []
        names = {}
        for entry in raw:
            if not isinstance(entry, dict) or "C" not in entry or "D" not in entry:
                raise CliError("--types entries must be {C: [...], D: [...]}", 3)
            for idx in list(entry["C"]) + list(entry["D"]):
                names[int(idx)] = f"x{int(idx)}"
            specs.append(
                (
                    tuple(f"x{int(i)}" for i in sorted(entry["C"])),
                    tuple(f"x{int(i)}" for i in sorted(entry["D"])),
                )
            )
        types = tuple(DataTypeSpec(c, d) for c, d in specs)
    else:
        scenario, _ = _resolve_scenario(args)
        types = scenario.types
    rel = build_relation(types)
    complete = is_complete(rel)
    quasi = is_quasitransitive(rel)
    payload: dict[str, Any] = {
        "n": rel.n,
        "matrix": docmod.to_jsonable(rel.matrix),
        "complete": complete,
        "quasitransitive": quasi,
        "relation": "complete" if complete else "incomplete",
    }
    if complete and quasi:
        part = layer_partition(rel)
        payload["layers"] = [sorted(int(i) + 1 for i in layer) for layer in part.layers]
    else:
        missing = "complete" if not complete else "quasitransitive"
        payload["layers"] = None
        payload["layer_error"] = f"relation is not {missing}: layer partition undefined"
    _emit(payload, args.format)
    return 0


def _witness_payload(witness: wc.WitnessInstance) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "claimed_verdict": witness.claimed_verdict,
        "claimed_loss": witness.claimed_loss,
        "claimed_error_probability": witness.claimed_error_probability,
        "profile": docmod.to_jsonable(witness.profile),
        "delta_annotations": [
            {
                "type": a.type_index + 1,
                "cell": list(a.cell),
                "value": a.value,
                "trembled": a.trembled,
            }
            for a in witness.delta_annotations
        ],
        "notes": witness.notes,
    }
    if witness.posterior_annotations:
        payload["posterior_annotations"] = dict(witness.posterior_annotations)
    return payload


def _cmd_scenario(args) -> int:
    if args.action != "run":
        raise CliError("the scenario command supports: scenario run <builtin>", 3)
    name = args.name
    values = _builtin_values(name, args)
    spec = BUILTINS[name]
    scenario = _build_builtin(name, values)
    payload: dict[str, Any] = {"builtin": name, "parameters": docmod.to_jsonable(values)}
    code = 0
    if spec.runner == "witness":
        witness = spec.witness(**{k: values[k] for k in spec.witness_params})
        report = wc.reverify(witness)
        payload["witness"] = _witness_payload(witness)
        payload["annotation_max_error"] = wc.check_annotations(witness)
        payload["report"] = _report_payload(scenario, report)
    elif spec.runner == "solve":
        result = best_response_dynamics(scenario, StrategyProfile.matching(scenario))
        payload["status"] = result.status
        payload["iterations"] = result.iterations
        payload["profile"] = docmod.to_jsonable(result.profile)
        if result.report is not None:
            payload["report"] = _report_payload(scenario, result.report)
        if result.status != "converged":
            code = 2
    else:
        profile = _resolve_profile(scenario, "canonical", name)
        report = verify_eps_equilibrium(scenario, profile, args.eps_check)
        payload["profile"] = docmod.to_jsonable(profile)
        payload["report"] = _report_payload(scenario, report)
    payload["scenario"] = docmod.document_from_scenario(scenario).to_dict()
    _emit(payload, args.format)
    return code


_WITNESSES: dict[str, tuple[Callable[..., wc.WitnessInstance], tuple[str, ...]]] = {
    "incomplete": (wc.witness_incomplete, ("eps", "lambda1", "c")),
    "cycle": (wc.witness_cycle, ("eps", "lambdas", "c")),
    "incomplete_hetero": (wc.witness_incomplete_hetero, ("gamma", "beta", "eps", "lambdas", "c")),
    "full_loss": (wc.witness_full_loss, ("gamma", "eps", "c")),
}

_WITNESS_DEFAULTS: dict[str, dict[str, Any]] = {
    "incomplete": {"eps": 0.01, "lambda1": 0.5, "c": 0.9},
    "cycle": {"eps": 0.01, "lambdas": (1 / 3, 1 / 3, 1 / 3), "c": 0.9},
    "incomplete_hetero": {
        "gamma": 0.6, "beta": 0.01, "eps": 0.001, "lambdas": (0.5, 0.5), "c": 0.9,
    },
    "full_loss": {"gamma": 0.5, "eps": 0.001, "c": 0.9},
}


def _cmd_worstcase(args) -> int:
    if args.mode == "witness":
        if args.name not in _WITNESSES:
            raise CliError(
                f"unknown witness {args.name!r} (choose from {', '.join(_WITNESSES)})", 3
            )
        builder, pnames = _WITNESSES[args.name]
        kwargs = dict(_WITNESS_DEFAULTS[args.name])
        for pname in pnames:
            raw = getattr(args, pname, None)
            if raw is not None:
                kwargs[pname] = _lambdas(raw) if pname == "lambdas" else float(raw)
        witness = builder(**kwargs)
        report = wc.reverify(witness)
        payload = {
            "witness": _witness_payload(witness),
            "annotation_max_error": wc.check_annotations(witness),
            "report": _report_payload(witness.scenario, report),
            "scenario": docmod.document_from_scenario(witness.scenario).to_dict(),
        }
        _emit(payload, args.format)
        return 0
    # search
    cfg = wc.SearchConfig(
        gamma=args.gamma,
        t_only_outcome=args.t_only_outcome,
        simple_types=not args.mixed_types,
        p_structure=args.structure,
        n_covariates=args.covariates,
        n_types=args.types,
        c=args.c,
        restarts=args.restarts,
        seed=args.seed,
        param_scale=args.param_scale,
        refine_rounds=args.refine_rounds,
        metric=args.metric,
    )
    best, trace = wc.search_max_loss(cfg)
    payload: dict[str, Any] = {
        "metric": cfg.metric,
        "best_loss": best.claimed_loss,
        "best_error_probability": best.claimed_error_probability,
        "best_profile": docmod.to_jsonable(best.profile),
        "evaluations": len(trace),
        "scenario": docmod.document_from_scenario(best.scenario).to_dict(),
    }
    if args.bound is not None:
        observed = (
            best.claimed_loss if cfg.metric == "welfare_loss"
            else best.claimed_error_probability
        )
        payload["bound"] = args.bound
        payload["observed"] = observed
        payload["violated"] = bool(observed > args.bound + 1e-9)
    _emit(payload, args.format)
    return 0


_RANGE = re.compile(r"^(-?[0-9.eE+]+):(-?[0-9.eE+]+):(-?[0-9.eE+]+)$")


def _sweep_values(text: str) -> list[float]:
    m = _RANGE.match(text)
    if m is None:
        return [float(text)]
    start, stop, step = (float(g) for g in m.groups())
    if step <= 0:
        raise CliError("sweep step must be positive", 3)
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    if count < 1:
        raise CliError(f"empty sweep range {text!r}", 3)
    return [start + k * step for k in range(count)]


def _cmd_sweep(args) -> int:
    name = args.name
    if name not in BUILTINS:
        raise CliError(
            f"unknown builtin {name!r} (choose from {', '.join(sorted(BUILTINS))})", 3
        )
    spec = BUILTINS[name]
    grids: list[tuple[str, list[Any]]] = []
    for pname, conv, default in spec.params:
        raw = getattr(args, pname, None)
        if raw is None:
            grids.append((pname, [default]))
        elif conv is float:
            grids.append((pname, _sweep_values(raw)))
        else:
            grids.append((pname, [conv(raw)]))
    rows: list[dict[str, Any]] = []
    param_names = [p for p, _ in grids]

    def run_point(values: dict[str, Any]) -> dict[str, Any]:
        row: dict[str, Any] = {
            p: (v if isinstance(v, (int, float, bool)) else str(v))
            for p, v in values.items()
        }
        try:
            scenario = _build_builtin(name, values)
        except ModelError:
            # grids legitimately cross feasibility boundaries; keep the row
            # so downstream plots see the hole instead of losing the sweep
            row["verdict"] = "infeasible"
            return row
        if spec.runner == "witness":
            builder, pnames = BUILTINS[name].witness, BUILTINS[name].witness_params
            witness = builder(**{k: values[k] for k in pnames})
            report = wc.reverify(witness)
            profile = witness.profile
        elif spec.runner == "solve":
            result = best_response_dynamics(scenario, StrategyProfile.matching(scenario))
            if result.status != "converged" or result.report is None:
                row["verdict"] = result.status
                return row
            report, profile = result.report, result.profile
        else:
            profile = _resolve_profile(scenario, "canonical", name)
            report = verify_eps_equilibrium(scenario, profile, args.eps_check)
        row["verdict"] = report.verdict
        row["welfare_loss"] = report.welfare_loss
        row["error_probability"] = report.error_probability
        for i, tab in enumerate(delta_table(scenario, profile)):
            for cell in np.ndindex(tab.values.shape):
                label = f"delta_{i + 1}({_cell_label(scenario, i, cell)})"
                row[label] = float(tab.values[cell]) if tab.defined[cell] else ""
        return row

    def recurse(k: int, acc: dict[str, Any]) -> None:
        if k == len(grids):
            rows.append(run_point(dict(acc)))
            return
        pname, values = grids[k]
        for v in values:
            acc[pname] = v
            recurse(k + 1, acc)
        # rows come out ordered by parameter values, outer to inner

    recurse(0, {})
    columns: list[str] = list(param_names)
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    if args.format == "json":
        print(docmod.export_json(rows))
    else:
        print(docmod.export_csv(rows, columns), end="")
    return 0


# -- parser wiring -------------------------------------------------------------


def _add_source_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--builtin", "-b", default=None)
    p.add_argument("--scenario", "-s", default=None, help="scenario document file, - for stdin")
    _add_builtin_flags(p)


def _add_format_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")


def _build_parser() -> _Parser:
    parser = _Parser(prog="bci", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("delta", help="perceived-effect tables for a profile")
    _add_source_args(p)
    p.add_argument("--profile", default="canonical",
                   help=f"one of {'/'.join(_NAMED_PROFILES)} or a JSON file")
    p.add_argument("--type", type=int, default=None, help="1-based type filter")
    _add_format_arg(p)
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("verify", help="check a profile as an (eps or limit) equilibrium")
    _add_source_args(p)
    p.add_argument("--profile", default="canonical")
    p.add_argument("--eps-check", type=float, default=0.01,
                   help="tremble size for the eps-equilibrium check")
    p.add_argument("--limit", action="store_true", help="certify as a limit instead")
    _add_format_arg(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve", help="best-reply dynamics from several starts")
    _add_source_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inits", type=int, default=8, help="extra random starts")
    p.add_argument("--damping", type=float, default=0.5)
    p.add_argument("--max-iters", type=int, default=1000)
    _add_format_arg(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("enumerate", help="all pure limit equilibria")
    _add_source_args(p)
    _add_format_arg(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("order", help="data-dominance relation and layers")
    p.add_argument("--types", default=None,
                   help='e.g. "[{C:[1],D:[1]},{C:[2],D:[2]}]" (1-based variables)')
    p.add_argument("--builtin", "-b", default=None)
    p.add_argument("--scenario", "-s", default=None)
    _add_builtin_flags(p)
    _add_format_arg(p)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("scenario", help="built-in scenarios")
    p.add_argument("action", choices=("run",))
    p.add_argument("name")
    _add_builtin_flags(p)
    p.add_argument("--eps-check", type=float, default=0.01)
    _add_format_arg(p)
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("worstcase", help="loss witnesses and max-loss search")
    wsub = p.add_subparsers(dest="mode", required=True)
    pw = wsub.add_parser("witness")
    pw.add_argument("name")
    for pname in ("eps", "lambda1", "gamma", "beta", "c", "lambdas"):
        pw.add_argument("--" + pname.replace("_", "-"), dest=pname, default=None)
    _add_format_arg(pw)
    pw.set_defaults(func=_cmd_worstcase)
    ps = wsub.add_parser("search")
    ps.add_argument("--gamma", type=float, default=None)
    ps.add_argument("--structure", choices=wc._P_STRUCTURES, default="complete_qt")
    ps.add_argument("--t-only-outcome", action="store_true")
    ps.add_argument("--mixed-types", action="store_true",
                    help="allow types that condition on less than their data")
    ps.add_argument("--covariates", type=int, default=2)
    ps.add_argument("--types", type=int, default=2)
    ps.add_argument("--c", type=float, default=0.9)
    ps.add_argument("--restarts", type=int, default=50)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--param-scale", type=float, default=2.0)
    ps.add_argument("--refine-rounds", type=int, default=15)
    ps.add_argument("--metric", choices=wc._METRICS, default="welfare_loss")
    ps.add_argument("--bound", type=float, default=None)
    _add_format_arg(ps)
    ps.set_defaults(func=_cmd_worstcase)

    p = sub.add_parser("sweep", help="grid over builtin parameters, long CSV out")
    p.add_argument("name")
    _add_builtin_flags(p)
    p.add_argument("--eps-check", type=float, default=0.01)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except docmod.DocumentParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except (docmod.DocumentError, ModelError, TableError, OrderError,
            EquilibriumError, wc.WorstCaseError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
