"""Command-line surface: scenario documents in, reports and tables out.

Subcommands: ``delta``, ``verify``, ``solve``, ``enumerate``, ``order``,
``scenario run <builtin>``, ``worstcase``, ``sweep``.  Results print as
human-readable text by default; ``--format json`` / ``--format csv`` switch
to machine output on stdout.  Exit codes: 0 success, 1 invariant violation,
2 solver non-convergence, 3 parse error.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import json
import math
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
    _dynamics_batch,
    _dynamics_results,
    _dynamics_starts,
    best_response_dynamics,
    certify_equilibrium,
    enumerate_pure_equilibria,
    verify_eps_equilibrium,
)
from .model import DataTypeSpec, ModelError, Scenario, StrategyProfile
from .ordering import (
    OrderError,
    build_relation,
    is_complete,
    is_quasitransitive,
    layer_partition,
)

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


def _lambdas(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _flag_bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# a builtin flag's parser, by the type of its default
_PARSERS: dict[type, Callable[[str], Any]] = {float: float, bool: _flag_bool, tuple: _lambdas}


@functools.cache
def _defaults(fn: Callable[..., Any]) -> dict[str, Any]:
    """Parameter names and defaults of ``fn``, in signature order."""
    return {p.name: p.default for p in inspect.signature(fn).parameters.values()}


@dataclass(frozen=True)
class _Builtin:
    """A builtin scenario and its job (see ``_run_builtin``)."""

    build: Callable[..., Scenario]
    canonical: Callable[[Scenario], StrategyProfile] | None = None
    # takes every parameter of ``build``; the job re-verifies the witness it builds
    witness: Callable[..., wc.WitnessInstance] | None = None

    @property
    def params(self) -> dict[str, Any]:
        """Flag names and defaults, in order: the witness's signature, else the builder's."""
        return _defaults(self.witness or self.build)


BUILTINS: dict[str, _Builtin] = {
    "example_1_1_confounder": _Builtin(
        builtins_mod.example_1_1_confounder, canonical=builtins_mod.example_3_1_profile
    ),
    "example_1_1_collider": _Builtin(
        builtins_mod.example_1_1_collider, canonical=builtins_mod.example_3_1_profile
    ),
    "example_3_1": _Builtin(builtins_mod.example_3_1, canonical=builtins_mod.example_3_1_profile),
    "example_4_1": _Builtin(builtins_mod.example_4_1),
    "prop2_incomplete": _Builtin(builtins_mod.prop2_incomplete, witness=wc.witness_incomplete),
    "prop2_cycle": _Builtin(builtins_mod.prop2_cycle, witness=wc.witness_cycle),
    "prop4": _Builtin(builtins_mod.prop4, witness=wc.witness_incomplete_hetero),
    "prop5": _Builtin(builtins_mod.prop5, witness=wc.witness_full_loss),
    "pandemic": _Builtin(builtins_mod.pandemic, canonical=builtins_mod.pandemic_profile),
}

# witness name -> the builtin that holds its builder and parameters
_WITNESSES = {
    spec.witness.__name__.removeprefix("witness_"): name
    for name, spec in BUILTINS.items()
    if spec.witness is not None
}


def _build_builtin(name: str, values: dict[str, Any]) -> Scenario:
    """Builtin ``name``'s scenario from the values of the parameters its builder takes."""
    build = BUILTINS[name].build
    return build(**{pname: values[pname] for pname in _defaults(build)})


def _flag(pname: str) -> str:
    return "--" + pname.replace("_", "-")


def _add_builtin_flags(
    parser: argparse.ArgumentParser, specs: Sequence[_Builtin] | None = None
) -> None:
    # raw strings here; _builtin_values converts them for the chosen builtin
    params = (p for spec in specs or BUILTINS.values() for p in spec.params)
    for pname in dict.fromkeys(params):
        parser.add_argument(_flag(pname), dest=pname, default=None)


MAX_SWEEP_POINTS = 10_000


def _sweep_values(text: str) -> list[float]:
    """One float, or the points of a ``start:stop:step`` range."""
    parts = [float(part) for part in text.split(":")]
    if len(parts) not in (1, 3):
        raise ValueError(f"expected a number or start:stop:step, got {text!r}")
    if not np.all(np.isfinite(parts)):
        raise ValueError(f"sweep values must be finite, got {text!r}")
    if len(parts) == 1:
        return parts
    start, stop, step = parts
    if step <= 0:
        raise CliError("sweep step must be positive", 3)
    count = np.floor((stop - start) / step + 1e-9) + 1
    if count < 1:
        raise CliError(f"empty sweep range {text!r}", 3)
    if count > MAX_SWEEP_POINTS:
        raise CliError(f"sweep range {text!r} has more than {MAX_SWEEP_POINTS} points", 3)
    return [start + k * step for k in range(int(count))]


def _builtin_values(name: str, args: argparse.Namespace, grid: bool = False) -> dict[str, Any]:
    """Builtin ``name``'s parameter values from its flags, defaults filled in.

    With ``grid`` every value is a list of sweep points and float flags also
    take ``start:stop:step`` ranges.  Unknown builtins, bad values and the
    flags of other builtins are parse errors.
    """
    if name not in BUILTINS:
        raise CliError(
            f"unknown builtin {name!r} (choose from {', '.join(sorted(BUILTINS))})", 3
        )
    params = BUILTINS[name].params
    values: dict[str, Any] = {}
    for pname, default in params.items():
        raw = getattr(args, pname, None)
        if raw is None:
            points = [default]
        else:
            conv = _PARSERS[type(default)]
            try:
                points = _sweep_values(raw) if grid and conv is float else [conv(raw)]
            except ValueError as exc:
                raise CliError(f"bad value for {_flag(pname)}: {exc}", 3)
        values[pname] = points if grid else points[0]
    for spec in BUILTINS.values():
        for pname in spec.params:
            if pname not in params and getattr(args, pname, None) is not None:
                raise CliError(f"builtin {name!r} takes no {_flag(pname)}", 3)
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


def _equilibrium_entry(profile: StrategyProfile, report: EquilibriumReport) -> dict[str, Any]:
    # the CSV profile cell is str() of the nested float lists, the same text as JSON
    return {
        "profile": docmod.to_jsonable(profile),
        "verdict": report.verdict,
        "welfare_loss": report.welfare_loss,
        "error_probability": report.error_probability,
    }


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
    if args.inits < 0:
        raise CliError("--inits must be nonnegative", 3)
    if args.max_iters < 1:
        raise CliError("--max-iters must be at least 1", 3)
    scenario, _ = _resolve_scenario(args)
    cs = eng.compile_scenario(scenario)
    labels, starts = _dynamics_starts(cs, np.random.default_rng(args.seed), args.inits)
    batch = _dynamics_batch(cs, starts, args.max_iters)
    runs = []
    equilibria = []
    seen: set[bytes] = set()
    any_converged = False
    for label, result in zip(labels, _dynamics_results(scenario, cs, batch)):
        entry: dict[str, Any] = {
            "init": label,
            "status": result.status,
            "iterations": result.iterations,
        }
        if result.status == "converged":
            any_converged = True
            entry["verdict"] = result.report.verdict
            key = eng.profile_key(eng.flatten_profile(cs, result.profile))
            if result.report.verdict == "equilibrium_limit" and key not in seen:
                seen.add(key)
                equilibria.append(_equilibrium_entry(result.profile, result.report))
        runs.append(entry)
    _emit({"runs": runs, "equilibria": equilibria}, args.format, equilibria)
    return 0 if any_converged else 2


def _cmd_enumerate(args) -> int:
    scenario, _ = _resolve_scenario(args)
    equilibria = [_equilibrium_entry(p, r) for p, r in enumerate_pure_equilibria(scenario)]
    _emit({"count": len(equilibria), "equilibria": equilibria}, args.format, equilibria)
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
        specs = []
        for entry in raw:
            if not isinstance(entry, dict) or "C" not in entry or "D" not in entry:
                raise CliError("--types entries must be {C: [...], D: [...]}", 3)
            sets = (entry["C"], entry["D"])
            if not all(
                isinstance(v, list) and all(type(i) is int and i >= 1 for i in v) for v in sets
            ):
                raise CliError("cannot parse --types: C and D must be lists of integers >= 1", 3)
            specs.append(tuple(tuple(f"x{i}" for i in sorted(v)) for v in sets))
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
        payload["posterior_annotations"] = {a.label: a.value for a in witness.posterior_annotations}
    return payload


def _run_builtin(
    name: str, values: dict[str, Any], eps_check: float | None, skip_infeasible: bool = False
) -> tuple[Scenario, StrategyProfile, EquilibriumReport | None, Any] | None:
    """Run builtin ``name``'s job at ``values``.

    A witness builtin re-verifies its witness, a builtin with a canonical
    profile checks it at ``eps_check``, and the rest run the dynamics from
    the taste-matching start.  Returns the scenario, the profile, its report
    (None when the dynamics do not converge) and the witness or dynamics
    result behind them (None for the eps check).  With ``skip_infeasible``,
    parameters the builder rejects give None instead of an error.
    """
    spec = BUILTINS[name]
    try:
        if spec.witness is not None:
            witness = spec.witness(**values)
        else:
            scenario = _build_builtin(name, values)
    except ModelError:
        if skip_infeasible:
            return None
        raise
    if spec.witness is not None:
        return witness.scenario, witness.profile, wc.reverify(witness), witness
    if spec.canonical is not None:
        profile = _resolve_profile(scenario, "canonical", name)
        return scenario, profile, verify_eps_equilibrium(scenario, profile, eps_check), None
    result = best_response_dynamics(scenario, StrategyProfile.matching(scenario))
    return scenario, result.profile, result.report, result


def _emit_run(args, name: str, values: dict[str, Any], payload: dict[str, Any]) -> int:
    """Run builtin ``name``'s job and emit its output after ``payload``'s entries."""
    scenario, profile, report, job = _run_builtin(name, values, getattr(args, "eps_check", None))
    if isinstance(job, wc.WitnessInstance):
        payload["witness"] = _witness_payload(job)
        payload["annotation_max_error"] = wc.check_annotations(job)
    else:
        if job is not None:
            payload["status"] = job.status
            payload["iterations"] = job.iterations
        payload["profile"] = docmod.to_jsonable(profile)
    if report is not None:
        payload["report"] = _report_payload(scenario, report)
    payload["scenario"] = docmod.document_from_scenario(scenario).to_dict()
    _emit(payload, args.format)
    return 0 if report is not None else 2


def _cmd_scenario(args) -> int:
    values = _builtin_values(args.name, args)
    head = {"builtin": args.name, "parameters": docmod.to_jsonable(values)}
    return _emit_run(args, args.name, values, head)


def _cmd_worstcase(args) -> int:
    if args.mode == "witness":
        if args.name not in _WITNESSES:
            raise CliError(
                f"unknown witness {args.name!r} (choose from {', '.join(_WITNESSES)})", 3
            )
        name = _WITNESSES[args.name]
        return _emit_run(args, name, _builtin_values(name, args), {})
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
    checked = None if args.bound is None else wc.check_bound(cfg, args.bound)
    best, trace = wc.search_max_loss(cfg) if checked is None else (checked.best, checked.trace)
    payload: dict[str, Any] = {
        "metric": cfg.metric,
        "best_loss": best.claimed_loss,
        "best_error_probability": best.claimed_error_probability,
        "best_profile": docmod.to_jsonable(best.profile),
        "evaluations": len(trace),
        "scenario": docmod.document_from_scenario(best.scenario).to_dict(),
    }
    if checked is not None:
        payload["bound"] = checked.bound_value
        payload["observed"] = checked.observed
        payload["violated"] = checked.violated
    _emit(payload, args.format)
    return 0


def _cmd_sweep(args) -> int:
    grid = _builtin_values(args.name, args, grid=True)
    n_points = math.prod(len(axis) for axis in grid.values())
    if n_points > MAX_SWEEP_POINTS:
        raise CliError(f"sweep grid has {n_points} points, more than {MAX_SWEEP_POINTS}", 3)
    rows: list[dict[str, Any]] = []
    # rows come out ordered by parameter values, outer to inner
    for point in itertools.product(*grid.values()):
        values = dict(zip(grid, point))
        row: dict[str, Any] = {
            p: (v if isinstance(v, (int, float, bool)) else str(v)) for p, v in values.items()
        }
        rows.append(row)
        run = _run_builtin(args.name, values, args.eps_check, skip_infeasible=True)
        if run is None:
            # grids legitimately cross feasibility boundaries; keep the row
            # so downstream plots see the hole instead of losing the sweep
            row["verdict"] = "infeasible"
            continue
        scenario, profile, report, job = run
        if report is None:
            row["verdict"] = job.status
            continue
        row["verdict"] = report.verdict
        row["welfare_loss"] = report.welfare_loss
        row["error_probability"] = report.error_probability
        for table in _delta_payload(scenario, profile):
            for cell in table["cells"]:
                value = "" if cell["delta"] is None else cell["delta"]
                row[f"delta_{table['type']}({cell['cell']})"] = value
    # export_csv orders columns by first appearance: the parameters first
    _emit(rows, args.format)
    return 0


# -- parser wiring -------------------------------------------------------------


def _add_source_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--builtin", "-b", default=None)
    p.add_argument("--scenario", "-s", default=None, help="scenario document file, - for stdin")
    _add_builtin_flags(p)


def _add_format_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")


# Built on the first call and reused: parsing leaves no state in the parser,
# so every call starts from the declared defaults.
@functools.cache
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
    _add_builtin_flags(pw, [BUILTINS[name] for name in _WITNESSES.values()])
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
    except (docmod.DocumentError, ModelError, OrderError, EquilibriumError,
            wc.WorstCaseError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
