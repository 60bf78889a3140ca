"""Spans at the layer boundaries of ``bci``, recorded from outside the package.

Each layer boundary is a function of the package.  :meth:`Tracer.install`
replaces that function, in every ``bci`` module that binds the name, with a
wrapper that records a span (name, start, end, parent span, op id) and a few
work counters.  Modules bind many of these names with ``from .x import y``, so
patching only the defining module would miss most calls.  Spans stay in
memory; :meth:`Tracer.dump` writes them when the run ends and
:meth:`Tracer.layer_metrics` turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from time import perf_counter
from typing import Any, Callable

# Modules searched for bindings of each wrapped function.
MODULES = (
    "bci",
    "bci.model",
    "bci.causal",
    "bci._engine",
    "bci.equilibrium",
    "bci.worstcase",
    "bci.document",
    "bci.cli",
)


def _active_profiles(scenario) -> int:
    """Pure profiles over the scenario's active taste cells: 2^cells."""
    cells = sum(int((scenario.taste_cell_mass(i) > 0).sum()) for i in range(scenario.n_types))
    return 1 << cells


def _scenario_key(scenario) -> tuple:
    return (
        scenario.x_cards,
        scenario.types,
        scenario.lam,
        scenario.c,
        scenario.beta,
        scenario.ptx.tobytes(),
        scenario.kernel.tobytes(),
    )


def _dynamics_stats(tracer, args, out) -> dict[str, float]:
    _, converged, cycled, iters = out
    starts = int(iters.shape[0])
    n_conv, n_cyc = int(converged.sum()), int(cycled.sum())
    return {
        "starts": starts,
        "converged": n_conv,
        "cycled": n_cyc,
        "capped": starts - n_conv - n_cyc,
        "start_iters": int(iters.sum()),
        # start-iterations the batch loop carried, finished starts included
        "loop_slots": starts * int(iters.max()) if starts else 0,
    }


def _rungs_stats(tracer, args, out) -> dict[str, float]:
    return {"profiles": int(out[0].size)}


def _effects_stats(tracer, args, out) -> dict[str, float]:
    return {"profiles": math.prod(args[1][0].shape[:-2])}


def _compile_stats(tracer, args, out) -> dict[str, float]:
    tracer.scenarios.add(_scenario_key(args[0]))
    return {}


def _passed_stats(tracer, args, out) -> dict[str, float]:
    return {"passed": int(out.passed)}


def _equilibria_stats(tracer, args, out) -> dict[str, float]:
    return {"profiles": _active_profiles(args[0]), "found": len(out)}


def _bytes_stats(tracer, args, out) -> dict[str, float]:
    return {"bytes": len(out.encode("utf-8"))}


# (layer name, defining module, function name, counter function)
BOUNDARIES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli.main", "bci.cli", "main", None),
    ("document.export", "bci.document", "export_json", _bytes_stats),
    ("document.export", "bci.document", "export_csv", _bytes_stats),
    ("worstcase.search_max_loss", "bci.worstcase", "search_max_loss", None),
    ("worstcase.verified_equilibria", "bci.worstcase", "verified_equilibria", _equilibria_stats),
    ("equilibrium.enumerate_pure_equilibria", "bci.equilibrium", "enumerate_pure_equilibria",
     _equilibria_stats),
    ("equilibrium.dynamics_batch", "bci.equilibrium", "_dynamics_batch", _dynamics_stats),
    ("equilibrium.certify_equilibrium", "bci.equilibrium", "certify_equilibrium", _passed_stats),
    ("equilibrium.verify_limit", "bci.equilibrium", "verify_limit", _passed_stats),
    ("equilibrium.verify_eps_equilibrium", "bci.equilibrium", "verify_eps_equilibrium", None),
    ("engine.check_rungs", "bci._engine", "check_rungs", _rungs_stats),
    ("engine.profile_effects", "bci._engine", "profile_effects", _effects_stats),
    ("engine.apply_compiled_trembles", "bci._engine", "apply_compiled_trembles", None),
    ("engine.compile_scenario", "bci._engine", "compile_scenario", _compile_stats),
    ("causal.delta_table", "bci.causal", "delta_table", None),
    ("model.welfare", "bci.model", "welfare_loss", None),
    ("model.welfare", "bci.model", "error_probability", None),
)

LAYERS = tuple(dict.fromkeys(name for name, _, _, _ in BOUNDARIES))


def patch(fn: Callable, replacement: Callable) -> list[tuple[Any, str, Callable]]:
    """Bind ``replacement`` wherever a ``bci`` module binds ``fn``; return the undo list."""
    undo = []
    for mod_name in MODULES:
        mod = sys.modules[mod_name]
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, fn))
    return undo


def unpatch(undo: list[tuple[Any, str, Callable]]) -> None:
    for mod, attr, fn in reversed(undo):
        setattr(mod, attr, fn)


class Tracer:
    """In-memory span recorder; spans accumulate over the traced passes."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # one row per span: [name index, start, end, parent row or -1, op id, counters]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.scenarios: set[tuple] = set()

    def wrap(self, name: str, fn: Callable, counters: Callable | None) -> Callable:
        if name not in self.names:
            self.names.append(name)
        name_idx = self.names.index(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a layer calling itself (delta_table over all types) is one span
            if stack and spans[stack[-1]][0] == name_idx:
                return fn(*args, **kwargs)
            row = [name_idx, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(row)
            stack.append(len(spans) - 1)
            row[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                row[2] = perf_counter()
                stack.pop()
            if counters is not None:
                row[5] = counters(self, args, out)
            return out

        return traced

    def install(self) -> list[tuple[Any, str, Callable]]:
        undo = []
        for name, mod_name, attr, counters in BOUNDARIES:
            fn = getattr(sys.modules[mod_name], attr)
            undo += patch(fn, self.wrap(name, fn, counters))
        return undo

    def layer_metrics(self, passes: int, wall_s: float) -> dict[str, float]:
        """Per-pass calls, self time and counters per layer, keyed ``<layer>.<metric>``.

        ``passes`` is the number of traced passes the spans cover and
        ``wall_s`` their total wall time, the base of the dynamics share.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        agg = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in LAYERS}
        for row, (name_idx, start, end, _, _, counters) in enumerate(self.spans):
            entry = agg[self.names[name_idx]]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[row]
            entry["total_s"] += end - start
            for key, value in (counters or {}).items():
                entry[key] = entry.get(key, 0) + value
        for entry in agg.values():
            for key, value in entry.items():
                # passes repeat the same work, so counts divide exactly
                entry[key] = value // passes if isinstance(value, int) else value / passes

        out: dict[str, float] = {}
        for name in LAYERS:
            out[f"{name}.calls"] = agg[name]["calls"]
            out[f"{name}.self_s"] = agg[name]["self_s"]
        dyn = agg["equilibrium.dynamics_batch"]
        for key in ("starts", "converged", "cycled", "capped", "start_iters"):
            out[f"equilibrium.dynamics_batch.{key}"] = dyn.get(key, 0)
        slots = dyn.get("loop_slots", 0)
        out["equilibrium.dynamics_batch.idle_frac"] = 1.0 - dyn["start_iters"] / slots if slots else 0.0
        # inclusive: the engine calls dynamics makes count as dynamics time
        out["equilibrium.dynamics_batch.share"] = dyn["total_s"] * passes / wall_s
        out["engine.check_rungs.profiles"] = agg["engine.check_rungs"].get("profiles", 0)
        eff = agg["engine.profile_effects"]
        out["engine.profile_effects.profiles"] = eff.get("profiles", 0)
        out["engine.profile_effects.us_per_profile"] = (
            1e6 * eff["total_s"] / eff["profiles"] if eff.get("profiles") else 0.0
        )
        comp = agg["engine.compile_scenario"]
        out["engine.compile_scenario.per_scenario"] = (
            comp["calls"] / len(self.scenarios) if self.scenarios else 0.0
        )
        for name in ("equilibrium.certify_equilibrium", "equilibrium.verify_limit"):
            out[f"{name}.passed"] = agg[name].get("passed", 0)
        out["document.export.bytes"] = agg["document.export"].get("bytes", 0)
        for name in ("equilibrium.enumerate_pure_equilibria", "worstcase.verified_equilibria"):
            out[f"{name}.profiles"] = agg[name].get("profiles", 0)
            out[f"{name}.found"] = agg[name].get("found", 0)
        out["trace.spans"] = len(self.spans) // passes
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op", "counters"],
                    "names": self.names,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )
