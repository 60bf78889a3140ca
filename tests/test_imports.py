"""Import discipline: numpy is the only runtime dependency, the engine never
imports the modules that are views over it, and every layer boundary the
benchmark traces still exists and returns what its counters read."""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import bci.cli
import bci.worstcase
from bci.scenarios import example_3_1

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bci"
THIRD_PARTY = {"numpy"}
ABOVE_ENGINE = {"bci.causal", "bci.equilibrium", "bci.worstcase", "bci.cli"}


def imported_modules(path: Path) -> set[str]:
    """Every module a source file imports, relative imports as ``bci.<name>``."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "bci" if node.level else node.module
            if node.level and node.module:
                base += "." + node.module
            if base == "bci":
                out.update(f"bci.{alias.name}" for alias in node.names)
            else:
                out.add(base)
    return out


def test_package_imports_only_stdlib_numpy_and_itself():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        for name in imported_modules(path):
            top = name.split(".")[0]
            assert top in sys.stdlib_module_names or top in THIRD_PARTY | {"bci"}, (
                path.name, name,
            )


def test_engine_imports_no_module_built_on_it():
    assert "bci.model" in imported_modules(SRC / "_engine.py")
    assert not imported_modules(SRC / "_engine.py") & ABOVE_ENGINE


def own_functions(module):
    """Functions and methods (properties included) that ``module`` defines."""
    for obj in vars(module).values():
        obj = inspect.unwrap(obj) if callable(obj) else obj
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            for attr in vars(obj).values():
                for fn in (attr, getattr(attr, "__func__", None), getattr(attr, "func", None),
                           getattr(attr, "fget", None)):
                    if inspect.isfunction(fn):
                        yield fn


def test_no_function_takes_a_tolerance():
    # the engine owns the tie band: ``CompiledScenario.tie_tol`` reads it once
    # per compiled scenario, and nothing passes it around
    checked = 0
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__main__":
            continue
        module = importlib.import_module("bci" if path.stem == "__init__" else f"bci.{path.stem}")
        for fn in own_functions(module):
            assert not {"tol", "tie_tol"} & set(inspect.signature(fn).parameters), fn
            checked += 1
    assert checked > 100


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_boundary_names_a_callable():
    # perfbench patches these (module, function) pairs by name; a renamed
    # boundary would otherwise surface only under ``perfbench/run.py --trace 1``
    tracing = load_tracing()
    assert tracing.BOUNDARIES
    for layer, mod_name, attr, _ in tracing.BOUNDARIES:
        assert mod_name in tracing.MODULES, layer
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), (layer, attr)


def test_traced_boundaries_read_what_they_return(capsys):
    # the counters unpack pinned return shapes (four values from
    # ``_dynamics_batch``); a changed shape would otherwise surface only
    # under ``perfbench/run.py --trace 1``
    tracing = load_tracing()
    tracer = tracing.Tracer()
    start = perf_counter()
    undo = tracer.install()
    try:
        bci.worstcase.verified_equilibria(example_3_1(), np.random.default_rng(0))
        argv = ["solve", "-b", "example_3_1", "--inits", "1", "--format", "json"]
        assert bci.cli.main(argv) == 0
    finally:
        tracing.unpatch(undo)
    capsys.readouterr()
    metrics = tracer.layer_metrics(1, perf_counter() - start)
    dyn = {
        key: metrics[f"equilibrium.dynamics_batch.{key}"]
        for key in ("starts", "converged", "cycled", "capped")
    }
    assert dyn["starts"] > 0 and dyn["cycled"] == 0
    assert dyn["capped"] == dyn["starts"] - dyn["converged"]
