"""Import discipline: numpy is the only runtime dependency, the engine never
imports the modules that are views over it, no module imports another's
private names but the engine's, and every layer boundary the benchmark
traces still exists and returns what its counters read.  Dataclasses that
hold arrays keep identity equality."""

import ast
import contextlib
import dataclasses
import functools
import importlib.util
import inspect
import io
import re
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

import bci._engine
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


def test_no_module_imports_another_modules_private_name():
    # a module's underscore names are its own; the engine is the one shared
    # private layer, imported whole or by name
    crossings = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level and node.module != "_engine":
                crossings += [
                    (path.name, node.module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_") and alias.name != "_engine"
                ]
    assert crossings == []


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


def test_dataclasses_that_hold_arrays_compare_by_identity():
    # a generated ``__eq__`` compares fields with ==, which raises on arrays,
    # and a frozen dataclass's generated ``__hash__`` raises on them too; a
    # dataclass whose fields name ndarray keeps object's identity rules
    holders = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__main__":
            continue
        module = importlib.import_module("bci" if path.stem == "__init__" else f"bci.{path.stem}")
        for obj in vars(module).values():
            if not (inspect.isclass(obj) and dataclasses.is_dataclass(obj)):
                continue
            if obj.__module__ != module.__name__:
                continue
            if any("ndarray" in str(f.type) for f in dataclasses.fields(obj)):
                holders.append(obj.__qualname__)
                assert obj.__eq__ is object.__eq__, obj.__qualname__
                assert obj.__hash__ is object.__hash__, obj.__qualname__
    assert {"Scenario", "StrategyProfile", "EquilibriumReport", "CompiledScenario"} <= set(holders)


def load_bench(name: str, monkeypatch=None):
    """A module of ``perfbench/``, loaded from its file; with ``monkeypatch``
    it is also importable by name until the test ends."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:
        monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_names_a_callable():
    # perfbench patches these (module, function) pairs by name; a renamed
    # boundary would otherwise surface only under ``perfbench/run.py --trace 1``
    tracing = load_bench("tracing")
    assert tracing.BOUNDARIES
    for layer, mod_name, attr, _ in tracing.BOUNDARIES:
        assert mod_name in tracing.MODULES, layer
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), (layer, attr)


def test_traced_boundaries_read_what_they_return(capsys):
    # the counters unpack pinned return shapes (four values from
    # ``_dynamics_batch``); a changed shape would otherwise surface only
    # under ``perfbench/run.py --trace 1``
    tracing = load_bench("tracing")
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


@pytest.mark.parametrize("name", ["search", "enumerate", "cli"])
def test_each_workload_reaches_its_boundaries(monkeypatch, name):
    # one op's worth of the workload (20 restarts, the corpus's first
    # scenario, one CLI script) reaches every boundary the benchmark expects
    # of it and none it rules out
    tracing = load_bench("tracing", monkeypatch)  # workloads imports it by name
    workloads = load_bench("workloads", monkeypatch)
    workload = workloads.WORKLOADS[name](bci, 1, 0.0)
    if name == "enumerate":
        workload.corpus = workload.corpus[:1]
    elif name == "cli":
        workload.script = workload.script[: len(workload.script) // workload.scripts]
    tracer = tracing.Tracer()
    start = perf_counter()
    undo = tracer.install()
    try:
        out = workload.run_pass(workloads.Ops())
    finally:
        tracing.unpatch(undo)
    assert out.outputs and not any(isinstance(o, Exception) for o in out.outputs)
    metrics = tracer.layer_metrics(1, perf_counter() - start)
    assert [b for b in workload.expected if metrics[f"{b}.calls"] == 0] == []
    assert [b for b in workload.absent if metrics[f"{b}.calls"] != 0] == []
    # certification reads its caller's compiled scenario: an enumeration
    # compiles once, and a search evaluation twice, because
    # ``verified_equilibria`` hands ``enumerate_pure_equilibria`` the scenario;
    # the CLI script compiles 31 times, once per distinct scenario per
    # command, over 22 distinct scenarios
    per_scenario = {"search": 2, "enumerate": 1, "cli": 31 / 22}[name]
    assert metrics["engine.compile_scenario.per_scenario"] == per_scenario


def test_each_cli_command_compiles_each_scenario_once(monkeypatch):
    # the compiled scenario is handed down a command, never rebuilt: over
    # the first CLI script of the benchmark's seed 1, each command compiles
    # each distinct scenario it reads exactly once
    tracing = load_bench("tracing", monkeypatch)  # workloads imports it by name
    workload = load_bench("workloads", monkeypatch).Cli(bci, 1, 0.0)
    script = workload.script[: len(workload.script) // workload.scripts]
    real = bci._engine.compile_scenario
    keys = []

    def spy(scenario):
        keys.append(tracing._scenario_key(scenario))
        return real(scenario)

    monkeypatch.setattr(bci._engine, "compile_scenario", spy)
    total = 0
    for argv in script:
        keys.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert bci.cli.main(argv) == 0, argv
        assert len(keys) == len(set(keys)), argv
        total += len(keys)
    assert total == 31


def referenced_names(path: Path) -> dict[str, set[str]]:
    """Each name a source file reads (a bare name or an attribute), mapped to
    the top-level definitions it is read in ("" for module level)."""
    out: dict[str, set[str]] = {}
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        where = getattr(top, "name", "")
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.setdefault(node.id, set()).add(where)
            elif isinstance(node, ast.Attribute):
                out.setdefault(node.attr, set()).add(where)
    return out


def package_callers(*skip: str) -> dict[str, set[str]]:
    """``referenced_names`` merged over the package's source files, less the
    files named in ``skip``."""
    callers: dict[str, set[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name not in skip:
            for name, where in referenced_names(path).items():
                callers.setdefault(name, set()).update(where)
    return callers


def test_every_public_name_has_a_caller_or_a_readme_line():
    # dead public API cannot come back quietly: each exported name is read
    # somewhere in the package outside its own definition and the package's
    # re-export, or the README documents it
    callers = package_callers("__init__.py")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = [
        name
        for name in bci.__all__
        if not callers.get(name, set()) - {name}
        and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert unused == []
    # nor can dead engine code, such as an adapter or a view only tests call:
    # each module-level function of the engine is read somewhere in the
    # package outside its own definition (tests and the benchmark do not count)
    callers = package_callers()
    engine = [
        name for name, obj in vars(bci._engine).items()
        if inspect.isfunction(obj) and obj.__module__ == "bci._engine"
    ]
    assert len(engine) > 20
    assert [name for name in engine if not callers.get(name, set()) - {name}] == []


def test_every_public_method_of_an_exported_class_has_a_reader():
    # nor can a dead method or property of an exported class: each public
    # one is read as an attribute somewhere in the package or the benchmark
    # (tests do not count), or the README names it in code, after a dot or
    # a backtick
    reads = set()
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    kinds = (property, functools.cached_property, classmethod, staticmethod)
    checked, unread = 0, []
    for name in bci.__all__:
        cls = getattr(bci, name)
        if not inspect.isclass(cls):
            continue
        for attr, value in vars(cls).items():
            if attr.startswith("_") or not (inspect.isfunction(value) or isinstance(value, kinds)):
                continue
            checked += 1
            if attr not in reads and not re.search(rf"[.`]{re.escape(attr)}\b", readme):
                unread.append(f"{name}.{attr}")
    assert checked >= 20
    assert unread == []
