"""Import discipline: numpy is the only runtime dependency, and the engine
never imports the modules that are views over it."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bci"
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
