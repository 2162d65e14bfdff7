"""Every top-level import of a mixar module is used there (or re-exported by __all__),
and every function the benchmark's traced run wraps still exists."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mixar"


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in used and name not in exported
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path) == []


def test_guard_flags_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import math\nimport numpy as np\nfrom dataclasses import dataclass, field\n"
        "x = np.zeros(1)\n\n@dataclass\nclass A:\n    y: int = 0\n"
    )
    assert unused_imports(module) == ["field (line 4)", "math (line 2)"]


TRACE_RUN = Path(__file__).resolve().parents[1] / "benchmarks" / "trace_run.py"


def traced_names() -> dict[str, tuple[str, ...]]:
    """The `WRAPPED` table of the benchmark's traced run, read without running it."""
    for node in ast.parse(TRACE_RUN.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACE_RUN} defines no WRAPPED table")


def test_traced_functions_exist():
    # the per-layer benchmark metrics wrap these names; a rename silently zeroes them
    missing = [
        f"{layer}.{name}"
        for layer, names in traced_names().items()
        for name in names
        if not callable(getattr(importlib.import_module(f"mixar.{layer}"), name, None))
    ]
    assert missing == []


def test_forecast_density_keeps_the_traced_arguments():
    from mixar.forecast import predictive_density_fixed

    params = inspect.signature(predictive_density_fixed).parameters
    assert {"spec", "horizon", "mode", "mc_paths"} <= set(params)
