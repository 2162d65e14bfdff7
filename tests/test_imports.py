"""No mixar module imports scipy or a hashing module, reads the process
environment or adds floats with the builtin sum, every top-level import of
a mixar module is used there (the package re-exports nothing by import),
every public function has a caller in the package or is exported, every
dataclass field is read somewhere in the package, the evidence module
neither builds a model object nor recomputes theta*'s log terms, every
function the benchmark's traced run wraps still exists, and every
configuration key has a reader."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mixar"


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


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


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def imports_of(sources: dict[str, str], roots: set[str]) -> list[str]:
    """Every import of a module under one of the top-level names `roots`, at
    any depth of a module, as module:line."""
    return sorted(
        f"{module}:{node.lineno}"
        for module, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if (isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] in roots for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in roots)
    )


def test_no_module_imports_scipy():
    # at run time the package needs only numpy; scipy is a test dependency
    assert imports_of(package_sources(), {"scipy"}) == []


def test_guard_flags_a_scipy_import_inside_a_function():
    sources = package_sources()
    sources["io"] += "\n\ndef _scipy_version():\n    import scipy.special\n    return scipy.__version__\n"
    sources["summary"] = "from scipy.stats import norm\n" + sources["summary"]
    line = sources["io"].count("\n") - 1
    assert imports_of(sources, {"scipy"}) == [f"io:{line}", "summary:1"]


HASHING = {"hashlib", "hmac", "secrets", "ssl", "_hashlib"}


def test_no_module_imports_a_hashing_module():
    # the command line blocks _hashlib to keep OpenSSL out, which costs nothing
    # only while mixar hashes nothing
    assert imports_of(package_sources(), HASHING) == []


def test_guard_flags_a_hashing_import_inside_a_function():
    sources = package_sources()
    sources["io"] += "\n\ndef _digest(data):\n    import hashlib\n    return hashlib.sha256(data)\n"
    sources["cli"] = "from hmac import compare_digest\n" + sources["cli"]
    sources["sampler"] = "import os, secrets\n" + sources["sampler"]
    line = sources["io"].count("\n") - 1
    assert imports_of(sources, HASHING) == ["cli:1", f"io:{line}", "sampler:1"]


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(sources: dict[str, str]) -> list[str]:
    """Reads of the process environment, as module:line: an attribute named
    like os.environ or os.getenv (or their bytes forms), or one of them
    imported from os by name."""
    return sorted(
        f"{module}:{node.lineno}"
        for module, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT)
        or (isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(alias.name in ENVIRONMENT for alias in node.names))
    )


def test_no_module_reads_the_environment():
    # every setting comes from the config file or --set, so the manifest's echo records it
    assert environment_reads(package_sources()) == []


def test_guard_flags_an_environment_read():
    sources = package_sources()
    sources["io"] += "\n\ndef _home():\n    return os.environ.get('HOME')\n"
    sources["cli"] = "from os import getenv\n" + sources["cli"]
    sources["sampler"] = "import os\nDEBUG = os.getenv('MIXAR_DEBUG')\n" + sources["sampler"]
    line = sources["io"].count("\n")
    assert environment_reads(sources) == ["cli:1", f"io:{line}", "sampler:2"]


EIGENSOLVERS = {"eig", "eigvals"}


def eigensolver_calls(sources: dict[str, str]) -> list[str]:
    """Calls of numpy's general eigensolvers, and imports of them by name, as module:line,
    outside `stability.spectral_radius`.

    The sweep decides stability without eigenvalues at p <= 2; a radius is
    computed only where a number is reported, through `spectral_radius`.
    """
    found = []

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{owner}.{child.name}" if owner else child.name
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in EIGENSOLVERS and (module, owner) != ("stability", "spectral_radius"):
                    found.append(f"{module}:{child.lineno}")
            elif isinstance(child, ast.ImportFrom) and any(
                alias.name in EIGENSOLVERS for alias in child.names
            ):
                found.append(f"{module}:{child.lineno}")
            visit(child, module, inner)

    for module, text in sources.items():
        visit(ast.parse(text), module, "")
    return sorted(found)


def test_no_eigensolver_outside_spectral_radius():
    assert eigensolver_calls(package_sources()) == []


def test_guard_flags_an_eigensolver_call():
    sources = package_sources()
    sources["sampler"] += (
        "\n\ndef _radius(m):\n    return abs(np.linalg.eigvals(m)).max()\n"
    )
    sources["stability"] += (
        "\n\ndef _eig_radius(m):\n    from numpy.linalg import eig\n    return eig(m)[0]\n"
    )
    last = {module: sources[module].count("\n") for module in ("sampler", "stability")}
    assert eigensolver_calls(sources) == [
        f"sampler:{last['sampler']}",
        f"stability:{last['stability'] - 1}",  # the import
        f"stability:{last['stability']}",  # the call
    ]


def builtin_sum_calls(sources: dict[str, str]) -> list[str]:
    """Calls of the builtin sum, as module:line.

    The builtin sum of floats is compensated from Python 3.12 on, so a
    result built with it would move with the interpreter.  Floats are added
    with `model.left_sum`, whose order is fixed, and counts with
    `list.count`.
    """
    return sorted(
        f"{module}:{node.lineno}"
        for module, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
    )


def test_no_builtin_sum_of_floats():
    assert builtin_sum_calls(package_sources()) == []


def test_guard_flags_a_builtin_sum():
    sources = package_sources()
    sources["evidence"] += "\n\ndef _total(parts):\n    return sum(parts.values())\n"
    sources["io"] = "HEADER_WIDTH = sum([3, 4])\n" + sources["io"]
    line = sources["evidence"].count("\n")
    assert builtin_sum_calls(sources) == [f"evidence:{line}", "io:1"]


# theta* is a chain state with one memo of its log terms and fitted AR parts;
# evidence reads that memo and never rebuilds the model or recomputes them
EVIDENCE_UNCALLED = {"MARSpec", "_log_terms", "fitted_ar", "log_likelihood"}


def calls_named(text: str, names: set[str]) -> list[str]:
    """Calls in a module's source of the names given, bare or as an attribute, as name:line."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in names:
                found.append(f"{name}:{node.lineno}")
    return sorted(found)


def test_evidence_builds_no_spec_and_recomputes_no_terms():
    assert calls_named(package_sources()["evidence"], EVIDENCE_UNCALLED) == []


def test_guard_flags_a_spec_or_terms_call_in_evidence():
    text = package_sources()["evidence"] + (
        "\n\ndef _ll(state, series):\n"
        "    spec = model.MARSpec(state.weights, state.shifts, (state.phi[0],), state.scales)\n"
        "    return log_likelihood(spec, series)\n"
    )
    last = text.count("\n")
    assert calls_named(text, EVIDENCE_UNCALLED) == [
        f"MARSpec:{last - 1}", f"log_likelihood:{last}",
    ]


def uncalled_functions(sources: dict[str, str]) -> list[str]:
    """Top-level public functions, as module.name, that `mixar.__all__` does not
    export and that no module of `sources` names (as a variable or an attribute)."""
    import mixar

    trees = {module: ast.parse(text) for module, text in sources.items()}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and node.name not in mixar.__all__ and node.name not in named
    )


def test_every_public_function_has_a_caller():
    # a function that only the tests call is a second surface to keep in step
    assert uncalled_functions(package_sources()) == []


def test_guard_flags_a_function_nothing_calls():
    sources = package_sources()
    sources["model"] += "\n\ndef component_mean(spec, k):\n    return spec.shifts[k - 1]\n"
    assert uncalled_functions(sources) == ["model.component_mean"]


def _is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name == "dataclass"


def unread_fields(sources: dict[str, str]) -> list[str]:
    """Dataclass fields, as module.Class.field, whose name no attribute load in
    `sources` reads.  `RunConfig` has its own guard below and is left out.

    Names are matched without their owner, so a field is taken as read when
    any object's attribute of that name is: ChainOutput.seed, ChainOutput.burn_in
    or ChainState.iteration would pass unseen, since config.seed,
    hyper.burn_in and other attributes carry those names.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        f"{module}.{cls.name}.{item.target.id}"
        for module, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name != "RunConfig"
        and any(_is_dataclass_decorator(d) for d in cls.decorator_list)
        for item in cls.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        and item.target.id not in read
    )


def test_every_dataclass_field_has_a_reader():
    # a field that only the tests read is a second surface to keep in step
    assert unread_fields(package_sources()) == []


def test_guard_flags_a_field_nothing_reads():
    sources = package_sources()
    sources["stability"] += "\n\n@dataclass(frozen=True)\nclass Verdict:\n    matrix_dim: int\n"
    assert unread_fields(sources) == ["stability.Verdict.matrix_dim"]


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


CONFIG, CLI = SRC / "config.py", SRC / "cli.py"


def _reads(tree: ast.AST, owner: str) -> set[str]:
    """Names read as attributes of the variable `owner` anywhere in tree."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name) and node.value.id == owner
    }


def orphan_config_keys(config_src: str, cli_src: str) -> list[str]:
    """`RunConfig` fields that nothing reads, given the sources of config.py and cli.py.

    A reader is a field of a settings class that `RunConfig._shared` feeds,
    a `config.<name>` read in either source, or a `self.<name>` read in a
    `RunConfig` method.
    """
    from mixar import config

    config_tree = ast.parse(config_src)
    (run_config,) = (
        node for node in config_tree.body
        if isinstance(node, ast.ClassDef) and node.name == "RunConfig"
    )
    keys = [node.target.id for node in run_config.body if isinstance(node, ast.AnnAssign)]
    read = _reads(config_tree, "config") | _reads(ast.parse(cli_src), "config")
    read |= _reads(run_config, "self")
    for node in ast.walk(run_config):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_shared"):
            read |= {f.name for f in dataclasses.fields(getattr(config, node.args[0].id))}
    return [key for key in keys if key not in read]


def test_every_config_key_has_a_reader():
    # `_shared` passes on only the fields a settings object has, so a key
    # whose object field is gone would otherwise be accepted and ignored
    assert orphan_config_keys(CONFIG.read_text(), CLI.read_text()) == []


def test_guard_flags_a_key_nothing_reads():
    source = CONFIG.read_text()
    anchor = "    seed: int = 0\n"
    assert anchor in source
    planted = source.replace(anchor, anchor + "    literal_death_density: bool = False\n")
    assert orphan_config_keys(planted, CLI.read_text()) == ["literal_death_density"]
