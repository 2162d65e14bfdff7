"""Run configuration: a flat key=value file plus command-line overrides.

Every command reads the same schema; unknown keys are rejected up front and
all values are validated before any sampling starts, so a typo cannot burn
an hour of chain time.  Booleans accept true/false/1/0/yes/no, lists are
comma separated, and "none" clears an optional value.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_int(text: str) -> int:
    return int(text.strip())

def _parse_float(text: str) -> float:
    return float(text.strip())

def _parse_str(text: str) -> str:
    return text.strip()


def _optional(parser):
    def parse(text: str):
        if text.strip().lower() in ("none", ""):
            return None
        return parser(text)

    return parse


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma separated list of integers")
    return tuple(int(p) for p in parts)


def _parse_str_tuple(text: str) -> tuple[str, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma separated list of names")
    return tuple(parts)


@dataclass
class RunConfig:
    """Parameters for every subcommand, mirrored into the sampler objects."""

    # paths and identity
    input: str | None = None
    draws: str | None = None
    output_dir: str = "."
    seed: int = 0

    # model shape
    g: int = 2
    orders: tuple[int, ...] | None = None
    p_max: int = 5

    # chain lengths
    n_iter: int = 20_000
    burn_in: int = 10_000
    pilot_iters: int = 2_000

    # prior and proposal settings
    a: float = 0.2
    c: float = 2.0
    gamma: float | None = None
    fixed_shift: bool = False

    # data preprocessing
    recipe: str | None = None
    difference: bool = False
    log_transform: bool = False

    # relabelling
    relabel_warm_start: int = 200
    relabel_subset: tuple[str, ...] = ("weights", "scales")

    # order moves
    birth_half_width: float = 1.5
    literal_death_density: bool = False

    # evidence
    g_range: tuple[int, ...] = (2, 3)
    n_j: int = 10_000
    n_i: int = 10_000
    reduced_burn_in: int = 500

    # simulation
    spec: str = "A"
    spec_file: str | None = None
    n: int | None = None

    # forecasting
    horizon: int = 1
    origin: int | None = None
    mode: str = "exact"
    mc_paths: int = 10_000
    thin: int = 10

    # replication study
    replicas: int = 20
    replica_length: int = 300
    workers: int | None = None


_PARSERS = {
    "input": _optional(_parse_str),
    "draws": _optional(_parse_str),
    "output_dir": _parse_str,
    "seed": _parse_int,
    "g": _parse_int,
    "orders": _optional(_parse_int_tuple),
    "p_max": _parse_int,
    "n_iter": _parse_int,
    "burn_in": _parse_int,
    "pilot_iters": _parse_int,
    "a": _parse_float,
    "c": _parse_float,
    "gamma": _optional(_parse_float),
    "fixed_shift": _parse_bool,
    "recipe": _optional(_parse_str),
    "difference": _parse_bool,
    "log_transform": _parse_bool,
    "relabel_warm_start": _parse_int,
    "relabel_subset": _parse_str_tuple,
    "birth_half_width": _parse_float,
    "literal_death_density": _parse_bool,
    "g_range": _parse_int_tuple,
    "n_j": _parse_int,
    "n_i": _parse_int,
    "reduced_burn_in": _parse_int,
    "spec": _parse_str,
    "spec_file": _optional(_parse_str),
    "n": _optional(_parse_int),
    "horizon": _parse_int,
    "origin": _optional(_parse_int),
    "mode": _parse_str,
    "mc_paths": _parse_int,
    "thin": _parse_int,
    "replicas": _parse_int,
    "replica_length": _parse_int,
    "workers": _optional(_parse_int),
}

assert set(_PARSERS) == {f.name for f in fields(RunConfig)}


def parse_config_file(path: str | Path) -> dict[str, object]:
    """Read key = value lines; # starts a comment, blank lines are skipped."""
    out: dict[str, object] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _PARSERS:
            raise ValueError(f"{path}:{lineno}: unknown configuration key {key!r}")
        if key in out:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            out[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return out


def parse_overrides(pairs: list[str]) -> dict[str, object]:
    """Parse --set key=value command-line overrides."""
    out: dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"override {pair!r} is not of the form key=value")
        key, value = pair.split("=", 1)
        key = key.strip()
        if key not in _PARSERS:
            raise ValueError(f"unknown configuration key {key!r}")
        out[key] = _PARSERS[key](value)
    return out


def build_config(
    config_path: str | Path | None, overrides: list[str] | None = None
) -> RunConfig:
    """Assemble a validated RunConfig from an optional file plus overrides."""
    values: dict[str, object] = {}
    if config_path is not None:
        values.update(parse_config_file(config_path))
    if overrides:
        values.update(parse_overrides(overrides))
    config = RunConfig(**values)
    validate_config(config)
    return config


def validate_config(config: RunConfig) -> None:
    """Reject impossible settings before any chain starts."""
    if config.g < 1:
        raise ValueError("g must be at least 1")
    if config.p_max < 1:
        raise ValueError("p_max must be at least 1")
    if config.n_iter < 1:
        raise ValueError("n_iter must be positive")
    if config.burn_in < 0 or config.burn_in >= config.n_iter:
        raise ValueError("burn_in must satisfy 0 <= burn_in < n_iter")
    if config.pilot_iters < 0:
        raise ValueError("pilot_iters must be nonnegative")
    if config.gamma is not None and config.gamma <= 0:
        raise ValueError("gamma must be positive")
    if config.a <= 0 or config.c <= 0:
        raise ValueError("prior shape parameters a and c must be positive")
    if config.orders is not None:
        if len(config.orders) != config.g:
            raise ValueError("orders must list one order per component")
        if any(p < 1 for p in config.orders):
            raise ValueError("orders must be positive")
        if any(p > config.p_max for p in config.orders):
            raise ValueError("orders cannot exceed p_max")
    if config.relabel_warm_start < 1:
        raise ValueError("relabel_warm_start must be positive")
    if config.birth_half_width <= 0:
        raise ValueError("birth_half_width must be positive")
    if not config.g_range or any(x < 1 for x in config.g_range):
        raise ValueError("g_range must contain positive component counts")
    if config.n_j < 1 or config.n_i < 1:
        raise ValueError("n_j and n_i must be positive")
    if config.reduced_burn_in < 0:
        raise ValueError("reduced_burn_in must be nonnegative")
    if config.spec not in ("A", "B"):
        raise ValueError("spec must be A or B")
    if config.n is not None and config.n < 1:
        raise ValueError("n must be positive")
    if config.horizon < 1:
        raise ValueError("horizon must be at least 1")
    if config.origin is not None and config.origin < 1:
        raise ValueError("origin must be a positive time index")
    if config.mode == "mc":
        config.mode = "monte-carlo"
    if config.mode not in ("exact", "monte-carlo"):
        raise ValueError("mode must be exact or monte-carlo")
    if config.mc_paths < 1:
        raise ValueError("mc_paths must be positive")
    if config.thin < 1:
        raise ValueError("thin must be positive")
    if config.replicas < 1:
        raise ValueError("replicas must be positive")
    if config.replica_length < 2:
        raise ValueError("replica_length must be at least 2")
    if config.workers is not None and config.workers < 1:
        raise ValueError("workers must be positive")
    if config.difference and config.log_transform:
        raise ValueError("choose at most one of difference and log_transform")


def require_input(config: RunConfig) -> Path:
    """The input series path, validated to exist."""
    if config.input is None:
        raise ValueError("this command needs input=<series CSV path>")
    path = Path(config.input)
    if not path.exists():
        raise ValueError(f"input path {path} does not exist")
    return path


def config_dict(config: RunConfig) -> dict[str, object]:
    """Plain-dict echo of the config, tuples rendered as lists for JSON."""
    out = {}
    for f in fields(config):
        v = getattr(config, f.name)
        out[f.name] = list(v) if isinstance(v, tuple) else v
    return out
