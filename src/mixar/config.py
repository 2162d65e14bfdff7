"""Run configuration: a flat key=value file plus command-line overrides.

Every command reads the same schema; unknown keys are rejected up front and
all values are validated before any sampling starts, so a typo cannot burn
an hour of chain time.  A key's type is its `RunConfig` annotation: booleans
accept true/false/1/0/yes/no, lists are comma separated, and "none" clears
an optional value.  Settings that feed a sampler object take their default
from that object and are range-checked by building it.
"""

from __future__ import annotations

import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .evidence import EvidenceConfig, check_g_range
from .forecast import ForecastRequest
from .relabel import RelabelConfig
from .rjmcmc import OrderMoveConfig
from .sampler import Hyperparams, check_chain_settings


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_list(item, what: str):
    def parse(text: str) -> tuple:
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise ValueError(f"expected a comma separated list of {what}")
        return tuple(item(p) for p in parts)

    return parse


_BASE_PARSERS = {
    int: int,
    float: float,
    str: str.strip,
    bool: _parse_bool,
    tuple[int, ...]: _parse_list(int, "integers"),
    tuple[str, ...]: _parse_list(str, "names"),
}


@dataclass
class RunConfig:
    """Parameters for every subcommand, mirrored into the sampler objects.

    A key named like a field of OrderMoveConfig, EvidenceConfig or
    ForecastRequest feeds that field.
    """

    # paths and identity
    input: str | None = None
    draws: str | None = None
    output_dir: str = "."
    seed: int = 0

    # model shape
    g: int = 2
    orders: tuple[int, ...] | None = None
    p_max: int = OrderMoveConfig.p_max

    # chain lengths
    n_iter: int = Hyperparams.n_iter
    burn_in: int = Hyperparams.burn_in
    pilot_iters: int = Hyperparams.pilot_iters

    # prior and proposal settings
    a: float = Hyperparams.a
    c: float = Hyperparams.c
    gamma: float | None = None
    fixed_shift: bool = Hyperparams.fixed_shift

    # data preprocessing
    recipe: str | None = None
    difference: bool = False
    log_transform: bool = False

    # relabelling
    relabel_warm_start: int = RelabelConfig.m
    relabel_subset: tuple[str, ...] = RelabelConfig.subset

    # order moves
    birth_half_width: float = OrderMoveConfig.birth_half_width

    # evidence
    g_range: tuple[int, ...] = (2, 3)
    n_j: int = EvidenceConfig.n_j
    n_i: int = EvidenceConfig.n_i
    reduced_burn_in: int = EvidenceConfig.reduced_burn_in

    # simulation
    spec: str = "A"
    spec_file: str | None = None
    n: int | None = None

    # forecasting
    horizon: int = 1
    origin: int | None = ForecastRequest.origin
    mode: str = ForecastRequest.mode
    mc_paths: int = ForecastRequest.mc_paths
    thin: int = ForecastRequest.thin

    # replication study
    replicas: int = 20
    replica_length: int = 300
    workers: int | None = None

    def _shared(self, cls) -> dict:
        """This configuration's values for the fields of cls it names alike."""
        return {f.name: getattr(self, f.name) for f in fields(cls) if f.name in _FIELD_TYPES}

    def chain_settings(self) -> dict:
        """Hyperparams overrides for every chain: prior shapes, run lengths and,
        when set, the one RWM proposal precision shared by every component."""
        return dict(a=self.a, c=self.c, gamma=self.gamma, n_iter=self.n_iter,
                    burn_in=self.burn_in, pilot_iters=self.pilot_iters)

    def relabel_config(self, g: int, fixed_shift: bool) -> RelabelConfig:
        """Relabelling settings; a g >= 2 chain will be relabelled, so it is checked."""
        relabel = RelabelConfig(m=self.relabel_warm_start, subset=self.relabel_subset)
        if g >= 2:
            relabel.check_chain(self.n_iter - self.burn_in, fixed_shift)
        return relabel

    def evidence_config(self, g: int = 1) -> EvidenceConfig:
        """Evidence settings, order moves included, for candidates of at most g components."""
        return EvidenceConfig(
            order_config=OrderMoveConfig(**self._shared(OrderMoveConfig)),
            relabel=self.relabel_config(g, self.fixed_shift),
            **self._shared(EvidenceConfig),
        )

    def forecast_request(self) -> ForecastRequest:
        return ForecastRequest(**self._shared(ForecastRequest))


_FIELD_TYPES = typing.get_type_hints(RunConfig)


def parse_value(key: str, text: str, name: str | None = None) -> object:
    """Parse one setting by its RunConfig annotation.

    Errors name the key, or `name` when the text comes from elsewhere (an
    environment variable).  "none" or an empty text clears an optional
    value; "none" is an error for any other.
    """
    if key not in _FIELD_TYPES:
        raise ValueError(f"unknown configuration key {key!r}")
    name = name or key
    hint = _FIELD_TYPES[key]
    args = typing.get_args(hint)
    word = text.strip().lower()
    if type(None) in args:
        if word in ("none", ""):
            return None
        (hint,) = (t for t in args if t is not type(None))
    elif word == "none":
        raise ValueError(f"bad value for {name}: {name} cannot be none")
    try:
        return _BASE_PARSERS[hint](text)
    except ValueError as exc:
        raise ValueError(f"bad value for {name}: {exc}") from None


def _parse_pair(pair: str, malformed: str) -> tuple[str, object]:
    """A key=value text as (key, parsed value); `malformed` is the error without "="."""
    key, eq, value = pair.partition("=")
    if not eq:
        raise ValueError(malformed)
    return key.strip(), parse_value(key.strip(), value)


def parse_config_file(path: str | Path) -> dict[str, object]:
    """Read key = value lines; # starts a comment, blank lines are skipped."""
    out: dict[str, object] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            key, value = _parse_pair(line, f"expected key=value, got {raw!r}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if key in out:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def parse_overrides(pairs: list[str]) -> dict[str, object]:
    """Parse --set key=value command-line overrides."""
    return dict(_parse_pair(p, f"override {p!r} is not of the form key=value") for p in pairs)


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


def check_workers(workers: int | None, name: str = "workers") -> None:
    if workers is not None and workers < 1:
        raise ValueError(f"{name} must be positive")


def validate_config(config: RunConfig) -> None:
    """Reject impossible settings before any chain starts.

    Every sampler object a command builds from the configuration is built
    here once, so its own range checks apply to every command; the rules
    below are the ones no such object owns.
    """
    if config.mode == "mc":
        config.mode = "monte-carlo"
    check_chain_settings(**config.chain_settings())
    config.evidence_config()
    config.forecast_request()
    check_g_range(tuple(config.g_range))
    if config.g < 1:
        raise ValueError("g must be at least 1")
    if config.orders is not None and min(config.orders) < 1:
        raise ValueError("orders must be positive")
    if config.spec not in ("A", "B"):
        raise ValueError("spec must be A or B")
    if config.n is not None and config.n < 1:
        raise ValueError("n must be positive")
    if config.replicas < 1:
        raise ValueError("replicas must be positive")
    if config.replica_length < 2:
        raise ValueError("replica_length must be at least 2")
    check_workers(config.workers)
    if config.difference and config.log_transform:
        raise ValueError("choose at most one of difference and log_transform")


def config_dict(config: RunConfig) -> dict[str, object]:
    """Plain-dict echo of the config, tuples rendered as lists for JSON."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(config).items()}
