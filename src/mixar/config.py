"""Run configuration: the settings objects, and a flat key=value file plus
command-line overrides that build them.

The settings objects (`Hyperparams`, `RelabelConfig`, `OrderMoveConfig`,
`EvidenceConfig`, `ForecastRequest`) live here, below the modules that run
them, so reading a configuration loads no sampler.  Every command reads the
same schema; unknown keys are rejected up front, and every rule that
depends on the settings alone, a command's own rules included, is checked
and every default resolved here, before any file is read, so a typo cannot
burn an hour of chain time.  A key's type is its `RunConfig` annotation:
booleans accept true/false/1/0/yes/no, lists are comma separated, and
"none" clears an optional value.  Settings that feed a settings object take
their default from that object and are range-checked by building it.
"""

from __future__ import annotations

import os
import typing
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .datasets import BUILTIN_LENGTHS, TRANSFORMS, _recipe


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


@dataclass(frozen=True)
class Hyperparams:
    """Prior constants and run lengths.

    zeta, kappa: mean and precision of the component-mean prior.
    a, b: shape and rate of the Gamma prior on lambda.
    c: shape of the Gamma prior on the precisions tau_k.
    gamma: the RWM proposal precision of every component (None means tune
        a pilot).
    fixed_shift: pin all shifts phi_k0 at zero and skip the mean update.
    """

    zeta: float
    kappa: float
    b: float
    a: float = 0.2
    c: float = 2.0
    gamma: float | None = None
    fixed_shift: bool = False
    burn_in: int = 10_000
    n_iter: int = 20_000
    pilot_iters: int = 2_000

    def __post_init__(self):
        for name in ("kappa", "b"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {float(v)}")
        if not np.isfinite(self.zeta):
            raise ValueError("zeta must be finite")
        if self.gamma is not None:
            try:
                gamma = float(self.gamma)
            except (TypeError, ValueError):
                raise ValueError(f"gamma must be a number, got {self.gamma!r}") from None
            object.__setattr__(self, "gamma", gamma)
        if not (self.a > 0 and self.c > 0):
            raise ValueError("prior shape parameters a and c must be positive")
        if self.gamma is not None and not self.gamma > 0:
            raise ValueError("gamma must be positive")
        shapes = (self.a, self.c) + (() if self.gamma is None else (self.gamma,))
        if not np.all(np.isfinite(shapes)):
            raise ValueError("a, c and gamma must be finite")
        if self.n_iter < 1:
            raise ValueError("n_iter must be positive")
        if not 0 <= self.burn_in < self.n_iter:
            raise ValueError("burn_in must satisfy 0 <= burn_in < n_iter")
        if self.gamma is None and self.pilot_iters < 500:
            raise ValueError("pilot_iters must be at least 500 when gamma is tuned")


_VALID_SUBSET = ("weights", "scales", "shifts")


@dataclass(frozen=True)
class RelabelConfig:
    """Warm-start length m and the parameter blocks forming the feature vector.

    The feature vector theta concatenates one g-long block per selected name
    (any of "weights", "scales", "shifts"); the default uses mixing weights
    plus scales, which separate components more reliably than AR coefficients.
    """

    m: int = 200
    subset: tuple[str, ...] = ("weights", "scales")

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("warm-start length m must be at least 2")
        if not self.subset:
            raise ValueError("subset must name at least one parameter block")
        for name in self.subset:
            if name not in _VALID_SUBSET:
                raise ValueError(f"unknown subset entry {name!r}; choose from {_VALID_SUBSET}")
        if len(set(self.subset)) != len(self.subset):
            raise ValueError("subset entries must be unique")

    def check_chain(self, n_draws: int, fixed_shift: bool) -> None:
        """Draws must remain after the warm start; fixed (all zero) shifts separate nothing."""
        if self.m >= n_draws:
            raise ValueError(
                f"warm-start length m={self.m} must be below the number of draws ({n_draws})"
            )
        if fixed_shift and "shifts" in self.subset:
            raise ValueError(
                "relabel_subset holds shifts, which fixed_shift holds at zero in every draw; "
                "drop shifts from relabel_subset"
            )


@dataclass(frozen=True)
class OrderMoveConfig:
    """Birth/death order moves (`rjmcmc`): the order cap p_max, and the
    half-width w of the uniform a birth draws its new coefficient from."""

    p_max: int = 5
    birth_half_width: float = 1.5

    def __post_init__(self):
        if self.p_max < 1:
            raise ValueError("p_max must be at least 1")
        if not (np.isfinite(self.birth_half_width) and self.birth_half_width > 0):
            raise ValueError("birth_half_width must be positive")

    def birth_prob(self, p: int) -> float:
        """b(p): 1 at p=1, 0 at p_max, 1/2 in between."""
        if not 1 <= p <= self.p_max:
            raise ValueError(f"order {p} outside 1..{self.p_max}")
        if p == self.p_max:
            return 0.0
        if p == 1:
            return 1.0
        return 0.5

    def death_prob(self, p: int) -> float:
        return 1.0 - self.birth_prob(p)


@dataclass(frozen=True)
class EvidenceConfig:
    """Run lengths and settings for one evidence computation.

    orders pins the order configuration whose evidence is wanted (None uses
    the modal configuration of the order-move run; either way the visit
    share of that configuration supplies the order-posterior ordinate).
    """

    order_config: OrderMoveConfig = field(default_factory=OrderMoveConfig)
    n_j: int = 10_000
    n_i: int = 10_000
    reduced_burn_in: int = 500
    orders: tuple[int, ...] | None = None
    relabel: RelabelConfig = field(default_factory=RelabelConfig)

    def __post_init__(self):
        if self.n_j < 1 or self.n_i < 1:
            raise ValueError("n_j and n_i must be positive")
        if self.reduced_burn_in < 0:
            raise ValueError("reduced_burn_in must be nonnegative")


def check_g_range(g_range: tuple[int, ...]) -> None:
    """Candidate component counts: at least one, each positive and listed once."""
    if not g_range or any(x < 1 for x in g_range):
        raise ValueError("g_range must contain positive component counts")
    for i, g in enumerate(g_range):
        if g in g_range[:i]:
            raise ValueError(f"g_range lists g={g} more than once")


@dataclass(frozen=True)
class ForecastRequest:
    """What to forecast: horizon, forecast origin, grid and evaluation mode.

    origin is the 1-based time of the last observation used (None: the end
    of the series).  mode is "exact" or "monte-carlo"; thin subsamples the
    retained draws for posterior averaging.
    """

    horizon: int
    origin: int | None = None
    grid: np.ndarray | None = None
    mode: str = "exact"
    mc_paths: int = 10_000
    thin: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.origin is not None and self.origin < 1:
            raise ValueError("origin must be a positive time index")
        if self.mode not in ("exact", "monte-carlo"):
            raise ValueError("mode must be exact or monte-carlo")
        if self.mc_paths < 1:
            raise ValueError("mc_paths must be positive")
        if self.thin < 1:
            raise ValueError("thin must be positive")
        if self.grid is not None:
            g = np.asarray(self.grid, dtype=float).reshape(-1)
            if g.size < 2 or np.any(np.diff(g) <= 0):
                raise ValueError("grid must be strictly increasing with >= 2 points")
            object.__setattr__(self, "grid", g)


@dataclass
class RunConfig:
    """Parameters for every subcommand, mirrored into the settings objects above.

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
    transform: str | None = None

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
        """Hyperparams overrides for every chain: prior shapes, run lengths,
        fixed_shift and, when set, the one RWM proposal precision shared by
        every component."""
        return self._shared(Hyperparams)

    def relabel_config(self, g: int) -> RelabelConfig:
        """Relabelling settings; a g >= 2 chain will be relabelled, so it is checked."""
        relabel = RelabelConfig(m=self.relabel_warm_start, subset=self.relabel_subset)
        if g >= 2:
            relabel.check_chain(self.n_iter - self.burn_in, self.fixed_shift)
        return relabel

    def evidence_config(self, g: int = 1) -> EvidenceConfig:
        """Evidence settings, order moves included, for candidates of at most g components."""
        return EvidenceConfig(
            order_config=OrderMoveConfig(**self._shared(OrderMoveConfig)),
            relabel=self.relabel_config(g),
            **self._shared(EvidenceConfig),
        )

    def forecast_request(self) -> ForecastRequest:
        return ForecastRequest(**self._shared(ForecastRequest))


_FIELD_TYPES = typing.get_type_hints(RunConfig)


def parse_value(key: str, text: str) -> object:
    """Parse one setting by its RunConfig annotation; errors name the key.

    "none" or an empty text clears an optional value; "none" is an error
    for any other.
    """
    if key not in _FIELD_TYPES:
        raise ValueError(f"unknown configuration key {key!r}")
    hint = _FIELD_TYPES[key]
    args = typing.get_args(hint)
    word = text.strip().lower()
    if type(None) in args:
        if word in ("none", ""):
            return None
        (hint,) = (t for t in args if t is not type(None))
    elif word == "none":
        raise ValueError(f"bad value for {key}: {key} cannot be none")
    try:
        return _BASE_PARSERS[hint](text)
    except ValueError as exc:
        raise ValueError(f"bad value for {key}: {exc}") from None


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
    config_path: str | Path | None, overrides: list[str] | None = None, command: str | None = None
) -> RunConfig:
    """Assemble a validated RunConfig from an optional file plus overrides.

    `fit` takes g and orders from a named recipe: they are resolved here, so
    the manifest echoes the shape that ran, and a g or orders set beside the
    recipe to another value is refused rather than ignored.  So is a
    fixed_shift set to another value than the recipe's, for every command:
    only here can a set value be told from the default.  `command` names
    the command whose own rules and defaults `validate_config` applies.
    """
    values: dict[str, object] = {}
    if config_path is not None:
        values.update(parse_config_file(config_path))
    if overrides:
        values.update(parse_overrides(overrides))
    config = RunConfig(**values)
    if config.recipe is not None:
        recipe = _recipe(config.recipe)
        if values.get("fixed_shift", recipe.fixed_shift) != recipe.fixed_shift:
            raise ValueError(f"recipe {config.recipe!r} sets fixed_shift; "
                             "drop fixed_shift or the recipe")
        if command == "fit":
            for key in ("g", "orders"):
                if key in values and values[key] != getattr(recipe, key):
                    raise ValueError(f"recipe {config.recipe!r} sets fit's g and orders; "
                                     f"drop {key} or the recipe")
            config.g, config.orders = recipe.g, recipe.orders
    validate_config(config, command)
    return config


def validate_config(config: RunConfig, command: str | None = None) -> None:
    """Reject impossible settings before any file is read or chain starts.

    Every settings object a command builds from the configuration is built
    here once, so its own range checks apply to every command; the rules
    below are the ones no such object owns, then the rules of `command`
    alone.  Settings are resolved here, so every reader and the manifest's
    echo see the value that runs: mode "mc" becomes "monte-carlo", a named
    recipe sets transform (refusing another) and fixed_shift, `simulate`'s
    unset n becomes its built-in spec's length, and the unset workers of
    `select` and `replicate` become the CPU count.
    """
    if config.mode == "mc":
        config.mode = "monte-carlo"
    if config.transform not in (None, *TRANSFORMS):
        raise ValueError(f"unknown transform {config.transform!r}; choose from {TRANSFORMS}")
    if config.recipe is not None:
        recipe = _recipe(config.recipe)
        if config.transform not in (None, recipe.transform):
            raise ValueError(f"recipe {config.recipe!r} applies its own transform; "
                             f"drop transform={config.transform} or the recipe")
        config.transform, config.fixed_shift = recipe.transform, recipe.fixed_shift
    # zeta, kappa and b come from the series; any valid values check the rest
    Hyperparams(zeta=0.0, kappa=1.0, b=1.0, **config.chain_settings())
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
    if config.workers is not None and config.workers < 1:
        raise ValueError("workers must be positive")
    if command == "simulate" and config.n is None:
        config.n = BUILTIN_LENGTHS[config.spec]
    if command in ("select", "replicate") and config.workers is None:
        config.workers = os.cpu_count() or 1
    if command == "fit":
        from .summary import check_draw_count  # fit loads summary anyway; others need not

        if config.orders is None:
            raise ValueError("fit needs orders=<comma separated list, one per component>")
        if len(config.orders) != config.g:
            raise ValueError("orders must list one order per component")
        config.relabel_config(config.g)
        check_draw_count(config.n_iter - config.burn_in)
    if command == "select":
        g_range = tuple(config.g_range)
        if config.orders is not None and g_range != (len(config.orders),):
            raise ValueError(f"select pins orders={list(config.orders)} only for "
                             f"g_range={len(config.orders)}, got g_range={list(g_range)}")
        if config.orders is not None and max(config.orders) > config.p_max:
            raise ValueError("orders cannot exceed p_max")
        config.evidence_config(max(g_range))


def config_dict(config: RunConfig) -> dict[str, object]:
    """Plain-dict echo of the config, tuples rendered as lists for JSON."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(config).items()}
