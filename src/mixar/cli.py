"""Command line entry points: simulate | fit | select | forecast | replicate.

Every subcommand takes an optional key=value config file plus repeatable
--set key=value overrides, writes its data files into output_dir, and
finishes with a manifest recording the config echo, seed, package versions,
wall clock and diagnostics.  Re-running a command with the manifest's
config and seed reproduces the data outputs bit for bit.  Each command
imports the compute modules it runs, so `forecast` loads no sampler.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .config import RunConfig, build_config, check_workers, config_dict, parse_value
from .datasets import BUILTIN_LENGTHS, BUILTIN_SPECS, RECIPES, apply_transform, prepare_recipe
from .io import (
    evidence_payload,
    read_draws_csv,
    read_series_csv,
    summaries_payload,
    write_draws_csv,
    write_grid_csv,
    write_json,
    write_manifest,
    write_series_csv,
)
from .model import ChainOutput, MARSpec, TimeSeries, simulate_path

WORKERS_ENV = "MIXAR_WORKERS"


def _resolve_workers(config: RunConfig) -> int:
    """The workers setting, else MIXAR_WORKERS parsed like it, else the CPU count."""
    workers = config.workers
    if workers is None:
        workers = parse_value("workers", os.environ.get(WORKERS_ENV, ""), WORKERS_ENV)
        check_workers(workers, WORKERS_ENV)
    return workers or os.cpu_count() or 1


def _existing_path(value: str | None, key: str, needs: str) -> Path:
    """The path a key names, which must be set (else the error `needs`) and exist."""
    if value is None:
        raise ValueError(needs)
    path = Path(value)
    if not path.exists():
        raise ValueError(f"{key} path {path} does not exist")
    return path


def _true_spec(config: RunConfig) -> MARSpec:
    """The spec `simulate` and `replicate` draw from: spec_file when set, else the built-in spec."""
    if config.spec_file is None:
        return BUILTIN_SPECS[config.spec]()
    path = _existing_path(config.spec_file, "spec_file", "")
    try:
        raw = json.loads(path.read_text())
        if not isinstance(raw, dict):
            raise ValueError("expected a JSON object with keys weights, shifts, ar_coeffs, scales")
        return MARSpec(
            weights=np.asarray(raw["weights"], dtype=float),
            shifts=np.asarray(raw["shifts"], dtype=float),
            ar_coeffs=tuple(np.asarray(c, dtype=float) for c in raw["ar_coeffs"]),
            scales=np.asarray(raw["scales"], dtype=float),
        )
    except KeyError as exc:
        raise ValueError(f"spec file {path} is missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"spec file {path}: {exc}") from None


def _load_series(config: RunConfig) -> tuple[TimeSeries, dict]:
    """Read, optionally transform, and describe the input series."""
    path = _existing_path(config.input, "input", "this command needs input=<series CSV path>")
    raw = read_series_csv(path)
    echo: dict = {"input": str(path), "raw_length": int(raw.size)}
    if config.recipe is not None:
        values, recipe = prepare_recipe(config.recipe, raw)
        echo["recipe"] = recipe.name
        echo["transform"] = recipe.transform
    else:
        transform = "none"
        if config.difference:
            transform = "difference"
        elif config.log_transform:
            transform = "log"
        values = apply_transform(raw, transform)
        echo["transform"] = transform
    echo["length"] = int(values.size)
    return TimeSeries(values), echo


def _model_shape(config: RunConfig) -> tuple[int, tuple[int, ...] | None]:
    """fit's (g, orders), letting a named recipe set them."""
    if config.recipe is not None:
        recipe = RECIPES[config.recipe]
        return recipe.g, recipe.orders
    return config.g, config.orders


def _fit_summaries(output: ChainOutput):
    from .summary import summarize

    names = []
    for k in range(1, output.g + 1):
        names.append((f"pi_{k}", output.weights[:, k - 1]))
        if not output.fixed_shift:
            names.append((f"shift_{k}", output.shifts[:, k - 1]))
            names.append((f"mean_{k}", output.means[:, k - 1]))
        names.append((f"sigma_{k}", output.scales[:, k - 1]))
        p_k = int(output.orders[:, k - 1].max())
        for i in range(1, p_k + 1):
            names.append((f"ar_{k}_{i}", output.ar[:, k - 1, i - 1]))
    names.append(("lambda", output.lam))
    return [summarize(draws, name) for name, draws in names]


def cmd_simulate(config: RunConfig, out: Path) -> tuple[list[str], dict]:
    from .stability import is_stable

    spec = _true_spec(config)
    n = config.n if config.n is not None else BUILTIN_LENGTHS.get(config.spec, 300)
    series = simulate_path(spec, n, seed=config.seed)
    path = out / "series.csv"
    write_series_csv(path, series.values)
    diag = {
        "spec": config.spec_file or config.spec,
        "n": n,
        "spectral_radius": is_stable(spec.weights, spec.phi_matrix()).spectral_radius,
    }
    return [str(path)], diag


def cmd_fit(config: RunConfig, out: Path) -> tuple[list[str], dict]:
    from .relabel import relabel_chain
    from .sampler import default_hyperparams, run_chain
    from .summary import check_draw_count

    series, echo = _load_series(config)
    g, orders = _model_shape(config)
    if orders is None:
        raise ValueError("fit needs orders=<comma separated list, one per component>")
    if len(orders) != g:
        raise ValueError("orders must list one order per component")
    relabel = config.relabel_config(g)
    check_draw_count(config.n_iter - config.burn_in)
    hyper = default_hyperparams(series, fixed_shift=config.fixed_shift, **config.chain_settings())
    output = run_chain(series, g, orders, hyper, config.seed)
    start = time.perf_counter()
    output = relabel_chain(output, relabel)
    timing = {**output.timing, "relabel_s": time.perf_counter() - start}
    summaries = _fit_summaries(output)
    draws_path = out / "draws.csv"
    summaries_path = out / "summaries.json"
    write_draws_csv(draws_path, output)
    write_json(summaries_path, summaries_payload(summaries))
    diag = dict(echo)
    diag.update(
        {
            "g": g,
            "orders": list(orders),
            "fixed_shift": config.fixed_shift,
            "acceptance_rates": output.acceptance,
            "stability_rejections": output.stability_rejections,
            "proposal_precisions": output.gamma,
            "timing": timing,
            "relabel": output.relabelling,
        }
    )
    return [str(draws_path), str(summaries_path)], diag


def cmd_select(config: RunConfig, out: Path) -> tuple[list[str], dict]:
    from .evidence import select_g
    from .sampler import default_hyperparams

    g_range = tuple(config.g_range)
    if config.orders is not None and g_range != (len(config.orders),):
        raise ValueError(f"select pins orders={list(config.orders)} only for "
                         f"g_range={len(config.orders)}, got g_range={list(g_range)}")
    if config.orders is not None and max(config.orders) > config.p_max:
        raise ValueError("orders cannot exceed p_max")
    ev_config = config.evidence_config(max(g_range))
    series, echo = _load_series(config)
    hyper = default_hyperparams(series, fixed_shift=config.fixed_shift, **config.chain_settings())
    workers = _resolve_workers(config)
    best_g, results = select_g(series, g_range, hyper, ev_config, config.seed, workers)
    report_path = out / "evidence.json"
    write_json(report_path, evidence_payload(results, best_g))
    diag = dict(echo)
    diag.update({"best_g": best_g, "workers": workers, "timing": {r.g: r.timing for r in results},
                 "chains": {r.g: r.chains for r in results}})
    return [str(report_path)], diag


def cmd_forecast(config: RunConfig, out: Path) -> tuple[list[str], dict]:
    from .forecast import posterior_averaged_forecast
    from .summary import DensityGrid

    series, echo = _load_series(config)
    needs = "forecast needs draws=<draws CSV from a fit run>"
    output = read_draws_csv(_existing_path(config.draws, "draws", needs))
    result = posterior_averaged_forecast(output, series, config.forecast_request())
    grid_path = out / "forecast.csv"
    write_grid_csv(
        grid_path,
        result.grid,
        {"mean": result.mean_density, "lo90": result.lower_90, "hi90": result.upper_90},
    )
    integral = DensityGrid(result.grid, result.mean_density).integral()
    diag = dict(echo)
    diag.update(
        {
            "horizon": config.horizon,
            "origin": config.origin,
            "mode": config.mode,
            "integral": integral,
            "integral_ok": bool(abs(integral - 1.0) <= 1e-3),
            "predictive_mean": result.predictive_mean,
            "predictive_sd": result.predictive_sd,
        }
    )
    return [str(grid_path)], diag


def _align_to_truth(output: ChainOutput, truth: MARSpec) -> tuple[int, ...]:
    """Permutation matching fitted components to the true ones.

    Components are matched on posterior means of (weight, scale, first AR
    coefficient) among the permutations that keep every component's order;
    the one minimizing the summed squared distance to the true values wins,
    ties going to the first in permutation order.
    """
    from .relabel import assign_permutation

    fitted = np.concatenate(
        [output.weights.mean(axis=0), output.scales.mean(axis=0), output.ar[:, :, 0].mean(axis=0)]
    )
    target = np.concatenate([truth.weights, truth.scales, [c[0] for c in truth.ar_coeffs]])
    return assign_permutation(fitted, target, np.ones(target.size), truth.orders)


def _replica_param_draws(output: ChainOutput, truth: MARSpec) -> dict[str, np.ndarray]:
    perm = _align_to_truth(output, truth)
    draws: dict[str, np.ndarray] = {}
    for j in range(truth.g):
        src = perm[j]
        k = j + 1
        if truth.g > 1:  # a lone component's weight is 1 in every draw: no density
            draws[f"pi_{k}"] = output.weights[:, src].copy()
        if not output.fixed_shift:
            draws[f"shift_{k}"] = output.shifts[:, src].copy()
        draws[f"sigma_{k}"] = output.scales[:, src].copy()
        for i in range(1, truth.ar_coeffs[j].size + 1):
            draws[f"ar_{k}_{i}"] = output.ar[:, src, i - 1].copy()
    return draws


def _replicate_worker(job) -> dict[str, np.ndarray]:
    from .relabel import relabel_chain
    from .sampler import default_hyperparams, run_chain

    truth, n, sim_seed, fit_seed, overrides, relabel = job
    series = simulate_path(truth, n, seed=sim_seed)
    hyper = default_hyperparams(series, **overrides)
    output = run_chain(series, truth.g, truth.orders, hyper, fit_seed)
    output = relabel_chain(output, relabel)
    return _replica_param_draws(output, truth)


def cmd_replicate(config: RunConfig, out: Path) -> tuple[list[str], dict]:
    from .evidence import _map_jobs
    from .summary import average_density, density_grid

    truth = _true_spec(config)
    n = config.replica_length
    relabel = config.relabel_config(truth.g)
    overrides = dict(config.chain_settings(), fixed_shift=config.fixed_shift)
    children = np.random.SeedSequence(config.seed).spawn(config.replicas)
    jobs = []
    for child in children:
        sim_seed, fit_seed = (int(s.generate_state(1)[0]) for s in child.spawn(2))
        jobs.append((truth, n, sim_seed, fit_seed, overrides, relabel))
    workers = _resolve_workers(config)
    replica_draws = _map_jobs(_replicate_worker, jobs, workers)

    params = list(replica_draws[0])
    outputs: list[str] = []
    modes: dict[str, float] = {}
    for name in params:
        columns = [d[name] for d in replica_draws]
        lo = min(float(c.min()) for c in columns)
        hi = max(float(c.max()) for c in columns)
        grids = [density_grid(c, lo, hi) for c in columns]
        avg = average_density(grids)
        path = out / f"replicate_{name}.csv"
        write_grid_csv(path, avg.x, {"density": avg.density})
        outputs.append(str(path))
        modes[name] = avg.mode()
    diag = {
        "spec": config.spec_file or config.spec,
        "replicas": config.replicas,
        "replica_length": n,
        "workers": workers,
        "density_modes": modes,
    }
    return outputs, diag


_HANDLERS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "select": cmd_select,
    "forecast": cmd_forecast,
    "replicate": cmd_replicate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixar",
        description="Bayesian mixture autoregressive modelling toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "simulate": "simulate a series from a built-in or user specification",
        "fit": "fit a fixed-order model and write draws and summaries",
        "select": "estimate evidence over a range of component counts",
        "forecast": "posterior-averaged predictive density from stored draws",
        "replicate": "repeated simulate-and-fit study with averaged densities",
    }
    for name in _HANDLERS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", default=None, help="key=value configuration file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            dest="overrides",
            help="override one configuration key (repeatable)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = build_config(args.config, args.overrides, args.command)
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        outputs, diag = _HANDLERS[args.command](config, out)
        elapsed = time.perf_counter() - started
        manifest_path = out / "manifest.json"
        write_manifest(
            manifest_path,
            args.command,
            config_dict(config),
            config.seed,
            elapsed,
            outputs,
            diag,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in outputs + [str(manifest_path)]:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
