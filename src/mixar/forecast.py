"""Density forecasting for MAR models.

The one-step predictive density is the conditional mixture itself.  For
horizons h >= 2 the exact predictive density expands the g^h component
paths: conditional on a path, the last p values are jointly Gaussian, with
mean vector and covariance propagated through the AR recursions, so the
predictive density is a path-weighted Gaussian mixture.  A Monte Carlo mode
instead averages one-step conditional densities over simulated
continuations.  The predictive mean and variance, and with them the default
grid, come from a moment recursion that carries the mean vector and the
covariance of the last p values through the mixture without expanding
paths, so they exist at any horizon.  Posterior-averaged forecasts evaluate
the chosen mode per retained draw and average pointwise, with 5%/95%
pointwise bands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ForecastRequest
from .model import ChainOutput, MARSpec, TimeSeries, quantile
from .summary import mixture_density

MAX_EXACT_PATHS = 1_000_000
PRUNE_WEIGHT = 1e-12
MC_CHUNK = 4096  # Monte Carlo paths simulated and evaluated together


@dataclass(frozen=True)
class ForecastResult:
    """Averaged density on the grid with its bands, and the predictive moments.

    predictive_mean and predictive_sd are the moments of the posterior-
    averaged predictive distribution over the same thinned draws as the
    density, from the moment recursion, so they include the mass beyond
    the grid's ends.
    """

    grid: np.ndarray
    mean_density: np.ndarray
    lower_90: np.ndarray
    upper_90: np.ndarray
    predictive_mean: float
    predictive_sd: float


def _history(series: TimeSeries, origin: int, p: int) -> np.ndarray:
    if not p <= origin <= series.n:
        raise ValueError(f"origin {origin} must satisfy {p} <= origin <= {series.n}")
    return series.values[origin - p : origin]


def _onestep_density(spec: MARSpec, recent: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Conditional mixture density on the grid; recent holds the last p values."""
    nu = spec.shifts + spec.phi_matrix() @ recent[::-1]
    return mixture_density(spec.weights, nu, spec.scales, grid)


def _push(mean, cov, y_mean, y_var, cross):
    """Mean and covariance of the last p values once y joins them as the most recent.

    mean (..., p) and cov (..., p, p) describe the window before y, most
    recent first; y has mean y_mean, variance y_var and covariance cross
    (..., p) with that window.  The oldest value leaves the window.
    """
    new_cov = np.empty_like(cov)
    new_cov[..., 0, 0] = y_var
    new_cov[..., 0, 1:] = cross[..., :-1]
    new_cov[..., 1:, 0] = cross[..., :-1]
    new_cov[..., 1:, 1:] = cov[..., :-1, :-1]
    return np.concatenate((y_mean[..., None], mean[..., :-1]), axis=-1), new_cov


def _exact_paths(spec: MARSpec, recent: np.ndarray, horizon: int):
    """Expand component paths; returns (weights, means, variances) at horizon.

    All paths are held at once: weights (paths,), and the mean vector
    (paths, p) and covariance (paths, p, p) of the last p values, most
    recent first.  Each step extends path i by component k as path
    i * g + k.  Path weights below PRUNE_WEIGHT are dropped and the
    remainder renormalized.  recent holds the last p observed values,
    oldest first.
    """
    g = spec.g
    if g**horizon > MAX_EXACT_PATHS:
        raise ValueError(
            f"exact mode would expand {g}^{horizon} > {MAX_EXACT_PATHS} paths; "
            "use the Monte Carlo mode for this horizon"
        )
    p = spec.max_order
    phi = spec.phi_matrix()
    w = np.ones(1)
    mean = recent[::-1][None, :].astype(float)
    cov = np.zeros((1, p, p))
    for _ in range(horizon):
        w = (w[:, None] * spec.weights).reshape(-1)
        rows = np.flatnonzero(w >= PRUNE_WEIGHT)
        if rows.size == 0:
            raise ValueError("all forecast paths pruned; weights degenerate")
        src, k = np.divmod(rows, g)
        w, mean, cov, f = w[rows], mean[src], cov[src], phi[k]
        cross = np.einsum("nij,nj->ni", cov, f)
        y_mean = spec.shifts[k] + np.einsum("ni,ni->n", f, mean)
        y_var = np.einsum("ni,ni->n", f, cross) + spec.scales[k] ** 2
        mean, cov = _push(mean, cov, y_mean, y_var, cross)
    return w / w.sum(), mean[:, 0], cov[:, 0, 0]


def _moments(weights, shifts, phi, scales, recent, horizon):
    """Mean and variance of y at the horizon for K specs at once.

    weights, shifts and scales are (K, g) and phi is (K, g, p), each AR row
    zero-padded to the common width p; recent holds the last p values,
    oldest first.  Returns the means (K,) and variances (K,).  The
    products are summed by matmul, as BLAS sums them for one spec; einsum
    rounds differently and would move the moments, and with them the
    default grid, by an ulp.
    """
    mean = np.tile(recent[::-1].astype(float), (phi.shape[0], 1))
    cov = np.zeros(phi.shape[:1] + phi.shape[2:] * 2)
    w = weights[:, None, :]
    wphi = (w @ phi)[:, 0]
    for _ in range(horizon):
        nu = shifts + (phi @ mean[..., None])[..., 0]
        y_mean = (w @ nu[..., None])[:, 0, 0]
        cross = (cov @ wphi[..., None])[..., 0]
        spread = (
            np.einsum("kgi,kij,kgj->kg", phi, cov, phi)
            + scales**2
            + (nu - y_mean[:, None]) ** 2
        )
        y_var = (w @ spread[..., None])[:, 0, 0]
        mean, cov = _push(mean, cov, y_mean, y_var, cross)
    return mean[:, 0], cov[:, 0, 0]


def _chain_moments(output: ChainOutput, draws, series, origin, horizon):
    """`_moments` of the chosen draws of a chain, phi zero-padded to their widest order."""
    orders = output.orders[draws]
    p = int(orders.max())
    phi = np.where(np.arange(p) < orders[..., None], output.ar[draws, :, :p], 0.0)
    recent = _history(series, origin, p)
    return _moments(
        output.weights[draws], output.shifts[draws], phi, output.scales[draws], recent, horizon
    )


def predictive_moments(
    spec: MARSpec, series: TimeSeries, origin: int, horizon: int
) -> tuple[float, float]:
    """Mean and variance of y_{origin+horizon} given data up to origin.

    With the component K drawn afresh each step, y = shift_K + phi_K . lags
    + scale_K eps, so the mean vector and covariance of the last p values
    follow in closed form: O(horizon g p^2), with no path expansion.
    """
    recent = _history(series, origin, spec.max_order)
    mean, var = _moments(
        spec.weights[None],
        spec.shifts[None],
        spec.phi_matrix()[None],
        spec.scales[None],
        recent,
        horizon,
    )
    return float(mean[0]), float(var[0])


def predictive_density_fixed(
    spec: MARSpec,
    series: TimeSeries,
    origin: int,
    horizon: int,
    grid: np.ndarray,
    mode: str = "exact",
    rng: np.random.Generator | None = None,
    mc_paths: int = 10_000,
) -> np.ndarray:
    """Predictive density of y_{origin+horizon} on the grid, for one spec.

    Exact mode expands the Gaussian path mixture; Monte Carlo mode averages
    one-step conditional densities over simulated continuations (for h = 1
    both coincide with the conditional density and no simulation is run).
    """
    grid = np.asarray(grid, dtype=float).reshape(-1)
    recent = _history(series, origin, spec.max_order)
    if horizon == 1:
        return _onestep_density(spec, recent, grid)
    if mode == "exact":
        w, m, v = _exact_paths(spec, recent, horizon)
        return mixture_density(w, m, np.sqrt(v), grid)
    if mode != "monte-carlo":
        raise ValueError(f"unknown mode {mode!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    return _mc_density(spec, recent, horizon, grid, rng, mc_paths)


def _mc_density(spec, recent, horizon, grid, rng, n_paths):
    p = spec.max_order
    g = spec.g
    phi = spec.phi_matrix()
    acc = np.zeros(grid.size)
    done = 0
    while done < n_paths:
        m = min(MC_CHUNK, n_paths - done)
        hist = np.tile(recent[::-1], (m, 1))  # most recent value in column 0
        for _ in range(horizon - 1):
            labels = rng.choice(g, size=m, p=spec.weights)
            nu = spec.shifts[labels] + np.einsum("ij,ij->i", phi[labels], hist)
            y = nu + spec.scales[labels] * rng.standard_normal(m)
            hist = np.column_stack((y, hist[:, : p - 1])) if p > 1 else y[:, None]
        nu = spec.shifts + hist @ phi.T
        acc += mixture_density(
            np.tile(spec.weights, m), nu.reshape(-1), np.tile(spec.scales, m), grid
        )
        done += m
    return acc / n_paths


def default_grid(
    output: ChainOutput | MARSpec,
    series: TimeSeries,
    origin: int,
    horizon: int,
    points: int = 512,
    sd_span: float = 6.0,
) -> np.ndarray:
    """Equally spaced grid covering the predictive mean +- sd_span max SDs.

    For chain output the span covers all thinned draws' predictive moments.
    """
    if isinstance(output, MARSpec):
        mean, var = np.array([predictive_moments(output, series, origin, horizon)]).T
    else:
        draws = np.arange(0, output.n_draws, max(1, output.n_draws // 40))
        mean, var = _chain_moments(output, draws, series, origin, horizon)
    sd = np.sqrt(var)
    lo = float(np.min(mean - sd_span * sd))
    hi = float(np.max(mean + sd_span * sd))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("predictive moments of the draws are not finite")
    return np.linspace(lo, hi, points)


def posterior_averaged_forecast(
    output: ChainOutput,
    series: TimeSeries,
    request: ForecastRequest,
) -> ForecastResult:
    """Average per-draw predictive densities over the thinned chain.

    Returns the pointwise mean density and pointwise 5%/95% quantile bands
    across the per-draw density ordinates, and the mean and SD of the
    averaged predictive distribution: the mean of the per-draw means, and
    E[var + mean^2] - mean^2 over the same draws.
    """
    origin = series.n if request.origin is None else request.origin
    if request.grid is not None:
        grid = request.grid
    else:
        grid = default_grid(output, series, origin, request.horizon)
    idx = np.arange(0, output.n_draws, request.thin)
    rng = np.random.default_rng(request.seed) if request.mode == "monte-carlo" else None
    rows = np.empty((idx.size, grid.size))
    for r, i in enumerate(idx):
        rows[r] = predictive_density_fixed(
            output.spec_at(i),
            series,
            origin,
            request.horizon,
            grid,
            mode=request.mode,
            rng=rng,
            mc_paths=request.mc_paths,
        )
    means, variances = _chain_moments(output, idx, series, origin, request.horizon)
    mean = float(means.mean())
    second = float(np.mean(variances + means**2))
    return ForecastResult(
        grid=grid,
        mean_density=rows.mean(axis=0),
        lower_90=quantile(rows, 0.05),
        upper_90=quantile(rows, 0.95),
        predictive_mean=mean,
        predictive_sd=math.sqrt(max(second - mean**2, 0.0)),
    )
