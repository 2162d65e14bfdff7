"""Posterior summaries: moments, highest-density regions, averaged densities."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

try:
    from numpy import trapezoid as _trapezoid
except ImportError:  # numpy < 2
    from numpy import trapz as _trapezoid

GRID_POINTS = 512
BLOCK = 1 << 16  # entries per block of mixture_density: 512 KB of doubles


@dataclass(frozen=True)
class ParameterSummary:
    name: str
    mean: float
    standard_error: float
    hpdr_90: tuple[float, float]
    hd_value: float


@dataclass(frozen=True)
class DensityGrid:
    """A density evaluated on equally spaced abscissae."""

    x: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).reshape(-1)
        d = np.asarray(self.density, dtype=float).reshape(-1)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "density", d)
        if x.size != d.size:
            raise ValueError("abscissa and density lengths differ")
        if x.size < 2:
            raise ValueError("need at least two grid points")
        if np.any(np.diff(x) <= 0):
            raise ValueError("abscissae must be strictly increasing")
        if np.any(d < 0):
            raise ValueError("densities must be nonnegative")

    def integral(self) -> float:
        return float(_trapezoid(self.density, self.x))

    def mode(self) -> float:
        return float(self.x[int(np.argmax(self.density))])


def mixture_density(
    weights: np.ndarray, means: np.ndarray, sds: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Gaussian mixture density sum_i weights_i N(x; means_i, sds_i^2) at the points x.

    The (points x components) matrix is filled BLOCK entries at a time, at
    least one grid point's row per block, in one buffer reused for every
    block.  The components form the contiguous inner axis, so the
    broadcast operations pay their per-row cost once per grid point rather
    than once per component: (x - m)^2 * (-1 / 2s^2), exponentiated in
    place, then each row summed weighted by w / s into that point's
    density.  Memory beyond the inputs and output stays
    O(BLOCK + components + points) however many there are.
    """
    n, k = x.size, weights.size
    rows = max(1, BLOCK // max(k, 1))
    scale = -0.5 / (sds * sds)
    ws = weights / sds
    buf = np.empty(min(rows, n) * k)
    out = np.empty(n)
    for a in range(0, n, rows):
        b = min(a + rows, n)
        z = buf[: (b - a) * k].reshape(b - a, k)
        np.subtract(x[a:b, None], means, out=z)
        np.square(z, out=z)
        z *= scale
        np.matmul(np.exp(z, out=z), ws, out=out[a:b])
    return out / math.sqrt(2.0 * math.pi)


def kde(draws: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gaussian kernel density estimate of the draws at x, Silverman bandwidth.

    The bandwidth is std(ddof=1) * (3n/4)^(-1/5), as in
    scipy.stats.gaussian_kde(draws, bw_method="silverman").
    """
    n = draws.size
    h = float(draws.std(ddof=1)) * (0.75 * n) ** -0.2
    return mixture_density(np.full(n, 1.0 / n), draws, np.full(n, h), x)


def _shortest_interval(sorted_draws: np.ndarray, mass: float) -> tuple[float, float]:
    n = sorted_draws.size
    m = int(math.ceil(mass * n))
    m = min(max(m, 1), n)
    if m == n:
        return float(sorted_draws[0]), float(sorted_draws[-1])
    widths = sorted_draws[m - 1 :] - sorted_draws[: n - m + 1]
    i = int(np.argmin(widths))
    return float(sorted_draws[i]), float(sorted_draws[i + m - 1])


def check_draw_count(n_draws: int) -> None:
    """The summaries need at least 100 retained draws per parameter."""
    if n_draws < 100:
        raise ValueError(f"need at least 100 draws to summarize, got {n_draws}")


def summarize(draws: np.ndarray, name: str = "") -> ParameterSummary:
    """Posterior mean, chain SD, shortest 90% interval and the density peak.

    The 90% region is the shortest empirical interval containing 90% of the
    draws; hd_value is the abscissa maximizing a Gaussian kernel density
    estimate (Silverman bandwidth).  Requires at least 100 draws.
    """
    draws = np.asarray(draws, dtype=float).reshape(-1)
    check_draw_count(draws.size)
    if not np.all(np.isfinite(draws)):
        raise ValueError("draws must be finite")
    mean = float(draws.mean())
    sd = float(draws.std(ddof=1))
    srt = np.sort(draws)
    hpdr = _shortest_interval(srt, 0.90)
    if srt[0] == srt[-1]:
        hd = float(srt[0])
    else:
        grid = np.linspace(srt[0], srt[-1], GRID_POINTS)
        hd = float(grid[int(np.argmax(kde(draws, grid)))])
    return ParameterSummary(
        name=name, mean=mean, standard_error=sd, hpdr_90=hpdr, hd_value=hd
    )


def density_grid(draws: np.ndarray, lower: float, upper: float) -> DensityGrid:
    """Gaussian KDE (Silverman bandwidth) of the draws on GRID_POINTS points of [lower, upper]."""
    draws = np.asarray(draws, dtype=float).reshape(-1)
    if upper <= lower:
        raise ValueError(f"upper bound {upper} must exceed lower bound {lower}")
    if draws.size < 2 or np.all(draws == draws[0]):
        raise ValueError("draws are degenerate; a kernel density estimate is undefined")
    x = np.linspace(lower, upper, GRID_POINTS)
    return DensityGrid(x=x, density=kde(draws, x))


def average_density(grids: list[DensityGrid]) -> DensityGrid:
    """Pointwise mean of densities sharing one abscissa grid."""
    if not grids:
        raise ValueError("need at least one density grid")
    x0 = grids[0].x
    for gr in grids[1:]:
        if gr.x.size != x0.size or not np.array_equal(gr.x, x0):
            raise ValueError("all grids must share the same abscissae")
    dens = np.mean(np.stack([gr.density for gr in grids]), axis=0)
    return DensityGrid(x=x0.copy(), density=dens)
