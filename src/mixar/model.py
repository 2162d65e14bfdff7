"""Gaussian mixture autoregressive (MAR) models.

A MAR model with g components and orders (p_1, ..., p_g) describes y_t through
its conditional distribution given the past,

    F(y_t | past) = sum_k pi_k * Phi((y_t - phi_k0 - sum_i phi_ki y_{t-i}) / sigma_k),

a g-component mixture of Gaussian AR regressions.  This module holds the model
specification type and the deterministic quantities derived from it:
one-step conditional densities and moments, likelihoods, the theoretical
autocorrelation function and path simulation.

Conventions used throughout the package:

* component indices k are 1-based (1 <= k <= g),
* time indices t are 1-based (1 <= t <= n),
* AR coefficient vectors are zero-padded to the maximum order where a
  rectangular layout is convenient.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)
SQRT_2 = math.sqrt(2.0)
SIM_BURN_IN = 500  # warm-up steps `simulate_path` discards


@dataclass(frozen=True)
class MARSpec:
    """Full parameterization of a mixture autoregressive model.

    Attributes:
        weights: mixing weights pi_k, positive, summing to one.
        shifts: per-component shifts phi_k0.
        ar_coeffs: tuple of per-component AR coefficient vectors; the length
            of the k-th vector is that component's order p_k.
        scales: per-component standard deviations sigma_k, all positive.
        orders: per-component orders p_k, derived from ar_coeffs.
    """

    weights: np.ndarray
    shifts: np.ndarray
    ar_coeffs: tuple[np.ndarray, ...]
    scales: np.ndarray

    orders: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _phi: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        sh = np.asarray(self.shifts, dtype=float)
        sc = np.asarray(self.scales, dtype=float)
        ar = tuple(np.asarray(a, dtype=float).reshape(-1) for a in self.ar_coeffs)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "shifts", sh)
        object.__setattr__(self, "ar_coeffs", ar)
        object.__setattr__(self, "scales", sc)
        orders = tuple(a.size for a in ar)
        object.__setattr__(self, "orders", orders)
        g = w.size
        # One pass over every value decides; the per-field checks run only
        # to name what is wrong.
        if not (
            g >= 1
            and sh.size == g
            and sc.size == g
            and len(ar) == g
            and min(orders) >= 1
            and np.isfinite(values := np.concatenate((w, sc, sh, *ar), axis=None)).all()
            and values[: 2 * g].min() > 0.0
            and abs(w.sum() - 1.0) <= 1e-8
        ):
            _check_fields(w, sh, sc, ar)
        phi = np.zeros((g, max(orders)))
        for k, a in enumerate(ar):
            phi[k, : a.size] = a
        phi.flags.writeable = False
        object.__setattr__(self, "_phi", {phi.shape[1]: phi})

    @property
    def g(self) -> int:
        return self.weights.size

    @property
    def max_order(self) -> int:
        return max(self.orders)

    @property
    def precisions(self) -> np.ndarray:
        """Component precisions tau_k = 1 / sigma_k^2."""
        return 1.0 / self.scales**2

    def phi_matrix(self, width: int | None = None) -> np.ndarray:
        """AR coefficients as a read-only (g, width) matrix, zero-padded on the right.

        Built once per spec and width.
        """
        width = self.max_order if width is None else int(width)
        out = self._phi.get(width)
        if out is None:
            if width < self.max_order:
                raise ValueError("width smaller than the maximum order")
            out = np.zeros((self.g, width))
            out[:, : self.max_order] = self._phi[self.max_order]
            out.flags.writeable = False
            self._phi[width] = out
        return out

    def with_ar(self, k: int, coeffs: np.ndarray) -> MARSpec:
        """The same model with component k's (1-based) AR block replaced by coeffs."""
        ar = list(self.ar_coeffs)
        ar[k - 1] = coeffs
        return MARSpec(
            weights=self.weights, shifts=self.shifts, ar_coeffs=tuple(ar), scales=self.scales
        )


def _check_fields(w, sh, sc, ar) -> None:
    """The per-field checks of `MARSpec`, raising on the first that fails."""
    g = w.size
    if g < 1:
        raise ValueError("need at least one component")
    if sh.size != g or sc.size != g or len(ar) != g:
        raise ValueError("weights, shifts, ar_coeffs and scales must all have length g")
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise ValueError("every mixing weight must be positive and finite")
    if abs(w.sum() - 1.0) > 1e-8:
        raise ValueError(f"mixing weights must sum to 1, got {w.sum()!r}")
    if not np.all(np.isfinite(sc)) or np.any(sc <= 0.0):
        raise ValueError("every scale must be positive and finite")
    if not np.all(np.isfinite(sh)):
        raise ValueError("shifts must be finite")
    for k, a in enumerate(ar, start=1):
        if a.size < 1:
            raise ValueError(f"component {k} must have order >= 1")
        if not np.all(np.isfinite(a)):
            raise ValueError(f"AR coefficients of component {k} must be finite")


@dataclass(frozen=True)
class TimeSeries:
    """An observed univariate series y_1, ..., y_n."""

    values: np.ndarray
    designs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        object.__setattr__(self, "values", v)
        if v.size < 1:
            raise ValueError("series must contain at least one observation")
        if not np.all(np.isfinite(v)):
            raise ValueError("series values must be finite")

    def design(self, cond: int) -> tuple[np.ndarray, np.ndarray]:
        """The read-only design arrays of `_design` for `cond`, built once per cond."""
        out = self.designs.get(cond)
        if out is None:
            out = _design(self.values, cond)
            for a in out:
                a.flags.writeable = False
            self.designs[cond] = out
        return out

    @property
    def n(self) -> int:
        return self.values.size

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class LatentAllocation:
    """Component labels for observations t = t0, ..., n.

    z holds 1-based component labels; counts holds the per-component label
    counts n_1, ..., n_g (summing to len(z)); `members` the positions of
    each component's points.
    """

    z: np.ndarray
    g: int
    counts: np.ndarray = field(init=False)

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.int64).reshape(-1)
        object.__setattr__(self, "z", z)
        if self.g < 1:
            raise ValueError("g must be >= 1")
        # The label count is the range check too: bincount refuses negative
        # labels and counts label 0 in its first entry; the maximum bounds its length.
        try:
            full = None if z.size and z.max() > self.g else np.bincount(z, minlength=self.g + 1)
        except ValueError:
            full = None
        if full is None or full[0]:
            raise ValueError("labels must lie in 1..g")
        object.__setattr__(self, "counts", full[1:])

    @functools.cached_property
    def members(self) -> tuple[np.ndarray, ...]:
        """For each component k = 1..g, the ascending positions t with z_t = k.

        Built on first read and shared by every kernel that gathers one
        component's points.
        """
        return tuple(np.flatnonzero(self.z == k) for k in range(1, self.g + 1))


def _check_time(series: TimeSeries, t: int, p: int) -> None:
    if not p < t <= series.n:
        raise ValueError(f"time index t={t} must satisfy {p} < t <= {series.n}")


def _lag_vector(values: np.ndarray, t: int, p: int) -> np.ndarray:
    """(y_{t-1}, ..., y_{t-p}) for 1-based t."""
    return values[t - 1 - p : t - 1][::-1]


def lag_matrix(values: np.ndarray, p: int, t0: int) -> np.ndarray:
    """Matrix of lagged values, row t - t0, column i-1 holding y_{t-i}.

    Rows cover t = t0, ..., n (1-based); requires t0 > p.
    """
    n = values.size
    if not p < t0 <= n:
        raise ValueError(f"t0={t0} must satisfy {p} < t0 <= {n}")
    cols = [values[t0 - 1 - i : n - i] for i in range(1, p + 1)]
    return np.column_stack(cols) if cols else np.empty((n - t0 + 1, 0))


def _resolve_cond(spec: MARSpec, series: TimeSeries, cond: int | None) -> int:
    """Number of leading observations to condition on; defaults to the maximum order."""
    c = spec.max_order if cond is None else int(cond)
    if c < spec.max_order:
        raise ValueError("cannot condition on fewer observations than the maximum order")
    if series.n <= c:
        raise ValueError(f"series of length {series.n} too short to condition on {c} values")
    return c


def _design(values: np.ndarray, cond: int) -> tuple[np.ndarray, np.ndarray]:
    """Targets y_t and the (T, cond) lag matrix for t = cond+1 .. n."""
    return values[cond:], lag_matrix(values, cond, cond + 1)


def row_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the short second axis of a 2-D array, adding columns left to right.

    A single column comes back as a view of that column.
    """
    return functools.reduce(np.add, a.T)


def logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """log sum exp(a) over `axis` (all entries when None), shifted by the maximum.

    A slice that is all -inf gives -inf, so callers can detect it.  Over the
    first axis of a (g, T) array of log terms the maximum and the sum run
    one component row at a time over all T columns, adding rows top to
    bottom.
    """
    a = np.asarray(a, dtype=float)
    top = np.max(a, axis=axis, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    out = np.sum(np.exp(a - top), axis=axis, keepdims=True)
    with np.errstate(divide="ignore"):
        np.log(out, out=out)
    out += top
    return out.reshape(()).item() if axis is None else np.squeeze(out, axis=axis)


def fitted_ar(spec: MARSpec, lm: np.ndarray) -> np.ndarray:
    """(g, T) AR parts sum_i phi_ki y_{t-i} of the component means on the lag matrix lm.

    Computed as lm @ phi^T and stored transposed, so every kernel that
    reads it gets the same bits.
    """
    return np.ascontiguousarray((lm @ spec.phi_matrix(lm.shape[1]).T).T)


def _log_terms(
    spec: MARSpec, yt: np.ndarray, lm: np.ndarray, fitted: np.ndarray | None = None
) -> np.ndarray:
    """(g, T) matrix of log(pi_k / sigma_k phi(e_kt / sigma_k)), columns unnormalized.

    Component-major: row k holds component k's term at every design time.
    yt and lm are design arrays from `_design`; lm may be wider than the
    maximum order (the extra columns meet zero coefficients).  fitted is
    `fitted_ar(spec, lm)` when it is already at hand.
    """
    if fitted is None:
        fitted = fitted_ar(spec, lm)
    e = (yt - spec.shifts[:, None] - fitted) / spec.scales[:, None]
    return (np.log(spec.weights) - np.log(spec.scales))[:, None] - 0.5 * e**2 - 0.5 * LOG_2PI


def _mixture_loglik(spec: MARSpec, yt: np.ndarray, lm: np.ndarray) -> float:
    """Sum over design times of log sum_k exp(log term): the conditional log likelihood."""
    return float(np.sum(logsumexp(_log_terms(spec, yt, lm), axis=0)))


def component_means_at(spec: MARSpec, values: np.ndarray, t: int) -> np.ndarray:
    """Conditional component means nu_tk = phi_k0 + sum_i phi_ki y_{t-i}."""
    p = spec.max_order
    lags = _lag_vector(values, t, p)
    return spec.shifts + spec.phi_matrix() @ lags


def conditional_pdf(spec: MARSpec, series: TimeSeries, t: int) -> float:
    """One-step-ahead predictive density of y_t given its past."""
    _check_time(series, t, spec.max_order)
    lags = _lag_vector(series.values, t, spec.max_order)[None, :]
    return float(np.exp(logsumexp(_log_terms(spec, series.values[t - 1 : t], lags))))


def conditional_cdf(spec: MARSpec, series: TimeSeries, t: int) -> float:
    """One-step-ahead predictive CDF of y_t given its past."""
    _check_time(series, t, spec.max_order)
    nu = component_means_at(spec, series.values, t)
    e = (series.values[t - 1] - nu) / spec.scales
    return float(np.dot(spec.weights, [0.5 * math.erfc(-x / SQRT_2) for x in e.tolist()]))


def conditional_moments(spec: MARSpec, series: TimeSeries, t: int) -> tuple[float, float]:
    """Conditional mean and variance of y_t given its past.

    mean = sum_k pi_k nu_tk,
    var  = sum_k pi_k sigma_k^2 + sum_k pi_k nu_tk^2 - (sum_k pi_k nu_tk)^2.
    """
    _check_time(series, t, spec.max_order)
    nu = component_means_at(spec, series.values, t)
    mean = float(np.dot(spec.weights, nu))
    var = float(
        np.dot(spec.weights, spec.scales**2)
        + np.dot(spec.weights, nu**2)
        - mean**2
    )
    return mean, var


def shift_from_mean(mu: float, ar: np.ndarray) -> float:
    """Inverse transform phi_k0 = mu_k (1 - sum_i phi_ki)."""
    return float(mu) * (1.0 - float(np.sum(ar)))


def log_likelihood(spec: MARSpec, series: TimeSeries, cond: int | None = None) -> float:
    """Conditional log likelihood sum_{t>cond} log f(y_t | past).

    The first `cond` observations (default: the maximum order) are
    conditioned on and contribute no terms.
    """
    out = _mixture_loglik(spec, *series.design(_resolve_cond(spec, series, cond)))
    if not np.isfinite(out):
        raise ValueError("log likelihood is not finite; model collapsed numerically")
    return out


def theoretical_acf(spec: MARSpec, max_lag: int) -> np.ndarray:
    """Autocorrelations rho_0..rho_max_lag of a stable MAR model.

    Solves rho_h = sum_i c_i rho_{|h-i|} with aggregate coefficients
    c_i = sum_k pi_k phi_ki for h = 1..p as a linear system, then extends by
    recursion.  Raises on a singular system.
    """
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative")
    p = spec.max_order
    c = spec.weights @ spec.phi_matrix()
    rho = np.zeros(max_lag + 1)
    rho[0] = 1.0
    m = min(p, max_lag)
    if m >= 1:
        mat = np.eye(p)
        vec = np.zeros(p)
        for h in range(1, p + 1):
            for i in range(1, p + 1):
                lag = abs(h - i)
                if lag == 0:
                    vec[h - 1] += c[i - 1]
                else:
                    mat[h - 1, lag - 1] -= c[i - 1]
        try:
            sol = np.linalg.solve(mat, vec)
        except np.linalg.LinAlgError as err:
            raise ValueError(f"autocorrelation system is singular: {err}") from err
        rho[1 : m + 1] = sol[:m]
    for h in range(p + 1, max_lag + 1):
        rho[h] = sum(c[i - 1] * rho[h - i] for i in range(1, p + 1))
    return rho


def simulate_path(spec: MARSpec, n: int, seed: int | np.random.Generator) -> TimeSeries:
    """Simulate n observations from a stable MAR model.

    The recursion starts from zeros and discards SIM_BURN_IN warm-up steps.
    Refuses to simulate from an unstable specification.
    """
    from .stability import is_stable

    if n < 1:
        raise ValueError("n must be >= 1")
    report = is_stable(spec)
    if not report.stable:
        raise ValueError(
            f"refusing to simulate: spectral radius {report.spectral_radius:.6f} >= 1"
        )
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    p = spec.max_order
    total = n + SIM_BURN_IN
    labels = rng.choice(spec.g, size=total, p=spec.weights)
    eps = rng.standard_normal(total)
    shifts = spec.shifts.tolist()
    scales = spec.scales.tolist()
    phis = [a.tolist() for a in spec.ar_coeffs]
    hist = [0.0] * p
    out = np.empty(total)
    for t in range(total):
        k = labels[t]
        phi = phis[k]
        acc = shifts[k]
        for i, coef in enumerate(phi):
            acc += coef * hist[i]
        y = acc + scales[k] * eps[t]
        out[t] = y
        if p:
            hist.insert(0, y)
            hist.pop()
    return TimeSeries(out[SIM_BURN_IN:])
