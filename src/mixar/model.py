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
WEIGHT_SUM_TOL = 1e-8  # how far from one the mixing weights may sum


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
        check_fields(w, sh, sc, ar)
        g = w.size
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


def values_valid(positive: list[float], finite: list[float]) -> bool:
    """Whether the weights and scales in `positive` are positive and finite and the shifts
    and AR coefficients in `finite` finite; `check_fields` then names what is wrong."""
    return all(0.0 < x < math.inf for x in positive) and all(abs(x) < math.inf for x in finite)


def check_fields(w, sh, sc, ar) -> None:
    """The per-field checks of `MARSpec`, raising on the first that fails."""
    g = w.size
    if g < 1:
        raise ValueError("need at least one component")
    if sh.size != g or sc.size != g or len(ar) != g:
        raise ValueError("weights, shifts, ar_coeffs and scales must all have length g")
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise ValueError("every mixing weight must be positive and finite")
    if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"mixing weights must sum to 1, got {float(w.sum())}")
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


def left_sum(xs) -> float:
    """xs added left to right: numpy's order below 8 terms, and unlike the builtin
    sum (compensated from Python 3.12 on) the same on every interpreter."""
    total = 0.0
    for x in xs:
        total += x
    return total


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
    bottom.  One row is returned as it is: it is its own log-sum-exp bit for
    bit (top = row, exp 0 = 1, log 1 = 0, 0 + top = top; -inf and NaN too).
    """
    a = np.asarray(a, dtype=float)
    if axis == 0 and len(a) == 1:
        return a[0]
    top = a.max(axis=axis)
    if math.isfinite(top.sum()):
        # every sum holds a term exp(0) = 1, so the log sees no zero
        out = np.log(np.exp(a - top).sum(axis=axis))
    else:
        top = np.where(np.isfinite(top), top, 0.0)
        with np.errstate(divide="ignore"):
            out = np.log(np.exp(a - top).sum(axis=axis))
    out += top
    return float(out) if axis is None else out


def quantile(a: np.ndarray, q) -> np.ndarray:
    """np.quantile(a, q, axis=0) by numpy's linear method, bit for bit, for q a number or 1-D.

    np.quantile loads numpy.ma, 11-15 ms at a command's start.  As there,
    v = (n - 1) q splits into a floor i (-1 from n - 1 on) and a fraction t,
    s_i + (s_{i+1} - s_i) t is taken from s_{i+1} where t >= 0.5, and
    numpy's partition orders the values s, so ties of -0.0 and 0.0 fall alike.
    """
    s = np.array(a, dtype=float)
    v = (len(s) - 1) * np.asarray(q, dtype=float)
    lo = np.where(v >= len(s) - 1, -1.0, np.floor(v))
    t = (v - lo).reshape(v.shape + (1,) * (s.ndim - 1))
    lo, hi = lo.astype(np.intp), np.where(lo < 0, -1, lo + 1).astype(np.intp)
    s.partition(sorted({0, -1, *lo.ravel().tolist(), *hi.ravel().tolist()}), axis=0)
    diff = s[hi] - s[lo]
    out = s[lo] + diff * t
    np.subtract(s[hi], diff * (1 - t), out=out, where=t >= 0.5)
    return out


def fitted_ar(phi: np.ndarray, lm: np.ndarray) -> np.ndarray:
    """(g, T) AR parts sum_i phi_ki y_{t-i} of the component means on the lag matrix lm.

    phi is the (g, cond) AR matrix, zero-padded to the width of lm.
    Computed as lm @ phi^T and stored transposed, so every kernel that
    reads it gets the same bits.
    """
    return np.ascontiguousarray((lm @ phi.T).T)


def log_terms(
    weights: np.ndarray,
    shifts: np.ndarray,
    scales: np.ndarray,
    yt: np.ndarray,
    fitted: np.ndarray,
) -> np.ndarray:
    """(g, T) matrix of log(pi_k / sigma_k phi(e_kt / sigma_k)), columns unnormalized.

    Row k holds component k's term at every design time of the target yt;
    fitted is the (g, T) `fitted_ar` on its lag matrix.  Worked in one buffer.
    """
    e = yt - shifts[:, None]
    np.divide(np.subtract(e, fitted, out=e), scales[:, None], out=e)
    np.multiply(np.square(e, out=e), 0.5, out=e)
    np.subtract((np.log(weights) - np.log(scales))[:, None], e, out=e)
    return np.subtract(e, 0.5 * LOG_2PI, out=e)


def _log_terms(spec: MARSpec, yt: np.ndarray, lm: np.ndarray) -> np.ndarray:
    """`log_terms` of spec on the design (yt, lm); lm may be wider than the maximum order."""
    fitted = fitted_ar(spec.phi_matrix(lm.shape[1]), lm)
    return log_terms(spec.weights, spec.shifts, spec.scales, yt, fitted)


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


def log_likelihood(spec: MARSpec, series: TimeSeries, cond: int | None = None) -> float:
    """Conditional log likelihood sum_{t>cond} log f(y_t | past).

    The first `cond` observations (default: the maximum order) are
    conditioned on and contribute no terms.
    """
    yt, lm = series.design(_resolve_cond(spec, series, cond))
    out = float(np.sum(logsumexp(_log_terms(spec, yt, lm), axis=0)))
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
        rho[h] = left_sum([c[i - 1] * rho[h - i] for i in range(1, p + 1)])
    return rho


def simulate_path(spec: MARSpec, n: int, seed: int | np.random.Generator) -> TimeSeries:
    """Simulate n observations from a stable MAR model.

    The recursion starts from zeros and discards SIM_BURN_IN warm-up steps.
    Refuses to simulate from an unstable specification.
    """
    from .stability import is_stable

    if n < 1:
        raise ValueError("n must be >= 1")
    report = is_stable(spec.weights, spec.phi_matrix())
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
