"""Reference computations that the benchmark checks mixar's outputs against.

Everything here is written from the model's definition with numpy and scipy
alone; nothing imports mixar, so a fault in the program cannot cancel out of
a comparison.  Conventions follow the package's documentation: Gamma
distributions are (shape, rate), AR coefficient vectors list lag 1 first,
and the conditional likelihood conditions on the first `cond` values.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, logsumexp, ndtr

LOG_2PI = math.log(2.0 * math.pi)


def prior_constants(y: np.ndarray) -> dict[str, float]:
    """The stated data-driven prior: zeta = min + R/2, kappa = 1/R, b = 10/R^2."""
    lo, hi = float(np.min(y)), float(np.max(y))
    r = hi - lo
    return {"zeta": lo + r / 2.0, "kappa": 1.0 / r, "b": 10.0 / r**2, "a": 0.2, "c": 2.0}


def mixture_loglik(y, weights, shifts, ar, scales, cond: int) -> float:
    """sum_{t > cond} log sum_k pi_k N(y_t | phi_k0 + sum_i phi_ki y_{t-i}, sigma_k^2)."""
    y = np.asarray(y, dtype=float)
    target = y[cond:]
    terms = np.empty((target.size, len(weights)))
    for k, coeffs in enumerate(ar):
        mean = np.full(target.size, float(shifts[k]))
        for i, phi in enumerate(coeffs, start=1):
            mean += phi * y[cond - i : y.size - i]
        z = (target - mean) / scales[k]
        terms[:, k] = math.log(weights[k]) - math.log(scales[k]) - 0.5 * z * z - 0.5 * LOG_2PI
    return float(logsumexp(terms, axis=1).sum())


def log_prior(weights, means, scales, hyper: dict[str, float]) -> float:
    """Dirichlet(1,..,1) on pi, N(zeta, 1/kappa) on each mean, and the compound
    Gamma prior on the precisions with lambda ~ Gamma(a, b) integrated out;
    the flat prior on the stable AR region contributes zero."""
    g = len(weights)
    a, b, c = hyper["a"], hyper["b"], hyper["c"]
    tau = 1.0 / np.asarray(scales, dtype=float) ** 2
    lp = float(gammaln(g))
    d = np.asarray(means, dtype=float) - hyper["zeta"]
    lp += float(np.sum(0.5 * math.log(hyper["kappa"] / (2.0 * math.pi)) - 0.5 * hyper["kappa"] * d * d))
    lp += float(
        gammaln(a + g * c) - gammaln(a) - g * gammaln(c) + a * math.log(b)
        + (c - 1.0) * np.log(tau).sum() - (a + g * c) * math.log(b + tau.sum())
    )
    return lp


def stability_radius(weights, ar) -> float:
    """Spectral radius of sum_k pi_k (A_k kron A_k) with companions padded to max order."""
    p = max(len(c) for c in ar)
    total = np.zeros((p * p, p * p))
    for w, coeffs in zip(weights, ar):
        comp = np.zeros((p, p))
        comp[0, : len(coeffs)] = coeffs
        comp[1:, :-1] += np.eye(p - 1)
        total += w * np.kron(comp, comp)
    return float(np.max(np.abs(np.linalg.eigvals(total))))


def ar1_log_evidence(y, hyper: dict[str, float], phi_points: int = 1001, tau_points: int = 401) -> float:
    """log f(y_2..n | y_1) of a one-component AR(1) with a free mean, by quadrature.

    phi has density 1 on (-1, 1) (the stable region), the mean prior
    N(zeta, 1/kappa) is integrated analytically given (phi, tau), and the
    compound Gamma prior on tau is integrated numerically on a log-tau grid.
    """
    y = np.asarray(y, dtype=float)
    x, t = y[:-1], y[1:]
    n = t.size
    kappa, zeta = hyper["kappa"], hyper["zeta"]
    a, b, c = hyper["a"], hyper["b"], hyper["c"]
    phi = np.linspace(-1.0, 1.0, phi_points)
    bk = 1.0 - phi
    # shift-free residual r_t = y_t - phi y_{t-1} = mu (1 - phi) + e_t
    s_r = t.sum() - phi * x.sum()
    s_rr = (t @ t) - 2.0 * phi * (t @ x) + phi**2 * (x @ x)
    # least-squares residual variance sets the tau grid
    beta = np.polyfit(x, t, 1)
    tau_hat = 1.0 / np.var(t - np.polyval(beta, x))
    log_tau = np.linspace(math.log(tau_hat) - 4.0, math.log(tau_hat) + 4.0, tau_points)
    tau = np.exp(log_tau)[:, None]
    prec = tau * bk**2 * n + kappa
    lin = tau * bk * s_r + kappa * zeta
    log_lik_mu = (
        0.5 * n * (np.log(tau) - LOG_2PI)
        + 0.5 * math.log(kappa) - 0.5 * np.log(prec)
        - 0.5 * tau * s_rr - 0.5 * kappa * zeta**2 + 0.5 * lin**2 / prec
    )
    log_prior_tau = (
        gammaln(a + c) - gammaln(a) - gammaln(c) + a * math.log(b)
        + (c - 1.0) * np.log(tau) - (a + c) * np.log(b + tau)
    )
    # d tau = tau d log tau
    integrand = log_lik_mu + log_prior_tau + np.log(tau)
    w_tau = np.full(tau_points, log_tau[1] - log_tau[0])
    w_tau[[0, -1]] *= 0.5
    w_phi = np.full(phi_points, phi[1] - phi[0])
    w_phi[[0, -1]] *= 0.5
    return float(logsumexp(integrand + np.log(w_tau)[:, None] + np.log(w_phi)[None, :]))


def predictive_moments(weights, shifts, ar, scales, recent, horizon: int) -> tuple[float, float]:
    """Mean and variance of y_{n+h} given the last p values (oldest first).

    Propagates first and second moments of the last p values: with component
    K drawn independently of the past, y = phi_K0 + phi_K . lags + sigma_K eps.
    """
    p = max(len(c) for c in ar)
    phi = np.zeros((len(weights), p))
    for k, coeffs in enumerate(ar):
        phi[k, : len(coeffs)] = coeffs
    m = np.asarray(recent, dtype=float)[::-1][:p].copy()  # most recent first
    s = np.outer(m, m)
    for _ in range(horizon):
        m_new = 0.0
        cross = np.zeros(p)
        sq = 0.0
        for k, w in enumerate(weights):
            f0, f = shifts[k], phi[k]
            m_new += w * (f0 + f @ m)
            cross += w * (f0 * m + s @ f)
            sq += w * (f0 * f0 + 2.0 * f0 * (f @ m) + f @ s @ f + scales[k] ** 2)
        s_next = np.empty((p, p))
        s_next[0, 0] = sq
        s_next[0, 1:] = cross[:-1]
        s_next[1:, 0] = cross[:-1]
        s_next[1:, 1:] = s[:-1, :-1]
        m = np.concatenate(([m_new], m[:-1]))
        s = s_next
    return float(m[0]), float(s[0, 0] - m[0] ** 2)


def path_mixture(weights, shifts, ar, scales, recent, horizon: int):
    """The exact predictive of y_{n+h} as a Gaussian mixture over all g^h component paths.

    Given a path, the last p values are jointly Gaussian; each step appends
    y = phi_k0 + phi_k . lags + sigma_k eps and propagates their mean vector
    and covariance matrix.  Returns the path weights, means and variances.
    """
    g = len(weights)
    p = max(len(c) for c in ar)
    phi = np.zeros((g, p))
    for k, coeffs in enumerate(ar):
        phi[k, : len(coeffs)] = coeffs
    w = np.ones(1)
    mean = np.asarray(recent, dtype=float)[::-1][:p][None, :].copy()
    cov = np.zeros((1, p, p))
    for _ in range(horizon):
        k = np.tile(np.arange(g), w.size)
        w = np.repeat(w, g) * np.asarray(weights)[k]
        mean = np.repeat(mean, g, axis=0)
        cov = np.repeat(cov, g, axis=0)
        f = phi[k]
        y_mean = np.asarray(shifts)[k] + np.einsum("ni,ni->n", f, mean)
        cross = np.einsum("ni,nij->nj", f, cov)
        y_var = np.einsum("ni,ni->n", cross, f) + np.asarray(scales)[k] ** 2
        new_cov = np.empty_like(cov)
        new_cov[:, 0, 0] = y_var
        new_cov[:, 0, 1:] = cross[:, :-1]
        new_cov[:, 1:, 0] = cross[:, :-1]
        new_cov[:, 1:, 1:] = cov[:, :-1, :-1]
        mean = np.column_stack((y_mean, mean[:, :-1]))
        cov = new_cov
    return w, mean[:, 0].copy(), cov[:, 0, 0].copy()


def mixture_density(w, m, v, grid) -> np.ndarray:
    sd = np.sqrt(v)
    z = (np.asarray(grid, dtype=float)[None, :] - m[:, None]) / sd[:, None]
    return (w / sd) @ np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def tail_moments(w, m, v, lo: float, hi: float) -> np.ndarray:
    """Raw moments 0, 1, 2 of a Gaussian mixture over (-inf, lo) and (hi, inf) together."""
    s = np.sqrt(v)
    alpha, beta = (lo - m) / s, (hi - m) / s
    below, above = ndtr(alpha), ndtr(-beta)
    pdf_a = np.exp(-0.5 * alpha**2) / math.sqrt(2.0 * math.pi)
    pdf_b = np.exp(-0.5 * beta**2) / math.sqrt(2.0 * math.pi)
    t0 = below + above
    t1 = m * t0 - s * pdf_a + s * pdf_b
    t2 = (m * m + v) * t0 - s * pdf_a * (m + lo) + s * pdf_b * (m + hi)
    return np.array([w @ t0, w @ t1, w @ t2])


def raw_moments(x, density) -> np.ndarray:
    """Integrals of x^0, x^1 and x^2 times the density over the grid (trapezoid rule)."""
    x = np.asarray(x, dtype=float)
    return np.array([np.trapezoid(x**j * density, x) for j in range(3)])


def ks_distance(x, f1, f2) -> float:
    """Largest gap between the two grid densities' cumulative trapezoid integrals."""
    dx = np.diff(np.asarray(x, dtype=float))
    c1 = np.concatenate(([0.0], np.cumsum(0.5 * (f1[1:] + f1[:-1]) * dx)))
    c2 = np.concatenate(([0.0], np.cumsum(0.5 * (f2[1:] + f2[:-1]) * dx)))
    return float(np.max(np.abs(c1 - c2)))


def ess_geyer(draws) -> float:
    """Effective sample size by Geyer's initial monotone positive sequence."""
    x = np.asarray(draws, dtype=float)
    n = x.size
    x = x - x.mean()
    var = float(x @ x) / n
    if var == 0.0:
        return float(n)
    spec = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(spec * np.conj(spec))[:n] / n
    rho = acov / acov[0]
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    total = 0.0
    last = math.inf
    for gamma in pairs:
        if gamma <= 0.0:
            break
        gamma = min(gamma, last)
        total += gamma
        last = gamma
    tau = -1.0 + 2.0 * total
    return float(n / max(tau, 1.0 / n))
