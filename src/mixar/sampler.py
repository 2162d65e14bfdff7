"""Gibbs/Metropolis posterior sampler for MAR models.

The sampler targets the posterior under the prior structure

    pi ~ Dirichlet(1, ..., 1)
    mu_k ~ N(zeta, 1/kappa)          (component means; shifts phi_k0 = mu_k b_k)
    lambda ~ Gamma(a, b),  tau_k ~ Gamma(c, lambda)
    AR coefficient blocks ~ flat on the stability region

with one sweep updating, in order: allocations z, weights pi (from
Dirichlet(1 + counts)), means mu (skipped for fixed-shift models), the
precision hyperparameter lambda, precisions tau, then a random-walk
Metropolis step on each component's AR coefficients.  The Dirichlet prior is
exchangeable, so the posterior is invariant under relabelling components of
equal order.  A whole-model stability check is applied once per sweep: if
the end-of-sweep candidate is unstable the entire previous state is
restored.  Proposal precisions are tuned in a pilot (`tune_gamma`) and then
frozen.

Gamma distributions are parameterized by (shape, rate) throughout.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import (
    LatentAllocation,
    MARSpec,
    TimeSeries,
    _log_terms,
    _resolve_cond,
    fitted_ar,
    logsumexp,
    row_sum,
)
from .stability import is_stable, is_stable_phi


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
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
        if not np.isfinite(self.zeta):
            raise ValueError("zeta must be finite")
        if self.gamma is not None:
            try:
                gamma = float(self.gamma)
            except (TypeError, ValueError):
                raise ValueError(f"gamma must be a number, got {self.gamma!r}") from None
            object.__setattr__(self, "gamma", gamma)
        check_chain_settings(
            self.a, self.c, self.gamma, self.n_iter, self.burn_in, self.pilot_iters
        )


def check_chain_settings(a, c, gamma, n_iter, burn_in, pilot_iters) -> None:
    """Range rules on the Hyperparams fields that a run configuration sets."""
    if not (a > 0 and c > 0):
        raise ValueError("prior shape parameters a and c must be positive")
    if gamma is not None and not gamma > 0:
        raise ValueError("gamma must be positive")
    if not np.all(np.isfinite((a, c) + (() if gamma is None else (gamma,)))):
        raise ValueError("a, c and gamma must be finite")
    if n_iter < 1:
        raise ValueError("n_iter must be positive")
    if not 0 <= burn_in < n_iter:
        raise ValueError("burn_in must satisfy 0 <= burn_in < n_iter")
    if gamma is None and pilot_iters < 500:
        raise ValueError("pilot_iters must be at least 500 when gamma is tuned")


def default_hyperparams(series: TimeSeries, **overrides) -> Hyperparams:
    """Data-driven defaults: zeta = min + R/2, kappa = 1/R, b = 10/R^2.

    R is the observed range; a = 0.2 and c = 2 are fixed.  Raises on a
    constant series (R = 0).
    """
    lo = float(series.values.min())
    hi = float(series.values.max())
    r = hi - lo
    if r <= 0:
        raise ValueError("series is constant; the data-driven prior scale is undefined")
    base = dict(zeta=lo + r / 2.0, kappa=1.0 / r, b=10.0 / r**2)
    base.update(overrides)
    return Hyperparams(**base)


@dataclass(frozen=True)
class ChainState:
    """One point of the chain: spec, allocations, lambda, sampled means.

    `terms` memoizes the (g, T) log terms of `spec`, their per-time
    log-sum-exps and the (g, T) fitted AR parts on one design (see
    `state_log_terms`).  It is not an
    __init__ argument, so `dataclasses.replace` starts it empty and a state
    with a changed spec never carries terms of another.
    """

    spec: MARSpec
    alloc: LatentAllocation
    lam: float
    means: np.ndarray
    terms: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "means", np.asarray(self.means, dtype=float).reshape(-1))
        if self.means.size != self.spec.g:
            raise ValueError("means must have one entry per component")


@dataclass(frozen=True)
class SweepInfo:
    attempted: np.ndarray
    accepted: np.ndarray
    stability_rejected: bool


@dataclass
class ChainOutput:
    """Retained draws and run diagnostics of one chain.

    Arrays are indexed [draw, component(, lag)]; ar is zero-padded to a
    common width and `orders` gives per-draw component orders.
    """

    g: int
    cond: int
    weights: np.ndarray
    shifts: np.ndarray
    means: np.ndarray
    scales: np.ndarray
    ar: np.ndarray
    orders: np.ndarray
    lam: np.ndarray
    log_likelihoods: np.ndarray
    log_posteriors: np.ndarray
    acceptance: np.ndarray | None
    stability_rejections: int
    gamma: np.ndarray | None
    fixed_shift: bool

    @property
    def n_draws(self) -> int:
        return self.weights.shape[0]

    def spec_at(self, i: int) -> MARSpec:
        orders = self.orders[i]
        ar = tuple(self.ar[i, k, : orders[k]].copy() for k in range(self.g))
        return MARSpec(
            weights=self.weights[i].copy(),
            shifts=self.shifts[i].copy(),
            ar_coeffs=ar,
            scales=self.scales[i].copy(),
        )


# Block kernels, shared by the sweep, the reduced evidence chains and the
# order moves; data enter as the design arrays (yt, lm) of `TimeSeries.design`.


def state_log_terms(
    state: ChainState, values: np.ndarray, yt: np.ndarray, lm: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(g, T) log terms of state.spec on the design (yt, lm) of `values`, and their column norms.

    Component-major: row k holds component k's log term at every design
    time, and the norms are the (T,) log-sum-exps over components.
    Memoized on the state, keyed by the series values and cond = lm.shape[1],
    as (values, cond, log terms, norms, fitted) with fitted the (g, T)
    `fitted_ar` of state.spec: the terms a sweep computes for the spec it
    ends with serve the next sweep's allocation draw, and the fitted AR
    parts its means and precisions.
    """
    memo = state.terms
    if memo is None or memo[0] is not values or memo[1] != lm.shape[1]:
        fitted = fitted_ar(state.spec, lm)
        logw = _log_terms(state.spec, yt, lm, fitted)
        memo = (values, lm.shape[1], logw, logsumexp(logw, axis=0), fitted)
        object.__setattr__(state, "terms", memo)
    return memo[2], memo[3]


def allocation_probabilities(
    spec: MARSpec,
    yt: np.ndarray,
    lm: np.ndarray,
    terms: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Posterior allocation probabilities as a (g, T) array whose columns sum to one.

    Component-major: row k holds P(z_t = k | ...) at every design time.
    terms are the ((g, T) log terms, (T,) norms) of spec on this design
    when they are already at hand (`state_log_terms`); otherwise they are
    computed.
    """
    if terms is None:
        logw = _log_terms(spec, yt, lm)
        terms = logw, logsumexp(logw, axis=0)
    logw, norm = terms
    bad = ~np.isfinite(norm)
    if np.any(bad):
        t_bad = lm.shape[1] + 1 + int(np.nonzero(bad)[0][0])
        raise ValueError(
            f"all component densities underflow at t={t_bad}; "
            "the current parameters leave that observation unexplainable"
        )
    return np.exp(logw - norm)


def draw_allocations(
    spec: MARSpec,
    yt: np.ndarray,
    lm: np.ndarray,
    rng: np.random.Generator,
    terms: tuple[np.ndarray, np.ndarray] | None = None,
) -> LatentAllocation:
    """Draw every z_t from its full conditional (one uniform per row).

    z_t is one plus the number of running sums pi_t1, pi_t1 + pi_t2, ... below
    the uniform, taken a component row at a time over the first g - 1 rows
    (the last running sum would only add a label past g).
    """
    probs = allocation_probabilities(spec, yt, lm, terms)
    u = rng.random(probs.shape[1])
    z = np.ones(probs.shape[1], dtype=np.int64)
    for cum in itertools.accumulate(probs[:-1]):
        z += u > cum
    return LatentAllocation(z=z, g=spec.g)


def sample_weights(alloc: LatentAllocation, rng: np.random.Generator) -> np.ndarray:
    """Draw pi from its full conditional Dirichlet(1 + counts)."""
    w = rng.dirichlet(1.0 + alloc.counts)
    w = np.maximum(w, 1e-300)
    return w / w.sum()


def dirichlet_log_density(alpha: np.ndarray, log_weights: np.ndarray) -> float:
    """log Dirichlet(pi | alpha) at log pi; the weights conditional is alpha = 1 + counts."""
    log_norm = math.lgamma(float(alpha.sum())) - float(
        np.sum([math.lgamma(float(x)) for x in alpha])
    )
    return log_norm + float(np.dot(alpha - 1.0, log_weights))


def means_conditional(
    r: np.ndarray,
    alloc: LatentAllocation,
    tau: np.ndarray,
    bk: np.ndarray,
    hyper: Hyperparams,
) -> tuple[np.ndarray, np.ndarray]:
    """Normal full conditional of the component means: (mean, precision) per component.

    r holds the (g, T) shift-free residuals y_t - sum_i phi_ki y_{t-i}, row k
    for component k, alloc the allocations and bk = 1 - sum_i phi_ki.  The
    precision is tau_k n_k b_k^2 + kappa and the mean (tau_k n_k ebar_k b_k +
    kappa zeta) / precision, where ebar_k averages row k of r over the points
    assigned to k.  Empty components fall back to the prior.
    """
    counts = alloc.counts
    mean = np.empty(counts.size)
    prec = np.empty(counts.size)
    for k, rows in enumerate(alloc.members):
        nk = counts[k]
        ebar = r[k].take(rows).sum() / nk if nk > 0 else 0.0
        prec[k] = tau[k] * nk * bk[k] ** 2 + hyper.kappa
        mean[k] = (tau[k] * nk * ebar * bk[k] + hyper.kappa * hyper.zeta) / prec[k]
    return mean, prec


def draw_lambda(scales: np.ndarray, hyper: Hyperparams, rng: np.random.Generator) -> float:
    """Draw lambda ~ Gamma(a + g c, b + sum_k tau_k)."""
    return float(
        rng.gamma(hyper.a + scales.size * hyper.c, 1.0 / (hyper.b + (1.0 / scales**2).sum()))
    )


def precisions_conditional(
    e: np.ndarray, alloc: LatentAllocation, lam: float, hyper: Hyperparams
) -> tuple[np.ndarray, np.ndarray]:
    """Gamma full conditional of the precisions: (shape, rate) = (c + n_k/2, lambda + SSE_k/2).

    e holds the (g, T) residuals including the shifts, row k for component
    k; SSE_k sums e^2 over the points assigned to k.
    """
    counts = alloc.counts
    sse = np.array(
        [float((e[k].take(rows) ** 2).sum()) if rows.size else 0.0
         for k, rows in enumerate(alloc.members)]
    )
    return hyper.c + counts / 2.0, lam + sse / 2.0


def ar_log_ratio(
    yt: np.ndarray,
    lm: np.ndarray,
    rows: np.ndarray,
    shift: float,
    scale: float,
    cur: np.ndarray,
    new: np.ndarray,
) -> float:
    """Log likelihood ratio of AR block `new` against `cur` for one component.

    Restricted to the design rows at the integer positions `rows`, the
    points allocated to the component (`LatentAllocation.members`); its
    shift and scale stay fixed.  The two blocks may differ in length, as
    in a birth or death move.
    """
    r = yt.take(rows) - shift
    if not r.size:
        return 0.0
    x = lm.take(rows, axis=0)
    e_cur = r - x[:, : cur.size] @ cur
    e_new = r - x[:, : new.size] @ new
    tau = 1.0 / scale**2
    return -0.5 * tau * float(e_new @ e_new - e_cur @ e_cur)


def swap_log_alpha(
    state: ChainState,
    yt: np.ndarray,
    lm: np.ndarray,
    k: int,
    coeffs: np.ndarray,
    log_move: float = 0.0,
    log_q: float = 0.0,
) -> float:
    """Log acceptance of replacing component k's AR block by coeffs.

    min(0, log LR + log_move + log_q) with the allocated-point ratio of
    `ar_log_ratio`, or -inf when the swapped model is unstable.  Stability
    is decided on the weights and the AR matrix with row k replaced, as
    wide as the swapped model's maximum order; no spec is built.
    """
    spec = state.spec
    orders = list(spec.orders)
    orders[k - 1] = coeffs.size
    width = max(orders)
    phi = spec.phi_matrix(max(width, spec.max_order))[:, :width].copy()
    phi[k - 1] = 0.0
    phi[k - 1, : coeffs.size] = coeffs
    if not is_stable_phi(spec.weights, phi):
        return -math.inf
    log_lr = ar_log_ratio(
        yt, lm, state.alloc.members[k - 1], spec.shifts[k - 1], spec.scales[k - 1],
        spec.ar_coeffs[k - 1], coeffs,
    )
    return min(log_lr + log_move + log_q, 0.0)


def gibbs_sweep(
    state: ChainState,
    series: TimeSeries,
    hyper: Hyperparams,
    rng: np.random.Generator,
    cond: int,
    gamma: np.ndarray,
    pinned: int = 0,
) -> tuple[ChainState, SweepInfo]:
    """One full sweep over all blocks, with the whole-model stability veto.

    Order: allocations, weights, means (unless fixed_shift), lambda,
    precisions, RWM per component with proposal precisions gamma.  `pinned`
    holds the first `pinned` blocks of the evidence order phi_1, ..., phi_g,
    mu, tau at their current values, as the reduced evidence chains do;
    allocations, weights and lambda are always drawn.  If the
    end-of-sweep candidate spec is unstable, the entire previous state is
    restored bit for bit.  The log terms of the returned spec stay memoized
    on the returned state, so the next sweep's allocation draw does not
    recompute them.
    """
    spec0 = state.spec
    g = spec0.g
    cond = _resolve_cond(spec0, series, cond)
    yt, lm = series.design(cond)

    alloc = draw_allocations(spec0, yt, lm, rng, state_log_terms(state, series.values, yt, lm))
    fitted = state.terms[4]  # (g, T) AR parts of spec0, memoized with its log terms
    weights = sample_weights(alloc, rng)

    update_means = pinned <= g and not hyper.fixed_shift
    update_precisions = pinned <= g + 1
    scales = spec0.scales
    if update_means:
        bk = 1.0 - row_sum(spec0.phi_matrix(lm.shape[1]))
        m, prec = means_conditional(yt - fitted, alloc, 1.0 / scales**2, bk, hyper)
        # mean + sd * z is how rng.normal draws; one standard-normal call for
        # all components gives the same values from the same stream position
        means = m + np.sqrt(1.0 / prec) * rng.standard_normal(g)
        shifts = means * bk
    else:
        means, shifts = state.means.copy(), spec0.shifts.copy()

    lam = draw_lambda(scales, hyper, rng)

    if update_precisions:
        e = yt - shifts[:, None] - fitted
        shape, rate = precisions_conditional(e, alloc, lam, hyper)
        scales = np.array(
            [1.0 / math.sqrt(rng.gamma(a, 1.0 / b)) for a, b in zip(shape.tolist(), rate.tolist())]
        )
    else:
        scales = scales.copy()

    ar = [a.copy() for a in spec0.ar_coeffs]
    attempted = np.zeros(g, dtype=bool)
    accepted = np.zeros(g, dtype=bool)
    for k in range(pinned + 1, g + 1):
        attempted[k - 1] = True
        proposal = ar[k - 1] + rng.normal(0.0, 1.0 / math.sqrt(gamma[k - 1]), size=ar[k - 1].size)
        log_ratio = ar_log_ratio(
            yt, lm, alloc.members[k - 1], shifts[k - 1], scales[k - 1], ar[k - 1], proposal
        )
        if math.log(rng.random()) < log_ratio:
            accepted[k - 1] = True
            ar[k - 1] = proposal

    candidate = MARSpec(weights=weights, shifts=shifts, ar_coeffs=tuple(ar), scales=scales)
    if is_stable(candidate).stable:
        new_state = ChainState(candidate, alloc, lam, means)
        rejected = False
    else:
        new_state = ChainState(spec0, state.alloc, state.lam, state.means)
        object.__setattr__(new_state, "terms", state.terms)
        rejected = True
    state_log_terms(new_state, series.values, yt, lm)  # memoized for the next allocation draw
    return new_state, SweepInfo(attempted, accepted, rejected)


def make_log_prior(hyper: Hyperparams, g: int):
    """`log_prior_density` for g components as a function of (weights, means, scales).

    The terms that depend on the hyperparameters alone are computed here,
    once, and enter the sums at the same place as in a direct evaluation.
    The Dirichlet(1, ..., 1) density is the constant (g - 1)! on the simplex,
    so the weights fix only g.
    """
    weights_const = math.lgamma(g)
    mean_const = -0.5 * math.log(2.0 * math.pi / hyper.kappa)
    half_kappa = 0.5 * hyper.kappa
    a, b, c = hyper.a, hyper.b, hyper.c
    shape = a + g * c
    tau_const = math.lgamma(shape) - math.lgamma(a) - g * math.lgamma(c) + a * math.log(b)

    def log_prior(weights: np.ndarray, means: np.ndarray, scales: np.ndarray) -> float:
        lp = weights_const
        if not hyper.fixed_shift:
            lp += float(np.sum(mean_const - half_kappa * (np.asarray(means) - hyper.zeta) ** 2))
        tau = 1.0 / np.asarray(scales) ** 2
        lp += (
            tau_const
            + (c - 1.0) * float(np.log(tau).sum())
            - shape * math.log(b + float(tau.sum()))
        )
        return lp

    return log_prior


def log_prior_density(
    weights: np.ndarray,
    means: np.ndarray,
    scales: np.ndarray,
    hyper: Hyperparams,
) -> float:
    """Joint log prior of (pi, mu, tau) with lambda integrated out.

    The Dirichlet term is evaluated on the simplex, the precision block uses
    the analytic compound density from integrating Gamma(tau_k | c, lambda)
    against Gamma(lambda | a, b), and the flat stable-region prior on the AR
    blocks contributes zero.  The mean term is skipped for fixed-shift models.
    """
    return make_log_prior(hyper, weights.size)(weights, means, scales)


def initial_state(
    series: TimeSeries,
    g: int,
    orders: tuple[int, ...],
    hyper: Hyperparams,
    cond: int,
) -> ChainState:
    """Deterministic starting point for a chain.

    Weights 1/g; allocations by quantile-binning the residuals of a global
    AR(p) least-squares fit; means at the series mean; precisions at
    1/var(y); per-component AR coefficients by ridge least squares on the
    initial bins, shrunk toward zero until the whole model is stable.
    """
    orders = tuple(int(p) for p in orders)
    if not 0 < g == len(orders) or any(p < 1 for p in orders):
        raise ValueError("orders must give a positive order for each of g >= 1 components")
    p = max(orders)
    if cond < p or series.n <= cond:
        raise ValueError("series too short for the requested orders/conditioning")
    values = series.values
    yt, lm = series.design(cond)

    x_full = np.column_stack([np.ones(yt.size), lm[:, :p]])
    beta, *_ = np.linalg.lstsq(x_full, yt, rcond=None)
    resid = yt - x_full @ beta
    edges = np.quantile(resid, np.linspace(0.0, 1.0, g + 1))[1:-1]
    z0 = np.searchsorted(edges, resid, side="right")
    z0 = np.clip(z0, 0, g - 1)

    ybar = float(values.mean())
    var = float(values.var())
    if var <= 0:
        raise ValueError("series is constant; cannot initialize the sampler")

    ytc = yt - ybar
    lmc = lm - ybar
    ar = []
    for k in range(g):
        pk = orders[k]
        mask = z0 == k
        if mask.sum() > pk + 1:
            x = lmc[mask, :pk]
            xtx = x.T @ x
            ridge = 0.01 * (np.trace(xtx) / pk + 1.0)
            coef = np.linalg.solve(xtx + ridge * np.eye(pk), x.T @ ytc[mask])
        else:
            coef = np.zeros(pk)
        ar.append(coef)

    weights = np.full(g, 1.0 / g)
    scales = np.full(g, math.sqrt(var))
    means = np.zeros(g) if hyper.fixed_shift else np.full(g, ybar)
    for _ in range(400):
        shifts = np.array([0.0 if hyper.fixed_shift else ybar * (1.0 - a.sum()) for a in ar])
        spec = MARSpec(weights=weights, shifts=shifts, ar_coeffs=tuple(ar), scales=scales)
        if is_stable(spec).stable:
            break
        ar = [a * 0.9 for a in ar]
    else:
        raise RuntimeError("failed to find a stable starting point")

    alloc = LatentAllocation(z=z0 + 1, g=g)
    lam = hyper.a / hyper.b
    return ChainState(spec=spec, alloc=alloc, lam=lam, means=means)


# Pilot tuning: batches of TUNE_BATCH sweeps, each moving log gamma_k toward
# the acceptance rate TUNE_TARGET (the middle of the 20-25% band).
TUNE_TARGET = 0.225
TUNE_BATCH = 50


def tune_gamma(
    state: ChainState,
    series: TimeSeries,
    hyper: Hyperparams,
    rng: np.random.Generator,
    cond: int,
) -> tuple[np.ndarray, np.ndarray, ChainState]:
    """Stochastic-approximation tuning of the RWM proposal precisions.

    Starts every gamma_k at 100 and runs hyper.pilot_iters // TUNE_BATCH
    batches of TUNE_BATCH sweeps from `state` (pilot_iters = 520 runs 500
    sweeps), moving log gamma_k after each batch toward the target
    acceptance rate, then freezes the result.  Returns the tuned gamma, the
    last batch's acceptance rates and the pilot's final state so the main
    chain can continue from it.
    """
    g = state.spec.g
    log_gamma = np.log(np.full(g, 100.0))
    n_batches = hyper.pilot_iters // TUNE_BATCH
    rates = np.zeros(g)
    for bi in range(n_batches):
        acc = np.zeros(g)
        att = np.zeros(g)
        for _ in range(TUNE_BATCH):
            state, info = gibbs_sweep(
                state, series, hyper, rng, cond=cond, gamma=np.exp(log_gamma)
            )
            acc += info.accepted
            att += info.attempted
        rates = acc / np.maximum(att, 1.0)
        step = 2.0 / math.sqrt(bi + 1.0)
        log_gamma = log_gamma - step * (rates - TUNE_TARGET)
        log_gamma = np.clip(log_gamma, math.log(1e-6), math.log(1e12))
    if np.any(rates <= 0.0) or np.any(rates >= 1.0):
        warnings.warn(
            f"pilot acceptance rates pinned at {rates}; proposal scales may be unusable",
            RuntimeWarning,
        )
    return np.exp(log_gamma), rates, state


def _run(
    series: TimeSeries,
    g: int,
    orders: tuple[int, ...],
    hyper: Hyperparams,
    seed: int,
    cond: int,
    width: int,
    move=None,
) -> ChainOutput:
    """The chain loop shared by `run_chain` and `rjmcmc.rjmcmc_run`.

    Starts from `initial_state`, takes gamma from the hyperparameters or tunes
    it in a pilot, then sweeps n_iter times and records every draw after
    burn-in.  move(state, rng) -> state, when given, runs after every sweep.
    A recorded draw's log likelihood comes from the log terms memoized on
    its state: those of the sweep, or recomputed for a state the move
    changed.  AR blocks are stored zero-padded to `width`.
    """
    rng = np.random.default_rng(seed)
    state = initial_state(series, g, orders, hyper, cond)
    if hyper.gamma is not None:
        gamma = np.full(g, hyper.gamma)
    else:
        gamma, _, state = tune_gamma(state, series, hyper, rng, cond)

    n_keep = hyper.n_iter - hyper.burn_in
    weights = np.empty((n_keep, g))
    shifts = np.empty((n_keep, g))
    means = np.empty((n_keep, g))
    scales = np.empty((n_keep, g))
    ar = np.zeros((n_keep, g, width))
    orders_arr = np.empty((n_keep, g), dtype=np.int64)
    lam = np.empty(n_keep)
    ll = np.empty(n_keep)
    lp = np.empty(n_keep)
    yt, lm = series.design(cond)
    log_prior = make_log_prior(hyper, g)

    acc_counts = np.zeros(g)
    stab_rej = 0
    for it in range(hyper.n_iter):
        state, info = gibbs_sweep(state, series, hyper, rng, cond=cond, gamma=gamma)
        acc_counts += info.accepted
        stab_rej += int(info.stability_rejected)
        if move is not None:
            state = move(state, rng)
        j = it - hyper.burn_in
        if j < 0:
            continue
        spec = state.spec
        weights[j] = spec.weights
        shifts[j] = spec.shifts
        means[j] = state.means
        scales[j] = spec.scales
        ar[j] = spec.phi_matrix(width)
        orders_arr[j] = spec.orders
        lam[j] = state.lam
        ll[j] = float(np.sum(state_log_terms(state, series.values, yt, lm)[1]))
        lp[j] = ll[j] + log_prior(spec.weights, state.means, spec.scales)

    return ChainOutput(
        g=g,
        cond=cond,
        weights=weights,
        shifts=shifts,
        means=means,
        scales=scales,
        ar=ar,
        orders=orders_arr,
        lam=lam,
        log_likelihoods=ll,
        log_posteriors=lp,
        acceptance=acc_counts / hyper.n_iter,
        stability_rejections=stab_rej,
        gamma=gamma,
        fixed_shift=hyper.fixed_shift,
    )


def run_chain(
    series: TimeSeries,
    g: int,
    orders: tuple[int, ...],
    hyper: Hyperparams,
    seed: int,
    cond: int | None = None,
) -> ChainOutput:
    """Run a fixed-order chain: optional pilot tuning, burn-in, retention.

    Deterministic given the seed.  Retained draws carry the log likelihood
    and the joint log posterior (likelihood plus log prior) for downstream
    selection of high-density points.
    """
    orders = tuple(int(p) for p in orders)
    p = max(orders)
    c = p if cond is None else int(cond)
    return _run(series, g, orders, hyper, seed, c, p)
