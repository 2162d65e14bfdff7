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
the end-of-sweep candidate is unstable every parameter keeps its previous
value, and the allocations keep the sweep's draw from p(z | theta, y).
Proposal precisions are tuned in a pilot (`tune_gamma`) and then frozen.

Gamma distributions are parameterized by (shape, rate) throughout.
"""

from __future__ import annotations

import itertools
import math
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .config import Hyperparams
from .model import (
    ChainOutput,
    TimeSeries,
    check_fields,
    fitted_ar,
    left_sum,
    log_terms,
    logsumexp,
    quantile,
    row_sum,
    values_valid,
)
from .stability import is_stable


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


@dataclass(eq=False, slots=True)
class ChainState:
    """One point of the chain as plain arrays, never written once built.

    phi is the (g, width) AR matrix, zero-padded beyond each order; its
    width is the chain's conditioning length: every likelihood of the state
    conditions on the first `width` observations.  z holds the 1-based labels
    of the design points and counts their tally per component.  The memos
    `terms` (`state_log_terms`) and `rows` (`member_rows`) are not __init__
    arguments, so `dataclasses.replace` starts them empty.
    """

    weights: np.ndarray
    shifts: np.ndarray
    means: np.ndarray
    scales: np.ndarray
    phi: np.ndarray
    orders: tuple[int, ...]
    z: np.ndarray
    counts: np.ndarray
    lam: float
    terms: tuple | None = field(default=None, init=False, repr=False)
    rows: tuple | None = field(default=None, init=False, repr=False)


@dataclass(frozen=True)
class SweepInfo:
    attempted: np.ndarray
    accepted: np.ndarray
    stability_rejected: bool


# Block kernels, shared by the sweep, the reduced evidence chains and the
# order moves; data enter as the design arrays (yt, lm) of `TimeSeries.design`
# at the state's conditioning length.


def state_log_terms(
    state: ChainState, series: TimeSeries, fitted=None
) -> tuple[np.ndarray, np.ndarray]:
    """(g, T) log terms of state on `series`, and their column norms.

    The design conditions on the first state.phi.shape[1] observations.
    Memoized on the state, keyed by the series values, as (values, log
    terms, norms, fitted) with fitted the (g, T) `fitted_ar` of state.phi
    (computed unless given): the terms a sweep computes for its end state
    serve the next sweep's allocation draw, and the fitted AR parts its
    means and precisions.
    """
    memo = state.terms
    if memo is None or memo[0] is not series.values:
        yt, lm = series.design(state.phi.shape[1])
        if fitted is None:
            fitted = fitted_ar(state.phi, lm)
        logw = log_terms(state.weights, state.shifts, state.scales, yt, fitted)
        memo = (series.values, logw, logsumexp(logw, axis=0), fitted)
        state.terms = memo
    return memo[1], memo[2]


def member_rows(state: ChainState) -> tuple[np.ndarray | None, ...]:
    """Each component's ascending positions t with z_t = k, built on first read.

    A component holding every design point gets None, and `_gather` reads
    its row as it is: the values a gather of every position gives.
    """
    if state.rows is None:
        state.rows = _member_rows(state.z, state.counts)
    return state.rows


def _member_rows(z: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray | None, ...]:
    return tuple(None if n == z.size else (z == k).nonzero()[0]
                 for k, n in enumerate(counts.tolist(), 1))


def _gather(a: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """The entries of a (rows, for a 2-D a) at the positions `rows`; all of a when rows is None."""
    return a if rows is None else a.take(rows, axis=0)


def gather_rows(a: np.ndarray, rows: tuple[np.ndarray | None, ...]) -> list[np.ndarray]:
    """Row k of the (g, T) array a at `member_rows` k, for every k; elementwise arithmetic
    commutes with the gather, so its bits do not depend on which comes first."""
    return [_gather(row, rows_k) for row, rows_k in zip(a, rows)]


def _total(xs: list[float]) -> float:
    """numpy's sum of a short list of floats: `left_sum` below 8 terms, pairwise above."""
    return left_sum(xs) if len(xs) < 8 else float(np.sum(xs))


def draw_allocations(
    logw: np.ndarray, norm: np.ndarray, cond: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw every 1-based label z_t from its full conditional (one uniform per time).

    P(z_t = k) = exp(logw_kt - norm_t) for the log terms and column norms of
    `state_log_terms`.  z_t is one plus the number of running sums below the
    uniform, taken a row at a time over the first g - 1 rows (at g = 1 every
    label is 1, and the uniforms are still drawn).  A time whose norm is not
    finite, one no component explains, is refused by its 1-based index.
    """
    if not math.isfinite(norm.sum()) and not np.isfinite(norm).all():  # the sum is cheaper
        t_bad = cond + 1 + int(np.nonzero(~np.isfinite(norm))[0][0])
        raise ValueError(
            f"all component densities underflow at t={t_bad}; "
            "the current parameters leave that observation unexplainable"
        )
    u = rng.random(norm.size)
    z = np.ones(norm.size, dtype=np.int64)
    if len(logw) > 1:
        for cum in itertools.accumulate(np.exp(logw[:-1] - norm)):
            z += u > cum
    return z


def sample_weights(counts: list[int], rng: np.random.Generator) -> np.ndarray:
    """Draw pi from its full conditional Dirichlet(1 + counts), floored at 1e-300.

    `Generator.dirichlet`'s draw, bit for bit from the same stream, without its array
    calls: a standard gamma per component, times the reciprocal of their left-to-right total.
    """
    w = [rng.standard_gamma(1.0 + n) for n in counts]
    inv = 1.0 / left_sum(w)
    w = [max(x * inv, 1e-300) for x in w]
    total = _total(w)
    return np.array([x / total for x in w])


def dirichlet_log_density(alpha: np.ndarray, log_weights: np.ndarray) -> float:
    """log Dirichlet(pi | alpha) at log pi; the weights conditional is alpha = 1 + counts."""
    log_norm = math.lgamma(float(alpha.sum())) - float(
        np.sum([math.lgamma(float(x)) for x in alpha])
    )
    return log_norm + float(np.dot(alpha - 1.0, log_weights))


def means_conditional(
    r: list[np.ndarray], counts: list[int], tau: list[float], bk: list[float], hyper: Hyperparams
) -> tuple[list[float], list[float]]:
    """Normal full conditional of the component means: (mean, precision) per component.

    r[k] holds component k's shift-free residuals y_t - sum_i phi_ki y_{t-i}
    at the counts[k] points assigned to it (`gather_rows`), tau[k] its
    precision and bk[k] = 1 - sum_i phi_ki.  The precision is tau_k n_k b_k^2
    + kappa and the mean (tau_k n_k ebar_k b_k + kappa zeta) / precision,
    where ebar_k averages r[k].  Empty components fall back to the prior.
    """
    mean, prec = [], []
    for r_k, nk, tau_k, b in zip(r, counts, tau, bk):
        ebar = float(r_k.sum()) / nk if nk > 0 else 0.0
        p = tau_k * nk * b**2 + hyper.kappa
        mean.append((tau_k * nk * ebar * b + hyper.kappa * hyper.zeta) / p)
        prec.append(p)
    return mean, prec


def draw_lambda(tau: list[float], hyper: Hyperparams, rng: np.random.Generator) -> float:
    """Draw lambda ~ Gamma(a + g c, b + sum_k tau_k) from the precisions tau."""
    return rng.gamma(hyper.a + len(tau) * hyper.c, 1.0 / (hyper.b + _total(tau)))


def precisions_conditional(
    e: list[np.ndarray], counts: list[int], lam: float, hyper: Hyperparams
) -> tuple[list[float], list[float]]:
    """Gamma full conditional of the precisions: (shape, rate) = (c + n_k/2, lambda + SSE_k/2).

    e[k] holds component k's residuals, shift included, at the points
    assigned to it (`gather_rows`); SSE_k sums their squares.
    """
    shape = [hyper.c + nk / 2.0 for nk in counts]
    rate = [lam + float((e_k**2).sum()) / 2.0 for e_k in e]
    return shape, rate


def ar_log_ratio(
    d: np.ndarray, x: np.ndarray, scale: float, cur: np.ndarray, new: np.ndarray
) -> float:
    """Log likelihood ratio of AR block `new` against `cur` for one component.

    d holds y_t minus the component's shift and x the rows of the lag
    matrix, both at the points allocated to the component (`member_rows`);
    its shift and scale stay fixed.  The two blocks may differ in length,
    as in a birth or death move.
    """
    if not d.size:
        return 0.0
    # ndarray.dot makes the same BLAS calls as @ at a third of the overhead
    e_cur = d - x[:, : cur.size].dot(cur)
    e_new = d - x[:, : new.size].dot(new)
    tau = 1.0 / scale**2
    return -0.5 * tau * float(e_new.dot(e_new) - e_cur.dot(e_cur))


def swapped_ar(state: ChainState, k: int, coeffs: np.ndarray) -> tuple[np.ndarray, tuple]:
    """A new AR matrix, and the orders, of state with component k's block replaced by coeffs."""
    if coeffs.size > state.phi.shape[1]:
        raise ValueError(f"order {coeffs.size} exceeds the conditioning length "
                         f"{state.phi.shape[1]} of the chain")
    orders = list(state.orders)
    orders[k - 1] = coeffs.size
    phi = state.phi.copy()
    phi[k - 1] = 0.0
    phi[k - 1, : coeffs.size] = coeffs
    return phi, tuple(orders)


def swap_log_alpha(
    state: ChainState,
    series: TimeSeries,
    k: int,
    coeffs: np.ndarray,
    log_move: float = 0.0,
    log_q: float = 0.0,
) -> float:
    """Log acceptance of replacing component k's AR block by coeffs.

    min(0, log LR + log_move + log_q) with the allocated-point ratio of
    `ar_log_ratio`, or -inf when the swapped model is unstable.  Stability
    is decided on the weights and the AR matrix with row k replaced, as
    wide as the swapped model's maximum order.
    """
    phi, orders = swapped_ar(state, k, coeffs)
    if not is_stable(state.weights, phi[:, : max(orders)]).stable:
        return -math.inf
    yt, lm = series.design(phi.shape[1])
    rows = member_rows(state)[k - 1]
    log_lr = ar_log_ratio(_gather(yt, rows) - state.shifts[k - 1], _gather(lm, rows),
                          state.scales[k - 1], state.phi[k - 1, : state.orders[k - 1]], coeffs)
    return min(log_lr + log_move + log_q, 0.0)


def gibbs_sweep(
    state: ChainState,
    series: TimeSeries,
    hyper: Hyperparams,
    rng: np.random.Generator,
    gamma: np.ndarray,
    pinned: int = 0,
) -> tuple[ChainState, SweepInfo]:
    """One full sweep over all blocks, with the whole-model stability veto.

    Order: allocations, weights, means (unless fixed_shift), lambda,
    precisions, RWM per component with proposal precisions gamma.  `pinned`
    holds the first `pinned` blocks of the evidence order phi_1, ..., phi_g,
    mu, tau at their current values, as the reduced evidence chains do;
    allocations, weights and lambda are always drawn.  If the end-of-sweep
    candidate is unstable, the sweep returns the previous parameters, with
    their memoized log terms, and this sweep's labels: a veto rejects the
    parameter blocks, while the labels are a Gibbs draw given the previous
    parameters either way.  Member positions are built only when a block
    that gathers runs, and the fitted AR parts only when an AR block moved.
    """
    phi = state.phi
    g, cond = phi.shape
    yt, lm = series.design(cond)

    logw, norm = state_log_terms(state, series)
    fitted = state.terms[3]  # (g, T) AR parts of phi, memoized with the log terms
    z = draw_allocations(logw, norm, cond, rng)
    counts = np.bincount(z, minlength=g + 1)[1:]
    n = counts.tolist()
    weights = sample_weights(n, rng)

    # quantities of length g are lists of Python floats; x * x, not x ** 2,
    # gives the bits of an array's ** 2
    means, shifts, scales = state.means.tolist(), state.shifts.tolist(), state.scales.tolist()
    tau = [1.0 / (s * s) for s in scales]
    rows = None
    if pinned <= g + 1:  # the precisions move, and the blocks before them may
        rows = _member_rows(z, counts)
        ys = [_gather(yt, rows_k) for rows_k in rows]
        fs = gather_rows(fitted, rows)
    if pinned <= g and not hyper.fixed_shift:
        bk = [1.0 - x for x in row_sum(phi).tolist()]
        m, prec = means_conditional([y - f for y, f in zip(ys, fs)], n, tau, bk, hyper)
        # mean + sd * z is how rng.normal draws; one standard-normal call for
        # all components gives the same values from the same stream position
        means = [mk + math.sqrt(1.0 / pk) * e for mk, pk, e
                 in zip(m, prec, rng.standard_normal(g).tolist())]
        shifts = [mk * b for mk, b in zip(means, bk)]

    lam = draw_lambda(tau, hyper, rng)

    if rows is not None:
        ds = [y - s for y, s in zip(ys, shifts)]  # y_t minus the shift, per component
        shape, rate = precisions_conditional([d - f for d, f in zip(ds, fs)], n, lam, hyper)
        scales = [1.0 / math.sqrt(rng.gamma(a, 1.0 / b)) for a, b in zip(shape, rate)]

    orders = state.orders
    new_phi = phi
    attempted = np.zeros(g, dtype=bool)
    accepted = np.zeros(g, dtype=bool)
    for k in range(pinned, g):
        attempted[k] = True
        cur = new_phi[k, : orders[k]]
        proposal = cur + rng.normal(0.0, 1.0 / math.sqrt(gamma[k]), size=cur.size)
        log_ratio = ar_log_ratio(ds[k], _gather(lm, rows[k]), scales[k], cur, proposal)
        if math.log(rng.random()) < log_ratio:
            accepted[k] = True
            if new_phi is phi:
                new_phi = phi.copy()
            new_phi[k, : orders[k]] = proposal

    if not values_valid(weights.tolist() + scales, shifts + new_phi.ravel().tolist()):
        ar = tuple(new_phi[k, :p] for k, p in enumerate(orders))
        check_fields(weights, np.array(shifts), np.array(scales), ar)
    stable = is_stable(weights, new_phi[:, : max(orders)]).stable
    if stable:
        shifts, means, scales = np.array(shifts), np.array(means), np.array(scales)
        new_state = ChainState(weights, shifts, means, scales, new_phi, orders, z, counts, lam)
        # memoized for the next allocation draw; the AR parts carry over unless a block moved
        state_log_terms(new_state, series, fitted if new_phi is phi else None)
    else:  # every parameter as it was, with the labels drawn from p(z | theta, y)
        new_state = replace(state, z=z, counts=counts)
        new_state.terms = state.terms
    new_state.rows = rows
    return new_state, SweepInfo(attempted, accepted, not stable)


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
    initial bins, shrunk toward zero until the whole model is stable; shifts
    mu_k (1 - sum_i phi_ki), as the sweep derives them.  The state's AR
    matrix is zero-padded to width cond, the chain's conditioning length,
    and `check_fields` names a bad value as `MARSpec` would.
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
    edges = quantile(resid, np.linspace(0.0, 1.0, g + 1))[1:-1]
    z0 = np.searchsorted(edges, resid, side="right")
    z0 = np.clip(z0, 0, g - 1)

    ybar = float(values.mean())
    var = float(values.var())
    if var <= 0:
        raise ValueError("series is constant; cannot initialize the sampler")

    ytc = yt - ybar
    lmc = lm - ybar
    phi = np.zeros((g, p))
    for k in range(g):
        pk = orders[k]
        mask = z0 == k
        if mask.sum() > pk + 1:
            x = lmc[mask, :pk]
            xtx = x.T @ x
            ridge = 0.01 * (np.trace(xtx) / pk + 1.0)
            phi[k, :pk] = np.linalg.solve(xtx + ridge * np.eye(pk), x.T @ ytc[mask])

    weights = np.full(g, 1.0 / g)
    scales = np.full(g, math.sqrt(var))
    means = np.zeros(g) if hyper.fixed_shift else np.full(g, ybar)
    for _ in range(400):
        if is_stable(weights, phi).stable:
            break
        phi = phi * 0.9
    else:
        raise RuntimeError("failed to find a stable starting point")
    shifts = np.zeros(g) if hyper.fixed_shift else ybar * (1.0 - row_sum(phi))
    check_fields(weights, shifts, scales, tuple(phi))
    z = z0 + 1
    return ChainState(weights, shifts, means, scales, np.pad(phi, ((0, 0), (0, cond - p))),
                      orders, z, np.bincount(z, minlength=g + 1)[1:], hyper.a / hyper.b)


# Pilot tuning: batches of TUNE_BATCH sweeps, each moving log gamma_k toward
# the acceptance rate TUNE_TARGET (the middle of the 20-25% band).
TUNE_TARGET = 0.225
TUNE_BATCH = 50


def tune_gamma(
    state: ChainState,
    series: TimeSeries,
    hyper: Hyperparams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, ChainState]:
    """Stochastic-approximation tuning of the RWM proposal precisions.

    Starts every gamma_k at 100 and runs hyper.pilot_iters // TUNE_BATCH
    batches of TUNE_BATCH sweeps from `state` (pilot_iters = 520 runs 500
    sweeps), moving log gamma_k after each batch toward the target
    acceptance rate, then freezes the result.  Returns the tuned gamma, the
    last batch's acceptance rates and the pilot's final state so the main
    chain can continue from it.
    """
    g = state.weights.size
    log_gamma = np.log(np.full(g, 100.0))
    n_batches = hyper.pilot_iters // TUNE_BATCH
    rates = np.zeros(g)
    for bi in range(n_batches):
        acc = np.zeros(g)
        att = np.zeros(g)
        for _ in range(TUNE_BATCH):
            state, info = gibbs_sweep(state, series, hyper, rng, np.exp(log_gamma))
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
    move=None,
) -> ChainOutput:
    """The chain loop shared by `run_chain` and `rjmcmc.rjmcmc_run`.

    Starts from `initial_state`, takes gamma from the hyperparameters or tunes
    it in a pilot, then sweeps n_iter times and records every draw after
    burn-in.  move(state, rng) -> state, when given, runs after every sweep.
    A recorded draw's log likelihood comes from the log terms memoized on
    its state: those of the sweep, or recomputed for a state the move
    changed.  Every likelihood conditions on the first `cond` observations,
    and AR blocks are stored as the state holds them, zero-padded to `cond`.
    The pilot, the burn-in and the retained sweeps are timed with
    `time.perf_counter`.
    """
    rng = np.random.default_rng(seed)
    state = initial_state(series, g, orders, hyper, cond)
    marks = [time.perf_counter()]  # pilot, burn-in and retained sweeps start and end here
    if hyper.gamma is not None:
        gamma = np.full(g, hyper.gamma)
    else:
        gamma, _, state = tune_gamma(state, series, hyper, rng)
    marks.append(time.perf_counter())

    n_keep = hyper.n_iter - hyper.burn_in
    weights = np.empty((n_keep, g))
    shifts = np.empty((n_keep, g))
    means = np.empty((n_keep, g))
    scales = np.empty((n_keep, g))
    ar = np.empty((n_keep, g, cond))
    orders_arr = np.empty((n_keep, g), dtype=np.int64)
    lam = np.empty(n_keep)
    ll = np.empty(n_keep)
    lp = np.empty(n_keep)
    log_prior = make_log_prior(hyper, g)

    acc_counts = np.zeros(g)
    stab_rej = 0
    for it in range(hyper.n_iter):
        if it == hyper.burn_in:
            marks.append(time.perf_counter())
        state, info = gibbs_sweep(state, series, hyper, rng, gamma)
        acc_counts += info.accepted
        stab_rej += int(info.stability_rejected)
        if move is not None:
            state = move(state, rng)
        j = it - hyper.burn_in
        if j < 0:
            continue
        weights[j] = state.weights
        shifts[j] = state.shifts
        means[j] = state.means
        scales[j] = state.scales
        ar[j] = state.phi
        orders_arr[j] = state.orders
        lam[j] = state.lam
        ll[j] = float(state_log_terms(state, series)[1].sum())
        lp[j] = ll[j] + log_prior(state.weights, state.means, state.scales)
    marks.append(time.perf_counter())

    return ChainOutput(
        g=g,
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
        timing=dict(zip(("pilot_s", "burn_in_s", "retain_s"), np.diff(marks).tolist())),
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
    return _run(series, g, orders, hyper, seed, max(orders) if cond is None else int(cond))
