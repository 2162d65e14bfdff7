"""Marginal likelihood estimation and component-count selection.

The evidence of a g-component model is assembled from the identity

    f(y|g) = f(y|theta*, p*, g) p(theta*|p*, g) p(p*|g)
             / [ p(theta*|p*, y, g) p(p*|y, g) ]

evaluated at a high-density retained point theta*.  The posterior ordinate
factorizes, in this fixed order, as

    p(theta*|p*, y) = p(phi*|y) p(mu*|phi*, y) p(tau*|mu*, phi*, y)
                      p(pi*|tau*, mu*, phi*, y),

each factor estimated from a reduced Gibbs run with the earlier blocks
pinned at their starred values: the AR-block factors with the
Metropolis-within-Gibbs two-chain estimator (acceptance-weighted proposal
densities over the numerator chain, mean acceptance over a proposal-draw
chain), the remaining blocks by Rao-Blackwellized averages of their exact
full-conditional densities.  p(p*|y, g) is the visit share of the selected
order configuration in the order-move run, p(p*|g) is uniform over the
p_max^g configurations, and the prior over g is uniform over the candidate
range (stored separately, not folded into the evidence).  Every term
conditions on the first p_max observations, as the order-move run does; with
p_max = 1 that run could only visit orders (1, ..., 1), so it is skipped.

theta* is held as the `ChainState` every sweep uses (`starred_point`), and
its memo of log terms, column norms and fitted AR parts is computed once per
component count.  The likelihood term, the mu and tau ordinates' residuals
and every reduced run read it: each reduced run starts from theta*'s state,
draws its labels from those log terms and hands the memo to its first sweep.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .model import LOG_2PI, TimeSeries, check_fields, left_sum, logsumexp, row_sum
from .relabel import RelabelConfig, relabel_chain
from .rjmcmc import OrderMoveConfig, OrderTrace, rjmcmc_run
from .sampler import (
    ChainOutput,
    ChainState,
    Hyperparams,
    dirichlet_log_density,
    draw_allocations,
    draw_lambda,
    gather_rows,
    gibbs_sweep,
    log_prior_density,
    means_conditional,
    member_rows,
    precisions_conditional,
    run_chain,
    state_log_terms,
    swap_log_alpha,
)
from .stability import is_stable


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


@dataclass
class EvidenceResult:
    """One component count's evidence, its parts, its phases' seconds and how its chains moved."""

    g: int
    orders: tuple[int, ...]
    preference: float
    log_marginal: float
    parts: dict[str, float]
    log_p_g: float | None = None
    timing: dict[str, float] = field(default_factory=dict)
    chains: dict = field(default_factory=dict)

    def recompose(self) -> float:
        """The evidence identity: log_marginal assembled from its parts."""
        p = self.parts
        return (
            p["log_likelihood"]
            + p["log_prior"]
            + p["log_order_prior"]
            - p["log_phi_ordinate"]
            - p["log_mu_ordinate"]
            - p["log_tau_ordinate"]
            - p["log_pi_ordinate"]
            - p["log_order_posterior"]
        )


def theta_star_index(output: ChainOutput) -> int:
    """Index of the retained draw maximizing the stored joint log posterior."""
    if output.n_draws < 1:
        raise ValueError("empty chain output")
    return int(np.argmax(output.log_posteriors))


def starred_point(output: ChainOutput) -> ChainState:
    """theta*: the chain state of the draw `theta_star_index` picks.

    Its AR matrix is the stored row as it is, so the point conditions on the
    chain's output.cond observations.  Free shifts are re-derived as
    mu*_k (1 - sum_i phi*_ki), as the sweep derives them, so the point is
    internally consistent regardless of within-sweep update order.  Labels
    are not stored per draw, so the state holds none (z empty, counts
    zero); each reduced run draws its own from theta*'s log terms.
    """
    i = theta_star_index(output)
    orders = tuple(output.orders[i].tolist())
    phi = output.ar[i]
    weights, means, scales = output.weights[i], output.means[i], output.scales[i]
    shifts = output.shifts[i] if output.fixed_shift else means * (1.0 - row_sum(phi))
    check_fields(weights, shifts, scales, tuple(phi))
    if not is_stable(weights, phi[:, : max(orders)]).stable:
        raise ValueError("the selected high-density draw is unstable; chain is corrupted")
    return ChainState(weights, shifts, means, scales, phi, orders, np.zeros(0, dtype=np.int64),
                      np.zeros(output.g, dtype=np.int64), float(output.lam[i]))


def _reduced_log_mean(
    name, pinned, term, series, star, hyper, gamma, config, rng, vetoes, n_keep=None
) -> float:
    """Run one reduced chain from theta*; log of the mean of exp(term(state)) over its draws.

    The chain starts at theta*'s state with allocations drawn from theta*'s
    memoized log terms and lambda from its full conditional, and that memo
    serves the first sweep.  It sweeps with the first `pinned` blocks of the
    order phi_1, ..., phi_g, mu, tau held at theta* (see `gibbs_sweep`) for
    config.reduced_burn_in plus n_keep sweeps (default config.n_i).  Its
    count of stability-vetoed sweeps is recorded as `vetoes[name]`.
    """
    n_keep = config.n_i if n_keep is None else n_keep
    burn = config.reduced_burn_in
    z = draw_allocations(*state_log_terms(star, series), star.phi.shape[1], rng)
    lam = draw_lambda([1.0 / (s * s) for s in star.scales.tolist()], hyper, rng)
    state = replace(star, z=z, counts=np.bincount(z, minlength=star.weights.size + 1)[1:],
                    lam=lam)
    state.terms = star.terms
    terms = np.empty(n_keep)
    vetoed = 0
    for i in range(burn + n_keep):
        state, info = gibbs_sweep(state, series, hyper, rng, gamma, pinned)
        vetoed += info.stability_rejected
        if i >= burn:
            terms[i - burn] = term(state)
    vetoes[name] = vetoed
    return float(logsumexp(terms) - math.log(n_keep))


def _log_normal_q(phi_star_k, phi_cur, gamma_k):
    d = phi_star_k - phi_cur
    return float(0.5 * phi_star_k.size * (math.log(gamma_k) - LOG_2PI) - 0.5 * gamma_k * (d @ d))


def estimate_phi_ordinate(
    series: TimeSeries,
    star: ChainState,
    hyper: Hyperparams,
    gamma: np.ndarray,
    config: EvidenceConfig,
    rng: np.random.Generator,
    vetoes: dict[str, int],
) -> tuple[float, list[float]]:
    """Log posterior ordinate of the AR blocks at their starred values.

    Components are processed in index order; the ordinate of component k
    conditions on the earlier blocks by pinning them in both reduced chains.
    Chain one (earlier blocks pinned) averages alpha(phi_k -> phi*_k) times
    the proposal density; chain two (component k pinned too) averages
    alpha(phi*_k -> proposal draws).  Acceptance probabilities include the
    whole-model stability indicator.
    """
    g = star.weights.size
    args = (series, star, hyper, gamma, config, rng, vetoes)
    per_k: list[float] = []
    for k in range(1, g + 1):
        phi_star_k = star.phi[k - 1, : star.orders[k - 1]]
        gamma_k = float(gamma[k - 1])

        def to_star(state):
            log_alpha = swap_log_alpha(state, series, k, phi_star_k)
            phi_k = state.phi[k - 1, : state.orders[k - 1]]
            return log_alpha + _log_normal_q(phi_star_k, phi_k, gamma_k)

        def from_star(state):
            prop = phi_star_k + rng.normal(0.0, 1.0 / math.sqrt(gamma_k), phi_star_k.size)
            return swap_log_alpha(state, series, k, prop)

        log_num = _reduced_log_mean(f"phi_{k}_num", k - 1, to_star, *args, n_keep=config.n_j)
        log_den = _reduced_log_mean(f"phi_{k}_den", k, from_star, *args)
        if not np.isfinite(log_num) or not np.isfinite(log_den):
            raise ValueError(
                f"AR ordinate for component {k} degenerate (numerator {log_num}, "
                f"denominator {log_den}); increase n_j/n_i"
            )
        per_k.append(float(log_num - log_den))
    return left_sum(per_k), per_k


def estimate_mu_ordinate(
    series: TimeSeries,
    star: ChainState,
    hyper: Hyperparams,
    gamma: np.ndarray,
    config: EvidenceConfig,
    rng: np.random.Generator,
    vetoes: dict[str, int],
) -> float:
    """Rao-Blackwellized log ordinate of the means given the starred AR blocks."""
    if hyper.fixed_shift:
        return 0.0
    g = star.weights.size
    state_log_terms(star, series)
    yt = series.design(star.phi.shape[1])[0]
    r_star = yt - star.terms[3]  # (g, T) shift-free residuals at phi*
    bk = (1.0 - row_sum(star.phi)).tolist()

    def term(state):
        r = gather_rows(r_star, member_rows(state))
        tau = [1.0 / (s * s) for s in state.scales.tolist()]
        m, prec = means_conditional(r, state.counts.tolist(), tau, bk, hyper)
        return left_sum(0.5 * (math.log(p) - LOG_2PI) - 0.5 * p * (mu - m_k) ** 2
                        for mu, m_k, p in zip(star.means.tolist(), m, prec))

    return _reduced_log_mean("mu", g, term, series, star, hyper, gamma, config, rng, vetoes)


def estimate_tau_ordinate(
    series: TimeSeries,
    star: ChainState,
    hyper: Hyperparams,
    gamma: np.ndarray,
    config: EvidenceConfig,
    rng: np.random.Generator,
    vetoes: dict[str, int],
) -> float:
    """Rao-Blackwellized log ordinate of the precisions given starred AR and means."""
    g = star.weights.size
    state_log_terms(star, series)
    yt = series.design(star.phi.shape[1])[0]
    e_star = yt - star.shifts[:, None] - star.terms[3]  # (g, T) residuals at phi*, mu*
    tau_star = (1.0 / star.scales**2).tolist()
    log_tau_star = [math.log(t) for t in tau_star]

    def term(state):
        e = gather_rows(e_star, member_rows(state))
        shape, rate = precisions_conditional(e, state.counts.tolist(), state.lam, hyper)
        return left_sum(a * math.log(b) - math.lgamma(a) + (a - 1.0) * log_t - b * t
                        for a, b, t, log_t in zip(shape, rate, tau_star, log_tau_star))

    return _reduced_log_mean("tau", g + 1, term, series, star, hyper, gamma, config, rng, vetoes)


def estimate_pi_ordinate(
    series: TimeSeries,
    star: ChainState,
    hyper: Hyperparams,
    gamma: np.ndarray,
    config: EvidenceConfig,
    rng: np.random.Generator,
    vetoes: dict[str, int],
) -> float:
    """Rao-Blackwellized log ordinate of the weights given all other starred blocks.

    Averages the Dirichlet(1 + counts) full-conditional density at pi* over
    the allocations of a chain that draws only allocations, weights and lambda.
    """
    log_pi_star = np.log(star.weights)

    def term(state):
        return dirichlet_log_density(1.0 + state.counts, log_pi_star)

    return _reduced_log_mean(
        "pi", star.weights.size + 2, term, series, star, hyper, gamma, config, rng, vetoes
    )


def _child_seeds(seed: int, n: int) -> list[int]:
    ss = np.random.SeedSequence(seed)
    return [int(child.generate_state(1)[0]) for child in ss.spawn(n)]


def marginal_log_likelihood(
    series: TimeSeries,
    g: int,
    hyper: Hyperparams,
    config: EvidenceConfig,
    seed: int,
) -> EvidenceResult:
    """Full evidence pipeline for one component count.

    Runs the order-move chain (not needed when p_max = 1), fixes the order
    configuration (modal or the one requested), refits at fixed orders
    conditioning on p_max observations, relabels, picks theta*, then
    estimates the four posterior ordinates in their required sequence and
    assembles the evidence identity.
    """
    s_rj, s_fit, s_ord = _child_seeds(seed, 3)
    p_max = config.order_config.p_max
    timing = {"order_chain_s": 0.0}

    def timed(name, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        timing[name] = time.perf_counter() - start
        return out

    if p_max > 1:
        trace, _ = timed("order_chain_s", rjmcmc_run, series, g, hyper, config.order_config, s_rj)
    else:
        # an order chain capped at 1 can only visit (1, ..., 1)
        trace = OrderTrace(orders=np.ones((1, g), dtype=np.int64))
    orders = config.orders if config.orders is not None else trace.modal()
    orders = tuple(int(p) for p in orders)
    preference = trace.preference(orders)
    if preference <= 0.0:
        raise ValueError(
            f"order configuration {orders} was never visited; "
            "cannot estimate its posterior probability"
        )

    output = timed("fit_chain_s", run_chain, series, g, orders, hyper, s_fit, p_max)
    output = relabel_chain(output, config.relabel)
    star = starred_point(output)
    # theta*'s memo, filled once: the likelihood, the mu and tau residuals
    # and every reduced run read its log terms, norms and fitted AR parts
    _, norm = state_log_terms(star, series)
    gamma = output.gamma
    rng = np.random.default_rng(s_ord)
    vetoes: dict[str, int] = {}  # per reduced run, in the order the runs go
    args = (series, star, hyper, gamma, config, rng, vetoes)

    log_phi, per_k = timed("phi_ordinate_s", estimate_phi_ordinate, *args)
    parts = {
        "log_likelihood": float(norm.sum()),
        "log_prior": log_prior_density(star.weights, star.means, star.scales, hyper),
        "log_order_prior": -g * math.log(p_max),
        "log_phi_ordinate": log_phi,
        "log_mu_ordinate": timed("mu_ordinate_s", estimate_mu_ordinate, *args),
        "log_tau_ordinate": timed("tau_ordinate_s", estimate_tau_ordinate, *args),
        "log_pi_ordinate": timed("pi_ordinate_s", estimate_pi_ordinate, *args),
        "log_order_posterior": math.log(preference),
    }
    for k, v in enumerate(per_k, start=1):
        parts[f"log_phi_ordinate_{k}"] = v
    result = EvidenceResult(
        g=g,
        orders=orders,
        preference=preference,
        log_marginal=math.nan,
        parts=parts,
        timing=timing,
        chains={"acceptance_rates": output.acceptance.tolist(),
                "stability_rejections": output.stability_rejections,
                "reduced_stability_rejections": vetoes,
                "relabel": output.relabelling,
                "order_moves": {"birth_attempts": trace.birth_attempts,
                                "birth_accepts": trace.birth_accepts,
                                "death_attempts": trace.death_attempts,
                                "death_accepts": trace.death_accepts}},
    )
    result.log_marginal = result.recompose()
    return result


def check_g_range(g_range: tuple[int, ...]) -> None:
    if not g_range or any(x < 1 for x in g_range):
        raise ValueError("g_range must contain positive component counts")


def _map_jobs(fn, jobs: list, workers: int) -> list:
    """[fn(job) for job in jobs], in a pool of at most `workers` processes when
    workers > 1 and there is more than one job; results keep the job order."""
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only where a pool runs

        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


def _evidence_worker(args):
    series_values, g, hyper, config, seed = args
    series = TimeSeries(series_values)
    return marginal_log_likelihood(series, g, hyper, config, seed)


def select_g(
    series: TimeSeries,
    g_range: tuple[int, ...],
    hyper: Hyperparams,
    config: EvidenceConfig,
    seed: int,
    workers: int = 1,
) -> tuple[int, list[EvidenceResult]]:
    """Evidence for every candidate component count; best g by log marginal.

    Candidates get independent derived seeds; with workers > 1 and more
    than one candidate they run in separate processes, assembled by
    candidate order so results do not depend on completion order.  Ties
    resolve to the smaller g.
    """
    g_range = tuple(int(x) for x in g_range)
    check_g_range(g_range)
    seeds = _child_seeds(seed, len(g_range))
    jobs = [(series.values, g, hyper, config, s) for g, s in zip(g_range, seeds)]
    results = _map_jobs(_evidence_worker, jobs, workers)
    log_p_g = -math.log(len(g_range))
    for res in results:
        res.log_p_g = log_p_g
    best = min(results, key=lambda r: (-r.log_marginal, r.g))
    return best.g, results
