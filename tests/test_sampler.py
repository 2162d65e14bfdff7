"""Gibbs sweep blocks: full conditionals, RWM step, tuning, whole chains."""

import dataclasses
import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln, logsumexp

from mixar.datasets import model_a_spec, model_b_spec
from mixar.model import (
    LOG_2PI,
    LatentAllocation,
    MARSpec,
    TimeSeries,
    _design,
    _log_terms,
    log_likelihood,
    simulate_path,
)
from mixar.model import logsumexp as model_logsumexp
from mixar.sampler import (
    ChainState,
    Hyperparams,
    allocation_probabilities,
    ar_log_ratio,
    default_hyperparams,
    draw_allocations,
    draw_lambda,
    gibbs_sweep,
    initial_state,
    log_prior_density,
    means_conditional,
    precisions_conditional,
    run_chain,
    sample_weights,
    state_log_terms,
    tune_gamma,
)

KS_ALPHA = 1e-3


def tiny_state():
    spec = MARSpec(
        weights=np.array([0.6, 0.4]),
        shifts=np.array([0.3, -0.2]),
        ar_coeffs=(np.array([0.5]), np.array([-0.8])),
        scales=np.array([0.7, 1.5]),
    )
    alloc = LatentAllocation(z=np.array([1, 2, 1, 1]), g=2)
    return ChainState(spec=spec, alloc=alloc, lam=1.2, means=np.array([0.6, -0.1]))


def tiny_series():
    return TimeSeries([0.4, -1.1, 0.9, 0.2, -0.5])


def means_kernel(state, series, hyper):
    """(mean, precision) of the means conditional at state, as the sweep evaluates it."""
    yt, lm = _design(series.values, 1)
    phi_mat = state.spec.phi_matrix(1)
    return means_conditional(
        yt - (lm @ phi_mat.T).T, state.alloc, state.spec.precisions,
        1.0 - phi_mat.sum(axis=1), hyper,
    )


def precisions_kernel(state, series, hyper):
    """(shape, rate) of the precisions conditional at state."""
    yt, lm = _design(series.values, 1)
    e = yt - state.spec.shifts[:, None] - (lm @ state.spec.phi_matrix(1).T).T
    return precisions_conditional(e, state.alloc, state.lam, hyper)


def kernel_sweep(state, series, hyper, rng, gamma=None):
    """The blocks of an unvetoed p=1 sweep, drawn by the kernels in sweep order.

    Allocations, weights, means, lambda and precisions always move; the AR
    blocks move only when gamma is given.
    """
    spec = state.spec
    yt, lm = _design(series.values, 1)
    alloc = draw_allocations(spec, yt, lm, rng)
    weights = sample_weights(alloc, rng)
    mean, prec = means_kernel(dataclasses.replace(state, alloc=alloc), series, hyper)
    means = np.array([rng.normal(m, math.sqrt(1.0 / p)) for m, p in zip(mean, prec)])
    shifts = means * (1.0 - spec.phi_matrix(1)[:, 0])
    lam = draw_lambda(spec.scales, hyper, rng)
    moved = ChainState(
        MARSpec(weights, shifts, spec.ar_coeffs, spec.scales), alloc, lam, means
    )
    shape, rate = precisions_kernel(moved, series, hyper)
    scales = np.array([1.0 / math.sqrt(rng.gamma(a, 1.0 / b)) for a, b in zip(shape, rate)])
    ar, accepted = list(spec.ar_coeffs), np.zeros(spec.g, dtype=bool)
    for k in range(spec.g) if gamma is not None else ():
        proposal = ar[k] + rng.normal(0.0, 1.0 / math.sqrt(gamma[k]), size=ar[k].size)
        log_ratio = ar_log_ratio(yt, lm, alloc.members[k], shifts[k], scales[k], ar[k], proposal)
        if math.log(rng.random()) < log_ratio:
            accepted[k] = True
            ar[k] = proposal
    return SimpleNamespace(alloc=alloc, weights=weights, means=means, shifts=shifts, lam=lam,
                           scales=scales, ar=ar, accepted=accepted)


def base_hyper(**overrides):
    defaults = dict(zeta=0.0, kappa=1.0, b=1.0)
    defaults.update(overrides)
    return Hyperparams(**defaults)


class TestHyperparams:
    def test_data_driven_defaults(self):
        series = TimeSeries(np.array([0.0, 2.5, 10.0, 4.0]))
        hyper = default_hyperparams(series)
        assert hyper.zeta == pytest.approx(5.0)
        assert hyper.kappa == pytest.approx(0.1)
        assert hyper.b == pytest.approx(0.1)
        assert hyper.a == 0.2 and hyper.c == 2.0

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            default_hyperparams(TimeSeries(np.ones(5)))

    def test_overrides_and_validation(self):
        series = TimeSeries(np.array([0.0, 1.0]))
        hyper = default_hyperparams(series, a=0.5, fixed_shift=True, n_iter=100, burn_in=10)
        assert hyper.a == 0.5 and hyper.fixed_shift
        with pytest.raises(ValueError):
            base_hyper(kappa=-1.0)
        with pytest.raises(ValueError):
            base_hyper(burn_in=100, n_iter=100)
        with pytest.raises(ValueError):
            base_hyper(gamma=0.0)

    @pytest.mark.parametrize("gamma", [(1.0, 2.0), "fast", [3.0]])
    def test_non_numeric_gamma_is_a_value_error_naming_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            base_hyper(gamma=gamma)


class TestAllocations:
    def test_rows_sum_to_one(self):
        probs = allocation_probabilities(tiny_state().spec, *_design(tiny_series().values, 1))
        assert probs.shape == (2, 4)
        np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-12)

    def test_two_thirds_example(self):
        # both components centred at 0 with scales (1, 2) and equal weights:
        # densities at y=0 are in ratio 1 : 1/2, so probabilities (2/3, 1/3)
        series = TimeSeries([0.0, 0.0])
        probs = allocation_probabilities(model_a_spec(), *_design(series.values, 1))
        np.testing.assert_allclose(probs[:, 0], [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_underflow_names_time_index(self):
        series = TimeSeries([0.0, 1e160, 0.0])
        with pytest.raises(ValueError, match="t=2"):
            allocation_probabilities(model_a_spec(), *_design(series.values, 1))

    def test_draw_frequencies_match_probabilities(self):
        state = tiny_state()
        series = tiny_series()
        yt, lm = _design(series.values, 1)
        probs = allocation_probabilities(state.spec, yt, lm)
        rng = np.random.default_rng(0)
        counts = np.zeros((2, 4))
        n = 40_000
        for _ in range(n):
            alloc = draw_allocations(state.spec, yt, lm, rng)
            counts[alloc.z - 1, np.arange(4)] += 1
        np.testing.assert_allclose(counts / n, probs, atol=0.01)


def equal_weight_spec(g, p=1):
    """A stable g-component spec of order p with equal weights."""
    return MARSpec(
        weights=np.full(g, 1.0 / g),
        shifts=np.linspace(-1.0, 1.0, g),
        ar_coeffs=tuple(np.full(p, 0.3 * (k + 1) / (g * p)) for k in range(g)),
        scales=np.linspace(1.0, 2.0, g),
    )


class FixedUniforms:
    """A stand-in generator whose `random(n)` returns chosen uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        assert n == self.u.size
        return self.u


class TestAllocationOracle:
    """The column-at-a-time allocation draw against the cumulative-sum form it replaced."""

    @staticmethod
    def cumsum_labels(probs, u):
        """Labels from the (T, g) running sums of the (g, T) probabilities."""
        probs = probs.T
        labels = (u[:, None] > np.cumsum(probs, axis=1)).sum(axis=1)
        return np.minimum(labels, probs.shape[1] - 1) + 1

    @staticmethod
    def terms(g, seed, n=400):
        rng = np.random.default_rng(seed)
        logw = rng.uniform(-30.0, 0.0, size=(n, g))
        logw[rng.random(logw.shape) < 0.2] = -np.inf
        logw[np.arange(n), rng.integers(0, g, n)] = rng.uniform(-5.0, 0.0, n)
        logw = np.ascontiguousarray(logw.T)  # component-major, as the sampler holds them
        return logw, model_logsumexp(logw, axis=0)

    @pytest.mark.parametrize("g", range(1, 8))
    def test_same_labels_and_stream_position(self, g):
        logw, norm = self.terms(g, 200 + g)
        yt, lm = np.zeros(norm.size), np.zeros((norm.size, 1))
        spec = equal_weight_spec(g)
        rng, twin = np.random.default_rng(g), np.random.default_rng(g)
        alloc = draw_allocations(spec, yt, lm, rng, (logw, norm))
        probs = allocation_probabilities(spec, yt, lm, (logw, norm))
        np.testing.assert_array_equal(alloc.z, self.cumsum_labels(probs, twin.random(norm.size)))
        assert rng.random() == twin.random()

    @pytest.mark.parametrize("g", range(1, 8))
    def test_uniforms_on_the_boundaries(self, g):
        # u equal to a running sum, zero, and the largest double below one
        logw, norm = self.terms(g, 300 + g)
        yt, lm = np.zeros(norm.size), np.zeros((norm.size, 1))
        spec = equal_weight_spec(g)
        probs = allocation_probabilities(spec, yt, lm, (logw, norm))
        pick = np.random.default_rng(g).integers(0, g, norm.size)
        u = np.cumsum(probs, axis=0)[pick, np.arange(norm.size)]
        u[::5] = 0.0
        u[1::5] = np.nextafter(1.0, 0.0)
        alloc = draw_allocations(spec, yt, lm, FixedUniforms(u), (logw, norm))
        np.testing.assert_array_equal(alloc.z, self.cumsum_labels(probs, u))


def time_major_oracle(spec, yt, lm):
    """(T, g) log terms, their row log-sum-exps and the allocation probabilities,
    one row per design time, reduced a column at a time from the left."""
    e = (yt[:, None] - spec.shifts[None, :] - lm @ spec.phi_matrix(lm.shape[1]).T) / spec.scales
    logw = np.log(spec.weights) - np.log(spec.scales) - 0.5 * e**2 - 0.5 * LOG_2PI
    top = functools.reduce(np.maximum, logw.T)
    top = np.where(np.isfinite(top), top, 0.0)
    norm = np.log(functools.reduce(np.add, np.exp(logw - top[:, None]).T)) + top
    return logw, norm, np.exp(logw - norm[:, None])


class TestComponentMajorLayout:
    """The (g, T) kernels carry the bits of the time-major (T, g) arithmetic."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("g", range(1, 9))
    def test_terms_norms_and_probabilities_equal_the_time_major_oracle(self, g, p):
        rng = np.random.default_rng(500 + 10 * g + p)
        values = rng.normal(0.0, 2.0, 150)
        values[::23] *= 40.0  # outliers drive some probabilities to zero
        series = TimeSeries(values)
        underflow = False
        for _ in range(3):
            orders = rng.integers(1, p + 1, size=g)
            orders[rng.integers(g)] = p
            spec = MARSpec(
                weights=rng.dirichlet(np.ones(g)),
                shifts=rng.normal(0.0, 1.0, g),
                ar_coeffs=tuple(rng.uniform(-0.6, 0.6, o) for o in orders),
                scales=rng.uniform(0.05, 3.0, g),
            )
            for cond in (p, p + 1, p + 3):
                yt, lm = series.design(cond)
                logw, norm, probs = time_major_oracle(spec, yt, lm)
                got = _log_terms(spec, yt, lm)
                assert got.shape == (g, yt.size)
                assert np.ascontiguousarray(got.T).tobytes() == logw.tobytes()
                assert model_logsumexp(got, axis=0).tobytes() == norm.tobytes()
                got_probs = allocation_probabilities(spec, yt, lm)
                assert np.ascontiguousarray(got_probs.T).tobytes() == probs.tobytes()
                state = ChainState(spec, LatentAllocation(np.ones(yt.size), g), 1.0, np.zeros(g))
                memo_terms, memo_norm = state_log_terms(state, series.values, yt, lm)
                assert memo_terms.tobytes() == got.tobytes()
                assert memo_norm.tobytes() == norm.tobytes()
                underflow |= bool(np.any(probs == 0.0))
        assert underflow or g == 1


class TestWeights:
    def test_dirichlet_posterior_marginal(self):
        alloc = LatentAllocation(z=np.repeat([1, 2], [30, 70]), g=2)
        rng = np.random.default_rng(1)
        draws = np.array([sample_weights(alloc, rng)[0] for _ in range(20_000)])
        # marginal of the first coordinate is Beta(1+30, 1+70)
        p = stats.kstest(draws, stats.beta(31, 71).cdf).pvalue
        assert p > KS_ALPHA

    def test_weights_always_positive(self):
        alloc = LatentAllocation(z=np.repeat(1, 500), g=2)
        rng = np.random.default_rng(3)
        for _ in range(200):
            w = sample_weights(alloc, rng)
            assert np.all(w > 0) and w.sum() == pytest.approx(1.0)


class TestMeans:
    def test_matches_closed_form_conditional(self):
        state = tiny_state()
        series = tiny_series()
        hyper = base_hyper(zeta=0.4, kappa=2.0)
        yt = series.values[1:]
        lm = series.values[:-1][:, None]
        z0 = state.alloc.z - 1
        for k in range(2):
            r = yt - lm[:, 0] * state.spec.ar_coeffs[k][0]
            ebar = r[z0 == k].mean()
            nk = (z0 == k).sum()
            tau = 1.0 / state.spec.scales[k] ** 2
            bk = 1.0 - state.spec.ar_coeffs[k].sum()
            prec = tau * nk * bk**2 + hyper.kappa
            m = (tau * nk * ebar * bk + hyper.kappa * hyper.zeta) / prec
            mean, precision = means_kernel(state, series, hyper)
            assert mean[k] == pytest.approx(m, rel=1e-12)
            assert precision[k] == pytest.approx(prec, rel=1e-12)

    def test_tight_prior_pins_mean_at_zeta(self):
        state = tiny_state()
        hyper = base_hyper(zeta=3.0, kappa=1e12)
        mean, _ = means_kernel(state, tiny_series(), hyper)
        np.testing.assert_allclose(mean, 3.0, atol=1e-4)

    def test_empty_component_falls_back_to_prior(self):
        state = tiny_state()
        alloc = LatentAllocation(z=np.array([1, 1, 1, 1]), g=2)
        state = ChainState(state.spec, alloc, state.lam, state.means)
        hyper = base_hyper(zeta=-2.0, kappa=4.0)
        mean, precision = means_kernel(state, tiny_series(), hyper)
        assert mean[1] == -2.0 and precision[1] == 4.0

    def test_unit_root_component_prior_and_zero_shift(self):
        # when sum(phi) = 1 the shift transform collapses: b_k = 0 means the
        # data carry no information about mu_k and the implied shift is 0
        spec = MARSpec(
            weights=np.array([1.0]),
            shifts=np.array([0.0]),
            ar_coeffs=(np.array([1.0]),),
            scales=np.array([2.0]),
        )
        state = ChainState(
            spec, LatentAllocation(z=np.ones(4, dtype=int), g=1), 1.0, np.zeros(1)
        )
        hyper = base_hyper(zeta=1.5, kappa=9.0)
        mean, precision = means_kernel(state, tiny_series(), hyper)
        assert mean[0] == 1.5 and precision[0] == 9.0
        bk = 1.0 - spec.ar_coeffs[0].sum()
        assert mean[0] * bk == 0.0


class TestLambdaAndPrecisions:
    def test_lambda_full_conditional(self):
        state = tiny_state()
        hyper = base_hyper(a=0.7, b=2.0, c=3.0)
        rng = np.random.default_rng(8)
        draws = np.array([draw_lambda(state.spec.scales, hyper, rng) for _ in range(20_000)])
        shape = 0.7 + 2 * 3.0
        rate = 2.0 + float(state.spec.precisions.sum())
        p = stats.kstest(draws, stats.gamma(a=shape, scale=1.0 / rate).cdf).pvalue
        assert p > KS_ALPHA

    def test_empty_component_precision_is_prior(self):
        state = tiny_state()
        alloc = LatentAllocation(z=np.array([2, 2, 2, 2]), g=2)
        state = ChainState(state.spec, alloc, 1.7, state.means)
        shape, rate = precisions_kernel(state, tiny_series(), base_hyper(c=2.5))
        assert shape[0] == 2.5 and rate[0] == 1.7

    def test_large_count_posterior_mean(self):
        rng = np.random.default_rng(10)
        n = 400
        series = TimeSeries(rng.normal(size=n))
        spec = MARSpec(
            weights=np.array([1.0]),
            shifts=np.zeros(1),
            ar_coeffs=(np.array([0.0]),),
            scales=np.array([1.0]),
        )
        alloc = LatentAllocation(z=np.ones(n - 1, dtype=int), g=1)
        state = ChainState(spec, alloc, 0.8, np.zeros(1))
        sse = float(np.sum(series.values[1:] ** 2))
        expect = (2.0 + (n - 1) / 2.0) / (0.8 + sse / 2.0)
        shape, rate = precisions_kernel(state, series, base_hyper(c=2.0))
        assert shape[0] / rate[0] == pytest.approx(expect, rel=1e-12)


class TestRWM:
    def test_log_ratio_hand_example(self):
        # one allocated point: y=(1, 0.5), shift 0.3, phi 0.5 -> e_cur=-0.3;
        # proposal 0.2 -> e_new=0; ratio = -tau/2 (0 - 0.09) with tau=1/0.49
        yt, lm = _design(np.array([1.0, 0.5]), 1)
        got = ar_log_ratio(yt, lm, np.array([0]), 0.3, 0.7, np.array([0.5]), np.array([0.2]))
        assert got == pytest.approx(0.09 / (2 * 0.49), abs=1e-14)

    def test_zero_step_and_empty_component(self):
        state = tiny_state()
        yt, lm = _design(tiny_series().values, 1)
        cur = state.spec.ar_coeffs[0]
        rows = state.alloc.members[0]
        assert ar_log_ratio(yt, lm, rows, 0.3, 0.7, cur, cur) == 0.0
        none = np.zeros(0, dtype=np.intp)
        assert ar_log_ratio(yt, lm, none, -0.2, 1.5, cur, np.array([5.0])) == 0.0

    def test_blocks_of_different_length(self):
        # y=(1, 0.5, 0.2) conditioned on two values: one row, lags (0.5, 1.0).
        # shift 0.1, scale 0.5: e_cur = 0.2 - 0.1 - 0.5*0.5 = -0.15 and
        # appending 0.3 gives e_new = -0.15 - 0.3 = -0.45, so the birth ratio
        # is -2 (0.2025 - 0.0225) = -0.36 and the death ratio its negative
        yt, lm = _design(np.array([1.0, 0.5, 0.2]), 2)
        short, long = np.array([0.5]), np.array([0.5, 0.3])
        rows = np.array([0])
        assert ar_log_ratio(yt, lm, rows, 0.1, 0.5, short, long) == pytest.approx(-0.36)
        assert ar_log_ratio(yt, lm, rows, 0.1, 0.5, long, short) == pytest.approx(0.36)

    def test_single_gamma_applies_to_every_component(self):
        series = simulate_path(model_a_spec(), 60, seed=5)
        hyper = default_hyperparams(series, n_iter=20, burn_in=10, gamma=7)
        assert hyper.gamma == 7.0 and isinstance(hyper.gamma, float)
        out = run_chain(series, 3, (1, 1, 1), hyper, seed=0)
        np.testing.assert_array_equal(out.gamma, [7.0, 7.0, 7.0])

    def test_tiny_steps_mostly_accepted(self):
        state = tiny_state()
        hyper = base_hyper()
        rng = np.random.default_rng(11)
        gamma = np.array([1e12, 1e12])
        accepted = sum(
            gibbs_sweep(state, tiny_series(), hyper, rng, 1, gamma)[1].accepted[0]
            for _ in range(300)
        )
        assert accepted >= 290

    def test_rejection_returns_current(self):
        state = tiny_state()
        hyper = base_hyper()
        rng = np.random.default_rng(12)
        gamma = np.array([0.01, 0.01])
        saw_reject = False
        for _ in range(200):
            new_state, info = gibbs_sweep(state, tiny_series(), hyper, rng, 1, gamma)
            if not info.accepted[0]:
                np.testing.assert_array_equal(
                    new_state.spec.ar_coeffs[0], state.spec.ar_coeffs[0]
                )
                saw_reject = True
        assert saw_reject


class TestSweepWiring:
    """A full sweep draws, block by block, exactly what the kernels draw when
    called in sweep order from the same seed."""

    SEED = 31
    GAMMA = np.array([30.0, 80.0])

    def sweeps(self):
        """(new state, sweep info, kernel blocks) from one seed; both generators end level."""
        hyper = base_hyper(zeta=0.2, kappa=0.5)
        rng, twin = np.random.default_rng(self.SEED), np.random.default_rng(self.SEED)
        new_state, info = gibbs_sweep(tiny_state(), tiny_series(), hyper, rng, 1, self.GAMMA)
        expect = kernel_sweep(tiny_state(), tiny_series(), hyper, twin, self.GAMMA)
        assert not info.stability_rejected
        assert rng.random() == twin.random()
        return new_state, info, expect

    def test_allocations(self):
        new_state, _, expect = self.sweeps()
        np.testing.assert_array_equal(new_state.alloc.z, expect.alloc.z)
        # the row norms memoized on the returned state sum to its log likelihood
        ll = log_likelihood(new_state.spec, tiny_series(), 1)
        assert float(np.sum(new_state.terms[3])) == ll

    def test_weights(self):
        new_state, _, expect = self.sweeps()
        np.testing.assert_array_equal(new_state.spec.weights, expect.weights)

    def test_means(self):
        new_state, _, expect = self.sweeps()
        np.testing.assert_array_equal(new_state.means, expect.means)
        np.testing.assert_array_equal(new_state.spec.shifts, expect.shifts)

    @pytest.mark.parametrize("g", range(1, 8))
    def test_means_and_precisions_match_per_component_draws(self, g):
        """Both blocks draw what g separate normal and gamma calls draw, in the same order."""
        series = simulate_path(equal_weight_spec(g), 200, seed=g)
        # a last component far from the data is never allocated once g >= 2,
        # so the prior fallback runs too
        spec = equal_weight_spec(g)
        shifts = spec.shifts.copy()
        shifts[-1] += 0.0 if g == 1 else 100.0
        spec = MARSpec(spec.weights, shifts, spec.ar_coeffs, spec.scales)
        state = ChainState(spec, LatentAllocation(z=np.ones(series.n - 1, int), g=g), 1.3,
                           np.zeros(g))
        hyper = base_hyper(zeta=0.2, kappa=0.5)
        rng, twin = np.random.default_rng(g), np.random.default_rng(g)
        new_state, info = gibbs_sweep(state, series, hyper, rng, 1, np.full(g, 50.0), pinned=g)
        assert not info.stability_rejected
        expect = kernel_sweep(state, series, hyper, twin)
        assert g == 1 or expect.alloc.counts[-1] == 0
        np.testing.assert_array_equal(new_state.means, expect.means)
        assert new_state.lam == expect.lam
        np.testing.assert_array_equal(new_state.spec.scales, expect.scales)
        assert rng.random() == twin.random()

    def test_lambda(self):
        new_state, _, expect = self.sweeps()
        assert new_state.lam == expect.lam

    def test_precisions(self):
        new_state, _, expect = self.sweeps()
        np.testing.assert_array_equal(new_state.spec.scales, expect.scales)

    def test_ar_blocks(self):
        new_state, info, expect = self.sweeps()
        np.testing.assert_array_equal(info.attempted, [True, True])
        np.testing.assert_array_equal(info.accepted, expect.accepted)
        for got, want in zip(new_state.spec.ar_coeffs, expect.ar):
            np.testing.assert_array_equal(got, want)


class TestLogTermMemo:
    """Log terms memoized on a ChainState serve the next sweep of that state only."""

    GAMMA = np.array([300.0, 100.0, 100.0])

    def start(self):
        series = simulate_path(model_b_spec(), 200, seed=41)
        hyper = default_hyperparams(series)
        state = initial_state(series, 3, (2, 1, 1), hyper, 2)
        return series, hyper, state

    @staticmethod
    def fresh(state):
        """The same fields in a new state, with nothing memoized."""
        return ChainState(state.spec, state.alloc, state.lam, state.means)

    def same_sweep(self, state, series, hyper, seed, cond=2):
        """Sweep `state` and a fresh copy from one seed; assert bitwise equal results."""
        out = []
        for s in (state, self.fresh(state)):
            rng = np.random.default_rng(seed)
            out.append(gibbs_sweep(s, series, hyper, rng, cond, self.GAMMA))
        (a, info_a), (b, info_b) = out
        np.testing.assert_array_equal(a.alloc.z, b.alloc.z)
        for name in ("weights", "shifts", "scales"):
            np.testing.assert_array_equal(getattr(a.spec, name), getattr(b.spec, name))
        for x, y in zip(a.spec.ar_coeffs, b.spec.ar_coeffs):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(a.means, b.means)
        assert a.lam == b.lam
        np.testing.assert_array_equal(info_a.accepted, info_b.accepted)
        assert info_a.stability_rejected == info_b.stability_rejected
        np.testing.assert_array_equal(a.terms[3], b.terms[3])
        return a

    def swept(self):
        """A chain three sweeps in, with the terms memoized for cond 2."""
        series, hyper, state = self.start()
        for seed in range(3):
            state, _ = gibbs_sweep(state, series, hyper, np.random.default_rng(seed), 2, self.GAMMA)
        assert state.terms[0] is series.values and state.terms[1] == 2
        return series, hyper, state

    def test_sweep_keeps_the_terms_of_the_spec_it_returns(self):
        series, hyper, state = self.start()
        assert state.terms is None
        new_state, _ = gibbs_sweep(state, series, hyper, np.random.default_rng(1), 2, self.GAMMA)
        values, cond, logw, norm, fitted = new_state.terms
        assert values is series.values and cond == 2
        yt, lm = _design(series.values, 2)
        np.testing.assert_array_equal(logw, _log_terms(new_state.spec, yt, lm))
        np.testing.assert_array_equal(fitted, (lm @ new_state.spec.phi_matrix(2).T).T)
        assert float(np.sum(norm)) == log_likelihood(new_state.spec, series, 2)

    def test_sweep_from_memo_equals_sweep_from_fresh_state(self):
        series, hyper, state = self.start()
        for seed in range(25):
            state = self.same_sweep(state, series, hyper, seed)
            assert state.terms is not None

    def test_replace_drops_the_memo(self):
        _, _, state = self.swept()
        born = dataclasses.replace(
            state, spec=state.spec.with_ar(2, np.append(state.spec.ar_coeffs[1], 0.2))
        )
        assert born.terms is None
        assert dataclasses.replace(state, lam=2.0 * state.lam).terms is None

    def test_sweep_after_an_order_move_uses_the_new_spec(self):
        # the order chain swaps a block with dataclasses.replace, as a birth here
        series, hyper, state = self.swept()
        born = dataclasses.replace(
            state, spec=state.spec.with_ar(2, np.append(state.spec.ar_coeffs[1], 0.2))
        )
        for seed in range(3, 8):
            born = self.same_sweep(born, series, hyper, seed, cond=2)

    def test_memo_is_keyed_by_cond(self):
        series, hyper, state = self.swept()
        self.same_sweep(state, series, hyper, 10, cond=4)

    def test_memo_is_keyed_by_series(self):
        series, hyper, state = self.swept()
        other = simulate_path(model_b_spec(), series.n, seed=99)
        self.same_sweep(state, other, hyper, 11)

    def test_veto_keeps_the_start_of_sweep_terms(self):
        series, spec, state = veto_setup()
        start = state.terms
        new_state, info = gibbs_sweep(
            state, series, base_hyper(fixed_shift=True), np.random.default_rng(0), 1,
            np.array([50.0, 1e-4]),
        )
        assert info.stability_rejected
        assert new_state.spec is spec
        assert start is None and new_state.terms is state.terms
        assert float(np.sum(new_state.terms[3])) == log_likelihood(spec, series, 1)


def veto_setup():
    """A state whose sweep always ends unstable (see the veto test below)."""
    series = TimeSeries([0.2, -0.4, 0.5, 0.1, -0.3, 0.6])
    spec = MARSpec(
        weights=np.array([0.5, 0.5]),
        shifts=np.array([0.0, 50.0]),
        ar_coeffs=(np.array([0.3]), np.array([0.0])),
        scales=np.array([1.0, 0.5]),
    )
    state = ChainState(spec, LatentAllocation(z=np.ones(5, dtype=int), g=2), 1.0, np.zeros(2))
    return series, spec, state


class TestGibbsSweep:
    def test_stability_veto_restores_previous_state(self):
        # component 2 sits 50 units away so it never wins an allocation; its
        # RWM ratio is then 0 and a huge proposed step is always accepted,
        # making the end-of-sweep spec unstable and triggering the veto
        series, spec, state = veto_setup()
        hyper = base_hyper(fixed_shift=True)
        rng = np.random.default_rng(0)
        new_state, info = gibbs_sweep(state, series, hyper, rng, 1, np.array([50.0, 1e-4]))
        assert info.stability_rejected
        assert info.accepted[1]  # the per-move step itself was accepted
        np.testing.assert_array_equal(new_state.spec.weights, spec.weights)
        np.testing.assert_array_equal(new_state.spec.shifts, spec.shifts)
        np.testing.assert_array_equal(new_state.spec.scales, spec.scales)
        for a, b in zip(new_state.spec.ar_coeffs, spec.ar_coeffs):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(new_state.alloc.z, state.alloc.z)
        np.testing.assert_array_equal(new_state.means, state.means)
        assert new_state.lam == state.lam

    def test_stable_chain_never_leaves_the_region(self):
        rng = np.random.default_rng(13)
        series = TimeSeries(rng.normal(size=30))
        hyper = base_hyper(fixed_shift=True)
        state = initial_state(series, 1, (1,), hyper, 1)
        for _ in range(300):
            state, _ = gibbs_sweep(state, series, hyper, rng, 1, np.array([2.0]))
            assert abs(state.spec.ar_coeffs[0][0]) < 1.0

    @pytest.mark.parametrize("pinned", range(5))
    def test_pinned_prefix_of_the_block_order(self, pinned):
        # the evidence order of tiny_state's blocks is phi_1, phi_2, mu, tau
        state, series, hyper = tiny_state(), tiny_series(), base_hyper()
        g = state.spec.g
        new_state, info = gibbs_sweep(
            state, series, hyper, np.random.default_rng(14), 1, np.array([400.0, 400.0]), pinned
        )
        assert not info.stability_rejected
        assert set(np.flatnonzero(info.attempted) + 1) == set(range(pinned + 1, g + 1))
        for k in range(1, min(pinned, g) + 1):
            np.testing.assert_array_equal(
                new_state.spec.ar_coeffs[k - 1], state.spec.ar_coeffs[k - 1]
            )
        means_held = np.array_equal(new_state.means, state.means) and np.array_equal(
            new_state.spec.shifts, state.spec.shifts
        )
        assert means_held == (pinned > g)
        assert np.array_equal(new_state.spec.scales, state.spec.scales) == (pinned > g + 1)
        # allocations, weights and lambda are drawn whatever is pinned
        twin = np.random.default_rng(14)
        alloc = draw_allocations(state.spec, *_design(series.values, 1), twin)
        weights = sample_weights(alloc, twin)
        if pinned <= g:
            twin.standard_normal(g)  # the means draw
        np.testing.assert_array_equal(new_state.alloc.z, alloc.z)
        np.testing.assert_array_equal(new_state.spec.weights, weights)
        assert new_state.lam == draw_lambda(state.spec.scales, hyper, twin)


class TestTuning:
    def test_pilot_too_short(self):
        # refused with the settings, before any sweep runs; a set gamma needs no pilot
        with pytest.raises(ValueError, match="500"):
            base_hyper(pilot_iters=499)
        assert base_hyper(pilot_iters=0, gamma=50.0).pilot_iters == 0

    def test_acceptance_lands_in_band(self):
        series = simulate_path(model_a_spec(), 300, seed=7)
        hyper = default_hyperparams(series)
        rng = np.random.default_rng(16)
        start = initial_state(series, 2, (1, 1), hyper, 1)
        gamma, _, state = tune_gamma(start, series, hyper, rng, 1)
        assert np.all(gamma > 0)
        # measure the long-run acceptance at the frozen gamma
        acc = np.zeros(2)
        n_eval = 600
        for _ in range(n_eval):
            state, info = gibbs_sweep(state, series, hyper, rng, 1, gamma)
            acc += info.accepted
        rates = acc / n_eval
        assert np.all(rates >= 0.12) and np.all(rates <= 0.35)

    def test_doubling_gamma_does_not_reduce_acceptance(self):
        series = simulate_path(model_a_spec(), 200, seed=8)
        base = default_hyperparams(series, n_iter=1_500, burn_in=500, gamma=40.0)
        doubled = default_hyperparams(
            series, n_iter=1_500, burn_in=500, gamma=80.0
        )
        out1 = run_chain(series, 2, (1, 1), base, seed=9)
        out2 = run_chain(series, 2, (1, 1), doubled, seed=9)
        assert np.all(out2.acceptance >= out1.acceptance - 0.02)


class TestPrior:
    def test_dirichlet_block_uniform_is_zero_only_for_degenerate(self):
        hyper = base_hyper(fixed_shift=True)
        # with all-ones Dirichlet the weight term is log (g-1)! = log 1 for g=2
        lp2 = log_prior_density(np.array([0.5, 0.5]), np.zeros(2), np.ones(2), hyper)
        lp3 = log_prior_density(np.array([0.4, 0.3, 0.3]), np.zeros(3), np.ones(3), hyper)
        # difference in the weight block: log 2! - log 1! = log 2 plus the
        # precision-block change from adding one component
        def tau_block(g):
            a, b, c = hyper.a, hyper.b, hyper.c
            return (
                gammaln(a + g * c) - gammaln(a) - g * gammaln(c)
                + a * math.log(b) - (a + g * c) * math.log(b + g)
            )

        assert lp3 - lp2 == pytest.approx(math.log(2.0) + tau_block(3) - tau_block(2))

    def test_compound_precision_prior_matches_quadrature(self):
        # integrate Gamma(tau|c, lam) Gamma(lam|a, b) over lam numerically
        hyper = base_hyper(a=0.4, b=2.5, c=1.7, fixed_shift=True)
        tau = np.array([0.9])
        lam_grid = np.linspace(1e-8, 200.0, 400_001)
        integrand = stats.gamma.pdf(tau[0], a=hyper.c, scale=1.0 / lam_grid) * stats.gamma.pdf(
            lam_grid, a=hyper.a, scale=1.0 / hyper.b
        )
        expect = math.log(np.trapezoid(integrand, lam_grid))
        got = log_prior_density(np.array([1.0]), np.zeros(1), 1.0 / np.sqrt(tau), hyper)
        assert got == pytest.approx(expect, abs=1e-6)

    def test_mean_block_is_gaussian(self):
        fixed = base_hyper(zeta=1.0, kappa=4.0, fixed_shift=True)
        free = dataclasses.replace(fixed, fixed_shift=False)
        lp_fixed = log_prior_density(np.array([1.0]), np.array([2.0]), np.ones(1), fixed)
        lp_free = log_prior_density(np.array([1.0]), np.array([2.0]), np.ones(1), free)
        assert lp_free - lp_fixed == pytest.approx(stats.norm(1.0, 0.5).logpdf(2.0))


class TestRunChain:
    def test_deterministic_given_seed(self):
        series = simulate_path(model_a_spec(), 120, seed=20)
        hyper = default_hyperparams(series, n_iter=700, burn_in=200, pilot_iters=500)
        a = run_chain(series, 2, (1, 1), hyper, seed=21)
        b = run_chain(series, 2, (1, 1), hyper, seed=21)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.ar, b.ar)
        np.testing.assert_array_equal(a.scales, b.scales)
        np.testing.assert_array_equal(a.log_posteriors, b.log_posteriors)
        c = run_chain(series, 2, (1, 1), hyper, seed=22)
        assert not np.array_equal(a.ar, c.ar)

    def test_single_component_recovers_least_squares(self):
        rng = np.random.default_rng(23)
        n = 400
        y = np.empty(n)
        y[0] = 0.0
        for t in range(1, n):
            y[t] = 0.6 * y[t - 1] + rng.normal()
        series = TimeSeries(y)
        ols = float(np.dot(y[1:], y[:-1]) / np.dot(y[:-1], y[:-1]))
        hyper = default_hyperparams(
            series, fixed_shift=True, n_iter=2_000, burn_in=500, pilot_iters=500
        )
        out = run_chain(series, 1, (1,), hyper, seed=24)
        assert out.ar[:, 0, 0].mean() == pytest.approx(ols, abs=0.05)

    def test_log_posterior_recomputes(self):
        series = simulate_path(model_a_spec(), 100, seed=25)
        hyper = default_hyperparams(series, n_iter=400, burn_in=200, pilot_iters=500)
        from mixar.model import log_likelihood

        out = run_chain(series, 2, (1, 1), hyper, seed=26)
        for i in (0, 57, 199):
            spec = out.spec_at(i)
            expect = log_likelihood(spec, series, out.cond) + log_prior_density(
                spec.weights, out.means[i], spec.scales, hyper
            )
            assert out.log_posteriors[i] == pytest.approx(expect, abs=1e-8)

    def test_two_point_posterior_matches_grid(self):
        # stationarity smoke test: with one effective observation the phi
        # marginal is known by quadrature; the chain histogram must match it
        series = TimeSeries([1.0, 0.3])
        hyper = default_hyperparams(
            series, fixed_shift=True, n_iter=30_000, burn_in=2_000,
            pilot_iters=500,
        )
        out = run_chain(series, 1, (1,), hyper, seed=77)
        phi = out.ar[:, 0, 0]
        a, b, c = hyper.a, hyper.b, hyper.c
        edges = np.linspace(-1, 1, 41)
        grid = np.linspace(-1 + 1e-9, 1 - 1e-9, 4001)
        u = np.linspace(math.log(1e-5), math.log(1e5), 3001)
        tau = np.exp(u)
        log_ptau = (
            gammaln(a + c) - gammaln(a) - gammaln(c) + a * math.log(b)
            + (c - 1) * u - (a + c) * np.log(b + tau)
        )
        ll = (
            0.5 * (u - math.log(2 * math.pi))[None, :]
            - 0.5 * tau[None, :] * (0.3 - grid[:, None]) ** 2
        )
        post = logsumexp(ll + log_ptau[None, :] + u[None, :], axis=1)
        dens = np.exp(post - logsumexp(post) - math.log(grid[1] - grid[0]))
        masses = np.zeros(40)
        for i in range(40):
            m = (grid >= edges[i]) & (grid < edges[i + 1])
            masses[i] = dens[m].sum() * (grid[1] - grid[0])
        masses /= masses.sum()
        emp = np.histogram(phi, bins=edges)[0] / phi.size
        tv = 0.5 * float(np.abs(emp - masses).sum())
        assert tv <= 0.05
