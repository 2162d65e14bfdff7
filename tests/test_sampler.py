"""Gibbs sweep blocks: full conditionals, RWM step, tuning, whole chains."""

import dataclasses
import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln, logsumexp

import mixar.sampler
from mixar.datasets import model_a_spec, model_b_spec
from mixar.model import (
    LOG_2PI,
    MARSpec,
    TimeSeries,
    _design,
    _log_terms,
    fitted_ar,
    log_likelihood,
    log_terms,
    simulate_path,
)
from mixar.model import logsumexp as model_logsumexp
from mixar.sampler import (
    ChainState,
    Hyperparams,
    ar_log_ratio,
    default_hyperparams,
    draw_allocations,
    draw_lambda,
    gather_rows,
    gibbs_sweep,
    initial_state,
    make_log_prior,
    means_conditional,
    member_rows,
    precisions_conditional,
    run_chain,
    sample_weights,
    state_log_terms,
    swapped_ar,
    tune_gamma,
)

from helpers import spec_of, spec_state

KS_ALPHA = 1e-3


def tiny_state():
    spec = MARSpec(
        weights=np.array([0.6, 0.4]),
        shifts=np.array([0.3, -0.2]),
        ar_coeffs=(np.array([0.5]), np.array([-0.8])),
        scales=np.array([0.7, 1.5]),
    )
    return spec_state(spec, np.array([0.6, -0.1]), np.array([1, 2, 1, 1]), 1.2, 1)


def tiny_series():
    return TimeSeries([0.4, -1.1, 0.9, 0.2, -0.5])


def labelled(state, z):
    """state with labels z (1-based) and their tallies."""
    z = np.asarray(z, dtype=np.int64)
    counts = np.bincount(z, minlength=state.weights.size + 1)[1:]
    return dataclasses.replace(state, z=z, counts=counts)


def positions(state):
    """Each component's label positions by `flatnonzero`, none left out as `member_rows` may."""
    return tuple(np.flatnonzero(state.z == k) for k in range(1, state.weights.size + 1))


def spec_terms(spec, yt, lm):
    """(log terms, column norms) of spec on a design, computed afresh."""
    logw = _log_terms(spec, yt, lm)
    return logw, model_logsumexp(logw, axis=0)


def probabilities(logw, norm):
    """The (g, T) allocation probabilities `draw_allocations` draws from."""
    return np.exp(logw - norm)


def means_kernel(state, series, hyper):
    """(mean, precision) of the means conditional at state, as the sweep evaluates it."""
    yt, lm = _design(series.values, 1)
    phi_mat = state.phi
    r = gather_rows(yt - (lm @ phi_mat.T).T, positions(state))
    return means_conditional(
        r, state.counts.tolist(), (1.0 / state.scales**2).tolist(),
        (1.0 - phi_mat.sum(axis=1)).tolist(), hyper,
    )


def precisions_kernel(state, series, hyper):
    """(shape, rate) of the precisions conditional at state."""
    yt, lm = _design(series.values, 1)
    e = gather_rows(yt - state.shifts[:, None] - (lm @ state.phi.T).T, positions(state))
    return precisions_conditional(e, state.counts.tolist(), state.lam, hyper)


def precisions_of(scales):
    """The precisions 1 / sigma_k^2 as the Python floats the sweep passes around."""
    return (1.0 / np.asarray(scales) ** 2).tolist()


def log_ratio_at(yt, lm, rows, shift, scale, cur, new):
    """`ar_log_ratio` on the design rows at the positions rows (every row when None)."""
    if rows is not None:
        yt, lm = yt[rows], lm[rows]
    return ar_log_ratio(yt - shift, lm, scale, cur, new)


def kernel_sweep(state, series, hyper, rng, gamma=None):
    """The blocks of an unvetoed p=1 sweep, drawn by the kernels in sweep order.

    Allocations, weights, means, lambda and precisions always move; the AR
    blocks move only when gamma is given.
    """
    yt, lm = _design(series.values, 1)
    z = draw_allocations(*spec_terms(spec_of(state), yt, lm), 1, rng)
    drawn = labelled(state, z)
    weights = sample_weights(drawn.counts, rng)
    mean, prec = means_kernel(drawn, series, hyper)
    means = np.array([rng.normal(m, math.sqrt(1.0 / p)) for m, p in zip(mean, prec)])
    shifts = means * (1.0 - state.phi[:, 0])
    lam = draw_lambda(precisions_of(state.scales), hyper, rng)
    moved = dataclasses.replace(drawn, weights=weights, shifts=shifts, means=means, lam=lam)
    shape, rate = precisions_kernel(moved, series, hyper)
    scales = np.array([1.0 / math.sqrt(rng.gamma(a, 1.0 / b)) for a, b in zip(shape, rate)])
    g = state.weights.size
    ar, accepted = [state.phi[k].copy() for k in range(g)], np.zeros(g, dtype=bool)
    for k in range(g) if gamma is not None else ():
        proposal = ar[k] + rng.normal(0.0, 1.0 / math.sqrt(gamma[k]), size=ar[k].size)
        rows = positions(drawn)[k]
        log_ratio = log_ratio_at(yt, lm, rows, shifts[k], scales[k], ar[k], proposal)
        if math.log(rng.random()) < log_ratio:
            accepted[k] = True
            ar[k] = proposal
    return SimpleNamespace(z=z, counts=drawn.counts, weights=weights, means=means, shifts=shifts,
                           lam=lam, scales=scales, ar=ar, accepted=accepted)


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
        with pytest.raises(ValueError, match=r"kappa must be positive and finite, got -1.0$"):
            base_hyper(kappa=np.float64(-1.0))
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
        spec = spec_of(tiny_state())
        probs = probabilities(*spec_terms(spec, *_design(tiny_series().values, 1)))
        assert probs.shape == (2, 4)
        np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-12)

    def test_two_thirds_example(self):
        # both components centred at 0 with scales (1, 2) and equal weights:
        # densities at y=0 are in ratio 1 : 1/2, so probabilities (2/3, 1/3)
        series = TimeSeries([0.0, 0.0])
        probs = probabilities(*spec_terms(model_a_spec(), *_design(series.values, 1)))
        np.testing.assert_allclose(probs[:, 0], [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_underflow_names_time_index(self):
        series = TimeSeries([0.0, 1e160, 0.0])
        with pytest.raises(ValueError, match="t=2"):
            draw_allocations(*spec_terms(model_a_spec(), *_design(series.values, 1)), 1, None)

    def test_draw_frequencies_match_probabilities(self):
        state = tiny_state()
        series = tiny_series()
        yt, lm = _design(series.values, 1)
        logw, norm = spec_terms(spec_of(state), yt, lm)
        probs = probabilities(logw, norm)
        rng = np.random.default_rng(0)
        counts = np.zeros((2, 4))
        n = 40_000
        for _ in range(n):
            z = draw_allocations(logw, norm, 1, rng)
            counts[z - 1, np.arange(4)] += 1
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
        rng, twin = np.random.default_rng(g), np.random.default_rng(g)
        z = draw_allocations(logw, norm, 1, rng)
        probs = probabilities(logw, norm)
        np.testing.assert_array_equal(z, self.cumsum_labels(probs, twin.random(norm.size)))
        assert rng.random() == twin.random()

    @pytest.mark.parametrize("g", range(1, 8))
    def test_uniforms_on_the_boundaries(self, g):
        # u equal to a running sum, zero, and the largest double below one
        logw, norm = self.terms(g, 300 + g)
        probs = probabilities(logw, norm)
        pick = np.random.default_rng(g).integers(0, g, norm.size)
        u = np.cumsum(probs, axis=0)[pick, np.arange(norm.size)]
        u[::5] = 0.0
        u[1::5] = np.nextafter(1.0, 0.0)
        z = draw_allocations(logw, norm, 1, FixedUniforms(u))
        np.testing.assert_array_equal(z, self.cumsum_labels(probs, u))


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
                got_probs = probabilities(got, model_logsumexp(got, axis=0))
                assert np.ascontiguousarray(got_probs.T).tobytes() == probs.tobytes()
                state = spec_state(spec, np.zeros(g), np.ones(yt.size), 1.0, cond)
                memo_terms, memo_norm = state_log_terms(state, series)
                assert memo_terms.tobytes() == got.tobytes()
                assert memo_norm.tobytes() == norm.tobytes()
                underflow |= bool(np.any(probs == 0.0))
        assert underflow or g == 1


class TestWeights:
    def test_dirichlet_posterior_marginal(self):
        counts = np.array([30, 70])
        rng = np.random.default_rng(1)
        draws = np.array([sample_weights(counts, rng)[0] for _ in range(20_000)])
        # marginal of the first coordinate is Beta(1+30, 1+70)
        p = stats.kstest(draws, stats.beta(31, 71).cdf).pvalue
        assert p > KS_ALPHA

    def test_weights_always_positive(self):
        counts = np.array([500, 0])
        rng = np.random.default_rng(3)
        for _ in range(200):
            w = sample_weights(counts, rng)
            assert np.all(w > 0) and w.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("g", range(1, 6))
    def test_equals_the_floored_dirichlet_draw_bitwise(self, g):
        # Generator.dirichlet(1 + counts), floored at 1e-300 and renormalized,
        # from a twin generator: the same bits and the same stream position
        tally = np.random.default_rng(g)
        for seed in range(300):
            counts = tally.integers(0, 3, size=g) * tally.integers(0, 400, size=g)
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            w = np.maximum(twin.dirichlet(1.0 + counts), 1e-300)
            assert sample_weights(counts, rng).tobytes() == (w / w.sum()).tobytes()
            assert rng.random() == twin.random()


class TestMeans:
    def test_matches_closed_form_conditional(self):
        state = tiny_state()
        series = tiny_series()
        hyper = base_hyper(zeta=0.4, kappa=2.0)
        yt = series.values[1:]
        lm = series.values[:-1][:, None]
        z0 = state.z - 1
        for k in range(2):
            r = yt - lm[:, 0] * state.phi[k, 0]
            ebar = r[z0 == k].mean()
            nk = (z0 == k).sum()
            tau = 1.0 / state.scales[k] ** 2
            bk = 1.0 - state.phi[k].sum()
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
        state = labelled(tiny_state(), [1, 1, 1, 1])
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
        state = spec_state(spec, np.zeros(1), np.ones(4), 1.0, 1)
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
        tau = precisions_of(state.scales)
        draws = np.array([draw_lambda(tau, hyper, rng) for _ in range(20_000)])
        shape = 0.7 + 2 * 3.0
        rate = 2.0 + float((1.0 / state.scales**2).sum())
        p = stats.kstest(draws, stats.gamma(a=shape, scale=1.0 / rate).cdf).pvalue
        assert p > KS_ALPHA

    def test_empty_component_precision_is_prior(self):
        state = dataclasses.replace(labelled(tiny_state(), [2, 2, 2, 2]), lam=1.7)
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
        state = spec_state(spec, np.zeros(1), np.ones(n - 1), 0.8, 1)
        sse = float(np.sum(series.values[1:] ** 2))
        expect = (2.0 + (n - 1) / 2.0) / (0.8 + sse / 2.0)
        shape, rate = precisions_kernel(state, series, base_hyper(c=2.0))
        assert shape[0] / rate[0] == pytest.approx(expect, rel=1e-12)


class TestRWM:
    def test_log_ratio_hand_example(self):
        # one allocated point: y=(1, 0.5), shift 0.3, phi 0.5 -> e_cur=-0.3;
        # proposal 0.2 -> e_new=0; ratio = -tau/2 (0 - 0.09) with tau=1/0.49
        yt, lm = _design(np.array([1.0, 0.5]), 1)
        got = log_ratio_at(yt, lm, np.array([0]), 0.3, 0.7, np.array([0.5]), np.array([0.2]))
        assert got == pytest.approx(0.09 / (2 * 0.49), abs=1e-14)

    def test_zero_step_and_empty_component(self):
        state = tiny_state()
        yt, lm = _design(tiny_series().values, 1)
        cur = state.phi[0]
        rows = member_rows(state)[0]
        assert log_ratio_at(yt, lm, rows, 0.3, 0.7, cur, cur) == 0.0
        none = np.zeros(0, dtype=np.intp)
        assert log_ratio_at(yt, lm, none, -0.2, 1.5, cur, np.array([5.0])) == 0.0

    def test_blocks_of_different_length(self):
        # y=(1, 0.5, 0.2) conditioned on two values: one row, lags (0.5, 1.0).
        # shift 0.1, scale 0.5: e_cur = 0.2 - 0.1 - 0.5*0.5 = -0.15 and
        # appending 0.3 gives e_new = -0.15 - 0.3 = -0.45, so the birth ratio
        # is -2 (0.2025 - 0.0225) = -0.36 and the death ratio its negative
        yt, lm = _design(np.array([1.0, 0.5, 0.2]), 2)
        short, long = np.array([0.5]), np.array([0.5, 0.3])
        rows = np.array([0])
        assert log_ratio_at(yt, lm, rows, 0.1, 0.5, short, long) == pytest.approx(-0.36)
        assert log_ratio_at(yt, lm, rows, 0.1, 0.5, long, short) == pytest.approx(0.36)

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
            gibbs_sweep(state, tiny_series(), hyper, rng, gamma)[1].accepted[0]
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
            new_state, info = gibbs_sweep(state, tiny_series(), hyper, rng, gamma)
            if not info.accepted[0]:
                np.testing.assert_array_equal(new_state.phi[0], state.phi[0])
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
        new_state, info = gibbs_sweep(tiny_state(), tiny_series(), hyper, rng, self.GAMMA)
        expect = kernel_sweep(tiny_state(), tiny_series(), hyper, twin, self.GAMMA)
        assert not info.stability_rejected
        assert rng.random() == twin.random()
        return new_state, info, expect

    def test_allocations(self):
        new_state, _, expect = self.sweeps()
        np.testing.assert_array_equal(new_state.z, expect.z)
        np.testing.assert_array_equal(new_state.counts, expect.counts)
        # the row norms memoized on the returned state sum to its log likelihood
        ll = log_likelihood(spec_of(new_state), tiny_series(), 1)
        assert float(np.sum(new_state.terms[2])) == ll

    def test_weights(self):
        new_state, _, expect = self.sweeps()
        np.testing.assert_array_equal(new_state.weights, expect.weights)

    def test_means(self):
        new_state, _, expect = self.sweeps()
        np.testing.assert_array_equal(new_state.means, expect.means)
        np.testing.assert_array_equal(new_state.shifts, expect.shifts)

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
        state = spec_state(spec, np.zeros(g), np.ones(series.n - 1), 1.3, 1)
        hyper = base_hyper(zeta=0.2, kappa=0.5)
        rng, twin = np.random.default_rng(g), np.random.default_rng(g)
        new_state, info = gibbs_sweep(state, series, hyper, rng, np.full(g, 50.0), pinned=g)
        assert not info.stability_rejected
        expect = kernel_sweep(state, series, hyper, twin)
        assert g == 1 or expect.counts[-1] == 0
        np.testing.assert_array_equal(new_state.means, expect.means)
        assert new_state.lam == expect.lam
        np.testing.assert_array_equal(new_state.scales, expect.scales)
        assert rng.random() == twin.random()

    def test_lambda(self):
        new_state, _, expect = self.sweeps()
        assert new_state.lam == expect.lam

    def test_precisions(self):
        new_state, _, expect = self.sweeps()
        np.testing.assert_array_equal(new_state.scales, expect.scales)

    def test_ar_blocks(self):
        new_state, info, expect = self.sweeps()
        np.testing.assert_array_equal(info.attempted, [True, True])
        np.testing.assert_array_equal(info.accepted, expect.accepted)
        for got, want in zip(new_state.phi, expect.ar):
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
        return dataclasses.replace(state)

    def same_sweep(self, state, series, hyper, seed):
        """Sweep `state` and a fresh copy from one seed; assert bitwise equal results."""
        out = []
        for s in (state, self.fresh(state)):
            rng = np.random.default_rng(seed)
            out.append(gibbs_sweep(s, series, hyper, rng, self.GAMMA))
        (a, info_a), (b, info_b) = out
        for name in ("z", "counts", "weights", "shifts", "scales", "phi", "means"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert a.orders == b.orders
        assert a.lam == b.lam
        np.testing.assert_array_equal(info_a.accepted, info_b.accepted)
        assert info_a.stability_rejected == info_b.stability_rejected
        np.testing.assert_array_equal(a.terms[2], b.terms[2])
        return a

    def swept(self):
        """A chain three sweeps in, with its terms memoized."""
        series, hyper, state = self.start()
        for seed in range(3):
            state, _ = gibbs_sweep(state, series, hyper, np.random.default_rng(seed), self.GAMMA)
        assert state.terms[0] is series.values
        return series, hyper, state

    def test_sweep_keeps_the_terms_of_the_state_it_returns(self):
        series, hyper, state = self.start()
        assert state.terms is None
        new_state, _ = gibbs_sweep(state, series, hyper, np.random.default_rng(1), self.GAMMA)
        values, logw, norm, fitted = new_state.terms
        assert values is series.values and new_state.phi.shape[1] == 2
        yt, lm = _design(series.values, 2)
        np.testing.assert_array_equal(logw, _log_terms(spec_of(new_state), yt, lm))
        np.testing.assert_array_equal(fitted, (lm @ new_state.phi.T).T)
        assert float(np.sum(norm)) == log_likelihood(spec_of(new_state), series, 2)

    def test_sweep_from_memo_equals_sweep_from_fresh_state(self):
        series, hyper, state = self.start()
        for seed in range(25):
            state = self.same_sweep(state, series, hyper, seed)
            assert state.terms is not None

    @staticmethod
    def born(state):
        """state after a birth on component 2, swapped in as the order chain does."""
        phi, orders = swapped_ar(state, 2, np.append(state.phi[1, : state.orders[1]], 0.2))
        return dataclasses.replace(state, phi=phi, orders=orders)

    def test_replace_drops_the_memos(self):
        _, _, state = self.swept()
        member_rows(state)
        assert state.terms is not None and state.rows is not None
        born = self.born(state)
        assert born.terms is None and born.rows is None
        assert born.orders == (2, 2, 1)
        assert dataclasses.replace(state, lam=2.0 * state.lam).terms is None

    def test_sweep_after_an_order_move_uses_the_new_blocks(self):
        # the order chain swaps a block with dataclasses.replace, as a birth here
        series, hyper, state = self.swept()
        born = self.born(state)
        for seed in range(3, 8):
            born = self.same_sweep(born, series, hyper, seed)

    def test_memo_is_keyed_by_series(self):
        series, hyper, state = self.swept()
        other = simulate_path(model_b_spec(), series.n, seed=99)
        self.same_sweep(state, other, hyper, 11)

    def test_veto_keeps_the_start_of_sweep_terms(self):
        series, spec, state = veto_setup()
        start = state.terms
        new_state, info = gibbs_sweep(
            state, series, base_hyper(fixed_shift=True), np.random.default_rng(0),
            np.array([50.0, 1e-4]),
        )
        assert info.stability_rejected
        # the vetoed state's parameters are the start's, and so are its log terms
        assert start is None and new_state.terms is state.terms is not None
        assert float(np.sum(new_state.terms[2])) == log_likelihood(spec, series, 1)
        # the member rows are those of the labels the sweep drew
        assert member_rows(new_state) is new_state.rows
        assert [r is None or r.size == 0 for r in new_state.rows] == [True, True]


def veto_setup():
    """A state whose sweep always ends unstable (see the veto test below)."""
    series = TimeSeries([0.2, -0.4, 0.5, 0.1, -0.3, 0.6])
    spec = MARSpec(
        weights=np.array([0.5, 0.5]),
        shifts=np.array([0.0, 50.0]),
        ar_coeffs=(np.array([0.3]), np.array([0.0])),
        scales=np.array([1.0, 0.5]),
    )
    state = spec_state(spec, np.zeros(2), [2, 1, 2, 1, 2], 1.0, 1)
    return series, spec, state


class TestGibbsSweep:
    def test_stability_veto_restores_previous_state(self):
        # component 2 sits 50 units away so it never wins an allocation; its
        # RWM ratio is then 0 and a huge proposed step is always accepted,
        # making the end-of-sweep spec unstable and triggering the veto
        series, spec, state = veto_setup()
        hyper = base_hyper(fixed_shift=True)
        rng = np.random.default_rng(0)
        new_state, info = gibbs_sweep(state, series, hyper, rng, np.array([50.0, 1e-4]))
        assert info.stability_rejected
        assert info.accepted[1]  # the per-move step itself was accepted
        # every parameter is restored ...
        np.testing.assert_array_equal(new_state.weights, spec.weights)
        np.testing.assert_array_equal(new_state.shifts, spec.shifts)
        np.testing.assert_array_equal(new_state.scales, spec.scales)
        np.testing.assert_array_equal(new_state.phi, spec.phi_matrix())
        np.testing.assert_array_equal(new_state.means, np.zeros(2))
        assert new_state.orders == state.orders and new_state.lam == 1.0
        # ... but the labels are the sweep's draw from p(z | theta, y), not the start's
        np.testing.assert_array_equal(state.z, [2, 1, 2, 1, 2])
        np.testing.assert_array_equal(new_state.z, np.ones(5))
        np.testing.assert_array_equal(new_state.counts, [5, 0])

    def test_stable_chain_never_leaves_the_region(self):
        rng = np.random.default_rng(13)
        series = TimeSeries(rng.normal(size=30))
        hyper = base_hyper(fixed_shift=True)
        state = initial_state(series, 1, (1,), hyper, 1)
        for _ in range(300):
            state, _ = gibbs_sweep(state, series, hyper, rng, np.array([2.0]))
            assert abs(state.phi[0, 0]) < 1.0

    @pytest.mark.parametrize("pinned", range(5))
    def test_pinned_prefix_of_the_block_order(self, pinned):
        # the evidence order of tiny_state's blocks is phi_1, phi_2, mu, tau
        state, series, hyper = tiny_state(), tiny_series(), base_hyper()
        g = state.weights.size
        new_state, info = gibbs_sweep(
            state, series, hyper, np.random.default_rng(14), np.array([400.0, 400.0]), pinned
        )
        assert not info.stability_rejected
        assert set(np.flatnonzero(info.attempted) + 1) == set(range(pinned + 1, g + 1))
        for k in range(1, min(pinned, g) + 1):
            np.testing.assert_array_equal(new_state.phi[k - 1], state.phi[k - 1])
        means_held = np.array_equal(new_state.means, state.means) and np.array_equal(
            new_state.shifts, state.shifts
        )
        assert means_held == (pinned > g)
        assert np.array_equal(new_state.scales, state.scales) == (pinned > g + 1)
        # allocations, weights and lambda are drawn whatever is pinned
        twin = np.random.default_rng(14)
        z = draw_allocations(*spec_terms(spec_of(state), *_design(series.values, 1)), 1, twin)
        weights = sample_weights(labelled(state, z).counts, twin)
        if pinned <= g:
            twin.standard_normal(g)  # the means draw
        np.testing.assert_array_equal(new_state.z, z)
        np.testing.assert_array_equal(new_state.weights, weights)
        assert new_state.lam == draw_lambda(precisions_of(state.scales), hyper, twin)
        # member positions are built only when a block that gathers runs
        assert (new_state.rows is None) == (pinned > g + 1)


class TestTuning:
    def test_pilot_too_short(self):
        # refused with the settings, before any sweep runs; a set gamma needs no pilot
        with pytest.raises(ValueError, match="500"):
            base_hyper(pilot_iters=499)
        assert base_hyper(pilot_iters=0, gamma=50.0).pilot_iters == 0

    def test_pilot_runs_exactly_pilot_iters_sweeps(self, monkeypatch):
        # 520 sweeps are ten batches of 50 and a last one of 20, not 500 sweeps
        series = simulate_path(model_a_spec(), 120, seed=7)
        hyper = default_hyperparams(series, pilot_iters=520)
        sweeps = []

        def counted(*args):
            sweeps.append(1)
            return gibbs_sweep(*args)

        monkeypatch.setattr(mixar.sampler, "gibbs_sweep", counted)
        start = initial_state(series, 2, (1, 1), hyper, 1)
        tune_gamma(start, series, hyper, np.random.default_rng(3))
        assert len(sweeps) == 520

    def test_acceptance_lands_in_band(self):
        series = simulate_path(model_a_spec(), 300, seed=7)
        hyper = default_hyperparams(series)
        rng = np.random.default_rng(16)
        start = initial_state(series, 2, (1, 1), hyper, 1)
        gamma, _, state = tune_gamma(start, series, hyper, rng)
        assert np.all(gamma > 0)
        # measure the long-run acceptance at the frozen gamma
        acc = np.zeros(2)
        n_eval = 600
        for _ in range(n_eval):
            state, info = gibbs_sweep(state, series, hyper, rng, gamma)
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
        lp2 = make_log_prior(hyper, 2)(np.array([0.5, 0.5]), np.zeros(2), np.ones(2))
        lp3 = make_log_prior(hyper, 3)(np.array([0.4, 0.3, 0.3]), np.zeros(3), np.ones(3))
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
        got = make_log_prior(hyper, 1)(np.array([1.0]), np.zeros(1), 1.0 / np.sqrt(tau))
        assert got == pytest.approx(expect, abs=1e-6)

    def test_mean_block_is_gaussian(self):
        fixed = base_hyper(zeta=1.0, kappa=4.0, fixed_shift=True)
        free = dataclasses.replace(fixed, fixed_shift=False)
        lp_fixed = make_log_prior(fixed, 1)(np.array([1.0]), np.array([2.0]), np.ones(1))
        lp_free = make_log_prior(free, 1)(np.array([1.0]), np.array([2.0]), np.ones(1))
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
            expect = log_likelihood(spec, series, out.cond) + make_log_prior(hyper, 2)(
                spec.weights, out.means[i], spec.scales
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


class TestArrayState:
    """The chain state is plain arrays: labels and tallies, gathers, memos, validation."""

    def test_counts_tally_the_labels(self):
        spec = equal_weight_spec(3)
        state = spec_state(spec, np.zeros(3), np.array([1, 2, 2, 3, 2]), 1.0, 1)
        np.testing.assert_array_equal(state.counts, [1, 3, 1])
        empty = spec_state(spec, np.zeros(3), np.array([], dtype=np.int64), 1.0, 1)
        np.testing.assert_array_equal(empty.counts, [0, 0, 0])
        assert isinstance(state, ChainState) and state.rows is None and state.terms is None

    def test_member_rows_leave_out_a_component_that_holds_every_point(self):
        spec = equal_weight_spec(3)
        state = spec_state(spec, np.zeros(3), np.full(6, 2), 1.0, 1)
        first, full, last = member_rows(state)
        assert full is None and first.size == last.size == 0
        assert member_rows(state) is state.rows  # built once

    @pytest.mark.parametrize("p", [1, 2])
    def test_full_component_gathers_equal_position_gathers_bitwise(self, p):
        rng = np.random.default_rng(40 + p)
        series = TimeSeries(rng.normal(0.0, 3.0, 300))
        yt, lm = series.design(p + 1)  # wide enough for a birth
        every = np.arange(yt.size)
        cur, new = rng.uniform(-0.5, 0.5, p), rng.uniform(-0.5, 0.5, p + 1)
        for shift, scale in ((0.3, 0.7), (-1.2, 2.5)):
            got = log_ratio_at(yt, lm, None, shift, scale, cur, new)
            assert got == log_ratio_at(yt, lm, every, shift, scale, cur, new)
        r = rng.normal(size=(2, yt.size))
        full, gathered = gather_rows(r, (None, every[:0])), gather_rows(r, (every, every[:0]))
        assert [a.tobytes() for a in full] == [a.tobytes() for a in gathered]
        counts = [yt.size, 0]
        hyper = base_hyper(zeta=0.4, kappa=2.0)
        tau, bk = [0.8, 1.3], [0.6, 1.1]
        assert (means_conditional(full, counts, tau, bk, hyper)
                == means_conditional(gathered, counts, tau, bk, hyper))
        assert (precisions_conditional(full, counts, 1.7, hyper)
                == precisions_conditional(gathered, counts, 1.7, hyper))

    def test_fitted_parts_carry_over_until_an_ar_block_moves(self):
        series = simulate_path(model_b_spec(), 200, seed=41)
        hyper = default_hyperparams(series)
        state = initial_state(series, 3, (2, 1, 1), hyper, 2)
        yt, lm = series.design(2)
        rng = np.random.default_rng(5)
        moved = kept = 0
        for _ in range(60):
            new_state, info = gibbs_sweep(state, series, hyper, rng, np.full(3, 60.0))
            fitted = new_state.terms[3]
            if info.stability_rejected:
                assert new_state.terms is state.terms
                continue
            if info.accepted.any():
                assert fitted is not state.terms[3]
                moved += 1
            else:
                assert fitted is state.terms[3]
                kept += 1
            np.testing.assert_array_equal(fitted, fitted_ar(new_state.phi, lm))
            np.testing.assert_array_equal(
                new_state.terms[1],
                log_terms(new_state.weights, new_state.shifts, new_state.scales, yt, fitted),
            )
            state = new_state
        assert moved and kept
        # a chain with every AR block pinned never recomputes them
        for _ in range(5):
            new_state, _ = gibbs_sweep(state, series, hyper, rng, np.full(3, 60.0), pinned=3)
            assert new_state.terms[3] is state.terms[3]
            state = new_state

    def test_nan_candidate_is_refused_naming_the_cause(self):
        class NanNormals:
            """A generator whose standard-normal draws, the means block's, are NaN."""

            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, n):
                return np.full(n, np.nan)

            def __getattr__(self, name):
                return getattr(self.rng, name)

        rng = NanNormals(np.random.default_rng(3))
        with pytest.raises(ValueError, match="every scale must be positive and finite"):
            gibbs_sweep(tiny_state(), tiny_series(), base_hyper(), rng, np.array([50.0, 50.0]))


@pytest.mark.parametrize(
    "g, orders, spec",
    [(1, (1,), model_a_spec), (3, (2, 1, 1), model_b_spec)],
)
def test_sweeps_build_no_model_object(monkeypatch, g, orders, spec):
    # a MARSpec is built at the boundaries only: the start point, not the sweeps
    series = simulate_path(spec(), 300, seed=60 + g)
    hyper = default_hyperparams(series)
    state = initial_state(series, g, orders, hyper, max(orders))
    builds = []
    post_init = MARSpec.__post_init__

    def counting(self):
        builds.append(1)
        post_init(self)

    monkeypatch.setattr(MARSpec, "__post_init__", counting)
    rng = np.random.default_rng(61)
    gamma = np.full(g, 40.0)
    for i in range(200):
        state, _ = gibbs_sweep(state, series, hyper, rng, gamma, pinned=i % (g + 3))
    assert builds == []
    spec_of(state)
    assert builds == [1]  # the patch counts
