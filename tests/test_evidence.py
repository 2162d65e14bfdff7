"""Evidence machinery: starred points, reduced-chain ordinates, model choice."""

import math

import numpy as np
import pytest

from mixar import evidence
from mixar.evidence import (
    EvidenceConfig,
    EvidenceResult,
    _child_seeds,
    estimate_mu_ordinate,
    estimate_phi_ordinate,
    estimate_pi_ordinate,
    marginal_log_likelihood,
    select_g,
    starred_point,
    theta_star_index,
)
from mixar.datasets import model_a_spec
from mixar.model import MARSpec, TimeSeries, log_likelihood, simulate_path
from mixar.relabel import RelabelConfig
from mixar.rjmcmc import OrderMoveConfig, rjmcmc_run
from mixar.sampler import ChainOutput, Hyperparams, default_hyperparams, run_chain

from helpers import spec_of, spec_state

TOY_LOG_ML = -58.357429350547484  # 2-D quadrature over (phi, log tau), 8001^2 grid


def ar1_series(n=40, seed=123):
    spec = MARSpec(
        weights=np.array([1.0]),
        shifts=np.array([0.0]),
        ar_coeffs=(np.array([0.6]),),
        scales=np.array([1.0]),
    )
    return simulate_path(spec, n, seed=seed)


def chain_output(weights, means, ar, scales, log_post, fixed_shift=False):
    n, g = np.asarray(weights).shape
    ar = np.asarray(ar, dtype=float)
    shifts = np.zeros((n, g)) if fixed_shift else np.asarray(means) * (1 - ar.sum(axis=2))
    return ChainOutput(
        g=g,
        weights=np.asarray(weights, dtype=float),
        shifts=shifts,
        means=np.asarray(means, dtype=float),
        scales=np.asarray(scales, dtype=float),
        ar=ar,
        orders=np.full((n, g), ar.shape[2], dtype=np.int64),
        lam=np.ones(n),
        log_likelihoods=np.zeros(n),
        log_posteriors=np.asarray(log_post, dtype=float),
        acceptance=None,
        stability_rejections=0,
        gamma=np.full(g, 50.0),
        fixed_shift=fixed_shift,
    )


class TestThetaStar:
    def test_highest_posterior_draw_selected(self):
        out = chain_output(
            weights=[[0.5, 0.5], [0.6, 0.4], [0.4, 0.6]],
            means=[[0.0, 1.0]] * 3,
            ar=np.zeros((3, 2, 1)),
            scales=[[1.0, 2.0]] * 3,
            log_post=[1.0, 5.0, 2.0],
        )
        assert theta_star_index(out) == 1
        np.testing.assert_array_equal(starred_point(out).weights, [0.6, 0.4])

    def test_tie_takes_earliest(self):
        out = chain_output(
            weights=[[0.5, 0.5], [0.6, 0.4]],
            means=[[0.0, 1.0]] * 2,
            ar=np.zeros((2, 2, 1)),
            scales=[[1.0, 2.0]] * 2,
            log_post=[3.0, 3.0],
        )
        assert theta_star_index(out) == 0

    def test_shifts_rederived_from_means(self):
        out = chain_output(
            weights=[[1.0]],
            means=[[2.0]],
            ar=np.full((1, 1, 1), 0.5),
            scales=[[1.0]],
            log_post=[0.0],
        )
        star = starred_point(out)
        assert star.shifts[0] == pytest.approx(1.0)  # 2.0 * (1 - 0.5)

    def test_fixed_shift_stays_zero(self):
        out = chain_output(
            weights=[[1.0]],
            means=[[2.0]],
            ar=np.full((1, 1, 1), 0.5),
            scales=[[1.0]],
            log_post=[0.0],
            fixed_shift=True,
        )
        assert starred_point(out).shifts[0] == 0.0

    def test_state_ar_matrix_padded_to_cond(self):
        # an order-1 draw of a chain conditioning on 3 observations: theta*
        # holds the stored row, as wide as the chain's AR matrix
        out = chain_output(
            weights=[[1.0]],
            means=[[2.0]],
            ar=[[[0.5, 0.0, 0.0]]],
            scales=[[1.0]],
            log_post=[0.0],
        )
        out.orders[:] = 1
        star = starred_point(out)
        assert out.cond == 3
        np.testing.assert_array_equal(star.phi, [[0.5, 0.0, 0.0]])
        assert star.orders == (1,) and star.shifts[0] == 2.0 * (1.0 - 0.5)

    def test_unstable_star_rejected(self):
        out = chain_output(
            weights=[[1.0]],
            means=[[0.0]],
            ar=np.full((1, 1, 1), 1.2),
            scales=[[1.0]],
            log_post=[0.0],
        )
        with pytest.raises(ValueError, match="unstable"):
            starred_point(out)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EvidenceConfig(n_j=0)
        with pytest.raises(ValueError):
            EvidenceConfig(n_i=0)
        with pytest.raises(ValueError):
            EvidenceConfig(reduced_burn_in=-1)

    def test_child_seeds_deterministic_and_distinct(self):
        a = _child_seeds(99, 4)
        b = _child_seeds(99, 4)
        assert a == b and len(set(a)) == 4
        assert _child_seeds(100, 4) != a


class TestOrdinates:
    def test_mu_ordinate_vanishes_for_fixed_shift(self):
        series = ar1_series(12)
        hyper = default_hyperparams(series, fixed_shift=True)
        spec = MARSpec(
            weights=np.array([1.0]),
            shifts=np.array([0.0]),
            ar_coeffs=(np.array([0.3]),),
            scales=np.array([1.0]),
        )
        star = spec_state(spec, np.zeros(1), [], 1.0, 1)
        val = estimate_mu_ordinate(
            series, star, hyper, np.array([1.0]), EvidenceConfig(), None, {}
        )
        assert val == 0.0

    def test_pi_ordinate_closed_form_with_pinned_allocations(self):
        # component 2 sits 100 scale units away from all data, so every
        # reduced draw allocates all points to component 1 and the
        # Rao-Blackwellized average collapses to one Dirichlet ordinate:
        # log Dir(pi* | 1 + n, 1) = log(n + 1) + n log pi*_1
        series = TimeSeries([0.2, -0.4, 0.5, 0.1, -0.3])
        spec = MARSpec(
            weights=np.array([0.7, 0.3]),
            shifts=np.array([0.0, 50.0]),
            ar_coeffs=(np.array([0.2]), np.array([0.0])),
            scales=np.array([1.0, 0.5]),
        )
        star = spec_state(spec, np.array([0.0, 50.0]), [], 1.0, 1)
        hyper = Hyperparams(zeta=0.0, kappa=1.0, b=1.0)
        config = EvidenceConfig(n_j=1, n_i=40, reduced_burn_in=5)
        vetoes = {}
        val = estimate_pi_ordinate(
            series, star, hyper, np.array([1.0, 1.0]), config, np.random.default_rng(0), vetoes
        )
        assert vetoes == {"pi": 0}  # one reduced run, none of its sweeps vetoed
        assert val == pytest.approx(math.log(5.0) + 4.0 * math.log(0.7), abs=1e-12)

    def test_phi_ordinate_degenerate_proposals_raise(self):
        # a microscopic proposal precision makes every denominator draw
        # unstable, which must surface as an error instead of -inf
        series = ar1_series(15)
        hyper = default_hyperparams(series, fixed_shift=True)
        spec = MARSpec(
            weights=np.array([1.0]),
            shifts=np.array([0.0]),
            ar_coeffs=(np.array([0.0]),),
            scales=np.array([1.0]),
        )
        star = spec_state(spec, np.zeros(1), [], 1.0, 1)
        config = EvidenceConfig(n_j=3, n_i=3, reduced_burn_in=2)
        with pytest.raises(ValueError, match="degenerate"):
            estimate_phi_ordinate(
                series, star, hyper, np.array([1e-8]), config, np.random.default_rng(5), {}
            )


class TestRecompose:
    def test_parts_identity(self):
        parts = {
            "log_likelihood": -50.0,
            "log_prior": -3.0,
            "log_order_prior": -1.6,
            "log_phi_ordinate": 1.1,
            "log_mu_ordinate": 0.4,
            "log_tau_ordinate": -0.2,
            "log_pi_ordinate": 0.9,
            "log_order_posterior": -0.7,
        }
        res = EvidenceResult(
            g=2, orders=(1, 1), preference=0.5, log_marginal=0.0, parts=parts
        )
        assert res.recompose() == pytest.approx(-50 - 3 - 1.6 - 1.1 - 0.4 + 0.2 - 0.9 + 0.7)


class TestEndToEnd:
    def test_toy_evidence_matches_quadrature(self):
        # conjugate single-component AR(1): the exact evidence comes from a
        # dense 2-D quadrature; the reduced-chain estimate must land nearby
        series = ar1_series()
        hyper = default_hyperparams(
            series, fixed_shift=True, n_iter=4_000, burn_in=1_000, pilot_iters=500
        )
        config = EvidenceConfig(
            order_config=OrderMoveConfig(p_max=1),
            n_j=3_000, n_i=3_000, reduced_burn_in=300,
        )
        res = marginal_log_likelihood(series, 1, hyper, config, seed=2024)
        assert res.log_marginal == pytest.approx(TOY_LOG_ML, abs=0.1)
        assert res.recompose() == pytest.approx(res.log_marginal, abs=1e-10)
        assert res.orders == (1,)
        assert res.preference == 1.0
        assert res.parts["log_mu_ordinate"] == 0.0
        assert res.parts["log_order_prior"] == 0.0
        assert res.parts["log_phi_ordinate_1"] == pytest.approx(
            res.parts["log_phi_ordinate"]
        )

    def test_pinned_unvisited_orders_raise(self):
        series = ar1_series(25)
        hyper = default_hyperparams(
            series, fixed_shift=True, n_iter=300, burn_in=100, gamma=50.0
        )
        config = EvidenceConfig(
            order_config=OrderMoveConfig(p_max=1), orders=(2,), n_j=10, n_i=10
        )
        with pytest.raises(ValueError, match="never visited"):
            marginal_log_likelihood(series, 1, hyper, config, seed=7)

    def test_p_max_one_skips_the_order_chain(self, monkeypatch):
        def no_order_chain(*args, **kwargs):
            raise AssertionError("the order chain ran")

        monkeypatch.setattr(evidence, "rjmcmc_run", no_order_chain)
        series = ar1_series(25)
        hyper = default_hyperparams(
            series, fixed_shift=True, n_iter=300, burn_in=100, gamma=50.0
        )
        config = EvidenceConfig(
            order_config=OrderMoveConfig(p_max=1), n_j=20, n_i=20, reduced_burn_in=10
        )
        res = marginal_log_likelihood(series, 1, hyper, config, seed=7)
        assert res.orders == (1,) and res.preference == 1.0

    def test_likelihood_conditions_on_p_max(self, monkeypatch):
        # the order chain conditions on the first p_max values, so the refit,
        # the ordinates and the likelihood at theta* must too
        stars = []
        real = evidence.starred_point
        monkeypatch.setattr(
            evidence, "starred_point", lambda out: stars.append(real(out)) or stars[0]
        )
        series = ar1_series(60)
        hyper = default_hyperparams(
            series, fixed_shift=True, n_iter=600, burn_in=200, pilot_iters=500
        )
        config = EvidenceConfig(
            order_config=OrderMoveConfig(p_max=2), orders=(1,),
            n_j=50, n_i=50, reduced_burn_in=20,
        )
        res = marginal_log_likelihood(series, 1, hyper, config, seed=5)
        assert res.parts["log_likelihood"] == pytest.approx(
            log_likelihood(spec_of(stars[0]), series, 2), abs=1e-9
        )

    @pytest.mark.filterwarnings("ignore:warm-start variance")
    def test_every_state_holds_its_chains_conditioning_length(self, monkeypatch):
        # the AR width is the one store of the conditioning length: every
        # state a sweep reads or returns is as wide as its chain's draws
        from mixar import sampler

        widths, outputs = [], []
        real_sweep, real_run = sampler.gibbs_sweep, evidence.run_chain

        def sweep(state, *args):
            new_state, info = real_sweep(state, *args)
            widths.append((state.phi.shape[1], new_state.phi.shape[1]))
            return new_state, info

        def run(*args):
            outputs.append(real_run(*args))
            return outputs[-1]

        for module in (sampler, evidence):
            monkeypatch.setattr(module, "gibbs_sweep", sweep)
        monkeypatch.setattr(evidence, "run_chain", run)
        series = simulate_path(model_a_spec(), 120, seed=6)
        hyper = default_hyperparams(series, n_iter=200, burn_in=100, gamma=50.0)

        def check(output, cond):
            assert output.ar.shape[2] == output.cond == cond
            assert set(widths) == {(cond, cond)}
            widths.clear()

        check(run_chain(series, 2, (1, 2), hyper, seed=1, cond=3), 3)
        check(rjmcmc_run(series, 2, hyper, OrderMoveConfig(p_max=3), seed=2)[1], 3)
        config = EvidenceConfig(
            order_config=OrderMoveConfig(p_max=2), n_j=10, n_i=10, reduced_burn_in=5,
            relabel=RelabelConfig(m=50),
        )
        marginal_log_likelihood(series, 2, hyper, config, seed=3)
        assert len(outputs) == 1 and outputs[0].cond == 2  # the refit, at p_max
        check(outputs[0], 2)  # the order chain, the refit and the reduced runs

    @pytest.mark.filterwarnings("ignore:warm-start variance")
    def test_theta_star_terms_computed_once(self, monkeypatch):
        # the likelihood part, the mu and tau residuals and all 2g + 3 reduced
        # runs read one memo of theta*'s (g, T) log terms and fitted AR parts
        from mixar import model, sampler

        star, counts = {}, {"log_terms": 0, "fitted_ar": 0}
        real_star = evidence.starred_point
        real_terms, real_fitted = model.log_terms, model.fitted_ar

        def spy_star(output):
            i = theta_star_index(output)
            star.update(weights=output.weights[i].copy(), ar=output.ar[i].copy())
            return real_star(output)

        def log_terms(weights, shifts, scales, yt, fitted):
            counts["log_terms"] += bool(star) and np.array_equal(weights, star["weights"])
            return real_terms(weights, shifts, scales, yt, fitted)

        def fitted_ar(phi, lm):
            counts["fitted_ar"] += bool(star) and np.array_equal(phi, star["ar"])
            return real_fitted(phi, lm)

        monkeypatch.setattr(evidence, "starred_point", spy_star)
        for module in (model, sampler, evidence):
            for name, real, fake in (("log_terms", real_terms, log_terms),
                                     ("fitted_ar", real_fitted, fitted_ar)):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, fake)
        series = simulate_path(model_a_spec(), 150, seed=4)
        hyper = default_hyperparams(series, n_iter=300, burn_in=100, gamma=50.0)
        config = EvidenceConfig(
            order_config=OrderMoveConfig(p_max=1), n_j=20, n_i=20, reduced_burn_in=5,
            relabel=RelabelConfig(m=50),
        )
        res = marginal_log_likelihood(series, 2, hyper, config, seed=3)
        assert len(res.chains["reduced_stability_rejections"]) == 7  # 2g + 3 reduced runs
        assert counts == {"log_terms": 1, "fitted_ar": 1}

    def test_one_candidate_starts_no_pool(self, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool started for one job")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        series = ar1_series(25)
        hyper = default_hyperparams(
            series, fixed_shift=True, n_iter=300, burn_in=100, gamma=50.0
        )
        config = EvidenceConfig(
            order_config=OrderMoveConfig(p_max=1), n_j=20, n_i=20, reduced_burn_in=10
        )
        best, results = select_g(series, (1,), hyper, config, seed=7, workers=2)
        assert best == 1 and [r.g for r in results] == [1]

    @pytest.mark.filterwarnings("ignore:warm-start variance")
    def test_select_g_orders_results_and_seeds(self):
        series = ar1_series(35)
        hyper = default_hyperparams(
            series, fixed_shift=True, n_iter=1_200, burn_in=400, pilot_iters=500
        )
        config = EvidenceConfig(
            order_config=OrderMoveConfig(p_max=1),
            n_j=400, n_i=400, reduced_burn_in=100,
        )
        best, results = select_g(series, (1, 2), hyper, config, seed=11)
        assert [r.g for r in results] == [1, 2]
        assert all(r.log_p_g == pytest.approx(-math.log(2)) for r in results)
        winner = max(results, key=lambda r: r.log_marginal)
        assert best == winner.g
        rerun_best, rerun = select_g(series, (1, 2), hyper, config, seed=11)
        assert rerun_best == best
        assert rerun[0].log_marginal == results[0].log_marginal

    def test_select_g_rejects_bad_range(self):
        series = ar1_series(20)
        hyper = default_hyperparams(series, fixed_shift=True)
        with pytest.raises(ValueError, match="positive"):
            select_g(series, (), hyper, EvidenceConfig(), seed=0)
        with pytest.raises(ValueError, match="positive"):
            select_g(series, (0, 1), hyper, EvidenceConfig(), seed=0)
