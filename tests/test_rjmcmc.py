"""Birth/death order moves: endpoint rules, acceptance arithmetic, stationarity."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from mixar import sampler
from mixar.datasets import model_a_spec
from mixar.model import LatentAllocation, MARSpec, TimeSeries, log_likelihood, simulate_path
from mixar.rjmcmc import OrderMoveConfig, OrderTrace, order_move, rjmcmc_run
from mixar.sampler import ChainState, default_hyperparams, swap_log_alpha


def single_state(coeffs, scale=0.3):
    spec = MARSpec(
        weights=np.array([1.0]),
        shifts=np.array([0.1]),
        ar_coeffs=(np.asarray(coeffs, dtype=float),),
        scales=np.array([scale]),
    )
    alloc = LatentAllocation(z=np.ones(3, dtype=int), g=1)
    return ChainState(spec, alloc, lam=1.0, means=np.zeros(1))


SERIES = TimeSeries([1.0, 0.5, 0.2, -0.3, 0.4])


def move_alpha(state, k, coeffs, log_move, log_q, p_max=2):
    """Acceptance probability of swapping component k's block for coeffs, as an
    order move conditioning on p_max observations computes it."""
    yt, lm = SERIES.design(p_max)
    return math.exp(swap_log_alpha(state, yt, lm, k, np.asarray(coeffs), log_move, log_q))


class ScriptedRng:
    """Hands out scripted uniforms on [0, 1) and records each draw by method name."""

    def __init__(self, *values):
        self.values = list(values)
        self.draws = []

    def random(self):
        self.draws.append("random")
        return self.values.pop(0)

    def uniform(self, low, high):
        self.draws.append("uniform")
        return low + (high - low) * self.values.pop(0)


class TestConfig:
    def test_endpoint_probabilities(self):
        cfg = OrderMoveConfig(p_max=4)
        assert cfg.birth_prob(1) == 1.0 and cfg.death_prob(1) == 0.0
        assert cfg.birth_prob(4) == 0.0 and cfg.death_prob(4) == 1.0
        assert cfg.birth_prob(2) == 0.5 and cfg.birth_prob(3) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            OrderMoveConfig(p_max=0)
        with pytest.raises(ValueError):
            OrderMoveConfig(birth_half_width=0.0)
        cfg = OrderMoveConfig(p_max=3)
        with pytest.raises(ValueError):
            cfg.birth_prob(0)
        with pytest.raises(ValueError):
            cfg.birth_prob(4)

    def test_single_order_model_never_moves(self):
        cfg = OrderMoveConfig(p_max=1)
        state = single_state([0.5])
        rng = ScriptedRng()
        new_state, direction, accepted = order_move(state, SERIES, cfg, 1, rng)
        assert direction == "none" and not accepted
        assert new_state is state
        assert rng.draws == []

    def test_endpoints_force_direction(self):
        cfg = OrderMoveConfig(p_max=2)
        rng = np.random.default_rng(1)
        low = single_state([0.5])
        high = single_state([0.5, 0.3])
        for _ in range(25):
            assert order_move(low, SERIES, cfg, 1, rng)[1] == "birth"
            assert order_move(high, SERIES, cfg, 1, rng)[1] == "death"


class TestAcceptance:
    # with p_max = 2 and w = 1.5 a birth from order 1 has move ratio
    # d(2) / b(1) = 1 and proposal factor 2w = 3; the death back has b(1) / d(2) = 1
    # and q = 1 / (2w)

    def test_birth_value(self):
        # appending 0.3 to phi=(0.5) on the 5-point series with scale 0.3:
        # SSE goes 0.475 -> 0.7771, move ratio 1, proposal factor 2w = 3
        state = single_state([0.5])
        alpha = move_alpha(state, 1, [0.5, 0.3], math.log(1.0), math.log(3.0))
        assert alpha == pytest.approx(0.5600545749882615, abs=1e-13)

    def test_birth_of_zero_coefficient_with_wide_proposal_caps_at_one(self):
        state = single_state([0.5])
        assert move_alpha(state, 1, [0.5, 0.0], math.log(1.0), math.log(3.0)) == 1.0

    def test_birth_unstable_candidate_rejected(self):
        # (0.5, 0.6) has a root outside the unit circle, radius about 1.13
        state = single_state([0.5])
        assert move_alpha(state, 1, [0.5, 0.6], math.log(1.0), math.log(3.0)) == 0.0

    def test_death_value_mirrors_birth(self):
        state = single_state([0.5, 0.3])
        assert move_alpha(state, 1, [0.5], math.log(1.0), math.log(1.0 / 3.0)) == 1.0

    def test_death_outside_proposal_support_rejected(self, monkeypatch):
        # the dropped 1.5 lies outside the birth support (-1.5, 1.5): the move
        # draws its direction and acceptance uniforms and tests no stability
        def no_stability_test(*args):
            raise AssertionError("a death outside the birth support needs no stability test")

        monkeypatch.setattr(sampler, "is_stable", no_stability_test)
        monkeypatch.setattr(sampler, "is_stable_phi", no_stability_test)
        state = single_state([0.1, 1.5])
        rng = ScriptedRng(0.3, 0.0)
        new_state, direction, accepted = order_move(state, SERIES, OrderMoveConfig(p_max=2), 1, rng)
        assert (direction, accepted) == ("death", False)
        assert new_state is state
        assert rng.draws == ["random", "random"]

    def test_birth_draws_direction_coefficient_then_acceptance(self):
        # direction 0.2 < b(1) = 1 gives a birth, coefficient -1.5 + 3 * 0.6 = 0.3,
        # and 0.5 < alpha = 0.56 (see test_birth_value) accepts it
        state = single_state([0.5])
        rng = ScriptedRng(0.2, 0.6, 0.5)
        new_state, direction, accepted = order_move(state, SERIES, OrderMoveConfig(p_max=2), 1, rng)
        assert (direction, accepted) == ("birth", True)
        np.testing.assert_allclose(new_state.spec.ar_coeffs[0], [0.5, 0.3], atol=1e-15)
        assert rng.draws == ["random", "uniform", "random"]

    def test_empty_component_birth_controlled_by_move_ratio_only(self):
        spec = MARSpec(
            weights=np.array([0.7, 0.3]),
            shifts=np.zeros(2),
            ar_coeffs=(np.array([0.2]), np.array([0.0])),
            scales=np.array([1.0, 1.0]),
        )
        state = ChainState(spec, LatentAllocation(z=np.ones(2, dtype=int), g=2), 1.0, np.zeros(2))
        # p_max = 3, w = 1.5 and LR = 1 for an empty component:
        # alpha = min(1, [d(2)/b(1)] * 2w) = min(1, 0.5 * 3)
        alpha = move_alpha(state, 2, [0.0, 0.05], math.log(0.5 / 1.0), math.log(3.0), p_max=3)
        assert alpha == 1.0


class TestMoveKernel:
    def test_accepted_birth_appends(self):
        state = single_state([0.5])
        cfg = OrderMoveConfig(p_max=2)
        rng = np.random.default_rng(2)
        moved = False
        for _ in range(50):
            new_state, direction, accepted = order_move(state, SERIES, cfg, 1, rng)
            assert direction == "birth"
            if accepted:
                assert new_state.spec.orders == (2,)
                assert new_state.spec.ar_coeffs[0][0] == 0.5
                moved = True
            else:
                assert new_state.spec.orders == (1,)
        assert moved

    def test_stationary_distribution_of_flat_likelihood_walk(self):
        # component 2 owns no observations, so every likelihood ratio is one
        # and the order chain is a random walk on {1, 2, 3} with transition
        # probabilities fixed by the move ratios and the narrow proposal:
        # P(1->2)=0.05, P(2->1)=0.5, P(2->3)=0.1, P(3->2)=1, giving the
        # stationary law (10, 1, 0.1)/11.1; deaths have alpha 1 (ratios 20 and 5)
        series = TimeSeries([0.3, -0.2, 0.5, 0.1, -0.4, 0.2])
        spec = MARSpec(
            weights=np.array([0.5, 0.5]),
            shifts=np.zeros(2),
            ar_coeffs=(np.array([0.0]), np.array([0.0])),
            scales=np.array([1.0, 1.0]),
        )
        state = ChainState(spec, LatentAllocation(z=np.ones(3, dtype=int), g=2), 1.0, np.zeros(2))
        cfg = OrderMoveConfig(p_max=3, birth_half_width=0.05)
        yt, lm = series.design(3)
        for p, alpha in ((1, 0.05), (2, 0.2)):
            # birth alpha = [d(p + 1) / b(p)] * 2w, exact for any coefficient
            born = np.append(np.zeros(p), 0.01)
            ratio = cfg.death_prob(p + 1) / cfg.birth_prob(p)
            walk = dataclasses.replace(state, spec=state.spec.with_ar(2, np.zeros(p)))
            log_alpha = swap_log_alpha(walk, yt, lm, 2, born, math.log(ratio), math.log(0.1))
            assert math.exp(log_alpha) == pytest.approx(alpha)
        rng = np.random.default_rng(3)
        n = 30_000
        visits = np.zeros(4)
        tally = Counter()
        for _ in range(n):
            p = state.spec.orders[1]
            state, direction, accepted = order_move(state, series, cfg, 2, rng)
            tally[direction, p, accepted] += 1
            visits[state.spec.orders[1]] += 1
        assert tally["death", 2, False] == tally["death", 3, False] == 0
        for p, alpha in ((1, 0.05), (2, 0.2)):
            births = tally["birth", p, True] + tally["birth", p, False]
            sd = math.sqrt(alpha * (1.0 - alpha) / births)
            assert tally["birth", p, True] / births == pytest.approx(alpha, abs=4.0 * sd)
        emp = visits[1:] / n
        target = np.array([10.0, 1.0, 0.1]) / 11.1
        assert 0.5 * np.abs(emp - target).sum() <= 0.03


class TestTrace:
    def test_modal_and_preference(self):
        trace = OrderTrace(orders=np.array([[1, 1], [1, 1], [2, 1], [1, 1]]))
        assert trace.counts == {(1, 1): 3, (2, 1): 1}
        assert trace.modal() == (1, 1)
        assert trace.preference((1, 1)) == 0.75
        assert trace.preference((5, 5)) == 0.0

    def test_modal_tie_is_lexicographic(self):
        trace = OrderTrace(orders=np.array([[2, 1]] * 5 + [[1, 2]] * 5))
        assert trace.modal() == (1, 2)

    def test_empty_trace(self):
        with pytest.raises(ValueError, match="empty"):
            OrderTrace(orders=np.zeros((0, 2), dtype=int)).modal()


class TestRun:
    def test_joint_run_accounting(self):
        series = simulate_path(model_a_spec(), 150, seed=40)
        hyper = default_hyperparams(
            series, n_iter=1_200, burn_in=400, pilot_iters=500
        )
        cfg = OrderMoveConfig(p_max=3)
        trace, output = rjmcmc_run(series, 2, hyper, cfg, seed=41)
        assert trace.total == 800
        assert sum(trace.counts.values()) == 800
        assert trace.birth_attempts + trace.death_attempts == 1_200
        assert output.orders.min() >= 1 and output.orders.max() <= 3
        assert output.cond == 3
        # zero padding beyond each drawn order
        for j in (0, 399, 799):
            for k in range(2):
                p = output.orders[j, k]
                assert np.all(output.ar[j, k, p:] == 0.0)
        modal = trace.modal()
        assert trace.preference(modal) == max(trace.counts.values()) / 800
        a = rjmcmc_run(series, 2, hyper, cfg, seed=41)[0]
        assert a.counts == trace.counts  # deterministic given the seed

    def test_recorded_log_likelihoods_follow_the_order_moves(self):
        # a draw whose order move was accepted must not keep the log terms of
        # the spec before the move
        series = simulate_path(model_a_spec(), 150, seed=46)
        hyper = default_hyperparams(series, n_iter=900, burn_in=100, gamma=80.0)
        cfg = OrderMoveConfig(p_max=3)
        trace, output = rjmcmc_run(series, 2, hyper, cfg, seed=47)
        assert trace.birth_accepts + trace.death_accepts > 20
        changes = np.any(np.diff(output.orders, axis=0) != 0, axis=1)
        assert changes.sum() > 10
        for j in range(output.n_draws):
            assert output.log_likelihoods[j] == log_likelihood(output.spec_at(j), series, 3)

    def test_gamma_length_checked(self):
        # the one set proposal precision serves every component
        series = simulate_path(model_a_spec(), 60, seed=44)
        cfg = OrderMoveConfig(p_max=2)
        one = default_hyperparams(series, n_iter=40, burn_in=10, gamma=50.0)
        _, output = rjmcmc_run(series, 2, one, cfg, seed=45)
        np.testing.assert_array_equal(output.gamma, [50.0, 50.0])
