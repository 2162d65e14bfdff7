"""Label-switching correction: centres, assignment, recursions, whole chains."""

import dataclasses
import itertools

import numpy as np
import pytest

from mixar.datasets import model_a_spec
from mixar.model import simulate_path
from mixar.relabel import (
    ClusterCentres,
    RelabelConfig,
    assign_permutation,
    feature_matrix,
    init_centres,
    relabel_chain,
    update_centres,
)
from mixar.sampler import ChainOutput, default_hyperparams, run_chain

QUIET = pytest.mark.filterwarnings("ignore:warm-start variance")


def make_output(rng, n=500):
    """Synthetic switch-free chain with well separated components."""
    w0 = rng.normal(0.3, 0.01, size=n)
    weights = np.column_stack([w0, 1.0 - w0])
    scales = np.column_stack([rng.normal(1.0, 0.02, n), rng.normal(2.0, 0.03, n)])
    shifts = np.column_stack([rng.normal(0.0, 0.05, n), rng.normal(5.0, 0.05, n)])
    ar = np.stack(
        [rng.normal(-0.5, 0.02, n), rng.normal(0.9, 0.01, n)], axis=1
    )[:, :, None]
    return ChainOutput(
        g=2,
        cond=1,
        weights=weights,
        shifts=shifts,
        means=shifts.copy(),
        scales=scales,
        ar=ar,
        orders=np.ones((n, 2), dtype=np.int64),
        lam=np.full(n, 0.5),
        log_likelihoods=np.zeros(n),
        log_posteriors=np.zeros(n),
        acceptance=None,
        stability_rejections=0,
        gamma=None,
        fixed_shift=False,
    )


def mixed_output(rng, n=500):
    """Switch-free (2, 1, 1) chain with well separated components."""
    centres = {"weights": (0.2, 0.3, 0.5), "scales": (1.0, 2.0, 3.0), "shifts": (0.0, 5.0, -5.0)}
    draws = {name: rng.normal(c, 0.01, size=(n, 3)) for name, c in centres.items()}
    ar = np.zeros((n, 3, 2))
    ar[:, 0] = rng.normal((0.5, -0.3), 0.01, size=(n, 2))
    ar[:, 1:, 0] = rng.normal((-0.4, 0.2), 0.01, size=(n, 2))
    return dataclasses.replace(
        make_output(rng, n), g=3, means=draws["shifts"].copy(), ar=ar,
        orders=np.tile(np.array([2, 1, 1]), (n, 1)), **draws,
    )


def swap_rows(output, rows, perm=(1, 0)):
    """Apply a fixed component permutation to the given rows in place."""
    idx = np.asarray(perm)
    for name in ("weights", "shifts", "means", "scales"):
        arr = getattr(output, name)
        arr[rows] = arr[rows][:, idx]
    output.ar[rows] = output.ar[rows][:, idx, :]
    output.orders[rows] = output.orders[rows][:, idx]


def copy_output(output):
    return dataclasses.replace(
        output,
        weights=output.weights.copy(),
        shifts=output.shifts.copy(),
        means=output.means.copy(),
        scales=output.scales.copy(),
        ar=output.ar.copy(),
        orders=output.orders.copy(),
    )


def assert_outputs_equal(a, b):
    for name in ("weights", "shifts", "means", "scales", "ar", "orders"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)


class TestCentres:
    def test_init_mean_and_biased_variance(self):
        centres = init_centres(np.array([[1.0], [3.0]]))
        assert centres.centre[0] == 2.0
        assert centres.variance[0] == 1.0  # biased: ((1-2)^2 + (3-2)^2)/2
        assert centres.count == 2

    def test_init_rejects_degenerate(self):
        with pytest.raises(ValueError, match="m >= 2"):
            init_centres(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError, match="zero warm-start variance"):
            init_centres(np.array([[1.0, 5.0], [2.0, 5.0]]))

    def test_update_matches_batch_recompute(self):
        centres = init_centres(np.array([[1.0], [3.0]]))
        centres = update_centres(centres, np.array([5.0]))
        assert centres.centre[0] == pytest.approx(3.0)
        assert centres.variance[0] == pytest.approx(8.0 / 3.0)  # var of {1,3,5}
        assert centres.count == 3

    def test_update_recursion_equals_direct_moments(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(60, 3))
        centres = init_centres(rows[:5])
        for i in range(5, 60):
            centres = update_centres(centres, rows[i])
        np.testing.assert_allclose(centres.centre, rows.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(centres.variance, rows.var(axis=0), atol=1e-12)
        assert centres.count == 60

    def test_centres_validation(self):
        with pytest.raises(ValueError):
            ClusterCentres(centre=[0.0, 1.0], variance=[1.0], count=2)
        with pytest.raises(ValueError):
            ClusterCentres(centre=[0.0], variance=[-1.0], count=2)
        with pytest.raises(ValueError):
            ClusterCentres(centre=[0.0], variance=[1.0], count=0)


class TestAssignment:
    def test_swapped_draw_detected(self):
        centres = ClusterCentres(
            centre=[0.3, 0.7, 1.0, 2.0], variance=[0.01] * 4, count=10
        )
        row = np.array([0.69, 0.31, 1.98, 1.02])
        assert assign_permutation(row, centres, (1, 1)) == (1, 0)
        aligned = np.array([0.31, 0.69, 1.02, 1.98])
        assert assign_permutation(aligned, centres, (1, 1)) == (0, 1)

    def test_tie_prefers_lexicographic(self):
        centres = ClusterCentres(centre=[0.5, 0.5], variance=[1.0, 1.0], count=5)
        assert assign_permutation(np.array([0.2, 0.8]), centres, (1, 1)) == (0, 1)

    def test_three_component_cycle(self):
        centres = ClusterCentres(
            centre=[1.0, 2.0, 3.0], variance=[0.1, 0.1, 0.1], count=9
        )
        # stored blocks are (3, 1, 2); new[j] = old[perm[j]] wants perm (1,2,0)
        assert assign_permutation(np.array([3.0, 1.0, 2.0]), centres, (1, 1, 1)) == (1, 2, 0)

    @staticmethod
    def loop_oracle(theta_row, centres, orders):
        """The search one order-keeping permutation at a time, strict improvements only."""
        g = len(orders)
        best, best_d = None, np.inf
        for perm in itertools.permutations(range(g)):
            if any(orders[p] != orders[j] for j, p in enumerate(perm)):
                continue
            cand = theta_row.reshape(-1, g)[:, perm].reshape(-1)
            d = float(np.sum((cand - centres.centre) ** 2 / centres.variance))
            if d < best_d:
                best, best_d = perm, d
        return best

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_matches_the_loop_with_planted_ties(self, g):
        rng = np.random.default_rng(g)
        ties = 0
        for i in range(400):
            blocks = int(rng.integers(1, 4))
            row = rng.normal(size=(blocks, g))
            if g > 1 and i % 2 == 0:
                # two components with equal draws tie every pair of swapped perms
                a, b = rng.choice(g, size=2, replace=False)
                row[:, b] = row[:, a]
                ties += 1
            if i % 5 == 0:
                centres = ClusterCentres(np.zeros(blocks * g), np.ones(blocks * g), 4)
            else:
                centres = ClusterCentres(
                    rng.normal(size=blocks * g), rng.uniform(0.1, 2.0, size=blocks * g), 4
                )
            row, orders = row.reshape(-1), (1,) * g
            assert assign_permutation(row, centres, orders) == self.loop_oracle(row, centres, orders)
        assert ties == (200 if g > 1 else 0)

    @pytest.mark.parametrize("orders", [(2, 1), (2, 1, 1), (1, 2, 1, 2), (3, 1, 3, 1, 2)])
    def test_mixed_orders_permute_only_equal_orders(self, orders):
        g = len(orders)
        rng = np.random.default_rng(g)
        for _ in range(200):
            row = rng.normal(size=2 * g)
            centres = ClusterCentres(rng.normal(size=2 * g), rng.uniform(0.1, 2.0, size=2 * g), 4)
            perm = assign_permutation(row, centres, orders)
            assert tuple(orders[p] for p in perm) == orders
            assert perm == self.loop_oracle(row, centres, orders)

    def test_dimension_mismatch(self):
        centres = ClusterCentres(centre=[0.0, 0.0], variance=[1.0, 1.0], count=3)
        with pytest.raises(ValueError):
            assign_permutation(np.array([1.0, 2.0, 3.0]), centres, (1, 1))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RelabelConfig(m=1)
        with pytest.raises(ValueError):
            RelabelConfig(subset=())
        with pytest.raises(ValueError):
            RelabelConfig(subset=("weights", "ar"))
        with pytest.raises(ValueError):
            RelabelConfig(subset=("weights", "weights"))

    def test_feature_matrix_block_order(self):
        out = make_output(np.random.default_rng(1), n=10)
        theta = feature_matrix(out, ("scales", "weights"))
        np.testing.assert_array_equal(theta[:, :2], out.scales)
        np.testing.assert_array_equal(theta[:, 2:], out.weights)


class TestRelabelChain:
    def test_single_component_passthrough(self):
        out = make_output(np.random.default_rng(2), n=20)
        out = dataclasses.replace(
            out, g=1, weights=np.ones((20, 1)), shifts=np.zeros((20, 1)),
            means=np.zeros((20, 1)), scales=np.ones((20, 1)),
            ar=np.zeros((20, 1, 1)), orders=np.ones((20, 1), dtype=np.int64),
        )
        res = relabel_chain(out, RelabelConfig(m=5))
        assert res is not out
        np.testing.assert_array_equal(res.weights, out.weights)

    def test_warm_window_too_long(self):
        out = make_output(np.random.default_rng(3), n=100)
        with pytest.raises(ValueError, match="below the number of draws"):
            relabel_chain(out, RelabelConfig(m=100))

    def test_switch_free_chain_unchanged_and_diagnosed(self):
        # without any switching the warm-window variance matches the full
        # variance, so the overlap diagnostic is expected to fire
        out = make_output(np.random.default_rng(4))
        ref = copy_output(out)
        with pytest.warns(RuntimeWarning, match="warm-start variance"):
            res = relabel_chain(out, RelabelConfig(m=200))
        assert_outputs_equal(res, ref)
        assert_outputs_equal(out, ref)  # input untouched

    def test_injected_swap_is_undone(self):
        out = make_output(np.random.default_rng(5))
        ref = copy_output(out)
        swap_rows(out, slice(300, 400))
        assert not np.array_equal(out.weights, ref.weights)
        res = relabel_chain(out, RelabelConfig(m=200))
        assert_outputs_equal(res, ref)

    def test_idempotence(self):
        out = make_output(np.random.default_rng(6))
        swap_rows(out, slice(250, 320))
        once = relabel_chain(out, RelabelConfig(m=200))
        with pytest.warns(RuntimeWarning, match="warm-start variance"):
            twice = relabel_chain(once, RelabelConfig(m=200))
        assert_outputs_equal(once, twice)

    def test_equivariance_under_global_permutation(self):
        out = make_output(np.random.default_rng(7))
        swap_rows(out, slice(220, 260))
        swapped = copy_output(out)
        swap_rows(swapped, slice(0, 500))
        r1 = relabel_chain(out, RelabelConfig(m=200))
        r2 = relabel_chain(swapped, RelabelConfig(m=200))
        expect = copy_output(r1)
        swap_rows(expect, slice(0, 500))
        assert_outputs_equal(r2, expect)

    def test_row_multisets_preserved(self):
        out = make_output(np.random.default_rng(8))
        swap_rows(out, slice(210, 300))
        res = relabel_chain(out, RelabelConfig(m=200))
        np.testing.assert_array_equal(
            np.sort(res.weights, axis=1), np.sort(out.weights, axis=1)
        )
        # component tuples travel together: sorting both chains by the weight
        # coordinate must reproduce identical scale columns
        o_idx = np.argsort(out.weights, axis=1)
        r_idx = np.argsort(res.weights, axis=1)
        np.testing.assert_array_equal(
            np.take_along_axis(out.scales, o_idx, axis=1),
            np.take_along_axis(res.scales, r_idx, axis=1),
        )

    @QUIET
    def test_components_of_different_order_never_swap(self):
        # a (2, 1) chain whose order-1 component takes the order-2 one's weight
        # and scale in the last 200 draws: a swap would move the order-1 block
        # into slot 1, where its zero padding would read as a second coefficient
        out = make_output(np.random.default_rng(10))
        out.orders[:] = (2, 1)
        out.ar = np.concatenate([out.ar, np.zeros_like(out.ar)], axis=2)
        out.ar[:, 0, 1] = -0.3
        for block in (out.weights, out.scales):
            block[300:] = block[300:, ::-1]
        ref = copy_output(out)
        res = relabel_chain(out, RelabelConfig(m=200))
        assert_outputs_equal(res, ref)

    @QUIET
    def test_equal_order_swaps_are_undone_in_a_mixed_chain(self):
        out = mixed_output(np.random.default_rng(11))
        ref = copy_output(out)
        swap_rows(out, slice(300, 400), perm=(0, 2, 1))
        assert not np.array_equal(out.weights, ref.weights)
        res = relabel_chain(out, RelabelConfig(m=200))
        assert_outputs_equal(res, ref)

    def test_shift_subset_separates_on_shifts(self):
        out = make_output(np.random.default_rng(9))
        ref = copy_output(out)
        swap_rows(out, slice(400, 470))
        res = relabel_chain(out, RelabelConfig(m=200, subset=("shifts",)))
        assert_outputs_equal(res, ref)

    @QUIET
    def test_real_chain_smoke(self):
        series = simulate_path(model_a_spec(), 200, seed=30)
        hyper = default_hyperparams(series, n_iter=800, burn_in=300, pilot_iters=500)
        raw = run_chain(series, 2, (1, 1), hyper, seed=31)
        res = relabel_chain(raw, RelabelConfig(m=150))
        np.testing.assert_array_equal(
            np.sort(res.scales, axis=1), np.sort(raw.scales, axis=1)
        )
        assert res.n_draws == raw.n_draws
