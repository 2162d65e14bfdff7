"""Label-switching correction: centres, assignment, recursions, whole chains."""

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

from mixar.datasets import model_a_spec
from mixar.model import simulate_path
from mixar.relabel import (
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
        centre, variance = init_centres(np.array([[1.0], [3.0]]))
        assert centre[0] == 2.0
        assert variance[0] == 1.0  # biased: ((1-2)^2 + (3-2)^2)/2

    def test_init_rejects_degenerate(self):
        with pytest.raises(ValueError, match="m >= 2"):
            init_centres(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError, match="zero warm-start variance"):
            init_centres(np.array([[1.0, 5.0], [2.0, 5.0]]))

    def test_update_matches_batch_recompute(self):
        centre, variance = init_centres(np.array([[1.0], [3.0]]))
        centre, variance = update_centres(centre, variance, 2, np.array([5.0]))
        assert centre[0] == pytest.approx(3.0)
        assert variance[0] == pytest.approx(8.0 / 3.0)  # var of {1,3,5}

    def test_update_recursion_equals_direct_moments(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(60, 3))
        centre, variance = init_centres(rows[:5])
        for i in range(5, 60):
            centre, variance = update_centres(centre, variance, i, rows[i])
        np.testing.assert_allclose(centre, rows.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(variance, rows.var(axis=0), atol=1e-12)
        # the recursion's own bits, as recorded with its earlier record-based form:
        # any change in the order of its operations moves the variances
        assert centre.tolist() == [
            -0.16751989257168323, 0.07583217716000114, 0.18543676606570034,
        ]
        assert variance.tolist() == [1.20181082178077, 0.6712004928646342, 0.8637588861015766]


class TestAssignment:
    def test_swapped_draw_detected(self):
        centre, variance = np.array([0.3, 0.7, 1.0, 2.0]), np.full(4, 0.01)
        row = np.array([0.69, 0.31, 1.98, 1.02])
        assert assign_permutation(row, centre, variance, (1, 1)) == (1, 0)
        aligned = np.array([0.31, 0.69, 1.02, 1.98])
        assert assign_permutation(aligned, centre, variance, (1, 1)) == (0, 1)

    def test_tie_prefers_lexicographic(self):
        centre, variance = np.array([0.5, 0.5]), np.ones(2)
        assert assign_permutation(np.array([0.2, 0.8]), centre, variance, (1, 1)) == (0, 1)

    def test_three_component_cycle(self):
        centre, variance = np.array([1.0, 2.0, 3.0]), np.full(3, 0.1)
        # stored blocks are (3, 1, 2); new[j] = old[perm[j]] wants perm (1,2,0)
        row = np.array([3.0, 1.0, 2.0])
        assert assign_permutation(row, centre, variance, (1, 1, 1)) == (1, 2, 0)

    @staticmethod
    def loop_oracle(theta_row, centre, variance, orders):
        """The search one order-keeping permutation at a time, strict improvements only."""
        g = len(orders)
        best, best_d = None, np.inf
        for perm in itertools.permutations(range(g)):
            if any(orders[p] != orders[j] for j, p in enumerate(perm)):
                continue
            cand = theta_row.reshape(-1, g)[:, perm].reshape(-1)
            d = float(np.sum((cand - centre) ** 2 / variance))
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
                centre, variance = np.zeros(blocks * g), np.ones(blocks * g)
            else:
                centre = rng.normal(size=blocks * g)
                variance = rng.uniform(0.1, 2.0, size=blocks * g)
            row, orders = row.reshape(-1), (1,) * g
            assert assign_permutation(row, centre, variance, orders) == self.loop_oracle(
                row, centre, variance, orders
            )
        assert ties == (200 if g > 1 else 0)

    @pytest.mark.parametrize("orders", [(2, 1), (2, 1, 1), (1, 2, 1, 2), (3, 1, 3, 1, 2)])
    def test_mixed_orders_permute_only_equal_orders(self, orders):
        g = len(orders)
        rng = np.random.default_rng(g)
        for _ in range(200):
            row = rng.normal(size=2 * g)
            centre, variance = rng.normal(size=2 * g), rng.uniform(0.1, 2.0, size=2 * g)
            perm = assign_permutation(row, centre, variance, orders)
            assert tuple(orders[p] for p in perm) == orders
            assert perm == self.loop_oracle(row, centre, variance, orders)

    def test_dimension_mismatch(self):
        centre, variance = np.zeros(2), np.ones(2)
        with pytest.raises(ValueError):
            assign_permutation(np.array([1.0, 2.0, 3.0]), centre, variance, (1, 1))


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
        assert res.relabelling == {"draws_permuted": 0, "warm_window_warning": False}

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

    def test_report_counts_permuted_draws(self):
        out = make_output(np.random.default_rng(5))
        swap_rows(out, slice(300, 400))
        res = relabel_chain(out, RelabelConfig(m=200))
        assert res.relabelling == {"draws_permuted": 100, "warm_window_warning": False}
        with pytest.warns(RuntimeWarning, match="warm-start variance"):
            again = relabel_chain(res, RelabelConfig(m=200))
        assert again.relabelling == {"draws_permuted": 0, "warm_window_warning": True}

    @QUIET
    def test_fixed_shift_chain_refuses_shifts_up_front(self):
        # every shift of a fixed-shift chain is zero, so no warm start could
        # give them a variance; the subset is refused before any draw is read
        out = dataclasses.replace(make_output(np.random.default_rng(12)), fixed_shift=True)
        out.shifts[:] = 0.0
        with pytest.raises(ValueError, match="relabel_subset holds shifts.*fixed_shift"):
            relabel_chain(out, RelabelConfig(m=200, subset=("weights", "shifts")))
        res = relabel_chain(out, RelabelConfig(m=200, subset=("weights",)))
        assert res.fixed_shift

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


def relabelled_digest(output, subsets):
    """sha256 over the relabelled blocks of `output`, once per feature subset."""
    h = hashlib.sha256()
    for subset in subsets:
        res = relabel_chain(output, RelabelConfig(m=100, subset=subset))
        for name in ("weights", "shifts", "means", "scales", "ar", "orders"):
            h.update(np.ascontiguousarray(getattr(res, name)).tobytes())
    return h.hexdigest()


@QUIET
class TestPinnedRelabelling:
    """Relabelled chains as recorded before the running centres became plain arrays."""

    SUBSETS = (("weights", "scales"), ("shifts",), ("weights", "scales", "shifts"))

    def test_mixed_order_chain_with_swaps(self):
        rng = np.random.default_rng(12)
        out = mixed_output(rng, n=600)
        # blur the components so that many draws are near a tie
        for block in (out.weights, out.scales, out.shifts, out.means):
            block += rng.normal(0.0, 0.4, size=block.shape)
        swap_rows(out, slice(250, 330), perm=(0, 2, 1))
        swap_rows(out, slice(420, 480), perm=(0, 2, 1))
        assert relabelled_digest(out, self.SUBSETS) == MIXED_CHAIN_PIN

    def test_short_spec_a_chain(self):
        series = simulate_path(model_a_spec(), 200, seed=32)
        hyper = default_hyperparams(series, n_iter=500, burn_in=200, pilot_iters=500)
        raw = run_chain(series, 2, (1, 1), hyper, seed=33)
        assert relabelled_digest(raw, self.SUBSETS) == SPEC_A_CHAIN_PIN


MIXED_CHAIN_PIN = "7bd5a56f5d8b7149f9ea0ec2e78ce9e2ed7ba0e9029160b2e787da7df9a270d3"
SPEC_A_CHAIN_PIN = "a1b33ae624c2796026a3c4177f5721680a84f76838f22e06f24bd27141be65e3"
