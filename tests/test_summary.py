"""Summaries of posterior draws: intervals, KDE grids, density averaging."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from mixar.summary import (
    BLOCK,
    DensityGrid,
    average_density,
    density_grid,
    kde,
    mixture_density,
    summarize,
)


def blockwise_oracle(weights, means, sds, x, block=4096):
    """The earlier kernel: block components at a time, a fresh array per block."""
    out = np.zeros(x.size)
    for a in range(0, weights.size, block):
        s = sds[a : a + block]
        z = np.subtract(x, means[a : a + block, None])
        z /= s[:, None]
        z *= z
        z *= -0.5
        out += (weights[a : a + block] / s) @ np.exp(z, out=z)
    return out / math.sqrt(2.0 * math.pi)


def mixture_case(k, sds="distinct", seed=0):
    rng = np.random.default_rng(seed)
    w = rng.random(k)
    w /= max(w.sum(), 1.0)
    m = rng.normal(1.5, 2.0, k)
    s = np.full(k, 0.8) if sds == "equal" else rng.uniform(0.3, 2.5, k)
    return w, m, s


class TestMixtureDensity:
    @pytest.mark.parametrize("k", [1, 7, 4096, 4097, 12_000])
    @pytest.mark.parametrize("sds", ["equal", "distinct"])
    @pytest.mark.parametrize("points", [2, 511, 512])
    def test_matches_blockwise_oracle(self, k, sds, points):
        w, m, s = mixture_case(k, sds, seed=k + points)
        x = np.linspace(-6.0, 9.0, points)
        ref = blockwise_oracle(w, m, s, x)
        got = mixture_density(w, m, s, x)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * ref.max()

    @pytest.mark.parametrize("k", [1, 7])
    def test_grid_longer_than_a_block(self, k):
        # more points than BLOCK entries: each block holds one component row
        assert 70_000 > BLOCK
        w, m, s = mixture_case(k, seed=k)
        x = np.linspace(-6.0, 9.0, 70_000)
        ref = blockwise_oracle(w, m, s, x)
        assert np.max(np.abs(mixture_density(w, m, s, x) - ref)) <= 1e-13 * ref.max()

    @pytest.mark.parametrize("points", [2, 3, 512])
    def test_more_components_than_a_block(self, points):
        # more components than BLOCK entries: each block holds one grid point
        assert 70_000 > BLOCK
        w, m, s = mixture_case(70_000, seed=points)
        x = np.linspace(-6.0, 9.0, points)
        ref = blockwise_oracle(w, m, s, x)
        assert np.max(np.abs(mixture_density(w, m, s, x) - ref)) <= 1e-13 * ref.max()

    def test_non_uniform_grid_and_zero_weights(self):
        w, m, s = mixture_case(4097, seed=5)
        w[::3] = 0.0
        w[:200] = 0.0
        x = np.sort(np.random.default_rng(6).uniform(-8.0, 11.0, 300))
        ref = blockwise_oracle(w, m, s, x)
        assert np.max(np.abs(mixture_density(w, m, s, x) - ref)) <= 1e-13 * ref.max()
        zero = mixture_density(np.zeros(7), m[:7], s[:7], x)
        np.testing.assert_array_equal(zero, np.zeros(x.size))

    def test_no_components_gives_zeros(self):
        x = np.linspace(0.0, 1.0, 512)
        empty = np.empty(0)
        got = mixture_density(empty, empty, empty, x)
        np.testing.assert_array_equal(got, np.zeros(512))

    def test_peak_allocation_stays_below_two_megabytes(self):
        # a full (12000 x 512) matrix is 49 MB and 4096-row blocks 16.8 MB each
        w, m, s = mixture_case(12_000, seed=7)
        x = np.linspace(-6.0, 9.0, 512)
        mixture_density(w, m, s, x)
        tracemalloc.start()
        try:
            mixture_density(w, m, s, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestSummarize:
    def test_normal_sample_moments_and_interval(self):
        rng = np.random.default_rng(0)
        draws = rng.normal(2.0, 0.5, size=200_000)
        s = summarize(draws, name="phi")
        assert s.name == "phi"
        assert s.mean == pytest.approx(2.0, abs=0.01)
        assert s.standard_error == pytest.approx(0.5, abs=0.01)
        lo, hi = s.hpdr_90
        # the shortest 90% interval of a normal is mean +- 1.645 sd
        assert lo == pytest.approx(2.0 - 1.645 * 0.5, abs=0.02)
        assert hi == pytest.approx(2.0 + 1.645 * 0.5, abs=0.02)
        assert s.hd_value == pytest.approx(2.0, abs=0.05)

    def test_skewed_sample_prefers_short_side(self):
        rng = np.random.default_rng(1)
        draws = rng.exponential(1.0, size=100_000)
        lo, hi = summarize(draws).hpdr_90
        # shortest 90% region of Exp(1) is [0, -log(0.1)]
        assert lo == pytest.approx(0.0, abs=0.01)
        assert hi == pytest.approx(-np.log(0.1), abs=0.06)
        q = np.quantile(draws, [0.05, 0.95])
        assert hi - lo < q[1] - q[0]

    def test_exact_interval_on_known_draws(self):
        # 100 equally spaced draws with one tight cluster: the shortest
        # interval containing 90 draws must start at the cluster
        draws = np.concatenate([np.linspace(0, 1, 90), np.full(10, 0.5)])
        s = summarize(draws)
        lo, hi = s.hpdr_90
        assert hi - lo <= 0.9  # denser than the uniform stretch alone
        assert s.mean == pytest.approx(draws.mean())

    def test_constant_draws(self):
        s = summarize(np.full(150, 3.25))
        assert s.mean == 3.25
        assert s.standard_error == 0.0
        assert s.hpdr_90 == (3.25, 3.25)
        assert s.hd_value == 3.25

    def test_too_few_or_bad_draws(self):
        with pytest.raises(ValueError, match="at least 100"):
            summarize(np.zeros(99))
        with pytest.raises(ValueError, match="finite"):
            summarize(np.r_[np.zeros(150), np.nan])


class TestKde:
    @pytest.mark.parametrize("n", [100, 800, 5_000])
    def test_matches_scipy_silverman(self, n):
        draws = np.random.default_rng(n).standard_t(3, size=n)
        x = np.linspace(draws.min(), draws.max(), 512)
        ref = stats.gaussian_kde(draws, bw_method="silverman")(x)
        np.testing.assert_allclose(kde(draws, x), ref, rtol=1e-12, atol=0)
        assert summarize(draws).hd_value == x[int(np.argmax(ref))]


class TestDensityGrid:
    def test_grid_shape_and_normalization(self):
        rng = np.random.default_rng(2)
        draws = rng.normal(size=20_000)
        grid = density_grid(draws, -6.0, 6.0)
        assert grid.x.size == 512 and grid.x[0] == -6.0 and grid.x[-1] == 6.0
        assert grid.integral() == pytest.approx(1.0, abs=1e-3)
        assert grid.mode() == pytest.approx(0.0, abs=0.1)
        dense = stats.norm.pdf(grid.x)
        assert np.max(np.abs(grid.density - dense)) < 0.02

    def test_validation(self):
        with pytest.raises(ValueError, match="upper bound"):
            density_grid(np.arange(10.0), 1.0, 1.0)
        with pytest.raises(ValueError, match="degenerate"):
            density_grid(np.full(50, 2.0), 0.0, 1.0)
        with pytest.raises(ValueError, match="degenerate"):
            density_grid(np.array([1.0]), 0.0, 2.0)

    def test_dataclass_guards(self):
        with pytest.raises(ValueError, match="lengths differ"):
            DensityGrid(x=[0.0, 1.0], density=[1.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            DensityGrid(x=[0.0, 0.0], density=[1.0, 1.0])
        with pytest.raises(ValueError, match="nonnegative"):
            DensityGrid(x=[0.0, 1.0], density=[1.0, -0.5])
        with pytest.raises(ValueError, match="two grid"):
            DensityGrid(x=[0.0], density=[1.0])


class TestAverageDensity:
    def test_identity_and_midpoint(self):
        x = np.linspace(0, 1, 11)
        a = DensityGrid(x=x, density=np.full(11, 1.0))
        b = DensityGrid(x=x, density=np.linspace(0, 2, 11))
        same = average_density([a])
        np.testing.assert_array_equal(same.density, a.density)
        mid = average_density([a, b])
        np.testing.assert_allclose(mid.density, (a.density + b.density) / 2)

    def test_mixed_grids_rejected(self):
        a = DensityGrid(x=np.linspace(0, 1, 11), density=np.ones(11))
        b = DensityGrid(x=np.linspace(0, 2, 11), density=np.ones(11))
        c = DensityGrid(x=np.linspace(0, 1, 21), density=np.ones(21))
        with pytest.raises(ValueError, match="same abscissae"):
            average_density([a, b])
        with pytest.raises(ValueError, match="same abscissae"):
            average_density([a, c])
        with pytest.raises(ValueError, match="at least one"):
            average_density([])

    def test_average_of_shifted_kdes_is_bimodal_mixture(self):
        rng = np.random.default_rng(3)
        left = density_grid(rng.normal(-2, 0.3, 5_000), -4, 4)
        right = density_grid(rng.normal(2, 0.3, 5_000), -4, 4)
        avg = average_density([left, right])
        assert avg.integral() == pytest.approx(1.0, abs=5e-3)
        half = stats.norm.pdf(avg.x, -2, 0.3) / 2 + stats.norm.pdf(avg.x, 2, 0.3) / 2
        assert np.max(np.abs(avg.density - half)) < 0.05
