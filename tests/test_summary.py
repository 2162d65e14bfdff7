"""Summaries of posterior draws: intervals, KDE grids, density averaging."""

import numpy as np
import pytest
from scipy import stats

from mixar.summary import (
    DensityGrid,
    average_density,
    density_grid,
    kde,
    summarize,
)


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
        grid = density_grid(draws, -6.0, 6.0, points=512)
        assert grid.x.size == 512 and grid.x[0] == -6.0 and grid.x[-1] == 6.0
        assert grid.integral() == pytest.approx(1.0, abs=1e-3)
        assert grid.mode() == pytest.approx(0.0, abs=0.1)
        dense = stats.norm.pdf(grid.x)
        assert np.max(np.abs(grid.density - dense)) < 0.02

    def test_validation(self):
        with pytest.raises(ValueError, match="upper bound"):
            density_grid(np.arange(10.0), 1.0, 1.0)
        with pytest.raises(ValueError, match="two grid points"):
            density_grid(np.arange(10.0), 0.0, 1.0, points=1)
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
