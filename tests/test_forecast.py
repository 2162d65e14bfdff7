"""Predictive densities: exact path mixture, Monte Carlo mode, posterior bands."""

import math

import numpy as np
import pytest

from mixar import forecast
from mixar.datasets import model_a_spec, model_b_spec
from mixar.forecast import (
    PRUNE_WEIGHT,
    ForecastRequest,
    _exact_paths,
    default_grid,
    posterior_averaged_forecast,
    predictive_density_fixed,
    predictive_moments,
)
from mixar.model import MARSpec, TimeSeries, conditional_pdf, simulate_path
from mixar.sampler import ChainOutput, default_hyperparams, run_chain


def ar1_spec(phi=0.6, shift=0.2, scale=0.5):
    return MARSpec(
        weights=np.array([1.0]),
        shifts=np.array([shift]),
        ar_coeffs=(np.array([phi]),),
        scales=np.array([scale]),
    )


def mixture_pdf(spec, grid, recent):
    """Direct conditional mixture density given the last value (order-1 specs)."""
    out = np.zeros_like(grid)
    for k in range(spec.g):
        nu = spec.shifts[k] + spec.ar_coeffs[k][0] * recent
        s = spec.scales[k]
        out += spec.weights[k] * np.exp(-0.5 * ((grid - nu) / s) ** 2) / (
            s * math.sqrt(2 * math.pi)
        )
    return out


def reference_paths(spec, recent, horizon):
    """Path expansion one path at a time, as (weight, means, noise rows) tuples.

    The test-only oracle for the array expansion: each path carries the last
    p pseudo-values as a mean and rows of coefficients on the unit noises,
    so its variance is the squared norm of the first row.
    """
    g = spec.g
    p = spec.max_order
    phi = spec.phi_matrix()
    lastm0 = recent[::-1].copy()  # most recent first
    lastc0 = np.zeros((p, horizon))
    paths = [(1.0, lastm0, lastc0)]
    for j in range(1, horizon + 1):
        new_paths = []
        for w, lastm, lastc in paths:
            for k in range(g):
                w2 = w * spec.weights[k]
                if w2 < PRUNE_WEIGHT:
                    continue
                m2 = spec.shifts[k] + phi[k] @ lastm
                c2 = phi[k] @ lastc
                c2[j - 1] += spec.scales[k]
                new_m = np.concatenate(([m2], lastm[:-1]))
                new_c = np.vstack((c2, lastc[:-1]))
                new_paths.append((w2, new_m, new_c))
        paths = new_paths
    w = np.array([pw for pw, _, _ in paths])
    m = np.array([pm[0] for _, pm, _ in paths])
    v = np.array([float(pc[0] @ pc[0]) for _, _, pc in paths])
    return w / w.sum(), m, v


def random_spec(rng, g):
    orders = rng.integers(1, 4, size=g)
    return MARSpec(
        weights=rng.dirichlet(np.ones(g)),
        shifts=rng.normal(0.0, 1.0, g),
        ar_coeffs=tuple(rng.uniform(-0.6, 0.6, p) for p in orders),
        scales=rng.uniform(0.3, 3.0, g),
    )


def near_degenerate_spec():
    return MARSpec(
        weights=np.array([1.0 - 1e-13, 1e-13]),
        shifts=np.zeros(2),
        ar_coeffs=(np.array([0.5]), np.array([-0.5])),
        scales=np.array([1.0, 1.0]),
    )


class TestRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            ForecastRequest(horizon=0)
        with pytest.raises(ValueError):
            ForecastRequest(horizon=1, mode="both")
        with pytest.raises(ValueError):
            ForecastRequest(horizon=1, mc_paths=0)
        with pytest.raises(ValueError):
            ForecastRequest(horizon=1, thin=0)
        with pytest.raises(ValueError):
            ForecastRequest(horizon=1, grid=[1.0, 1.0])
        req = ForecastRequest(horizon=2, grid=[0.0, 0.5, 1.0])
        assert req.grid.dtype == float


class TestOneStep:
    def test_matches_conditional_density(self):
        spec = model_a_spec()
        series = simulate_path(spec, 50, seed=1)
        grid = np.linspace(-8, 8, 101)
        dens = predictive_density_fixed(spec, series, series.n, 1, grid)
        # evaluating the conditional pdf at t = n+1 with each grid value
        # appended reproduces the same ordinates
        for j in (0, 37, 100):
            ext = TimeSeries(np.append(series.values, grid[j]))
            assert dens[j] == pytest.approx(conditional_pdf(spec, ext, series.n + 1), abs=1e-14)

    def test_monte_carlo_one_step_short_circuits(self):
        spec = model_a_spec()
        series = simulate_path(spec, 30, seed=2)
        grid = np.linspace(-6, 6, 64)
        exact = predictive_density_fixed(spec, series, series.n, 1, grid, mode="exact")
        mc = predictive_density_fixed(
            spec, series, series.n, 1, grid, mode="monte-carlo",
            rng=np.random.default_rng(3), mc_paths=5,
        )
        np.testing.assert_array_equal(exact, mc)


class TestSingleComponentClosedForm:
    def test_moments_recursion(self):
        # AR(1): mean_h = c + phi mean_{h-1}, var_h = s^2 sum phi^{2i}
        spec = ar1_spec()
        series = TimeSeries([0.3, -0.1, 1.0])
        m, v = predictive_moments(spec, series, 3, 3)
        assert m == pytest.approx(0.608, abs=1e-12)
        assert v == pytest.approx(0.25 * (1 + 0.36 + 0.1296), abs=1e-12)

    def test_density_is_gaussian(self):
        spec = ar1_spec()
        series = TimeSeries([0.3, -0.1, 1.0])
        grid = np.linspace(-3, 4, 301)
        dens = predictive_density_fixed(spec, series, 3, 3, grid)
        m, v = 0.608, 0.25 * 1.4896
        ref = np.exp(-0.5 * (grid - m) ** 2 / v) / math.sqrt(2 * math.pi * v)
        np.testing.assert_allclose(dens, ref, atol=1e-12)


class TestExactExpansion:
    def test_two_step_matches_quadrature(self):
        # f(y_{T+2} | y_T) = int f(u | y_T) f(y_{T+2} | u) du evaluated on a
        # fine grid is an independent oracle for the path expansion
        spec = model_a_spec()
        series = TimeSeries([0.1, -0.4, 0.7])
        grid = np.linspace(-8, 8, 201)
        dens = predictive_density_fixed(spec, series, 3, 2, grid)
        inner = np.linspace(-25, 25, 20_001)
        f1 = mixture_pdf(spec, inner, recent=0.7)
        du = inner[1] - inner[0]
        ref = np.empty_like(grid)
        for j, yv in enumerate(grid):
            f2 = mixture_pdf(spec, np.full_like(inner, yv), recent=inner)
            ref[j] = float(np.sum(f1 * f2) * du)
        np.testing.assert_allclose(dens, ref, atol=1e-7)

    def test_integral_and_positivity(self):
        spec = model_a_spec()
        series = simulate_path(spec, 40, seed=4)
        grid = default_grid(spec, series, series.n, 4)
        dens = predictive_density_fixed(spec, series, series.n, 4, grid)
        assert np.all(dens >= 0)
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-3)

    def test_path_explosion_guarded(self):
        spec = model_a_spec()
        series = simulate_path(spec, 30, seed=5)
        with pytest.raises(ValueError, match="Monte Carlo"):
            predictive_density_fixed(
                spec, series, series.n, 21, np.linspace(-5, 5, 11)
            )

    def test_negligible_paths_pruned_cleanly(self):
        spec = near_degenerate_spec()
        series = TimeSeries([0.2, 0.4])
        grid = np.linspace(-6, 6, 301)
        dens = predictive_density_fixed(spec, series, 2, 2, grid)
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-3)

    def test_origin_bounds(self):
        spec = model_a_spec()
        series = TimeSeries([0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="origin"):
            predictive_moments(spec, series, 0, 1)
        with pytest.raises(ValueError, match="origin"):
            predictive_moments(spec, series, 4, 1)


class TestArrayExpansion:
    CASES = [(seed, g, h) for seed, g in enumerate((1, 2, 3, 2, 3, 3)) for h in range(1, 7)]

    @pytest.mark.parametrize("seed,g,horizon", CASES)
    def test_paths_match_reference(self, seed, g, horizon):
        rng = np.random.default_rng(100 + seed)
        spec = random_spec(rng, g)
        recent = rng.normal(0.0, 2.0, spec.max_order)
        w, m, v = _exact_paths(spec, recent, horizon)
        rw, rm, rv = reference_paths(spec, recent, horizon)
        assert w.shape == rw.shape == (g**horizon,)
        np.testing.assert_allclose(w, rw, rtol=1e-12, atol=0)
        np.testing.assert_allclose(m, rm, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(v, rv, rtol=1e-12, atol=0)
        # the moment recursion against the moments of the expanded mixture
        series = TimeSeries(recent)
        mean, var = predictive_moments(spec, series, series.n, horizon)
        ref_mean = float(rw @ rm)
        assert mean == pytest.approx(ref_mean, rel=1e-9, abs=1e-9)
        assert var == pytest.approx(float(rw @ (rv + rm**2)) - ref_mean**2, rel=1e-9)

    @pytest.mark.parametrize("horizon", [2, 3, 6])
    def test_pruning_matches_reference(self, horizon):
        spec = near_degenerate_spec()
        recent = np.array([0.4])
        w, m, v = _exact_paths(spec, recent, horizon)
        rw, rm, rv = reference_paths(spec, recent, horizon)
        assert w.size == rw.size < 2**horizon
        np.testing.assert_allclose(w, rw, rtol=1e-12, atol=0)
        np.testing.assert_allclose(m, rm, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(v, rv, rtol=1e-12, atol=0)

    def test_density_matches_reference_mixture(self):
        spec = model_b_spec()
        series = simulate_path(spec, 80, seed=14)
        grid = default_grid(spec, series, series.n, 7)
        dens = predictive_density_fixed(spec, series, series.n, 7, grid)
        w, m, v = reference_paths(spec, series.values[-2:], 7)
        sd = np.sqrt(v)
        ref = np.zeros_like(grid)
        for wi, mi, si in zip(w, m, sd):
            ref += wi / si * np.exp(-0.5 * ((grid - mi) / si) ** 2)
        ref /= math.sqrt(2.0 * math.pi)
        assert w.size == 3**7
        assert np.max(np.abs(dens - ref)) <= 1e-12 * ref.max()

    def test_moments_need_no_path_expansion(self):
        # exact mode refuses 2^25 paths; the moments still follow the AR(1)
        # recursion of the mixture's mean and second moment
        spec = model_a_spec()
        series = TimeSeries([0.3, -0.7])
        mean, var = predictive_moments(spec, series, 2, 25)
        m, s2 = -0.7, 0.49
        for _ in range(25):
            m, s2 = 0.25 * m, 0.5 * (0.25 * s2 + 1.0) + 0.5 * (s2 + 4.0)
        assert mean == pytest.approx(m, abs=1e-12)
        assert var == pytest.approx(s2 - m**2, rel=1e-12)


class TestMonteCarlo:
    def test_agrees_with_exact_at_two_steps(self):
        spec = model_a_spec()
        series = simulate_path(spec, 60, seed=6)
        grid = np.linspace(-12, 12, 241)
        exact = predictive_density_fixed(spec, series, series.n, 2, grid)
        mc = predictive_density_fixed(
            spec, series, series.n, 2, grid, mode="monte-carlo",
            rng=np.random.default_rng(7), mc_paths=40_000,
        )
        cdf_e = np.cumsum((exact[1:] + exact[:-1]) / 2) * (grid[1] - grid[0])
        cdf_m = np.cumsum((mc[1:] + mc[:-1]) / 2) * (grid[1] - grid[0])
        assert np.max(np.abs(cdf_e - cdf_m)) <= 0.01

    def test_longer_horizon_integral(self):
        spec = model_a_spec()
        series = simulate_path(spec, 40, seed=8)
        grid = np.linspace(-20, 20, 401)
        mc = predictive_density_fixed(
            spec, series, series.n, 25, grid, mode="monte-carlo",
            rng=np.random.default_rng(9), mc_paths=8_000,
        )
        assert np.trapezoid(mc, grid) == pytest.approx(1.0, abs=5e-3)


def specs_output(specs):
    """A ChainOutput holding one draw per spec, AR rows zero-padded to the widest order."""
    p = max(s.max_order for s in specs)
    n = len(specs)
    return ChainOutput(
        g=specs[0].g,
        weights=np.array([s.weights for s in specs]),
        shifts=np.array([s.shifts for s in specs]),
        means=np.array([s.shifts for s in specs]),
        scales=np.array([s.scales for s in specs]),
        ar=np.array([s.phi_matrix(p) for s in specs]),
        orders=np.array([s.orders for s in specs]),
        lam=np.ones(n),
        log_likelihoods=np.zeros(n),
        log_posteriors=np.zeros(n),
        acceptance=None,
        stability_rejections=0,
        gamma=None,
        fixed_shift=False,
    )


# Eight g = 3 draws with orders 1-3 and a ten-value history, written out so
# that the pinned forecast bits below depend on no generator.
PINNED_DRAWS = [  # (weights, shifts, AR blocks, scales)
    ((0.5, 0.3, 0.2), (0.1, -0.4, 0.25), ((0.6, -0.2), (0.35,), (-0.5,)), (0.8, 1.3, 0.45)),
    ((0.45, 0.35, 0.2), (0.12, -0.38, 0.3), ((0.55, -0.15), (0.4,), (-0.45,)), (0.75, 1.2, 0.5)),
    ((0.6, 0.25, 0.15), (0.05, -0.5, 0.2), ((0.7, -0.3, 0.1), (0.3,), (-0.6,)), (0.9, 1.1, 0.4)),
    ((0.3, 0.4, 0.3), (0.2, -0.3, 0.15), ((0.45,), (0.5, -0.25), (-0.35,)), (0.7, 1.4, 0.55)),
    (
        (0.55, 0.15, 0.3), (-0.05, -0.45, 0.35), ((0.65, -0.25), (0.2,), (-0.55, 0.1)),
        (0.85, 1.25, 0.6),
    ),
    (
        (0.4, 0.4, 0.2), (0.15, -0.35, 0.1), ((0.5, -0.1), (0.45, 0.15, -0.2), (-0.4,)),
        (0.65, 1.35, 0.5),
    ),
    ((0.35, 0.25, 0.4), (0.0, -0.6, 0.4), ((0.75,), (0.25,), (-0.65, 0.2)), (0.95, 1.15, 0.35)),
    ((0.5, 0.2, 0.3), (0.08, -0.42, 0.22), ((0.58, -0.18), (0.38,), (-0.48,)), (0.78, 1.28, 0.47)),
]
PINNED_SERIES = [0.3, -0.8, 1.4, 0.2, -0.1, 0.9, -1.2, 0.5, 0.7, -0.35]


class TestPinnedForecastBits:
    """Forecast moments and the default grid of a fixed ChainOutput against recorded bits.

    Recorded once and compared with ==: a change to how `forecast._moments`
    rounds (an einsum for one of its matmuls, say) moves them by an ulp.
    """

    MEANS = [
        "-0x1.9eebc12b579bbp-6", "-0x1.94ec24a4d18fbp-6", "-0x1.7137088fcbb74p-4",
        "-0x1.1b43d670936e2p-6", "0x1.71b62af4a854cp-7", "-0x1.3f5957ac86a89p-4",
        "0x1.7eb0365a500cfp-7", "0x1.9ebb49fbf3d55p-6",
    ]
    VARIANCES = [
        "0x1.408e90598acc2p+0", "0x1.2310caa56de16p+0", "0x1.51b620f987e6ap+0",
        "0x1.594b3f9e6d4c1p+0", "0x1.315abbba08a47p+0", "0x1.506a3ff7cf3f6p+0",
        "0x1.631fc7ed52a46p+0", "0x1.033ae5331bbd6p+0",
    ]
    GRID_ENDS = ("-0x1.c386b9a3334c2p+2", "0x1.c50569d98d9c2p+2")

    def setup(self):
        out = specs_output([MARSpec(*draw) for draw in PINNED_DRAWS])
        return out, TimeSeries(PINNED_SERIES)

    def test_moments(self):
        out, series = self.setup()
        means, variances = forecast._chain_moments(out, np.arange(8), series, series.n, 7)
        assert [x.hex() for x in means.tolist()] == self.MEANS
        assert [x.hex() for x in variances.tolist()] == self.VARIANCES

    def test_default_grid(self):
        out, series = self.setup()
        grid = default_grid(out, series, series.n, 7)
        assert (grid[0].hex(), grid[-1].hex()) == self.GRID_ENDS
        assert grid.tobytes() == np.linspace(grid[0], grid[-1], 512).tobytes()


class TestPosteriorAveraging:
    def test_single_draw_bands_collapse(self):
        spec = model_a_spec()
        series = simulate_path(spec, 30, seed=10)
        out = specs_output([spec])
        req = ForecastRequest(horizon=2, thin=1, grid=np.linspace(-8, 8, 101))
        res = posterior_averaged_forecast(out, series, req)
        np.testing.assert_array_equal(res.lower_90, res.mean_density)
        np.testing.assert_array_equal(res.upper_90, res.mean_density)
        direct = predictive_density_fixed(spec, series, series.n, 2, res.grid)
        np.testing.assert_allclose(res.mean_density, direct, atol=1e-14)

    def test_thinning_and_band_order(self, monkeypatch):
        series = simulate_path(model_a_spec(), 150, seed=11)
        hyper = default_hyperparams(series, n_iter=600, burn_in=300, pilot_iters=500)
        out = run_chain(series, 2, (1, 1), hyper, seed=12)
        req = ForecastRequest(horizon=2, thin=10)
        grids = []
        real = forecast.predictive_density_fixed

        def density(spec, series, origin, horizon, grid, **kwargs):
            grids.append(grid.size)
            return real(spec, series, origin, horizon, grid, **kwargs)

        monkeypatch.setattr(forecast, "predictive_density_fixed", density)
        res = posterior_averaged_forecast(out, series, req)
        assert grids == [res.grid.size] * 30
        assert np.all(res.lower_90 <= res.mean_density + 1e-12)
        assert np.all(res.mean_density <= res.upper_90 + 1e-12)
        assert np.trapezoid(res.mean_density, res.grid) == pytest.approx(1.0, abs=1e-3)

    def test_predictive_sd_single_component_closed_form(self):
        spec = ar1_spec()
        series = TimeSeries([0.3, -0.1, 1.0])
        res = posterior_averaged_forecast(
            specs_output([spec]), series, ForecastRequest(horizon=3, thin=1)
        )
        assert res.predictive_mean == pytest.approx(0.608, abs=1e-12)
        assert res.predictive_sd == pytest.approx(math.sqrt(0.25 * 1.4896), abs=1e-12)

    def test_predictive_sd_averages_draw_moments(self):
        rng = np.random.default_rng(15)
        specs = [random_spec(rng, 3) for _ in range(6)]
        out = specs_output(specs)
        series = TimeSeries(rng.normal(0.0, 1.0, 10))
        res = posterior_averaged_forecast(out, series, ForecastRequest(horizon=4, thin=2))
        first = second = 0.0
        for i in (0, 2, 4):
            spec = out.spec_at(i)
            w, m, v = reference_paths(spec, series.values[-spec.max_order :], 4)
            first += float(w @ m) / 3
            second += float(w @ (v + m**2)) / 3
        assert res.predictive_mean == pytest.approx(first, rel=1e-10)
        assert res.predictive_sd == pytest.approx(math.sqrt(second - first**2), rel=1e-10)

    def test_grid_override_respected(self):
        series = simulate_path(model_a_spec(), 40, seed=13)
        out = specs_output([model_a_spec()])
        grid = np.linspace(-2, 2, 33)
        res = posterior_averaged_forecast(
            out, series, ForecastRequest(horizon=1, thin=1, grid=grid)
        )
        np.testing.assert_array_equal(res.grid, grid)


class TestDefaultGrid:
    def test_spec_grid_covers_six_sd(self):
        spec = ar1_spec()
        series = TimeSeries([0.3, -0.1, 1.0])
        grid = default_grid(spec, series, 3, 2, points=64)
        m, v = predictive_moments(spec, series, 3, 2)
        sd = math.sqrt(v)
        assert grid.size == 64
        assert grid[0] == pytest.approx(m - 6 * sd, abs=1e-12)
        assert grid[-1] == pytest.approx(m + 6 * sd, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_chain_and_spec_branches_agree_on_one_draw(self, seed):
        rng = np.random.default_rng(300 + seed)
        spec = random_spec(rng, 1 + seed % 3)
        series = TimeSeries(rng.normal(0.0, 1.0, 6))
        np.testing.assert_array_equal(
            default_grid(specs_output([spec]), series, 6, 5), default_grid(spec, series, 6, 5)
        )

    def test_draw_with_non_finite_moments_is_refused(self):
        # the grid reads draws without building a validated spec for each
        rng = np.random.default_rng(310)
        out = specs_output([random_spec(rng, 2) for _ in range(3)])
        out.shifts[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            default_grid(out, TimeSeries(rng.normal(0.0, 1.0, 6)), 6, 2)


class TestBatchedMoments:
    @pytest.mark.parametrize("g, horizon", [(1, 1), (2, 3), (3, 7), (4, 12)])
    def test_batch_equals_single_spec_calls(self, g, horizon):
        # mixed orders 1-3 share one zero-padded width; entries beyond a draw's
        # orders are junk here and must be ignored, as spec_at ignores them
        rng = np.random.default_rng(400 + g)
        specs = [random_spec(rng, g) for _ in range(9)]
        out = specs_output(specs)
        for i, spec in enumerate(specs):
            for k, order in enumerate(spec.orders):
                out.ar[i, k, order:] = 99.0
        series = TimeSeries(rng.normal(0.0, 1.0, 8))
        draws = np.arange(9)
        means, variances = forecast._chain_moments(out, draws, series, 8, horizon)
        single = np.array([predictive_moments(s, series, 8, horizon) for s in specs])
        np.testing.assert_array_equal(means, single[:, 0])
        np.testing.assert_array_equal(variances, single[:, 1])

    def test_widest_order_needs_its_history(self):
        ar3 = MARSpec(np.ones(1), np.zeros(1), (np.array([0.2, 0.1, 0.1]),), np.ones(1))
        out = specs_output([ar1_spec(), ar3])
        with pytest.raises(ValueError, match="origin 2"):
            forecast._chain_moments(out, np.arange(2), TimeSeries([0.1, 0.2]), 2, 3)
