"""Model specification, conditional densities, likelihoods, ACF, simulation."""

import itertools
import math
import re

import numpy as np
import pytest
from scipy import special

from mixar.datasets import model_a_spec, model_b_spec
from mixar.model import (
    LOG_2PI,
    MARSpec,
    TimeSeries,
    _design,
    _log_terms,
    component_means_at,
    conditional_cdf,
    conditional_moments,
    conditional_pdf,
    lag_matrix,
    log_likelihood,
    logsumexp,
    quantile,
    row_sum,
    shift_from_mean,
    simulate_path,
    theoretical_acf,
)


def tiny_spec():
    return MARSpec(
        weights=np.array([0.6, 0.4]),
        shifts=np.array([0.3, -0.2]),
        ar_coeffs=(np.array([0.5]), np.array([-0.8])),
        scales=np.array([0.7, 1.5]),
    )


class TestMARSpec:
    def test_model_a_properties(self):
        spec = model_a_spec()
        assert spec.g == 2
        assert spec.orders == (1, 1)
        assert spec.max_order == 1

    def test_phi_matrix_zero_pads(self):
        spec = model_b_spec()
        mat = spec.phi_matrix()
        assert mat.shape == (3, 2)
        np.testing.assert_allclose(mat, [[-0.5, 0.5], [-0.4, 0.0], [1.0, 0.0]])
        wide = spec.phi_matrix(4)
        np.testing.assert_allclose(wide[:, 2:], 0.0)
        with pytest.raises(ValueError):
            spec.phi_matrix(1)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MARSpec(
                weights=np.array([0.6, 0.5]),
                shifts=np.zeros(2),
                ar_coeffs=(np.array([0.1]), np.array([0.1])),
                scales=np.ones(2),
            )

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            MARSpec(
                weights=np.array([1.0, 0.0]),
                shifts=np.zeros(2),
                ar_coeffs=(np.array([0.1]), np.array([0.1])),
                scales=np.ones(2),
            )

    def test_scales_must_be_positive(self):
        with pytest.raises(ValueError, match="scale"):
            MARSpec(
                weights=np.array([1.0]),
                shifts=np.zeros(1),
                ar_coeffs=(np.array([0.1]),),
                scales=np.array([0.0]),
            )

    def test_orders_at_least_one(self):
        with pytest.raises(ValueError, match="order"):
            MARSpec(
                weights=np.array([1.0]),
                shifts=np.zeros(1),
                ar_coeffs=(np.array([]),),
                scales=np.ones(1),
            )


def spec_kwargs(**changes):
    base = dict(
        weights=np.array([0.6, 0.4]),
        shifts=np.array([0.3, -0.2]),
        ar_coeffs=(np.array([0.5]), np.array([-0.8, 0.1])),
        scales=np.array([0.7, 1.5]),
    )
    base.update(changes)
    return base


@pytest.mark.parametrize(
    "changes, message",
    [
        (dict(weights=np.array([]), shifts=np.array([]), ar_coeffs=(), scales=np.array([])),
         "need at least one component"),
        (dict(shifts=np.zeros(3)), "must all have length g"),
        (dict(scales=np.ones(1)), "must all have length g"),
        (dict(ar_coeffs=(np.array([0.5]),)), "must all have length g"),
        (dict(weights=np.array([1.0, 0.0])), "every mixing weight must be positive and finite"),
        (dict(weights=np.array([1.2, -0.2])), "every mixing weight must be positive and finite"),
        (dict(weights=np.array([np.nan, 0.4])), "every mixing weight must be positive and finite"),
        (dict(weights=np.array([0.6, 0.5])), "mixing weights must sum to 1, got"),
        (dict(scales=np.array([0.7, 0.0])), "every scale must be positive and finite"),
        (dict(scales=np.array([np.inf, 1.5])), "every scale must be positive and finite"),
        (dict(shifts=np.array([0.3, np.nan])), "shifts must be finite"),
        (dict(ar_coeffs=(np.array([0.5]), np.array([]))), "component 2 must have order >= 1"),
        (dict(ar_coeffs=(np.array([0.5]), np.array([0.1, -np.inf]))),
         "AR coefficients of component 2 must be finite"),
        # several faults at once: the first per-field check names the error
        (dict(weights=np.array([0.0, 0.4]), scales=np.array([0.0, 1.0])),
         "every mixing weight must be positive and finite"),
        (dict(shifts=np.array([np.nan, 0.0]), ar_coeffs=(np.array([np.nan]), np.array([0.1])),),
         "shifts must be finite"),
    ],
)
def test_each_invalid_spec_names_its_fault(changes, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        MARSpec(**spec_kwargs(**changes))


class TestSeries:
    def test_series_validation(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([]))
        with pytest.raises(ValueError):
            TimeSeries(np.array([1.0, np.nan]))
        s = TimeSeries([1, 2, 3])
        assert s.n == 3 and len(s) == 3

    def test_lag_matrix_layout(self):
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        lm = lag_matrix(y, 2, 3)
        # rows t=3,4,5; columns (y_{t-1}, y_{t-2})
        np.testing.assert_allclose(lm, [[2, 1], [3, 2], [4, 3]])
        with pytest.raises(ValueError):
            lag_matrix(y, 2, 2)


class TestConditionals:
    def test_residual_by_hand(self):
        spec = model_a_spec()
        series = TimeSeries([1.0, 2.0, 0.5])
        # t=2: nu_1 = -0.5*1 = -0.5, nu_2 = 1*1 = 1, so the residuals are (2.5, 1)
        np.testing.assert_allclose(component_means_at(spec, series.values, 2), [-0.5, 1.0])
        e = np.array([2.5, 1.0])
        row = np.log(spec.weights / spec.scales) - 0.5 * (e / spec.scales) ** 2 - 0.5 * LOG_2PI
        np.testing.assert_allclose(_log_terms(spec, *_design(series.values, 1))[:, 0], row)
        with pytest.raises(ValueError):
            conditional_pdf(spec, series, 1)

    def test_pdf_at_zero_history(self):
        # equal-weight mixture of N(0,1) and N(0,4) at y=0:
        # 0.5*phi(0) + 0.5*phi(0)/2 = 0.75/sqrt(2 pi)
        spec = model_a_spec()
        series = TimeSeries([0.0, 0.0])
        assert conditional_pdf(spec, series, 2) == pytest.approx(
            0.29920671030107454, abs=1e-15
        )
        assert conditional_cdf(spec, series, 2) == pytest.approx(0.5, abs=1e-15)

    def test_pdf_cdf_frozen_point(self):
        # history y_1=1 gives nu=(-0.5, 1); at y_2=0.3 the density is
        # 0.5*phi(0.8) + 0.25*phi(-0.35) and the cdf 0.5*Phi(0.8)+0.5*Phi(-0.35)
        spec = model_a_spec()
        series = TimeSeries([1.0, 0.3])
        assert conditional_pdf(spec, series, 2) == pytest.approx(
            0.23865586310997583, abs=1e-14
        )
        assert conditional_cdf(spec, series, 2) == pytest.approx(
            0.5756569751204921, abs=1e-14
        )

    def test_moments_by_hand(self):
        # nu=(-0.5,1): mean 0.25, var = 2.5 + 0.625 - 0.0625
        spec = model_a_spec()
        series = TimeSeries([1.0, 0.0])
        mean, var = conditional_moments(spec, series, 2)
        assert mean == pytest.approx(0.25)
        assert var == pytest.approx(3.0625)

    def test_moments_match_quadrature(self):
        spec = tiny_spec()
        series = TimeSeries([0.8, 0.0])
        mean, var = conditional_moments(spec, series, 2)
        ys = np.linspace(-15, 15, 20001)
        dens = np.array(
            [conditional_pdf(spec, TimeSeries([0.8, y]), 2) for y in ys]
        )
        m_num = np.trapezoid(ys * dens, ys)
        v_num = np.trapezoid(ys**2 * dens, ys) - m_num**2
        assert mean == pytest.approx(m_num, abs=1e-8)
        assert var == pytest.approx(v_num, abs=1e-6)

    def test_component_mean_roundtrip(self):
        # the component mean mu_k = phi_k0 / (1 - sum_i phi_ki) maps back to the shift
        spec = tiny_spec()
        mu1 = 0.3 / (1.0 - 0.5)
        assert shift_from_mean(mu1, spec.ar_coeffs[0]) == pytest.approx(0.3)


class TestKernels:
    """The numpy logsumexp and the erfc normal CDF against their scipy counterparts."""

    # log terms are component-major, (g, T): the log-sum-exp of each design
    # time runs over the first axis
    @pytest.mark.parametrize("shape", [(600, 3), (300, 2), (50, 1), (40, 4)])
    def test_logsumexp_rows_match_scipy(self, shape):
        rng = np.random.default_rng(sum(shape))
        a = rng.uniform(-40.0, 10.0, size=shape[::-1])
        np.testing.assert_allclose(
            logsumexp(a, axis=0), special.logsumexp(a, axis=0), rtol=1e-15, atol=1e-15
        )
        # the log terms of spec B on a series it generated, as the sampler builds them
        spec = model_b_spec()
        series = simulate_path(spec, 400, seed=shape[0])
        terms = _log_terms(spec, *_design(series.values, 2))
        np.testing.assert_allclose(
            logsumexp(terms, axis=0), special.logsumexp(terms, axis=0), rtol=1e-15, atol=1e-15
        )

    def test_logsumexp_rows_with_minus_infinity(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-40.0, 10.0, size=(3, 500))
        holes = rng.random(a.shape) < 0.3
        holes[rng.integers(0, 3, size=500), np.arange(500)] = False  # one finite entry a time
        a[holes] = -np.inf
        np.testing.assert_allclose(
            logsumexp(a, axis=0), special.logsumexp(a, axis=0), rtol=1e-15, atol=1e-15
        )

    def test_logsumexp_vector(self):
        rng = np.random.default_rng(4)
        terms = rng.normal(-3.0, 5.0, size=2000)
        terms[::7] = -np.inf
        got = logsumexp(terms)
        assert isinstance(got, float)
        assert got == pytest.approx(float(special.logsumexp(terms)), rel=1e-15)
        assert logsumexp(np.full(5, -np.inf)) == -np.inf

    def test_all_minus_infinity_row_gives_minus_infinity(self):
        a = np.array([[0.0, -1.0], [-np.inf, -np.inf], [2.0, -np.inf]]).T
        with np.errstate(all="raise"):
            out = logsumexp(a, axis=0)
        assert out[1] == -np.inf
        np.testing.assert_allclose(
            out[[0, 2]], special.logsumexp(a[:, [0, 2]], axis=0), rtol=1e-15
        )

    @pytest.mark.parametrize("g", range(1, 8))
    def test_logsumexp_rows_bitwise_equal_to_row_reductions(self, g):
        """The (g, T) log-sum-exp over components against numpy's per-row
        reductions of the (T, g) transpose."""
        rng = np.random.default_rng(100 + g)
        a = rng.uniform(-800.0, 50.0, size=(300, g))
        a[rng.random(a.shape) < 0.3] = -np.inf
        a[::17] = -np.inf  # whole rows at -inf
        top = np.max(a, axis=1, keepdims=True)
        top[~np.isfinite(top)] = 0.0
        with np.errstate(divide="ignore"):
            expect = (np.log(np.sum(np.exp(a - top), axis=1, keepdims=True)) + top)[:, 0]
        got = logsumexp(np.ascontiguousarray(a.T), axis=0)
        assert got.tobytes() == expect.tobytes()
        assert np.all(got[::17] == -np.inf)
        assert row_sum(a[:, :g]).tobytes() == a.sum(axis=1).tobytes()

    def test_single_row_is_its_own_logsumexp_bitwise(self):
        # one component holds every point: its row comes back as it is, the
        # bits the max-shifted sum gives, -inf, NaN, inf and extremes included
        rng = np.random.default_rng(7)
        row = rng.uniform(-800.0, 50.0, size=(1, 400))
        row[0, ::7] = -np.inf
        row[0, 3::11] = np.nan
        row[0, 5::13] = -np.nan
        row[0, 1:4] = (np.inf, 1e308, 5e-324)
        top = row.copy()
        top[~np.isfinite(top)] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            expect = (np.log(np.exp(row - top)) + top)[0]
        assert logsumexp(row, axis=0).tobytes() == expect.tobytes()

    def test_conditional_cdf_matches_ndtr_out_to_40_sd(self):
        # one AR(1) component with zero history: the residual at t=2 is y_2 / sigma
        x = np.linspace(-40.0, 40.0, 4001)
        spec = MARSpec(
            weights=np.ones(1), shifts=np.zeros(1), ar_coeffs=(np.zeros(1),),
            scales=np.array([1.7]),
        )
        got = np.array([conditional_cdf(spec, TimeSeries([0.0, v * 1.7]), 2) for v in x])
        ref = special.ndtr(x)
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-15)
        tail = ref > 1e-300
        np.testing.assert_allclose(got[tail], ref[tail], rtol=1e-12)

    def test_conditional_cdf_mixture_matches_ndtr(self):
        spec = model_b_spec()
        series = simulate_path(spec, 300, seed=5)
        for t in range(3, 301):
            e = (series.values[t - 1] - component_means_at(spec, series.values, t)) / spec.scales
            expect = float(np.dot(spec.weights, special.ndtr(e)))
            assert conditional_cdf(spec, series, t) == pytest.approx(expect, rel=0.0, abs=1e-15)


class TestQuantile:
    """`quantile` against np.quantile's default linear method, bit for bit."""

    @staticmethod
    def sample(rng, shape):
        # rounded values give ties; a scale spread over decades varies the bits
        digits, scale = int(rng.integers(1, 6)), 10.0 ** rng.integers(-3, 4)
        return np.round(rng.normal(size=shape), digits) * scale

    def test_cut_points_of_one_sample(self):
        rng = np.random.default_rng(11)
        for _ in range(4000):
            n, g = int(rng.integers(2, 701)), int(rng.integers(1, 6))
            a = self.sample(rng, n)
            for q in (np.linspace(0.0, 1.0, g + 1), rng.random(3)):
                assert quantile(a, q).tobytes() == np.quantile(a, q).tobytes()

    def test_bands_over_the_first_axis(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            a = self.sample(rng, (int(rng.integers(1, 120)), int(rng.integers(1, 40))))
            for q in (0.05, 0.95, 0.5, 0.0, 1.0):
                assert quantile(a, q).tobytes() == np.quantile(a, q, axis=0).tobytes()


class TestLikelihood:
    def test_frozen_brute_force_value(self):
        # enumeration over all 2^4 allocation paths of the 5-point series
        spec = tiny_spec()
        series = TimeSeries([0.4, -1.1, 0.9, 0.2, -0.5])
        assert log_likelihood(spec, series) == pytest.approx(
            -6.197266992034594, abs=1e-12
        )

    def test_equals_product_of_conditionals(self):
        spec = model_b_spec()
        rng = np.random.default_rng(4)
        series = TimeSeries(rng.normal(size=12))
        direct = sum(
            math.log(conditional_pdf(spec, series, t)) for t in range(3, 13)
        )
        assert log_likelihood(spec, series) == pytest.approx(direct, abs=1e-10)

    def test_brute_force_allocation_marginalization(self):
        # sum over g^(n-p) complete-data likelihoods equals the mixture value
        rng = np.random.default_rng(11)
        for g, n in [(2, 9), (3, 6)]:
            weights = rng.dirichlet(np.ones(g) * 5)
            spec = MARSpec(
                weights=weights,
                shifts=rng.normal(size=g) * 0.3,
                ar_coeffs=tuple(rng.uniform(-0.6, 0.6, size=1) for _ in range(g)),
                scales=rng.uniform(0.5, 2.0, size=g),
            )
            series = TimeSeries(rng.normal(size=n))
            # column t of the log terms holds the complete-data term of each label
            terms = _log_terms(spec, *_design(series.values, 1))
            logs = [
                float(terms[np.array(z) - 1, np.arange(n - 1)].sum())
                for z in itertools.product(range(1, g + 1), repeat=n - 1)
            ]
            brute = math.log(sum(math.exp(v) for v in logs))
            assert log_likelihood(spec, series) == pytest.approx(brute, abs=1e-10)

    def test_conditioning_on_more_observations(self):
        spec = tiny_spec()
        series = TimeSeries(np.linspace(-1, 1, 10))
        full = log_likelihood(spec, series, cond=1)
        shorter = log_likelihood(spec, series, cond=3)
        assert shorter != pytest.approx(full)
        with pytest.raises(ValueError):
            log_likelihood(spec, series, cond=0)
        with pytest.raises(ValueError):
            log_likelihood(spec, series, cond=10)


class TestACF:
    def test_model_a_frozen(self):
        # aggregate coefficient c1 = 0.5*(-0.5)+0.5*1 = 0.25 gives rho_h = 0.25^h
        rho = theoretical_acf(model_a_spec(), 3)
        np.testing.assert_allclose(rho, [1.0, 0.25, 0.0625, 0.015625], atol=1e-14)

    def test_model_b_frozen(self):
        # c = (-0.17, 0.25): rho1 = c1/(1-c2), rho2 = c1 rho1 + c2
        rho = theoretical_acf(model_b_spec(), 3)
        np.testing.assert_allclose(
            rho,
            [1.0, -0.22666666666666668, 0.2885333333333333, -0.10571733333333333],
            atol=1e-14,
        )

    def test_lag_zero_only(self):
        rho = theoretical_acf(model_a_spec(), 0)
        np.testing.assert_allclose(rho, [1.0])

    def test_matches_long_simulation(self):
        spec = model_b_spec()
        series = simulate_path(spec, 1_000_000, seed=99)
        y = series.values - series.values.mean()
        denom = float(y @ y)
        emp = [float(y[h:] @ y[: y.size - h]) / denom for h in range(4)]
        rho = theoretical_acf(spec, 3)
        np.testing.assert_allclose(emp, rho, atol=0.02)

    def test_singular_system_raises(self):
        spec = MARSpec(
            weights=np.array([1.0]),
            shifts=np.zeros(1),
            ar_coeffs=(np.array([0.0, 1.0]),),
            scales=np.ones(1),
        )
        with pytest.raises(ValueError, match="singular"):
            theoretical_acf(spec, 2)


class TestSimulate:
    def test_deterministic_given_seed(self):
        spec = model_a_spec()
        a = simulate_path(spec, 50, seed=5)
        b = simulate_path(spec, 50, seed=5)
        np.testing.assert_array_equal(a.values, b.values)
        c = simulate_path(spec, 50, seed=6)
        assert not np.array_equal(a.values, c.values)

    def test_requested_length(self):
        series = simulate_path(model_b_spec(), 600, seed=1)
        assert series.n == 600

    def test_zero_mean_large_sample(self):
        series = simulate_path(model_a_spec(), 1_000_000, seed=2)
        assert abs(series.values.mean()) < 0.02

    def test_refuses_unstable(self):
        spec = MARSpec(
            weights=np.array([1.0]),
            shifts=np.zeros(1),
            ar_coeffs=(np.array([1.05]),),
            scales=np.ones(1),
        )
        with pytest.raises(ValueError, match="spectral radius"):
            simulate_path(spec, 10, seed=0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            simulate_path(model_a_spec(), 0, seed=0)
