"""Stability matrix, spectral radius, strict stability verdicts."""

import numpy as np
import pytest

from mixar.datasets import model_a_spec, model_b_spec
from mixar.model import MARSpec, simulate_path
from mixar.stability import (
    StabilityReport,
    companion_matrices,
    is_stable,
    is_stable_phi,
    spectral_radius,
    stability_matrix,
)


def ar1_spec(phi, weight_pairs=None):
    """Single-component AR(1) helper."""
    return MARSpec(
        weights=np.array([1.0]),
        shifts=np.zeros(1),
        ar_coeffs=(np.array([float(phi)]),),
        scales=np.ones(1),
    )


def _power_iteration_radius(mat, iters=20_000):
    """Independent oracle: spectral radius via power iteration on A'A pairs.

    Uses the fact that rho(A) = lim ||A^m v||^(1/m); run on the matrix and a
    random start, with renormalization to avoid overflow.
    """
    rng = np.random.default_rng(0)
    v = rng.normal(size=mat.shape[0])
    v /= np.linalg.norm(v)
    log_growth = 0.0
    warm = 2_000
    acc = 0.0
    for i in range(iters):
        v = mat @ v
        norm = np.linalg.norm(v)
        if norm == 0.0:
            return 0.0
        v /= norm
        if i >= warm:
            acc += np.log(norm)
    return float(np.exp(acc / (iters - warm)))


class TestCompanion:
    def test_model_a_companions(self):
        np.testing.assert_allclose(
            companion_matrices(model_a_spec().phi_matrix()), [[[-0.5]], [[1.0]]]
        )

    def test_model_b_companion_layout(self):
        a1, a2, _ = companion_matrices(model_b_spec().phi_matrix())
        np.testing.assert_allclose(a1, [[-0.5, 0.5], [1.0, 0.0]])
        np.testing.assert_allclose(a2, [[-0.4, 0.0], [1.0, 0.0]])


class TestStabilityMatrix:
    def test_model_a_matrix_is_scalar(self):
        mat = stability_matrix(model_a_spec())
        assert mat.shape == (1, 1)
        # 0.5*(-0.5)^2 + 0.5*1^2 = 0.625
        assert mat[0, 0] == pytest.approx(0.625, abs=1e-15)

    def test_kron_by_hand(self):
        spec = model_b_spec()
        mat = stability_matrix(spec)
        expect = np.zeros((4, 4))
        for w, a in zip(spec.weights, companion_matrices(spec.phi_matrix())):
            expect += w * np.kron(a, a)
        np.testing.assert_allclose(mat, expect)

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_bitwise_equal_to_explicit_kron_sum(self, g, p):
        rng = np.random.default_rng(10 * g + p)
        for _ in range(5):
            orders = rng.integers(1, p + 1, size=g)
            orders[rng.integers(g)] = p
            weights = rng.dirichlet(np.ones(g))
            spec = MARSpec(
                weights=weights,
                shifts=np.zeros(g),
                ar_coeffs=tuple(rng.normal(0.0, 0.7, size=o) for o in orders),
                scales=np.ones(g),
            )
            expect = np.zeros((p * p, p * p))
            for k in range(1, g + 1):
                a = np.zeros((p, p))
                a[0, : orders[k - 1]] = spec.ar_coeffs[k - 1]
                a[np.arange(1, p), np.arange(p - 1)] = 1.0
                np.testing.assert_array_equal(companion_matrices(spec.phi_matrix())[k - 1], a)
                expect += spec.weights[k - 1] * np.kron(a, a)
            got = stability_matrix(spec)
            assert got.shape == expect.shape
            assert got.tobytes() == expect.tobytes()
            assert companion_matrices(spec.phi_matrix()).shape == (g, p, p)


class TestSpectralRadius:
    def test_model_a_exact(self):
        report = is_stable(model_a_spec())
        assert isinstance(report, StabilityReport)
        assert report.spectral_radius == pytest.approx(0.625, abs=1e-12)
        assert report.stable
        assert stability_matrix(model_a_spec()).shape == (1, 1)

    def test_single_component_matches_root_oracle(self):
        # for g=1 the model is a linear AR(p); the Kronecker-square radius is
        # the square of the companion radius, i.e. max |root|^2 of the
        # characteristic polynomial z^p - phi_1 z^(p-1) - ... - phi_p
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(1000):
            p = int(rng.integers(1, 5))
            coeffs = rng.uniform(-0.9, 0.9, size=p)
            spec = MARSpec(
                weights=np.array([1.0]),
                shifts=np.zeros(1),
                ar_coeffs=(coeffs,),
                scales=np.ones(1),
            )
            roots = np.roots(np.concatenate(([1.0], -coeffs)))
            expected = float(np.max(np.abs(roots)) ** 2) if p else 0.0
            got = spectral_radius(stability_matrix(spec))
            assert got == pytest.approx(expected, abs=1e-8)
            checked += 1
        assert checked == 1000

    def test_power_iteration_oracle(self):
        mat = stability_matrix(model_b_spec())
        dense = spectral_radius(mat)
        power = _power_iteration_radius(mat)
        assert dense == pytest.approx(power, abs=1e-8)

    def test_shrinking_coefficients_reduce_radius(self):
        spec = model_b_spec()
        radii = []
        for s in (1.0, 0.8, 0.6, 0.4, 0.2):
            shrunk = MARSpec(
                weights=spec.weights,
                shifts=spec.shifts,
                ar_coeffs=tuple(s * a for a in spec.ar_coeffs),
                scales=spec.scales,
            )
            radii.append(spectral_radius(stability_matrix(shrunk)))
        assert all(r1 > r2 for r1, r2 in zip(radii, radii[1:]))


class TestVerdicts:
    def test_strictness_at_one(self):
        assert not is_stable(ar1_spec(1.0)).stable
        assert is_stable(ar1_spec(1.0 - 1e-9)).stable
        assert not is_stable(ar1_spec(-1.0)).stable

    def test_explosive_component_stable_mixture(self):
        # component 2 alone is a random walk (|phi|=1), yet the mixture is stable
        report = is_stable(model_a_spec())
        assert report.stable
        comp2 = ar1_spec(1.0)
        assert not is_stable(comp2).stable

    def test_tiny_weight_on_explosive_component(self):
        eps = 1e-3
        spec = MARSpec(
            weights=np.array([1.0 - eps, eps]),
            shifts=np.zeros(2),
            ar_coeffs=(np.array([0.0]), np.array([2.0])),
            scales=np.ones(2),
        )
        # radius = (1-eps)*0 + eps*4 = 0.004 < 1
        report = is_stable(spec)
        assert report.spectral_radius == pytest.approx(4 * eps, abs=1e-12)
        assert report.stable
        heavy = MARSpec(
            weights=np.array([0.5, 0.5]),
            shifts=np.zeros(2),
            ar_coeffs=(np.array([0.0]), np.array([2.0])),
            scales=np.ones(2),
        )
        assert not is_stable(heavy).stable

    def test_stable_spec_simulates_with_bounded_variance(self):
        # empirical cross-check: a spec close to the boundary still mixes
        spec = MARSpec(
            weights=np.array([0.5, 0.5]),
            shifts=np.zeros(2),
            ar_coeffs=(np.array([-0.7]), np.array([1.1])),
            scales=np.array([1.0, 1.0]),
        )
        report = is_stable(spec)
        assert report.stable
        series = simulate_path(spec, 200_000, seed=8)
        assert np.isfinite(series.values).all()
        assert series.values.std() < 50


@pytest.mark.parametrize("g", range(1, 10))
def test_order_one_closed_form_bitwise_equal_to_kronecker_path(g):
    """At p = 1 the verdict sum_k pi_k phi_k^2 carries the bits of the 1x1 matrix path."""
    rng = np.random.default_rng(40 + g)
    for _ in range(200):
        weights = rng.dirichlet(np.ones(g))
        weights /= weights.sum()
        phi = rng.uniform(-1.6, 1.6, g)
        spec = MARSpec(
            weights=weights, shifts=np.zeros(g), ar_coeffs=tuple(phi[:, None]), scales=np.ones(g)
        )
        radius = spectral_radius(stability_matrix(spec))
        report = is_stable(spec)
        assert (report.spectral_radius, report.stable) == (radius, radius < 1.0)
    # on the boundary: weights 1/2 and phi^2 summing to exactly one
    edge = MARSpec(
        weights=np.array([0.5, 0.5]), shifts=np.zeros(2),
        ar_coeffs=(np.array([1.0]), np.array([-1.0])), scales=np.ones(2),
    )
    report = is_stable(edge)
    assert (report.spectral_radius, report.stable) == (1.0, False)


def kron_radius(weights, phi):
    """Oracle: spectral radius of sum_k w_k (A_k kron A_k), built with np.kron."""
    p = phi.shape[1]
    total = np.zeros((p * p, p * p))
    for w, row in zip(weights, phi):
        a = np.eye(p, k=-1)
        a[0] = row
        total += w * np.kron(a, a)
    return float(np.abs(np.linalg.eigvals(total)).max())


def mixed_order_phi(rng, g):
    """A (g, max order) AR matrix with orders drawn from 1-2 and coefficients on (-s, s)."""
    orders = rng.integers(1, 3, size=g)
    scale = rng.uniform(0.3, 2.5)
    phi = np.zeros((g, int(orders.max())))
    for k, order in enumerate(orders):
        phi[k, :order] = rng.uniform(-scale, scale, order)
    return phi


class TestClosedFormVerdict:
    """The eigensolver-free verdict at p <= 2 against the eigenvalue radius."""

    def test_random_specs_with_orders_one_and_two(self):
        rng = np.random.default_rng(2024)
        verdicts = []
        for _ in range(10_000):
            g = int(rng.integers(1, 5))
            phi = mixed_order_phi(rng, g)
            orders = [int(np.flatnonzero(row).max()) + 1 if row.any() else 1 for row in phi]
            spec = MARSpec(
                weights=rng.dirichlet(np.ones(g)),
                shifts=np.zeros(g),
                ar_coeffs=tuple(row[:order] for row, order in zip(phi, orders)),
                scales=np.ones(g),
            )
            expect = kron_radius(spec.weights, spec.phi_matrix()) < 1.0
            assert is_stable(spec).stable == expect
            verdicts.append(expect)
        assert 0.3 < np.mean(verdicts) < 0.8  # both verdicts are exercised

    def test_weights_that_do_not_sum_to_one(self):
        # the verdict holds for any positive weights, so their sum enters it
        rng = np.random.default_rng(2025)
        for _ in range(5_000):
            g = int(rng.integers(1, 5))
            phi = mixed_order_phi(rng, g)
            weights = rng.dirichlet(np.ones(g)) * rng.uniform(0.3, 1.7)
            assert is_stable_phi(weights, phi) == (kron_radius(weights, phi) < 1.0)

    @pytest.mark.parametrize("radius", [1.0 - 1e-6, 1.0 + 1e-6])
    def test_scaled_to_radius_one(self, radius):
        # scaling every weight by c scales the Kronecker sum, and its radius, by c
        rng = np.random.default_rng(2026 if radius < 1.0 else 2027)
        checked = 0
        while checked < 2_000:
            g = int(rng.integers(1, 5))
            phi = mixed_order_phi(rng, g)
            weights = rng.dirichlet(np.ones(g))
            base = kron_radius(weights, phi)
            if base < 1e-3:
                continue
            scaled = weights * (radius / base)
            assert kron_radius(scaled, phi) == pytest.approx(radius, abs=1e-9)
            assert is_stable_phi(scaled, phi) == (radius < 1.0)
            checked += 1

    def test_order_two_stein_solution_by_hand(self):
        # one AR(2) component (a, b) = (0.5, 0.3): rho = max|root|^2 with roots of
        # z^2 - 0.5 z - 0.3, about 0.8521^2 = 0.726; b = 1 - 0.5 sits on the boundary
        assert is_stable_phi(np.ones(1), np.array([[0.5, 0.3]]))
        assert not is_stable_phi(np.ones(1), np.array([[0.5, 0.5]]))
        assert not is_stable_phi(np.ones(1), np.array([[0.5, 0.6]]))

    def test_report_radius_is_read_on_demand_and_unchanged(self):
        # the p = 2 verdict takes no eigenvalues; the radius, when read, is the eigenvalue one
        spec = model_b_spec()
        report = is_stable(spec)
        assert report.stable
        assert report.spectral_radius == spectral_radius(stability_matrix(spec))
