"""Stability (second-order stationarity) checks for MAR specifications.

A MAR model is stable when the spectral radius of

    A = sum_k pi_k (A_k kron A_k)

is strictly below one, where A_k is the p x p companion matrix of component
k's AR coefficients zero-padded to the maximum order p.  Individual
components may be explosive while the mixture remains stable.

A acts on p x p matrices as X -> sum_k pi_k A_k X A_k^T, a map that keeps
positive semidefinite matrices positive semidefinite, so its spectral radius
is below one exactly when the Stein equation X - sum_k pi_k A_k X A_k^T = I
has a positive definite solution X.  At p <= 2 that solution has a closed
form and the verdict needs no eigenvalues.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """The strict stability verdict on positive weights and a (g, p) AR matrix.

    `spectral_radius` is the spectral radius of their Kronecker-square
    matrix.  The verdict at p <= 2 does not need it, so it is computed on
    first read.
    """

    weights: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    stable: bool

    @functools.cached_property
    def spectral_radius(self) -> float:
        return spectral_radius(_kron_sum(self.weights, self.phi))


def companion_matrices(phi: np.ndarray) -> np.ndarray:
    """(g, p, p) stack of the companion matrices A_k of a (g, p) AR matrix.

    phi is zero-padded to p, as `MARSpec.phi_matrix` gives it.  Top rows
    hold the AR coefficients, the subdiagonals hold ones.
    """
    g, p = phi.shape
    a = np.zeros((g, p, p))
    a[:, 0, :] = phi
    a[:, np.arange(1, p), np.arange(p - 1)] = 1.0
    return a


def _kron_sum(weights: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Weighted Kronecker-square matrix A = sum_k pi_k (A_k kron A_k) of a (g, p) AR matrix.

    The Kronecker squares come from one broadcast, entry (i p + r, j p + s)
    of the k-th being A_k[i, j] A_k[r, s] as in `np.kron`; the weighted
    squares are added to a zero matrix in component order.
    """
    g, p = phi.shape
    a = companion_matrices(phi)
    krons = (a[:, :, None, :, None] * a[:, None, :, None, :]).reshape(g, p * p, p * p)
    out = np.zeros((p * p, p * p))
    for term in weights[:, None, None] * krons:
        out += term
    return out


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest eigenvalue modulus, by dense eigenvalue decomposition."""
    try:
        eigvals = np.linalg.eigvals(matrix)
    except np.linalg.LinAlgError as err:
        raise RuntimeError(
            f"eigenvalue computation failed on a {matrix.shape[0]}x{matrix.shape[1]} "
            f"matrix (max |entry| {np.abs(matrix).max():.3e}): {err}"
        ) from err
    return float(np.abs(eigvals).max())


def _order_two_stable(weights: np.ndarray, phi: np.ndarray) -> bool:
    """Whether the Stein solution X = [[x, y], [y, z]] at p = 2 is positive definite.

    With A_k = [[a_k, b_k], [1, 0]] and weighted sums S_1 = sum pi_k,
    S_a = sum pi_k a_k, S_b, S_aa = sum pi_k a_k^2, S_ab and S_bb, the
    equation reads x = 1 + S_aa x + 2 S_ab y + S_bb z, y = S_a x + S_b y and
    z = 1 + S_1 x.  With c = 1 - S_b and e = c (1 - S_aa - S_1 S_bb) -
    2 S_a S_ab it solves to x = (1 + S_bb) c / e, y = S_a x / c, and
    x > 0, xz - y^2 > 0 become the three sign tests below.  c > 0 is
    necessary on its own: -S_b is the eigenvalue of A on the antisymmetric
    matrices.
    """
    s1 = sa = sb = saa = sab = sbb = 0.0
    for w, (a, b) in zip(weights.tolist(), phi.tolist()):
        wa = w * a
        wb = w * b
        s1 += w
        sa += wa
        sb += wb
        saa += wa * a
        sab += wa * b
        sbb += wb * b
    c = 1.0 - sb
    e = c * (1.0 - saa - s1 * sbb) - 2.0 * sa * sab
    return c > 0.0 and e > 0.0 and e * c + (1.0 + sbb) * (s1 * c * c - sa * sa) > 0.0


def is_stable(weights: np.ndarray, phi: np.ndarray) -> StabilityReport:
    """Strict verdict from positive weights and the (g, p) AR matrix, zero-padded to p.

    Every verdict in the package comes from here.  Spectral radius exactly
    1 is unstable.  p = 1 compares sum_k pi_k phi_k^2 with one, p = 2 solves
    the Stein equation in closed form, and p >= 3 takes the spectral radius
    of the Kronecker-square matrix.  The weights need not sum to one.
    """
    p = phi.shape[1]
    if p == 1:
        # the 1x1 matrix A, added up term by term in component order
        total = 0.0
        for w, a in zip(weights.tolist(), phi[:, 0].tolist()):
            total += w * (a * a)
        stable = total < 1.0
    elif p == 2:
        stable = _order_two_stable(weights, phi)
    else:
        stable = spectral_radius(_kron_sum(weights, phi)) < 1.0
    return StabilityReport(weights, phi, stable)
