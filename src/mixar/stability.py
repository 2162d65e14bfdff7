"""Stability (second-order stationarity) checks for MAR specifications.

A MAR model is stable when the spectral radius of

    A = sum_k pi_k (A_k kron A_k)

is strictly below one, where A_k is the p x p companion matrix of component
k's AR coefficients zero-padded to the maximum order p.  Individual
components may be explosive while the mixture remains stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .model import MARSpec


@dataclass(frozen=True)
class StabilityReport:
    spectral_radius: float
    stable: bool


def companion_matrices(spec: "MARSpec") -> np.ndarray:
    """(g, p, p) stack of the companion matrices A_k, zero-padded to p.

    Top rows hold the AR coefficients, the subdiagonals hold ones.
    """
    p = spec.max_order
    a = np.zeros((spec.g, p, p))
    a[:, 0, :] = spec.phi_matrix()
    a[:, np.arange(1, p), np.arange(p - 1)] = 1.0
    return a


def stability_matrix(spec: "MARSpec") -> np.ndarray:
    """Weighted Kronecker-square matrix A = sum_k pi_k (A_k kron A_k).

    The Kronecker squares come from one broadcast, entry (i p + r, j p + s)
    of the k-th being A_k[i, j] A_k[r, s] as in `np.kron`; the weighted
    squares are added to a zero matrix in component order.
    """
    g, p = spec.g, spec.max_order
    a = companion_matrices(spec)
    krons = (a[:, :, None, :, None] * a[:, None, :, None, :]).reshape(g, p * p, p * p)
    out = np.zeros((p * p, p * p))
    for term in spec.weights[:, None, None] * krons:
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


def is_stable(spec: "MARSpec") -> StabilityReport:
    """Stability verdict for a MAR specification.

    The verdict is strict: spectral radius exactly 1 is unstable.  At p = 1
    the matrix is the 1x1 sum_k pi_k phi_k^2, formed term by term in
    component order, which is what `stability_matrix` adds up there.
    """
    if spec.max_order == 1:
        total = 0.0
        for w, a in zip(spec.weights.tolist(), spec.phi_matrix()[:, 0].tolist()):
            total += w * (a * a)
        return StabilityReport(spectral_radius=abs(total), stable=abs(total) < 1.0)
    radius = spectral_radius(stability_matrix(spec))
    return StabilityReport(spectral_radius=radius, stable=radius < 1.0)
