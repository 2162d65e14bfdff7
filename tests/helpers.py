"""Shared test helpers: a chain state built from a model specification, and back."""

import numpy as np

from mixar.model import MARSpec
from mixar.sampler import ChainState


def spec_state(spec: MARSpec, means, z, lam: float, width: int) -> ChainState:
    """The chain state at a validated spec, its AR matrix `width` columns wide."""
    z = np.asarray(z, dtype=np.int64)
    return ChainState(
        spec.weights, spec.shifts, np.asarray(means, dtype=float), spec.scales,
        spec.phi_matrix(width), spec.orders, z, np.bincount(z, minlength=spec.g + 1)[1:], lam,
    )


def spec_of(state: ChainState) -> MARSpec:
    """The MARSpec of a chain state's parameters."""
    ar = tuple(state.phi[k, :p] for k, p in enumerate(state.orders))
    return MARSpec(state.weights, state.shifts, ar, state.scales)
