"""Online k-means relabelling of mixture MCMC output.

The mixture posterior is invariant under permutations of components of
equal AR order, so raw chains can switch labels mid-run.  This module
restores a consistent labelling without imposing identifiability
constraints: cluster centres (mean and variance per coordinate) are warm
started on the first m draws, each subsequent draw is permuted, among the
permutations that keep every component's order, to minimize the
variance-normalized squared distance to the centres, and the centres are
then updated online with the relabelled draw.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .sampler import ChainOutput

_VALID_SUBSET = ("weights", "scales", "shifts")


@dataclass(frozen=True)
class RelabelConfig:
    """Warm-start length m and the parameter blocks forming the feature vector.

    The feature vector theta concatenates one g-long block per selected name
    (any of "weights", "scales", "shifts"); the default uses mixing weights
    plus scales, which separate components more reliably than AR coefficients.
    """

    m: int = 200
    subset: tuple[str, ...] = ("weights", "scales")

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("warm-start length m must be at least 2")
        if not self.subset:
            raise ValueError("subset must name at least one parameter block")
        for name in self.subset:
            if name not in _VALID_SUBSET:
                raise ValueError(f"unknown subset entry {name!r}; choose from {_VALID_SUBSET}")
        if len(set(self.subset)) != len(self.subset):
            raise ValueError("subset entries must be unique")

    def check_draws(self, n_draws: int) -> None:
        """The warm start must leave draws to relabel in a chain of n_draws."""
        if self.m >= n_draws:
            raise ValueError(
                f"warm-start length m={self.m} must be below the number of draws ({n_draws})"
            )


@dataclass(frozen=True)
class ClusterCentres:
    """Running per-coordinate centres, biased variances and the draw count."""

    centre: np.ndarray
    variance: np.ndarray
    count: int

    def __post_init__(self):
        object.__setattr__(self, "centre", np.asarray(self.centre, dtype=float).reshape(-1))
        object.__setattr__(self, "variance", np.asarray(self.variance, dtype=float).reshape(-1))
        if self.centre.size != self.variance.size:
            raise ValueError("centre and variance must have equal length")
        if self.count < 1:
            raise ValueError("count must be positive")
        if np.any(self.variance < 0):
            raise ValueError("variances must be nonnegative")


def feature_matrix(output: ChainOutput, subset: tuple[str, ...]) -> np.ndarray:
    """(n_draws, q) matrix of the selected blocks, block order as given."""
    blocks = {"weights": output.weights, "scales": output.scales, "shifts": output.shifts}
    return np.concatenate([blocks[name] for name in subset], axis=1)


def init_centres(theta: np.ndarray) -> ClusterCentres:
    """Warm-start centres from the first m draws (rows of theta).

    Variances are the biased (1/m) second moments about the warm mean.
    Raises when any coordinate has zero variance, which would make the
    normalized distance degenerate.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2 or theta.shape[0] < 2:
        raise ValueError("need a (m, q) matrix with m >= 2")
    centre = theta.mean(axis=0)
    variance = np.mean((theta - centre) ** 2, axis=0)
    if np.any(variance == 0.0):
        bad = int(np.nonzero(variance == 0.0)[0][0])
        raise ValueError(
            f"coordinate {bad} has zero warm-start variance; "
            "increase m or choose a different parameter subset"
        )
    return ClusterCentres(centre=centre, variance=variance, count=theta.shape[0])


def _permute_row(theta_row: np.ndarray, g: int, perm: tuple[int, ...]) -> np.ndarray:
    return theta_row.reshape(-1, g)[:, perm].reshape(-1)


@functools.lru_cache(maxsize=None)
def _permutations(orders: tuple[int, ...]) -> np.ndarray:
    """The permutations of 0..g-1 that keep every slot's order, as rows in
    `itertools.permutations` order: perm with orders[perm[j]] == orders[j]."""
    g = len(orders)
    perms = np.array(list(itertools.permutations(range(g))), dtype=np.intp).reshape(-1, g)
    perms = perms[np.all(np.asarray(orders)[perms] == orders, axis=1)]
    perms.setflags(write=False)  # shared by every caller through the cache
    return perms


def assign_permutation(
    theta_row: np.ndarray, centres: ClusterCentres, orders: tuple[int, ...]
) -> tuple[int, ...]:
    """Permutation of components minimizing the normalized squared distance.

    orders gives each of the g components' AR order; only permutations that
    keep every slot's order are scored, all at once.  Ties resolve to the
    lexicographically smallest permutation (the first minimum in
    `itertools.permutations` order).  The returned perm relabels the draw as
    new_block[j] = old_block[perm[j]].
    """
    g = len(orders)
    theta_row = np.asarray(theta_row, dtype=float).reshape(-1)
    if theta_row.size != centres.centre.size or theta_row.size % g != 0:
        raise ValueError("draw length must equal the centre length and be a multiple of g")
    perms = _permutations(orders)
    cands = theta_row.reshape(-1, g)[:, perms].transpose(1, 0, 2).reshape(perms.shape[0], -1)
    d = np.sum((cands - centres.centre) ** 2 / centres.variance, axis=1)
    return tuple(perms[int(np.argmin(d))].tolist())


def update_centres(centres: ClusterCentres, theta_row: np.ndarray) -> ClusterCentres:
    """Fold one relabelled draw into the running centres.

    With n draws seen so far, the mean update is (n*mean + theta)/(n+1) and
    the biased variance update is
    n/(n+1)*s2 + n/(n+1)*(mean_old - mean_new)^2 + (theta - mean_new)^2/(n+1).
    """
    theta_row = np.asarray(theta_row, dtype=float).reshape(-1)
    n = centres.count
    mean_new = (n * centres.centre + theta_row) / (n + 1)
    var_new = (
        n / (n + 1) * centres.variance
        + n / (n + 1) * (centres.centre - mean_new) ** 2
        + (theta_row - mean_new) ** 2 / (n + 1)
    )
    return ClusterCentres(centre=mean_new, variance=var_new, count=n + 1)


def relabel_chain(output: ChainOutput, config: RelabelConfig | None = None) -> ChainOutput:
    """Relabel a whole chain; returns a new ChainOutput, input untouched.

    The first m draws define the warm start and keep their labels.  When the
    warm-start variance of some coordinate exceeds a quarter of its
    full-chain variance, a warning suggests the warm window may already
    contain label switches.
    """
    config = config or RelabelConfig()
    if output.g == 1:
        return replace(output)
    config.check_draws(output.n_draws)
    theta_all = feature_matrix(output, config.subset)
    centres = init_centres(theta_all[: config.m])

    full_var = theta_all.var(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(full_var > 0, centres.variance / full_var, 0.0)
    if np.any(ratio > 0.25):
        warnings.warn(
            "warm-start variance exceeds 25% of the full-chain variance for some "
            "coordinate; the warm window may already contain label switches",
            RuntimeWarning,
        )

    g = output.g
    orders = output.orders.tolist()
    perms = np.tile(np.arange(g), (output.n_draws, 1))  # row i relabels draw i
    for i in range(config.m, output.n_draws):
        perm = assign_permutation(theta_all[i], centres, tuple(orders[i]))
        perms[i] = perm
        centres = update_centres(centres, _permute_row(theta_all[i], g, perm))

    rows = np.arange(output.n_draws)[:, None]
    names = ("weights", "shifts", "means", "scales", "ar", "orders")
    return replace(output, **{name: getattr(output, name)[rows, perms] for name in names})
