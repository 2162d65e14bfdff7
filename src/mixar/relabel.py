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
from dataclasses import replace

import numpy as np

from .config import RelabelConfig
from .model import ChainOutput

def feature_matrix(output: ChainOutput, subset: tuple[str, ...]) -> np.ndarray:
    """(n_draws, q) matrix of the selected blocks, block order as given."""
    blocks = {"weights": output.weights, "scales": output.scales, "shifts": output.shifts}
    return np.concatenate([blocks[name] for name in subset], axis=1)


def init_centres(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Warm-start centres and variances from the first m draws (rows of theta).

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
    return centre, variance


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
    theta_row: np.ndarray, centre: np.ndarray, variance: np.ndarray, orders: tuple[int, ...]
) -> tuple[int, ...]:
    """Permutation of components minimizing the variance-normalized squared distance.

    theta_row, centre and variance are (q,) arrays of g-long blocks; only the
    permutations that keep every component's order are scored, all at once.
    Ties go to the first minimum in `itertools.permutations` order.  The perm
    relabels the draw as new_block[j] = old_block[perm[j]].
    """
    perms = _permutations(orders)
    g = perms.shape[1]
    cands = theta_row.reshape(-1, g)[:, perms].transpose(1, 0, 2).reshape(perms.shape[0], -1)
    d = np.sum((cands - centre) ** 2 / variance, axis=1)
    return tuple(perms[int(np.argmin(d))].tolist())


def update_centres(
    centre: np.ndarray, variance: np.ndarray, n: int, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fold the relabelled draw x into centres and biased variances over n draws."""
    new = (n * centre + x) / (n + 1)
    var = n / (n + 1) * variance + n / (n + 1) * (centre - new) ** 2 + (x - new) ** 2 / (n + 1)
    return new, var


def relabel_chain(output: ChainOutput, config: RelabelConfig | None = None) -> ChainOutput:
    """Relabel a whole chain; returns a new ChainOutput, input untouched.

    The first m draws define the warm start and keep their labels.  When the
    warm-start variance of some coordinate exceeds a quarter of its
    full-chain variance, a warning suggests the warm window may already
    contain label switches.  The result's `relabelling` counts the draws
    given another labelling and says whether that warning fired.
    """
    config = config or RelabelConfig()
    if output.g == 1:
        return replace(output, relabelling={"draws_permuted": 0, "warm_window_warning": False})
    config.check_chain(output.n_draws, output.fixed_shift)
    theta_all = feature_matrix(output, config.subset)
    centre, variance = init_centres(theta_all[: config.m])

    full_var = theta_all.var(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(full_var > 0, variance / full_var, 0.0)
    warned = bool(np.any(ratio > 0.25))
    if warned:
        warnings.warn(
            "warm-start variance exceeds 25% of the full-chain variance for some "
            "coordinate; the warm window may already contain label switches",
            RuntimeWarning,
        )

    g = output.g
    orders = [tuple(row) for row in output.orders.tolist()]
    perms = np.tile(np.arange(g), (output.n_draws, 1))  # row i relabels draw i
    for i in range(config.m, output.n_draws):
        perm = assign_permutation(theta_all[i], centre, variance, orders[i])
        perms[i] = perm
        x = theta_all[i].reshape(-1, g)[:, perm].reshape(-1)
        centre, variance = update_centres(centre, variance, i, x)  # i draws folded in so far

    rows = np.arange(output.n_draws)[:, None]
    names = ("weights", "shifts", "means", "scales", "ar", "orders")
    report = {"draws_permuted": int(np.any(perms != np.arange(g), axis=1).sum()),
              "warm_window_warning": warned}
    return replace(output, relabelling=report,
                   **{name: getattr(output, name)[rows, perms] for name in names})
