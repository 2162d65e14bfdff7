"""Reversible-jump moves on per-component AR orders.

Each iteration picks one component k uniformly at random and proposes either
a birth (append a coefficient drawn uniformly on (-w, w), default w = 1.5) or
a death (drop the last coefficient).  Birth is proposed with probability
b(p_k), death with d(p_k) = 1 - b(p_k); d(1) = 0 and b(p_max) = 0, both 1/2
in between.  The Jacobian of the identity mapping is one, so the acceptance
probability is the allocated-point likelihood ratio times the move/proposal
ratio:

    birth:  min{1, LR * [d(p_k + 1) / b(p_k)] * 2w}
    death:  min{1, LR * [b(p_k - 1) / d(p_k)] * q(dropped)}

where q is the birth proposal density (q(x) = 1/(2w) on (-w, w), zero
outside): the death move is the birth move reversed, which is what makes the
pair target the order posterior.  Candidates that leave the stability region
are rejected outright.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .model import TimeSeries
from .sampler import ChainOutput, ChainState, Hyperparams, _run, swap_log_alpha, swapped_ar


@dataclass(frozen=True)
class OrderMoveConfig:
    p_max: int = 5
    birth_half_width: float = 1.5

    def __post_init__(self):
        if self.p_max < 1:
            raise ValueError("p_max must be at least 1")
        if not (np.isfinite(self.birth_half_width) and self.birth_half_width > 0):
            raise ValueError("birth_half_width must be positive")

    def birth_prob(self, p: int) -> float:
        """b(p): 1 at p=1, 0 at p_max, 1/2 in between."""
        if not 1 <= p <= self.p_max:
            raise ValueError(f"order {p} outside 1..{self.p_max}")
        if p == self.p_max:
            return 0.0
        if p == 1:
            return 1.0
        return 0.5

    def death_prob(self, p: int) -> float:
        return 1.0 - self.birth_prob(p)


def order_move(
    state: ChainState,
    series: TimeSeries,
    config: OrderMoveConfig,
    k: int,
    rng: np.random.Generator,
) -> tuple[ChainState, str, bool]:
    """One birth/death move on component k; allocations are kept as they are.

    Returns the new state, the direction ("birth", "death", or "none" when
    p_max = 1, where no move exists and nothing is drawn) and whether the
    move was accepted.  The stream gives the direction uniform, a birth's
    new coefficient, then the acceptance uniform, which is drawn even when
    the acceptance probability is zero.
    """
    if config.p_max == 1:
        return state, "none", False
    p = state.orders[k - 1]
    w = config.birth_half_width
    coeffs = state.phi[k - 1, :p]
    if rng.random() < config.birth_prob(p):
        direction = "birth"
        new_coeffs = np.append(coeffs, rng.uniform(-w, w))
        log_move = math.log(config.death_prob(p + 1) / config.birth_prob(p))
        log_q = math.log(2.0 * w)
    else:
        direction = "death"
        new_coeffs = coeffs[:-1].copy()
        log_move = math.log(config.birth_prob(p - 1) / config.death_prob(p))
        log_q = math.log(1.0 / (2.0 * w))
    if direction == "death" and abs(float(coeffs[-1])) >= w:
        log_alpha = -math.inf  # a birth could not have proposed the dropped coefficient
    else:
        log_alpha = swap_log_alpha(state, series, k, new_coeffs, log_move, log_q)
    accepted = rng.random() < math.exp(log_alpha)
    if accepted:
        phi, orders = swapped_ar(state, k, new_coeffs)
        state = replace(state, phi=phi, orders=orders)
    return state, direction, accepted


@dataclass
class OrderTrace:
    """Per-iteration retained order vectors and the birth/death move tallies."""

    orders: np.ndarray
    birth_attempts: int = 0
    birth_accepts: int = 0
    death_attempts: int = 0
    death_accepts: int = 0

    @property
    def total(self) -> int:
        return self.orders.shape[0]

    @property
    def counts(self) -> dict[tuple[int, ...], int]:
        """Retained visits per order configuration, in order of first visit."""
        return dict(Counter(map(tuple, self.orders.tolist())))

    def modal(self) -> tuple[int, ...]:
        """Most visited order configuration; ties resolve lexicographically."""
        counts = self.counts
        if not counts:
            raise ValueError("empty trace")
        return min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]

    def preference(self, orders: tuple[int, ...]) -> float:
        """Share of retained iterations spent at the given configuration."""
        return self.counts.get(tuple(int(p) for p in orders), 0) / self.total


def rjmcmc_run(
    series: TimeSeries,
    g: int,
    hyper: Hyperparams,
    config: OrderMoveConfig,
    seed: int,
) -> tuple[OrderTrace, ChainOutput]:
    """Joint chain over parameters and orders.

    Every likelihood inside the run conditions on the first p_max
    observations so states of different dimension share one data set.  The
    chain starts at all orders 1, and one order move on a uniformly chosen
    component follows each parameter sweep.
    `evidence.marginal_log_likelihood` skips this chain when p_max = 1, where
    the only reachable configuration is all orders 1.
    """
    moves: Counter = Counter()

    def move(state, rng):
        k = int(rng.integers(1, g + 1))
        state, direction, accepted = order_move(state, series, config, k, rng)
        moves[direction, accepted] += 1
        return state

    output = _run(series, g, (1,) * g, hyper, seed, config.p_max, move)
    trace = OrderTrace(
        orders=output.orders,
        birth_attempts=moves["birth", True] + moves["birth", False],
        birth_accepts=moves["birth", True],
        death_attempts=moves["death", True] + moves["death", False],
        death_accepts=moves["death", True],
    )
    return trace, output
