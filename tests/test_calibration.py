"""Geweke's (2004) joint-distribution test of the Gibbs sweep and its stability veto.

Two simulators of the joint law of parameters theta and data y must agree on
every test function g(theta, y):

* marginal-conditional: theta from the prior, then y from the model given theta;
* successive-conditional: one `gibbs_sweep` given y, then a fresh y given the
  sweep's theta, again and again.

Started from a draw of the joint law, the second keeps that law at every
step only if the sweep leaves the posterior invariant.  The series is short
(six points after fixed start values), so the posterior stays close to the
prior and the whole-sweep stability veto acts on 15-30% of sweeps.  The
hyperparameters are fixed, as `default_hyperparams` would depend on the data.

The prior is the one the sampler targets: Dirichlet(1, ..., 1) weights and AR
blocks flat on the stability region.  At order 1 that region is the ellipsoid
sum_k pi_k phi_k^2 < 1, so the weights are Dirichlet(1/2, ..., 1/2) a priori
and the AR coefficients uniform on the ellipsoid.  A component of order 2
makes the prior improper (its stable coefficients span an area of order
1/pi_k), so at orders (2, 1) the order-2 block is held at an AR(2) that is
explosive on its own, as a reduced evidence chain holds it, and only the
order-1 block moves.

Shifts are fixed at zero.  With free shifts the AR random-walk step holds
the shift phi_k0 fixed while the prior is on the mean mu_k = phi_k0 / (1 -
sum_i phi_ki), and its acceptance leaves out the ratio of that prior; long
chains at orders (2, 1) show the bias, which is left to its mending.
"""

import dataclasses

import numpy as np
import pytest

from mixar import sampler
from mixar.model import MARSpec, TimeSeries
from mixar.sampler import Hyperparams, gibbs_sweep

from helpers import spec_state

T = 6  # design points after the start values
Z_LIMIT = 4.0  # largest |z| over the test functions that counts as agreement
HYPER = Hyperparams(zeta=0.0, kappa=1.0, a=3.0, b=3.0, c=3.0, gamma=10.0, fixed_shift=True)
GAMMA = np.full(2, HYPER.gamma)
PINNED_AR2 = (0.6, 0.5)  # roots of z^2 - 0.6 z - 0.5 reach 1.07: explosive on its own


def kron_radius(weights, phi):
    """Spectral radii of the Kronecker-square stability matrices of stacked (weights, phi)."""
    n, g, p = phi.shape
    a = np.zeros((n, g, p, p))
    a[:, :, 0, :] = phi
    a[:, :, np.arange(1, p), np.arange(p - 1)] = 1.0
    krons = np.einsum("ngij,ngkl->ngikjl", a, a).reshape(n, g, p * p, p * p)
    return np.abs(np.linalg.eigvals(np.einsum("ng,ngij->nij", weights, krons))).max(axis=1)


@dataclasses.dataclass
class Design:
    """A two-component model shape, its prior, and the leading AR blocks the sweep holds."""

    orders: tuple[int, ...]
    start: tuple[float, ...]
    pinned: int

    @property
    def cond(self):
        return max(self.orders)

    def ar_prior(self, rng, n):
        if self.orders == (1, 1):
            pi = rng.dirichlet([0.5, 0.5], size=n)
            u = rng.normal(size=(n, 2))
            u *= (np.sqrt(rng.random(n)) / np.linalg.norm(u, axis=1))[:, None]
            return pi, (u / np.sqrt(pi))[:, :, None]
        # orders (2, 1) with block 1 held: (pi, phi_2) uniform on the stable set,
        # by rejection.  The Stein solution X of a stable model has X_11 >= 1 +
        # pi_2 phi_2^2 X_11, so pi_2 phi_2^2 < 1, and pi ~ Dir(1, 1/2) with
        # phi_2 = v / sqrt(pi_2), v uniform on (-1, 1), proposes uniformly over it
        pis, phis = [], []
        while sum(map(len, pis)) < n:
            pi = rng.dirichlet([1.0, 0.5], size=n)
            phi = np.zeros((n, 2, 2))
            phi[:, 0] = PINNED_AR2
            phi[:, 1, 0] = rng.uniform(-1.0, 1.0, n) / np.sqrt(pi[:, 1])
            keep = kron_radius(pi, phi) < 1.0
            pis.append(pi[keep])
            phis.append(phi[keep])
        return np.concatenate(pis)[:n], np.concatenate(phis)[:n]

    def prior(self, rng, n):
        """(weights, AR matrices, precisions, lambda), one row per draw."""
        pi, phi = self.ar_prior(rng, n)
        lam = rng.gamma(HYPER.a, 1.0 / HYPER.b, size=n)
        tau = rng.gamma(HYPER.c, 1.0 / lam[:, None], size=(n, 2))
        return pi, phi, tau, lam

    def simulate(self, rng, pi, phi, tau, z=None):
        """(y, 0-based labels) for each row of parameters; labels drawn from pi unless given."""
        n, p = pi.shape[0], self.cond
        if z is None:
            z = (rng.random((n, T)) >= pi[:, :1]).astype(int)
        sd = 1.0 / np.sqrt(tau)
        rows = np.arange(n)
        y = np.empty((n, p + T))
        y[:, :p] = self.start
        eps = rng.standard_normal((n, T))
        for t in range(T):
            k = z[:, t]
            lags = y[:, t : t + p][:, ::-1]
            y[:, p + t] = np.einsum("ij,ij->i", phi[rows, k], lags) + sd[rows, k] * eps[:, t]
        return y, z

    def start_state(self, rng, pi, phi, tau, lam):
        ar = tuple(row[:p] for row, p in zip(phi, self.orders))
        spec = MARSpec(pi, np.zeros(2), ar, 1.0 / np.sqrt(tau))
        z = (rng.random(T) >= pi[0]).astype(np.int64)
        return spec_state(spec, np.zeros(2), z + 1, float(lam), self.cond)


P1 = Design(orders=(1, 1), start=(0.5,), pinned=0)
P21 = Design(orders=(2, 1), start=(0.5, -0.3), pinned=1)


def functions_of(design, pi, phi, tau, lam, y, z, joint):
    """Bounded functions of (theta, y), and of the labels when `joint`."""
    yy, lag = y[:, design.cond :], y[:, design.cond - 1 : -1]
    cols = [
        pi[:, 0], *(np.tanh(phi[:, k, 0]) for k in range(design.pinned, 2)),
        (pi * phi[:, :, 0] ** 2).sum(axis=1), np.log(tau[:, 0]), np.log(tau[:, 1]),
        np.log(lam), np.tanh(yy.mean(axis=1)), np.tanh((yy**2).mean(axis=1) / 4.0),
        np.tanh((yy * lag).mean(axis=1) / 4.0),
    ]
    if joint:
        rows = np.arange(len(pi))[:, None]
        cols += [
            np.clip((phi[rows, z, 0] ** 2).mean(axis=1), 0.0, 4.0), (z == 0).mean(axis=1),
            np.log(pi[rows, z]).mean(axis=1),
        ]
    return np.column_stack(cols)


def successive_conditional(design, rng, chains, length, joint):
    """Per-chain means of the test functions along alternating chains, and the veto share.

    Every chain starts from its own draw of the joint law.  The chains are
    independent, so their means give an honest standard error even where a
    chain lingers (deep in the prior's tails most sweeps are vetoed).  When
    `joint`, y is drawn given the labels the chain state carries, so the
    labels are part of the law under test; otherwise y is drawn with fresh
    labels, and only theta is.
    """
    means = []
    vetoes = 0
    for start in zip(*design.prior(rng, chains)):
        state = design.start_state(rng, *start)
        record = []
        for _ in range(length):
            theta = (state.weights, state.phi, 1.0 / state.scales**2)
            labels = (state.z - 1)[None] if joint else None
            y, z = design.simulate(rng, *(a[None] for a in theta), z=labels)
            record.append((*theta, state.lam, y[0], z[0]))
            state, info = gibbs_sweep(state, TimeSeries(y[0]), HYPER, rng, GAMMA, design.pinned)
            vetoes += info.stability_rejected
        columns = [np.array(column) for column in zip(*record)]
        means.append(functions_of(design, *columns, joint).mean(axis=0))
    return np.array(means), vetoes / (chains * length)


def geweke(design, seed, chains=300, length=40, n_mc=40_000, joint=False):
    """z-scores of the successive-conditional means against the marginal-conditional ones."""
    rng = np.random.default_rng(seed)
    theta = design.prior(rng, n_mc)
    mc = functions_of(design, *theta, *design.simulate(rng, *theta[:3]), joint)
    sc, veto_share = successive_conditional(design, rng, chains, length, joint)
    se = np.sqrt(mc.var(axis=0) / mc.shape[0] + sc.var(axis=0, ddof=1) / sc.shape[0])
    return (sc.mean(axis=0) - mc.mean(axis=0)) / se, veto_share


@pytest.mark.parametrize("design", [P1, P21], ids=["orders-1-1", "orders-2-1-pinned"])
def test_sweep_targets_the_constrained_posterior(design):
    z, veto_share = geweke(design, seed=11)
    assert veto_share > 0.1  # the veto binds
    assert np.max(np.abs(z)) < Z_LIMIT, np.round(z, 2)


def test_guard_flags_a_sweep_without_the_veto(monkeypatch):
    # a planted fault: every end-of-sweep candidate passes the stability check
    verdict = type("Verdict", (), {"stable": True})
    monkeypatch.setattr(sampler, "is_stable", lambda weights, phi: verdict)
    z, veto_share = geweke(P1, seed=12, chains=100)
    assert veto_share == 0.0
    assert np.max(np.abs(z)) > Z_LIMIT, np.round(z, 2)


def keep_old_labels(state, series, rng):
    """`gibbs_sweep` on P1, except that a veto also restores the labels of the state before."""
    new_state, info = gibbs_sweep(state, series, HYPER, rng, GAMMA)
    return (state if info.stability_rejected else new_state), info


def test_labels_kept_by_a_veto_never_reach_the_parameters():
    # every sweep draws its labels afresh before it reads any, so the labels
    # a vetoed sweep leaves on the state change no parameter draw: a fault
    # there cannot show in a test of theta alone, only in the joint test below
    rng = np.random.default_rng(13)
    theta = P1.prior(rng, 1)
    a = b = P1.start_state(rng, *(x[0] for x in theta))
    series = TimeSeries(P1.simulate(rng, *theta[:3])[0][0])
    rng, twin = np.random.default_rng(14), np.random.default_rng(14)
    vetoes = 0
    for _ in range(300):
        a, info = gibbs_sweep(a, series, HYPER, rng, GAMMA)
        b, _ = keep_old_labels(b, series, twin)
        vetoes += info.stability_rejected
        for name in ("weights", "shifts", "means", "scales", "phi", "lam"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert vetoes > 10


def test_labels_on_the_state_follow_the_joint_law():
    # a veto keeps the labels the sweep drew from p(z | theta, y); restoring
    # the previous ones biases them, and the reduced evidence chains average
    # over the labels on the state
    z, _ = geweke(P1, seed=16, chains=600, joint=True)
    assert np.max(np.abs(z)) < Z_LIMIT, np.round(z, 2)
