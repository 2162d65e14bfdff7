"""Stream pinning: fixed-seed chains, order moves and evidence reproduce exact values.

Each fingerprint was recorded once and is compared with ==, so any change to
the arithmetic of a kernel or to the order of random draws fails here, even
one too small for a statistical test to see.  numpy's vectorized exp and log
may round differently on another instruction set; re-record the values (and
say why) only when that, not the sampler, is what changed.
"""

import numpy as np
import pytest

from mixar.datasets import model_a_spec, model_b_spec
from mixar.evidence import EvidenceConfig, marginal_log_likelihood
from mixar.model import TimeSeries, simulate_path
from mixar.rjmcmc import OrderMoveConfig, rjmcmc_run
from mixar.sampler import Hyperparams, default_hyperparams, run_chain


def chain_fingerprint(out):
    """Log likelihoods, the last draw's parameters and the run diagnostics."""
    return {
        "log_likelihood_sum": float(out.log_likelihoods.sum()),
        "last_log_likelihood": float(out.log_likelihoods[-1]),
        "last_log_posterior": float(out.log_posteriors[-1]),
        "last_draw": [
            *out.weights[-1].tolist(), *out.shifts[-1].tolist(), *out.means[-1].tolist(),
            *out.scales[-1].tolist(), *out.ar[-1].ravel().tolist(), float(out.lam[-1]),
        ],
        "acceptance": out.acceptance.tolist(),
        "stability_rejections": out.stability_rejections,
        "gamma": out.gamma.tolist(),
    }


def spec_a_chain():
    series = simulate_path(model_a_spec(), 300, seed=41)
    hyper = default_hyperparams(series, n_iter=400, burn_in=100, pilot_iters=500)
    return chain_fingerprint(run_chain(series, 2, (1, 1), hyper, seed=42))


def spec_b_chain():
    series = simulate_path(model_b_spec(), 400, seed=43)
    hyper = default_hyperparams(series, n_iter=400, burn_in=100, pilot_iters=500)
    return chain_fingerprint(run_chain(series, 3, (2, 1, 1), hyper, seed=44))


def order_chain():
    series = simulate_path(model_a_spec(), 200, seed=45)
    hyper = default_hyperparams(series, n_iter=500, burn_in=100, pilot_iters=500)
    trace, out = rjmcmc_run(series, 2, hyper, OrderMoveConfig(p_max=3), seed=46)
    return {
        "tallies": [trace.birth_attempts, trace.birth_accepts,
                    trace.death_attempts, trace.death_accepts],
        "last_orders": out.orders[-1].tolist(),
        "order_visits": sorted(trace.counts.items()),
        **chain_fingerprint(out),
    }


def evidence_parts():
    series = simulate_path(model_a_spec(), 150, seed=47)
    hyper = default_hyperparams(series, n_iter=400, burn_in=100, pilot_iters=500)
    config = EvidenceConfig(
        order_config=OrderMoveConfig(p_max=1), n_j=150, n_i=150, reduced_burn_in=30
    )
    result = marginal_log_likelihood(series, 2, hyper, config, seed=48)
    return {"log_marginal": result.log_marginal, **result.parts}


SPEC_A_CHAIN = {
    "log_likelihood_sum": -193669.94496455113,
    "last_log_likelihood": -645.4763078003899,
    "last_log_posterior": -653.4156394275933,
    "last_draw": [
        0.4658666379891267, 0.5341333620108734, 0.14344623305079432, 0.0313555566956554,
        0.09605799487898845, 1.3478460100250784, 0.9696891876071482, 2.2095977896244388,
        -0.517600763444645, 0.9767365437428034, 1.8088110408330529,
    ],
    "acceptance": [0.265, 0.375],
    "stability_rejections": 0,
    "gamma": [67.01144027268114, 28.692608465858655],
}

SPEC_B_CHAIN = {
    "log_likelihood_sum": -264974.1233103273,
    "last_log_likelihood": -882.8354883672346,
    "last_log_posterior": -891.1536191251238,
    "last_draw": [
        0.1376340677968718, 0.5939338911578014, 0.26843204104532686, -0.3313903793150723,
        -0.3162026928848931, 1.1918348153619294, 0.2664419825192607, -0.2388994392553697,
        0.6064330272453902, 3.498293531259274, 1.4935137051225253, 1.4617607517931073,
        1.6160583591890436, 0.6277035141528068, -0.3235807244691381, 0.0, -0.9653197662660599, 0.0,
        3.728782506264079,
    ],
    "acceptance": [0.3125, 0.27, 0.3125],
    "stability_rejections": 0,
    "gamma": [7.361199418157982, 38.86731845664902, 14.957675049001043],
}

ORDER_CHAIN = {
    "tallies": [381, 27, 119, 27],
    "last_orders": [1, 1],
    "order_visits": [
        ((1, 1), 216), ((1, 2), 26), ((1, 3), 80), ((2, 1), 17), ((2, 2), 2), ((2, 3), 57),
        ((3, 1), 1), ((3, 2), 1),
    ],
    "log_likelihood_sum": -147767.99891078018,
    "last_log_likelihood": -369.8565484806442,
    "last_log_posterior": -377.8644308474819,
    "last_draw": [
        0.4873091541606604, 0.5126908458393397, -0.19458226314303834, 0.08495913566549686,
        -0.14700239910809124, -0.5109565424741844, 0.8876132413679285, 1.6739468637991026,
        -0.3540966965624166, 0.0, 0.0, 1.166274680140316, 0.0, 0.0, 2.8975150838077184,
    ],
    "acceptance": [0.218, 0.192],
    "stability_rejections": 0,
    "gamma": [25.30873953490633, 9.13620785771384],
}

EVIDENCE_PARTS = {
    "log_marginal": -326.1623100981925,
    "log_likelihood": -311.11624956393973,
    "log_prior": -7.498248110470556,
    "log_order_prior": -0.0,
    "log_phi_ordinate": 3.44876639891606,
    "log_mu_ordinate": -0.623520756025715,
    "log_tau_ordinate": 2.7527346295413944,
    "log_pi_ordinate": 1.9698321513504133,
    "log_order_posterior": 0.0,
    "log_phi_ordinate_1": 1.9025545081656627,
    "log_phi_ordinate_2": 1.5462118907503974,
}


def test_spec_a_chain_is_pinned():
    assert spec_a_chain() == SPEC_A_CHAIN


def test_spec_b_chain_is_pinned():
    assert spec_b_chain() == SPEC_B_CHAIN


def test_order_chain_is_pinned():
    assert order_chain() == ORDER_CHAIN


def test_evidence_parts_are_pinned():
    with pytest.warns(RuntimeWarning, match="warm-start variance"):
        parts = evidence_parts()
    assert parts == EVIDENCE_PARTS


# Paths the four pins above leave out: one component (every point in one
# row), the evidence parts at g=1 in the shape `select` runs them, and a
# fixed-shift chain, where the sweep skips the means block.


def single_component_chain():
    series = simulate_path(model_a_spec(), 300, seed=49)
    hyper = default_hyperparams(series, n_iter=400, burn_in=100, pilot_iters=500)
    return chain_fingerprint(run_chain(series, 1, (1,), hyper, seed=50))


def single_component_evidence_parts():
    series = simulate_path(model_a_spec(), 300, seed=51)
    hyper = default_hyperparams(series, n_iter=300, burn_in=50, pilot_iters=500)
    config = EvidenceConfig(
        order_config=OrderMoveConfig(p_max=1), n_j=150, n_i=150, reduced_burn_in=30
    )
    result = marginal_log_likelihood(series, 1, hyper, config, seed=52)
    return {"log_marginal": result.log_marginal, **result.parts}


def fixed_shift_chain():
    series = simulate_path(model_a_spec(), 300, seed=53)
    hyper = default_hyperparams(
        series, fixed_shift=True, n_iter=400, burn_in=100, pilot_iters=500
    )
    return chain_fingerprint(run_chain(series, 2, (2, 1), hyper, seed=54))


SINGLE_COMPONENT_CHAIN = {
    "log_likelihood_sum": -216588.38683642886,
    "last_log_likelihood": -721.4526902915754,
    "last_log_posterior": -723.9917088869498,
    "last_draw": [
        1.0, -0.17994241776463585, -0.2192842216328938, 2.841057735589911,
        0.17941009879917624, 20.004786998679574,
    ],
    "acceptance": [0.2525],
    "stability_rejections": 0,
    "gamma": [13.989639618383672],
}

SINGLE_COMPONENT_EVIDENCE_PARTS = {
    "log_marginal": -690.4587961896609,
    "log_likelihood": -681.3555654862255,
    "log_prior": -2.7925040725486934,
    "log_order_prior": -0.0,
    "log_phi_ordinate": 2.1402680740894575,
    "log_mu_ordinate": 0.8623330722661438,
    "log_tau_ordinate": 3.3081254845311125,
    "log_pi_ordinate": 0.0,
    "log_order_posterior": 0.0,
    "log_phi_ordinate_1": 2.1402680740894575,
}

FIXED_SHIFT_CHAIN = {
    "log_likelihood_sum": -182507.45926180677,
    "last_log_likelihood": -613.5881005774216,
    "last_log_posterior": -615.9421005753684,
    "last_draw": [
        0.5544803986240726, 0.44551960137592744, 0.0, 0.0, 0.0, 0.0, 1.0567203490393688,
        1.5660154484681494, -0.5064552636321273, -0.03237253847245853, 1.2676403142307224, 0.0,
        2.732436400124722,
    ],
    "acceptance": [0.2275, 0.3225],
    "stability_rejections": 0,
    "gamma": [113.70728132340467, 16.495080486064218],
}


def test_single_component_chain_is_pinned():
    assert single_component_chain() == SINGLE_COMPONENT_CHAIN


def test_single_component_evidence_parts_are_pinned():
    assert single_component_evidence_parts() == SINGLE_COMPONENT_EVIDENCE_PARTS


def test_fixed_shift_chain_is_pinned():
    assert fixed_shift_chain() == FIXED_SHIFT_CHAIN


# A chain whose whole-sweep stability veto binds: seven points, so the
# posterior stays close to the prior and many end-of-sweep candidates are
# unstable.  The pins above all have no rejection.


def vetoed_chain():
    series = TimeSeries(np.array([0.3, -1.1, 0.8, 1.9, -0.4, 0.2, -1.5]))
    hyper = Hyperparams(
        zeta=0.0, kappa=1.0, a=3.0, b=3.0, c=3.0, n_iter=400, burn_in=100, pilot_iters=500
    )
    return chain_fingerprint(run_chain(series, 2, (1, 1), hyper, seed=55))


VETOED_CHAIN = {
    "log_likelihood_sum": -3125.3447730988755,
    "last_log_likelihood": -10.768882508044276,
    "last_log_posterior": -16.44800587581601,
    "last_draw": [
        0.13862228796045517, 0.8613777120395448, -0.05157754465028434, -0.6014507768702475,
        0.2284008809160532, -0.44496056793500727, 0.7276340130424188, 1.572857831666756,
        0.5776303562289002, -0.5051438734436733, 0.8553465378371911,
    ],
    "acceptance": [0.48, 0.505],
    "stability_rejections": 78,
    "gamma": [0.552228002658792, 0.47057075013297034],
}


def test_vetoed_chain_is_pinned():
    assert vetoed_chain() == VETOED_CHAIN
