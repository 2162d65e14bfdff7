"""End-to-end checks of the toolkit's advertised guarantees.

One test per guarantee, each printing a single pass/fail line (run with -s
to see them).  Chain runs use frozen seeds so every number below is
reproducible; posterior-mean windows are wide enough to absorb the spread
seen across re-simulated datasets.
"""

import itertools
import json
import math
import time
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import norm

from mixar.cli import main as cli_main
from mixar.datasets import model_a_spec
from mixar.evidence import EvidenceConfig, marginal_log_likelihood
from mixar.forecast import (
    ForecastRequest,
    default_grid,
    posterior_averaged_forecast,
    predictive_density_fixed,
)
from mixar.model import MARSpec, log_likelihood, simulate_path
from mixar.relabel import RelabelConfig, relabel_chain
from mixar.rjmcmc import OrderMoveConfig, rjmcmc_run
from mixar.sampler import ChainOutput, default_hyperparams, run_chain
from mixar.stability import is_stable
from mixar.summary import summarize

QUIET = pytest.mark.filterwarnings("ignore:warm-start variance")

DATA_SEED = 321
FIT_SEED = 322
RJ_SEED = 323
EVIDENCE_SEED = 325


def report(num, label, ok, detail):
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def model_a_series():
    return simulate_path(model_a_spec(), 300, seed=DATA_SEED)


@pytest.fixture(scope="module")
def table2(model_a_series):
    """The 20k/10k two-component fit shared by several criteria."""
    hyper = default_hyperparams(model_a_series)
    start = time.perf_counter()
    output = run_chain(model_a_series, 2, (1, 1), hyper, seed=FIT_SEED)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        output = relabel_chain(output)
    elapsed = time.perf_counter() - start
    phi_means = output.ar[:, :, 0].mean(axis=0)
    low = int(np.argmin(phi_means))
    return {"output": output, "elapsed": elapsed, "low": low, "high": 1 - low}


def test_criterion_01_stability_radius():
    spec = model_a_spec()
    is_stable(spec)  # warm up before timing
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        verdict = is_stable(spec)
        best = min(best, time.perf_counter() - start)
    lone = MARSpec(
        weights=np.array([1.0]),
        shifts=np.zeros(1),
        ar_coeffs=(np.array([1.0]),),
        scales=np.array([1.0]),
    )
    alone = is_stable(lone)
    ok = (
        abs(verdict.spectral_radius - 0.625) <= 1e-12
        and verdict.stable
        and not alone.stable
        and alone.spectral_radius == pytest.approx(1.0, abs=1e-12)
        and best < 1e-3
    )
    report(
        1, "stability radius", ok,
        f"radius {verdict.spectral_radius:.15g}, lone unit-root component "
        f"unstable, {best * 1e3:.3f} ms",
    )


@QUIET
def test_criterion_02_posterior_mean_ranges(table2):
    out = table2["output"]
    lo, hi = table2["low"], table2["high"]
    values = {
        "phi11": out.ar[:, lo, 0].mean(),
        "phi21": out.ar[:, hi, 0].mean(),
        "sigma1": out.scales[:, lo].mean(),
        "sigma2": out.scales[:, hi].mean(),
        "pi1": out.weights[:, lo].mean(),
    }
    windows = {
        "phi11": (-0.60, -0.35),
        "phi21": (0.85, 1.15),
        "sigma1": (0.8, 1.2),
        "sigma2": (1.7, 2.4),
        "pi1": (0.40, 0.70),
    }
    ok = all(windows[k][0] < v < windows[k][1] for k, v in values.items())
    ok = ok and table2["elapsed"] < 180
    detail = ", ".join(f"{k} {v:.3f}" for k, v in values.items())
    report(2, "posterior mean ranges", ok, f"{detail}, {table2['elapsed']:.0f}s")


@QUIET
def test_criterion_03_unit_root_coverage(table2):
    out = table2["output"]
    interval = summarize(out.ar[:, table2["high"], 0], "phi21").hpdr_90
    ok = interval[1] > 1.0
    report(
        3, "unit-root coverage", ok,
        f"90% HPDR for phi21 = ({interval[0]:.3f}, {interval[1]:.3f})",
    )


def test_criterion_04_order_selection(model_a_series):
    hyper = default_hyperparams(
        model_a_series, n_iter=25_000, burn_in=5_000, pilot_iters=2_000
    )
    start = time.perf_counter()
    trace, _ = rjmcmc_run(model_a_series, 2, hyper, OrderMoveConfig(p_max=5), seed=RJ_SEED)
    elapsed = time.perf_counter() - start
    modal = trace.modal()
    preference = trace.preference(modal)
    ok = modal == (1, 1) and preference > 0.5 and elapsed < 300
    report(
        4, "order selection", ok,
        f"modal {modal} preference {preference:.3f}, {elapsed:.0f}s",
    )


@QUIET
def test_criterion_05_evidence_ordering(model_a_series):
    start = time.perf_counter()
    log_ml = {}
    for g in (2, 3):
        hyper = default_hyperparams(
            model_a_series, n_iter=10_000, burn_in=4_000, pilot_iters=2_000
        )
        config = EvidenceConfig(
            order_config=OrderMoveConfig(p_max=1),
            n_j=5_000,
            n_i=5_000,
            reduced_burn_in=500,
            orders=(1,) * g,
        )
        result = marginal_log_likelihood(
            model_a_series, g, hyper, config, seed=EVIDENCE_SEED
        )
        assert result.recompose() == pytest.approx(result.log_marginal, abs=1e-9)
        log_ml[g] = result.log_marginal
    elapsed = time.perf_counter() - start
    ok = (
        np.isfinite(log_ml[2])
        and np.isfinite(log_ml[3])
        and log_ml[2] > log_ml[3]
        and elapsed < 900
    )
    report(
        5, "evidence ordering", ok,
        f"log ML g=2 {log_ml[2]:.2f} > g=3 {log_ml[3]:.2f}, {elapsed:.0f}s",
    )


@QUIET
def test_criterion_06_toy_evidence_quadrature():
    # exact value from a dense 2-D quadrature over (phi, log tau) for the
    # conjugate single-component AR(1) toy problem (8001^2 grid)
    toy_log_ml = -58.357429350547484
    spec = MARSpec(
        weights=np.array([1.0]),
        shifts=np.array([0.0]),
        ar_coeffs=(np.array([0.6]),),
        scales=np.array([1.0]),
    )
    series = simulate_path(spec, 40, seed=123)
    start = time.perf_counter()
    errors = {}
    for seed in (7, 19, 101, 555, 2024):
        hyper = default_hyperparams(
            series, fixed_shift=True, n_iter=4_000, burn_in=1_000, pilot_iters=500
        )
        config = EvidenceConfig(
            order_config=OrderMoveConfig(p_max=1),
            n_j=3_000,
            n_i=3_000,
            reduced_burn_in=300,
        )
        result = marginal_log_likelihood(series, 1, hyper, config, seed=seed)
        errors[seed] = abs(result.log_marginal - toy_log_ml)
    elapsed = time.perf_counter() - start
    worst = max(errors.values())
    ok = worst < 0.1 and elapsed < 120
    report(
        6, "toy evidence vs quadrature", ok,
        f"worst error over 5 seeds {worst:.4f} nats, {elapsed:.0f}s",
    )


TRUE_W = np.array([0.5, 0.3, 0.2])
TRUE_SCALE = np.array([1.0, 2.0, 4.0])
TRUE_SHIFT = np.array([0.0, 1.5, -1.0])
TRUE_AR = np.array([-0.5, 0.4, 0.9])


def three_component_chain(rng, n=600):
    w = np.abs(TRUE_W + rng.normal(0, 0.01, (n, 3)))
    w /= w.sum(axis=1, keepdims=True)
    scales = TRUE_SCALE + rng.normal(0, [0.02, 0.03, 0.05], (n, 3))
    shifts = TRUE_SHIFT + rng.normal(0, 0.05, (n, 3))
    ar = (TRUE_AR + rng.normal(0, 0.02, (n, 3)))[:, :, None]
    means = shifts / (1.0 - ar[:, :, 0])
    return ChainOutput(
        g=3,
        cond=1,
        weights=w,
        shifts=shifts,
        means=means,
        scales=scales,
        ar=ar,
        orders=np.ones((n, 3), dtype=int),
        lam=np.ones(n),
        log_likelihoods=np.zeros(n),
        log_posteriors=np.zeros(n),
        acceptance=np.full(3, 0.2),
        stability_rejections=0,
        gamma=np.ones(3),
        fixed_shift=False,
    )


def permute_rows(output, rows, perm):
    for arr in (output.weights, output.shifts, output.means, output.scales):
        arr[rows] = arr[rows][:, perm]
    output.ar[rows] = output.ar[rows][:, perm, :]


def component_blocks(output):
    return (output.weights, output.scales, output.shifts, output.ar[:, :, 0])


@QUIET
def test_criterion_07_relabel_restoration():
    rng = np.random.default_rng(9)
    output = three_component_chain(rng)
    permute_rows(output, slice(300, None), [0, 2, 1])  # inject a 2-3 swap

    fixed = relabel_chain(output, RelabelConfig(m=150))
    worst = 0.0
    for arr, truth in zip(component_blocks(fixed),
                          (TRUE_W, TRUE_SCALE, TRUE_SHIFT, TRUE_AR)):
        se = arr.std(axis=0, ddof=1) / np.sqrt(arr.shape[0])
        worst = max(worst, float((np.abs(arr.mean(axis=0) - truth) / se).max()))

    # idempotence: a second pass changes nothing
    again = relabel_chain(fixed, RelabelConfig(m=150))
    idempotent = all(
        np.array_equal(a, b)
        for a, b in zip(component_blocks(fixed), component_blocks(again))
    )

    # equivariance: a global label permutation of the input cannot change
    # the relabelled draws beyond one fixed permutation of the labels
    shuffled = three_component_chain(np.random.default_rng(9))
    permute_rows(shuffled, slice(300, None), [0, 2, 1])
    permute_rows(shuffled, slice(None), [2, 0, 1])
    other = relabel_chain(shuffled, RelabelConfig(m=150))
    cost = (
        (fixed.scales.mean(axis=0)[:, None] - other.scales.mean(axis=0)) ** 2
        + (fixed.weights.mean(axis=0)[:, None] - other.weights.mean(axis=0)) ** 2
    )
    align = np.asarray([int(np.argmin(row)) for row in cost])
    equivariant = sorted(align.tolist()) == [0, 1, 2] and all(
        np.allclose(a, b[:, align], atol=1e-12)
        for a, b in zip(component_blocks(fixed), component_blocks(other))
    )

    ok = worst <= 2.0 and idempotent and equivariant
    report(
        7, "relabel restoration", ok,
        f"worst |mean error| = {worst:.2f} MC-SEs, idempotent {idempotent}, "
        f"equivariant {equivariant}",
    )


def brute_force_log_likelihood(spec, series):
    y = series.values
    p = spec.max_order
    g = spec.weights.size
    terms = []
    for z in itertools.product(range(g), repeat=y.size - p):
        logp = 0.0
        for i, k in enumerate(z):
            t = p + i
            pk = spec.ar_coeffs[k].size
            mean = spec.shifts[k] + float(
                np.dot(spec.ar_coeffs[k][::-1], y[t - pk : t])
            )
            logp += math.log(spec.weights[k]) + norm.logpdf(
                y[t], mean, spec.scales[k]
            )
        terms.append(logp)
    return float(logsumexp(terms))


def test_criterion_08_allocation_marginalization():
    spec2 = model_a_spec()
    series2 = simulate_path(spec2, 13, seed=9)  # 2^12 = 4096 allocation paths
    spec4 = MARSpec(
        weights=np.array([0.4, 0.3, 0.2, 0.1]),
        shifts=np.array([0.0, 1.0, -1.0, 2.0]),
        ar_coeffs=(
            np.array([0.5]),
            np.array([-0.3]),
            np.array([0.8]),
            np.array([0.1]),
        ),
        scales=np.array([1.0, 0.5, 2.0, 1.5]),
    )
    series4 = simulate_path(spec4, 7, seed=4)  # 4^6 = 4096 allocation paths
    diffs = [
        abs(brute_force_log_likelihood(spec2, series2) - log_likelihood(spec2, series2)),
        abs(brute_force_log_likelihood(spec4, series4) - log_likelihood(spec4, series4)),
    ]
    ok = max(diffs) < 1e-10
    report(
        8, "allocation marginalization", ok,
        f"log-likelihood differences {diffs[0]:.2e}, {diffs[1]:.2e}",
    )


@QUIET
def test_criterion_09_forecast_consistency(model_a_series, table2):
    spec = model_a_spec()
    start = time.perf_counter()
    grid = default_grid(spec, model_a_series, 300, 2, points=1024, sd_span=8.0)
    exact = predictive_density_fixed(spec, model_a_series, 300, 2, grid, mode="exact")
    mc = predictive_density_fixed(
        spec,
        model_a_series,
        300,
        2,
        grid,
        mode="monte-carlo",
        rng=np.random.default_rng(926),
        mc_paths=100_000,
    )
    dx = grid[1] - grid[0]
    ks = float(np.max(np.abs(np.cumsum(exact) - np.cumsum(mc)) * dx))

    averaged = posterior_averaged_forecast(
        table2["output"], model_a_series, ForecastRequest(horizon=2, thin=200)
    )
    integral = float(np.trapezoid(averaged.mean_density, averaged.grid))
    elapsed = time.perf_counter() - start
    ok = ks <= 0.01 and abs(integral - 1.0) <= 1e-3 and elapsed < 60
    report(
        9, "forecast consistency", ok,
        f"exact vs MC KS {ks:.5f}, averaged integral {integral:.6f}, {elapsed:.0f}s",
    )


@QUIET
def test_criterion_10_replication_modes(tmp_path):
    out = tmp_path / "replicas"
    code = cli_main([
        "replicate",
        "--set", f"output_dir={out}",
        "--set", "spec=A",
        "--set", "replicas=20",
        "--set", "replica_length=300",
        "--set", "n_iter=4000",
        "--set", "burn_in=2000",
        "--set", "pilot_iters=1000",
        "--set", "workers=1",
        "--set", "seed=5150",
    ])
    assert code == 0
    modes = json.loads((out / "manifest.json").read_text())["diagnostics"]["density_modes"]
    truth = {
        "pi_1": 0.5, "pi_2": 0.5,
        "shift_1": 0.0, "shift_2": 0.0,
        "ar_1_1": -0.5, "ar_2_1": 1.0,
        "sigma_1": 1.0, "sigma_2": 2.0,
    }
    worst_loc = 0.0
    worst_scale = 0.0
    ok = True
    for name, true in truth.items():
        err = abs(modes[name] - true)
        if name.startswith("sigma"):
            worst_scale = max(worst_scale, err)
            ok = ok and err <= 0.15
        else:
            worst_loc = max(worst_loc, err)
            ok = ok and err <= 0.05
    report(
        10, "replication density modes", ok,
        f"20 replicas: worst location/AR error {worst_loc:.3f} (<=0.05), "
        f"worst scale error {worst_scale:.3f} (<=0.15)",
    )
