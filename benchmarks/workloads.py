"""The benchmark's workloads: their inputs, their commands and their output checks.

A workload builds its inputs with the program (`mixar simulate`, and for
forecast-B a short `mixar fit`), then times rounds of the same commands.
Every check compares an output with a value that `reference.py` computes
apart from the program, or with an identity the output must satisfy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

# Commands run with one worker: `select` would otherwise start a process pool
# sized to the machine, and the traced run wraps functions in this process only.
COMMON = {"workers": "1"}

FIT_B = {
    "g": "3", "orders": "2,1,1", "n_iter": "1000", "burn_in": "200", "pilot_iters": "500",
}
SELECT_A = {
    "g_range": "1,2", "p_max": "1", "n_iter": "300", "burn_in": "50", "pilot_iters": "500",
    "n_j": "150", "n_i": "150", "reduced_burn_in": "30",
}
FORECAST_FIT_B = {
    "g": "3", "orders": "2,1,1", "n_iter": "450", "burn_in": "200", "pilot_iters": "500",
}
FORECAST_B = {"horizon": "7", "thin": "50", "mc_paths": "4000"}

EVIDENCE_TOLERANCE = 0.75  # nats between the g=1 estimate and the quadrature
EVIDENCE_MARGIN = 20.0  # nats by which g=2 must beat g=1 on spec A
KS_TOLERANCE = 0.01
MC_SIGMAS = 6.0
# trapezoid error allowed on the grid moments, relative to 1, the SD and E[y^2]
EXACT_TOLERANCE = 1e-5


def argv(command: str, settings: dict[str, str]) -> list[str]:
    out = [command]
    for key, value in {**settings, **COMMON}.items():
        out += ["--set", f"{key}={value}"]
    return out


def seeds(seed: int) -> tuple[int, int, int]:
    """Three input seeds (series, chain, forecast) derived from the workload seed."""
    state = np.random.SeedSequence(seed).generate_state(3)
    return tuple(int(s) % 2**31 for s in state)


@dataclass
class Command:
    label: str
    argv: list[str]
    out: Path


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int):
        self.sim_seed, self.chain_seed, self.forecast_seed = seeds(seed)
        self._reference = None

    def setup_commands(self, d: Path) -> list[Command]:
        raise NotImplementedError

    def round_commands(self, inputs: Path, out: Path) -> list[Command]:
        raise NotImplementedError

    def check(self, inputs: Path, commands: list[Command]) -> list[str]:
        """Messages for every check the round's outputs fail (empty when all pass)."""
        raise NotImplementedError

    def _simulate(self, d: Path, spec: str, n: int) -> Command:
        settings = {"output_dir": str(d), "spec": spec, "n": str(n), "seed": str(self.sim_seed)}
        return Command("simulate", argv("simulate", settings), d)


def series(inputs: Path) -> np.ndarray:
    return np.loadtxt(inputs / "series.csv", skiprows=1)


def read_draws(path: Path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, j] for j, name in enumerate(header)}


def draw_params(cols: dict[str, np.ndarray], i: int, g: int):
    """(weights, shifts, means, scales, ar) of draw i, each AR block cut to its order."""
    pick = lambda prefix: np.array([cols[f"{prefix}_{k}"][i] for k in range(1, g + 1)])
    ar = []
    for k in range(1, g + 1):
        order = int(cols[f"order_{k}"][i])
        ar.append(np.array([cols[f"ar_{k}_{j}"][i] for j in range(1, order + 1)]))
    return pick("pi"), pick("shift"), pick("mean"), pick("sigma"), ar


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


class FitB(Workload):
    name = "fit-B"
    why = ("mixar fit, g=3 orders 2,1,1 on 600 spec-B points: Gibbs sweeps with a 4x4 "
           "Kronecker stability check and relabelling over 3! permutations")

    def setup_commands(self, d):
        return [self._simulate(d, "B", 600)]

    def round_commands(self, inputs, out):
        settings = {**FIT_B, "input": str(inputs / "series.csv"), "output_dir": str(out),
                    "seed": str(self.chain_seed)}
        return [Command("fit", argv("fit", settings), out)]

    def check(self, inputs, commands):
        y = series(inputs)
        out = commands[0].out
        cols = read_draws(out / "draws.csv")
        fails = check_fit(y, cols, 3, int(FIT_B["n_iter"]) - int(FIT_B["burn_in"]))
        summaries = json.loads((out / "summaries.json").read_text())
        for name, summary in summaries.items():
            if not close(summary["mean"], float(cols[name].mean()), 1e-9):
                fails.append(f"summary mean of {name} differs from the draws' mean")
        return fails


def check_fit(y, cols, g: int, n_draws: int, sample: int = 40) -> list[str]:
    """Draw count, recomputed loglik and logpost on a sample, stability of every draw."""
    fails = []
    n = cols["iteration"].size
    if n != n_draws:
        return [f"draws file holds {n} draws, expected {n_draws}"]
    hyper = ref.prior_constants(y)
    cond = int(max(cols[f"order_{k}"].max() for k in range(1, g + 1)))
    for i in np.unique(np.linspace(0, n - 1, sample).astype(int)):
        w, sh, mu, sc, ar = draw_params(cols, i, g)
        ll = ref.mixture_loglik(y, w, sh, ar, sc, cond)
        if not close(cols["loglik"][i], ll, 1e-9):
            fails.append(f"draw {i}: loglik {cols['loglik'][i]:.12g} but the reference gives {ll:.12g}")
            break
        lp = ll + ref.log_prior(w, mu, sc, hyper)
        if not close(cols["logpost"][i], lp, 1e-9):
            fails.append(f"draw {i}: logpost {cols['logpost'][i]:.12g} but the reference gives {lp:.12g}")
            break
    for i in range(n):
        w, _, _, _, ar = draw_params(cols, i, g)
        radius = ref.stability_radius(w, ar)
        if not radius < 1.0:
            fails.append(f"draw {i} is unstable: spectral radius {radius:.6f}")
            break
    return fails


class SelectA(Workload):
    name = "select-A"
    why = ("mixar select, g=1,2 p_max=1 on 300 spec-A points: order chain, refit and 2g+3 "
           "masked reduced chains with a 1x1 stability test per draw")

    def setup_commands(self, d):
        return [self._simulate(d, "A", 300)]

    def round_commands(self, inputs, out):
        settings = {**SELECT_A, "input": str(inputs / "series.csv"), "output_dir": str(out),
                    "seed": str(self.chain_seed)}
        return [Command("select", argv("select", settings), out)]

    def check(self, inputs, commands):
        if self._reference is None:
            y = series(inputs)
            self._reference = ref.ar1_log_evidence(y, ref.prior_constants(y))
        report = json.loads((commands[0].out / "evidence.json").read_text())
        return check_evidence(report, self._reference, int(SELECT_A["p_max"]))


def check_evidence(report, quadrature: float, p_max: int) -> list[str]:
    fails = []
    models = {m["g"]: m for m in report["models"]}
    if sorted(models) != [1, 2]:
        return [f"evidence report covers g={sorted(models)}, expected 1 and 2"]
    for g, m in models.items():
        p = m["parts"]
        total = (p["log_likelihood"] + p["log_prior"] + p["log_order_prior"]
                 - p["log_phi_ordinate"] - p["log_mu_ordinate"] - p["log_tau_ordinate"]
                 - p["log_pi_ordinate"] - p["log_order_posterior"])
        if not close(m["log_marginal"], total, 1e-10):
            fails.append(f"g={g}: log_marginal {m['log_marginal']!r} is not the sum of its parts {total!r}")
        if not close(p["log_order_prior"], -g * math.log(p_max), 1e-12):
            fails.append(f"g={g}: log_order_prior {p['log_order_prior']!r}, expected -g log p_max")
        if m["orders"] != [1] * g:
            fails.append(f"g={g}: orders {m['orders']}, expected all 1 under p_max=1")
        if not close(m["log_p_g"], -math.log(len(models)), 1e-12):
            fails.append(f"g={g}: log_p_g {m['log_p_g']!r}, expected -log {len(models)}")
    err = models[1]["log_marginal"] - quadrature
    if abs(err) > EVIDENCE_TOLERANCE:
        fails.append(f"g=1 log_marginal {models[1]['log_marginal']:.4f} is {err:+.4f} nats "
                     f"from the quadrature {quadrature:.4f}")
    if report["best_g"] != 2:
        fails.append(f"best_g is {report['best_g']}, expected 2")
    margin = models[2]["log_marginal"] - models[1]["log_marginal"]
    if margin < EVIDENCE_MARGIN:
        fails.append(f"g=2 beats g=1 by {margin:.2f} nats, expected at least {EVIDENCE_MARGIN}")
    return fails


class ForecastB(Workload):
    name = "forecast-B"
    why = ("mixar forecast, h=7 at g=3 (2187 paths per draw) on a short spec-B fit, once exact "
           "and once Monte Carlo: no sampling, reads a draws file")

    def setup_commands(self, d):
        settings = {**FORECAST_FIT_B, "input": str(d / "series.csv"), "output_dir": str(d),
                    "seed": str(self.chain_seed)}
        return [self._simulate(d, "B", 600), Command("fit", argv("fit", settings), d)]

    def round_commands(self, inputs, out):
        base = {**FORECAST_B, "input": str(inputs / "series.csv"),
                "draws": str(inputs / "draws.csv"), "seed": str(self.forecast_seed)}
        return [
            Command("forecast-exact", argv("forecast", {**base, "mode": "exact",
                                                        "output_dir": str(out / "exact")}), out / "exact"),
            Command("forecast-mc", argv("forecast", {**base, "mode": "monte-carlo",
                                                     "output_dir": str(out / "mc")}), out / "mc"),
        ]

    def check(self, inputs, commands):
        x, exact = read_grid(commands[0].out)
        x_mc, mc = read_grid(commands[1].out)
        if not np.array_equal(x, x_mc):
            return ["exact and Monte Carlo forecasts use different grids"]
        if self._reference is None or not np.array_equal(self._reference[0], x):
            self._reference = (x, *forecast_reference(inputs, x))
        _, density, expected, scale, mc_error = self._reference
        fails = []
        gap = float(np.max(np.abs(exact - density)))
        if gap > 1e-9 * density.max():
            fails.append(f"exact density is up to {gap:.3g} from the reference path mixture")
        for label, f, tol in (("exact", exact, EXACT_TOLERANCE * scale), ("monte-carlo", mc, mc_error)):
            # moment 0 is the mass on the grid: with the reference's mass beyond
            # the grid's ends it must make 1
            got = ref.raw_moments(x, f)
            for j in range(3):
                if abs(got[j] - expected[j]) > tol[j]:
                    fails.append(f"{label}: grid moment {j} is {got[j]:.8g}, reference {expected[j]:.8g}")
        ks = ref.ks_distance(x, exact, mc)
        if ks > KS_TOLERANCE:
            fails.append(f"exact vs Monte Carlo KS distance {ks:.5f} > {KS_TOLERANCE}")
        return fails


def read_grid(out: Path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(out / "forecast.csv", delimiter=",", skiprows=1)
    return data[:, 0], data[:, 1]


def forecast_reference(inputs: Path, x: np.ndarray):
    """The averaged exact density on x, the moments the grid should hold, and their MC error.

    The predictive mean and variance come from the moment recursion; the
    part of each raw moment that lies beyond the grid's ends comes from the
    path mixture and is taken off, since the grid cannot hold it.
    """
    horizon, thin = int(FORECAST_B["horizon"]), int(FORECAST_B["thin"])
    y = series(inputs)
    cols = read_draws(inputs / "draws.csv")
    g = sum(1 for name in cols if name.startswith("pi_"))
    idx = range(0, cols["iteration"].size, thin)
    density = np.zeros_like(x)
    moments = np.zeros(3)
    for i in idx:
        w, sh, _, sc, ar = draw_params(cols, i, g)
        recent = y[-max(len(c) for c in ar):]
        paths = ref.path_mixture(w, sh, ar, sc, recent, horizon)
        density += ref.mixture_density(*paths, x)
        mean, var = ref.predictive_moments(w, sh, ar, sc, recent, horizon)
        moments += np.array([1.0, mean, var + mean**2]) - ref.tail_moments(*paths, x[0], x[-1])
    n = len(idx)
    moments /= n
    var = moments[2] - moments[1] ** 2
    scale = np.array([1.0, math.sqrt(var), moments[2]])
    # Monte Carlo: each raw moment averages n * mc_paths continuations; allow
    # MC_SIGMAS standard errors, with Var(Y^2) taken as 2 var^2 + 4 mean^2 var
    # and the mass on the grid as a binomial share
    paths = n * int(FORECAST_B["mc_paths"])
    spread = np.array([1.0 - moments[0], var, 2 * var**2 + 4 * moments[1] ** 2 * var])
    mc_error = MC_SIGMAS * np.sqrt(spread / paths) + EXACT_TOLERANCE * scale
    return density / n, moments, scale, mc_error


WORKLOADS = {w.name: w for w in (FitB, SelectA, ForecastB)}
