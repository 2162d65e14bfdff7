"""Traced run: where a workload's command time goes, module by module.

The commands run in this process through `mixar.cli.main`, each once plain
and once traced.  Tracing replaces a module's public functions with wrappers
that record a span per call; the wrappers live here only.  A name imported
with `from .x import y` is a separate binding in the importing module, so
each wrapper is installed on every mixar module that binds the function
(`is_stable`, for one, is looked up in `sampler`, `evidence` and `rjmcmc`).

A span's self time is its duration minus the spans inside it, and a layer's
`busy_s` is the self time of its spans.  `cli.other_s` is command time no
other span covers, so the layer self times plus `cli.other_s` add up to the
traced command time; the run checks that they do.  Phase metrics
(`sampler.pilot_s`, `evidence.*_chain_s`, `evidence.*_ordinate_s`) are span
durations including the spans inside them.  Per-layer values are means per
round of the workload's commands.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import reference as ref
from launch import CommandFailed
from workloads import read_draws

WRAPPED = {
    "model": ("log_likelihood",),
    "stability": ("is_stable",),
    "sampler": ("run_chain", "tune_gamma", "gibbs_sweep", "initial_state", "default_hyperparams"),
    "rjmcmc": ("rjmcmc_run", "order_move"),
    "evidence": (
        "select_g", "marginal_log_likelihood", "starred_point", "estimate_phi_ordinate",
        "estimate_mu_ordinate", "estimate_tau_ordinate", "estimate_pi_ordinate",
    ),
    "relabel": ("relabel_chain", "assign_permutation"),
    "summary": ("summarize",),
    "io": ("read_series_csv", "read_draws_csv", "write_draws_csv", "write_json",
           "write_manifest", "write_grid_csv"),
    "forecast": ("posterior_averaged_forecast", "default_grid", "predictive_density_fixed"),
}
ORDINATES = ("phi", "mu", "tau", "pi")
IMPORTS = 3


class Tracer:
    """Span bookkeeping: self and total seconds and calls per span name, plus counters."""

    def __init__(self):
        self.stack: list[list[float]] = []
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.count: Counter = Counter()
        self.active: Counter = Counter()

    def span(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = [0.0]
            self.stack.append(inner)
            self.active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                self.active[name] -= 1
                self.stack.pop()
                if self.stack:
                    self.stack[-1][0] += dt
                self.self_s[name] += dt - inner[0]
                self.total_s[name] += dt
                self.calls[name] += 1
            if observe is not None:
                observe(self, dt, result, args, kwargs)
            return result

        return wrapper


def _observe_sweep(tr: Tracer, dt, result, args, kwargs):
    info = result[1]
    tr.count["rwm_attempted"] += int(info.attempted.sum())
    tr.count["rwm_accepted"] += int(info.accepted.sum())
    tr.count["vetoes"] += int(info.stability_rejected)
    if tr.active["rjmcmc.rjmcmc_run"]:
        tr.count["rjmcmc_sweeps"] += 1
    if any(tr.active[f"evidence.estimate_{o}_ordinate"] for o in ORDINATES):
        tr.count["reduced_sweeps"] += 1


def _observe_stable(tr: Tracer, dt, result, args, kwargs):
    tr.count["unstable"] += int(not result.stable)


def _observe_run_chain(tr: Tracer, dt, result, args, kwargs):
    if tr.active["evidence.marginal_log_likelihood"]:
        tr.count["fit_chain_s"] += dt


def _observe_assign(tr: Tracer, dt, result, args, kwargs):
    tr.count["permuted"] += int(tuple(result) != tuple(range(len(result))))


def _observe_draws_file(tr: Tracer, dt, result, args, kwargs):
    tr.count["draws_bytes"] += Path(args[0]).stat().st_size


def _density_observer(fn):
    signature = inspect.signature(fn)

    def observe(tr: Tracer, dt, result, args, kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        a = call.arguments
        tr.count["forecast_draws"] += 1
        if a["horizon"] > 1 and a["mode"] == "exact":
            tr.count["exact_paths"] += a["spec"].g ** a["horizon"]
        elif a["horizon"] > 1:
            tr.count["mc_paths"] += a["mc_paths"]

    return observe


OBSERVERS = {
    "sampler.gibbs_sweep": _observe_sweep,
    "sampler.run_chain": _observe_run_chain,
    "stability.is_stable": _observe_stable,
    "relabel.assign_permutation": _observe_assign,
    "io.write_draws_csv": _observe_draws_file,
    "io.read_draws_csv": _observe_draws_file,
}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Put a wrapper in every binding of each traced function; restore them on exit."""
    modules = [m for name, m in list(sys.modules.items()) if name == "mixar" or name.startswith("mixar.")]
    undo = []
    for layer, names in WRAPPED.items():
        home = importlib.import_module(f"mixar.{layer}")
        for name in names:
            original = getattr(home, name)
            span = f"{layer}.{name}"
            observe = OBSERVERS.get(span)
            if span == "forecast.predictive_density_fixed":
                observe = _density_observer(original)
            wrapper = tracer.span(span, original, observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))
    spec_cls = importlib.import_module("mixar.model").MARSpec
    post_init = spec_cls.__post_init__
    spec_cls.__post_init__ = tracer.span("model.MARSpec", post_init)
    undo.append((spec_cls, "__post_init__", post_init))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def run_in_process(main, cmd) -> tuple[int, float]:
    cmd.out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(cmd.argv))
    return code, time.perf_counter() - start


def fit_ess(out: Path) -> float:
    """Smallest ESS over the parameters that `mixar fit` summarizes."""
    cols = read_draws(out / "draws.csv")
    g = sum(1 for name in cols if name.startswith("pi_"))
    names = ["lambda"]
    for k in range(1, g + 1):
        names += [f"pi_{k}", f"shift_{k}", f"mean_{k}", f"sigma_{k}"]
        names += [f"ar_{k}_{i}" for i in range(1, int(cols[f"order_{k}"].max()) + 1)]
    return min(ref.ess_geyer(cols[name]) for name in names)


def traced_rounds(workload, inputs: Path, work: Path, seconds: float, src: Path, run_process) -> dict:
    start = time.perf_counter()
    import_s = []
    for _ in range(IMPORTS):
        code, wall, _, err = run_process([sys.executable, "-c", "import mixar.cli"])
        if code != 0:
            raise CommandFailed(f"import mixar.cli exited {code}: {err}")
        import_s.append(wall)
    sys.path.insert(0, str(src))
    cli = importlib.import_module("mixar.cli")

    tracer = Tracer()
    plain_s = Counter()
    traced_s = 0.0
    ess = []
    fails: list[str] = []
    attempted = failed = rounds = 0
    round_times = []
    while True:
        round_start = time.perf_counter()
        commands = workload.round_commands(inputs, work / "round")
        for cmd in commands:
            code, wall = run_in_process(cli.main, cmd)
            attempted += 1
            plain_s[cmd.label] += wall
            if code != 0:
                failed += 1
                fails.append(f"{cmd.label} exited {code} in process")
                continue
            if cmd.label == "fit":
                ess.append(fit_ess(cmd.out))
            self_before = sum(tracer.self_s.values())
            span_before = tracer.total_s["cli.main"]
            with installed(tracer):
                code, wall = run_in_process(tracer.span("cli.main", cli.main), cmd)
            attempted += 1
            traced_s += wall
            if code != 0:
                failed += 1
                fails.append(f"{cmd.label} exited {code} in process, traced")
                continue
            covered = sum(tracer.self_s.values()) - self_before
            span = tracer.total_s["cli.main"] - span_before
            if abs(covered - span) > 1e-6 * span or tracer.stack:
                fails.append(f"{cmd.label}: layer self times add up to {covered:.6f} s "
                             f"but the traced command took {span:.6f} s")
        if not fails:
            fails += workload.check(inputs, commands)
        rounds += 1
        round_times.append(time.perf_counter() - round_start)
        if time.perf_counter() - start >= seconds:
            break
    return {
        "attempted": attempted,
        "failed": failed,
        "fails": fails,
        "metrics": layer_metrics(tracer, rounds, import_s, plain_s, traced_s, ess, len(commands)),
        "log": f"{rounds} traced rounds, round times " + " ".join(f"{t:.3f}" for t in round_times) + " s",
    }


def layer_metrics(tr: Tracer, rounds, import_s, plain_s, traced_s, ess, per_round) -> dict:
    per = lambda x: float(x) / rounds
    ratio = lambda a, b: float(a) / b if b else 0.0
    busy = Counter()
    for name, value in tr.self_s.items():
        busy[name.split(".", 1)[0]] += value
    sweeps = tr.calls["sampler.gibbs_sweep"]
    plain_total = sum(plain_s.values())
    values = {
        "cli.import_s": (statistics.median(import_s), "s"),
        "cli.command_s": (per(tr.total_s["cli.main"]), "s"),
        "cli.other_s": (per(busy["cli"]), "s"),
        "cli.forecast_exact_s": (per(plain_s["forecast-exact"]), "s"),
        "cli.forecast_mc_s": (per(plain_s["forecast-mc"]), "s"),
        "trace.overhead_s": ((traced_s - plain_total) / (rounds * per_round), "s"),
        "sampler.sweeps": (per(sweeps), "count"),
        "sampler.sweep_us": (1e6 * ratio(tr.self_s["sampler.gibbs_sweep"], sweeps), "us"),
        "sampler.pilot_s": (per(tr.total_s["sampler.tune_gamma"]), "s"),
        "sampler.rwm_accept": (ratio(tr.count["rwm_accepted"], tr.count["rwm_attempted"]), "share"),
        "sampler.veto_share": (ratio(tr.count["vetoes"], sweeps), "share"),
        "sampler.ess_min": (statistics.median(ess) if ess else 0.0, "count"),
        "sampler.ess_per_s": (ratio(statistics.median(ess), per(plain_s["fit"])) if ess else 0.0, "1/s"),
        "sampler.busy_s": (per(busy["sampler"]), "s"),
        "stability.calls": (per(tr.calls["stability.is_stable"]), "count"),
        "stability.call_us": (1e6 * ratio(tr.self_s["stability.is_stable"], tr.calls["stability.is_stable"]), "us"),
        "stability.unstable_share": (ratio(tr.count["unstable"], tr.calls["stability.is_stable"]), "share"),
        "stability.busy_s": (per(busy["stability"]), "s"),
        "model.spec_builds": (per(tr.calls["model.MARSpec"]), "count"),
        "model.spec_build_s": (per(tr.self_s["model.MARSpec"]), "s"),
        "model.busy_s": (per(busy["model"]), "s"),
        "rjmcmc.sweeps": (per(tr.count["rjmcmc_sweeps"]), "count"),
        "rjmcmc.busy_s": (per(busy["rjmcmc"]), "s"),
        "evidence.order_chain_s": (per(tr.total_s["rjmcmc.rjmcmc_run"]), "s"),
        "evidence.fit_chain_s": (per(tr.count["fit_chain_s"]), "s"),
        **{f"evidence.{o}_ordinate_s": (per(tr.total_s[f"evidence.estimate_{o}_ordinate"]), "s")
           for o in ORDINATES},
        "evidence.reduced_sweeps": (per(tr.count["reduced_sweeps"]), "count"),
        "evidence.busy_s": (per(busy["evidence"]), "s"),
        "relabel.busy_s": (per(busy["relabel"]), "s"),
        "relabel.assign_us": (1e6 * ratio(tr.self_s["relabel.assign_permutation"],
                                          tr.calls["relabel.assign_permutation"]), "us"),
        "relabel.draws_permuted": (per(tr.count["permuted"]), "count"),
        "summary.busy_s": (per(busy["summary"]), "s"),
        "io.write_draws_s": (per(tr.self_s["io.write_draws_csv"]), "s"),
        "io.read_draws_s": (per(tr.self_s["io.read_draws_csv"]), "s"),
        "io.draws_bytes": (per(tr.count["draws_bytes"]), "B"),
        "io.busy_s": (per(busy["io"]), "s"),
        "forecast.grid_s": (per(tr.self_s["forecast.default_grid"]), "s"),
        "forecast.density_s": (per(tr.self_s["forecast.predictive_density_fixed"]), "s"),
        "forecast.draws": (per(tr.count["forecast_draws"]), "count"),
        "forecast.mc_paths": (per(tr.count["mc_paths"]), "count"),
        "forecast.exact_paths": (per(tr.count["exact_paths"]), "count"),
        "forecast.busy_s": (per(busy["forecast"]), "s"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}
