"""Configuration parsing and the five CLI subcommands, end to end."""

import hashlib
import importlib.metadata
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import typing
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import mixar
import mixar.evidence
import mixar.sampler
from mixar.cli import _align_to_truth, _fit_summaries, _resolve_workers, main
from mixar.config import (
    RunConfig,
    build_config,
    config_dict,
    parse_config_file,
    parse_overrides,
    validate_config,
)
from mixar.io import (
    draws_header,
    jsonify,
    read_draws_csv,
    read_series_csv,
    summaries_payload,
    write_draws_csv,
    write_series_csv,
)
from mixar.datasets import RECIPES, model_b_spec
from mixar.model import MARSpec, simulate_path
from mixar.sampler import ChainOutput

QUIET = pytest.mark.filterwarnings("ignore:warm-start variance")


class TestConfigFile:
    def test_comments_blanks_and_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# a comment\n"
            "\n"
            "seed = 5\n"
            "orders = 1, 2   # trailing comment\n"
            "fixed_shift = yes\n"
            "gamma = none\n"
        )
        values = parse_config_file(cfg)
        assert values == {
            "seed": 5, "orders": (1, 2), "fixed_shift": True, "gamma": None
        }

    def test_unknown_key_carries_line_number(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nbogus = 2\n")
        with pytest.raises(ValueError, match=r":2: unknown configuration key 'bogus'"):
            parse_config_file(cfg)

    def test_duplicate_and_malformed_lines(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(ValueError, match="duplicate key"):
            parse_config_file(cfg)
        cfg.write_text("just some words\n")
        with pytest.raises(ValueError, match="expected key=value"):
            parse_config_file(cfg)

    def test_bad_value_names_key_and_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_iter = soon\n")
        with pytest.raises(ValueError, match=r":1: bad value for n_iter"):
            parse_config_file(cfg)

    def test_overrides_win_over_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\nn_iter = 50\nburn_in = 10\n")
        config = build_config(cfg, ["seed=9"])
        assert config.seed == 9 and config.n_iter == 50

    def test_override_parsing_errors(self):
        with pytest.raises(ValueError, match="unknown configuration key"):
            parse_overrides(["bogus=1"])
        with pytest.raises(ValueError, match="key=value"):
            parse_overrides(["seed"])


class TestValidation:
    def base(self, **kw):
        cfg = RunConfig(**kw)
        validate_config(cfg)
        return cfg

    def test_rejections(self):
        with pytest.raises(ValueError, match="burn_in"):
            self.base(n_iter=100, burn_in=100)
        with pytest.raises(ValueError, match="g must be"):
            self.base(g=0)
        with pytest.raises(ValueError, match="orders must be positive"):
            self.base(orders=(1, 0))
        with pytest.raises(ValueError, match="gamma"):
            self.base(gamma=0.0)
        with pytest.raises(ValueError, match="spec must be"):
            self.base(spec="C")
        with pytest.raises(ValueError, match="mode"):
            self.base(mode="both")
        with pytest.raises(ValueError, match="at most one"):
            self.base(difference=True, log_transform=True)
        with pytest.raises(ValueError, match="workers"):
            self.base(workers=0)
        with pytest.raises(ValueError, match="pilot_iters must be at least 500"):
            self.base(pilot_iters=100)
        with pytest.raises(ValueError, match="unknown recipe 'ibn'"):
            self.base(recipe="ibn")
        for key in ("difference", "log_transform"):
            with pytest.raises(ValueError, match=f"recipe 'lynx' .* drop {key}=true"):
                self.base(recipe="lynx", **{key: True})
        with pytest.raises(ValueError, match="g_range lists g=2 more than once"):
            self.base(g_range=(1, 2, 3, 2))
        assert self.base(pilot_iters=100, gamma=50.0).pilot_iters == 100

    def test_mc_mode_normalized(self):
        cfg = self.base(mode="mc")
        assert cfg.mode == "monte-carlo"

    def test_recipe_sets_fixed_shift(self):
        assert self.base(recipe="ibm").fixed_shift is True
        assert self.base(recipe="lynx", fixed_shift=True).fixed_shift is False

    def test_config_dict_lists_tuples(self):
        d = config_dict(self.base(orders=(1, 1)))
        assert d["orders"] == [1, 1]
        assert d["g_range"] == [2, 3]
        assert d["relabel_subset"] == ["weights", "scales"]


class TestWorkers:
    def test_config_beats_environment(self, monkeypatch):
        monkeypatch.setenv("MIXAR_WORKERS", "7")
        assert _resolve_workers(RunConfig(workers=3)) == 3

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv("MIXAR_WORKERS", "2")
        assert _resolve_workers(RunConfig()) == 2
        monkeypatch.setenv("MIXAR_WORKERS", "0")
        with pytest.raises(ValueError, match="MIXAR_WORKERS"):
            _resolve_workers(RunConfig())

    def test_cpu_count_default(self, monkeypatch):
        monkeypatch.delenv("MIXAR_WORKERS", raising=False)
        assert _resolve_workers(RunConfig()) >= 1


class TestDerivedParsers:
    """Every key's parser comes from its RunConfig annotation."""

    @staticmethod
    def optional(name):
        return type(None) in typing.get_args(typing.get_type_hints(RunConfig)[name])

    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
    def test_echoed_default_parses_back(self, name):
        echoed = config_dict(RunConfig())[name]
        text = ",".join(map(str, echoed)) if isinstance(echoed, list) else str(echoed)
        assert parse_overrides([f"{name}={text}"]) == {name: getattr(RunConfig(), name)}

    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
    def test_none_clears_only_optional_keys(self, name):
        if self.optional(name):
            assert parse_overrides([f"{name}=none"]) == {name: None}
        else:
            with pytest.raises(ValueError, match=f"bad value for {name}"):
                parse_overrides([f"{name}=none"])

    def test_set_parse_error_names_the_key(self):
        with pytest.raises(ValueError, match="bad value for n_iter"):
            parse_overrides(["n_iter=soon"])

    def test_environment_parse_error_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("MIXAR_WORKERS", "two")
        with pytest.raises(ValueError, match="bad value for MIXAR_WORKERS"):
            _resolve_workers(RunConfig())


def _old_align_to_truth(output, truth):
    """The exhaustive permutation loop `_align_to_truth` used to run itself."""
    feats = np.column_stack(
        [output.weights.mean(axis=0), output.scales.mean(axis=0), output.ar[:, :, 0].mean(axis=0)]
    )
    target = np.column_stack([truth.weights, truth.scales, [c[0] for c in truth.ar_coeffs]])
    best, best_cost = None, np.inf
    for perm in itertools.permutations(range(truth.g)):
        cost = float(np.sum((feats[list(perm)] - target) ** 2))
        if cost < best_cost:
            best, best_cost = perm, cost
    return best


def _alignment_case(fitted, true):
    """A one-draw chain whose components have the (weight, scale, AR) columns of
    `fitted`, and a truth with those of `true`, plus the sorted alignment costs."""
    g = fitted.shape[1]
    output = SimpleNamespace(
        weights=fitted[0][None, :], scales=fitted[1][None, :], ar=fitted[2][None, :, None]
    )
    truth = SimpleNamespace(
        g=g, orders=(1,) * g, weights=true[0], scales=true[1],
        ar_coeffs=[np.array([x]) for x in true[2]],
    )
    costs = sorted(
        float(np.sum((fitted[:, list(p)] - true) ** 2)) for p in itertools.permutations(range(g))
    )
    return output, truth, costs


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_align_to_truth_matches_the_permutation_loop(g):
    # values on a coarse dyadic grid make every cost exact, so tied
    # permutations tie exactly; truths with repeated components plant more
    rng = np.random.default_rng(g)
    ties = 0
    for trial in range(60):
        fitted, true = rng.integers(0, 3 if trial % 2 else 8, size=(2, 3, g)) / 4.0
        if trial % 3 == 0:
            true[:, -1] = true[:, 0]  # two identical true components
        output, truth, costs = _alignment_case(fitted, true)
        assert _align_to_truth(output, truth) == _old_align_to_truth(output, truth)
        ties += g > 1 and costs[0] == costs[1]
    assert g == 1 or ties > 0
    # continuous values: the sums run in another order, so only a clear winner must agree
    for _ in range(60):
        output, truth, costs = _alignment_case(*rng.uniform(-1.0, 2.0, size=(2, 3, g)))
        if g == 1 or costs[1] - costs[0] > 1e-9:
            assert _align_to_truth(output, truth) == _old_align_to_truth(output, truth)


def test_align_to_truth_pinned_permutations():
    # the permutations of 200 random fitted/truth pairs per order layout, as
    # recorded before the scorer moved to plain arrays; any change in the
    # distance arithmetic or the tie rule moves this digest
    digests, moved = {}, {}
    for orders in ((1, 1), (2, 1, 1)):
        rng = np.random.default_rng(len(orders))
        g, perms = len(orders), []
        for _ in range(200):
            fitted = rng.uniform(0.0, 1.0, size=(4, 3, g))
            true = rng.uniform(0.0, 1.0, size=(3, g))
            output = SimpleNamespace(weights=fitted[:, 0], scales=fitted[:, 1],
                                     ar=fitted[:, 2][:, :, None])
            truth = SimpleNamespace(g=g, orders=orders, weights=true[0], scales=true[1],
                                    ar_coeffs=[np.full(p, x) for p, x in zip(orders, true[2])])
            perms.append(_align_to_truth(output, truth))
        digests[orders] = hashlib.sha256(repr(perms).encode()).hexdigest()
        moved[orders] = sum(perm != tuple(range(g)) for perm in perms)
    assert digests == ALIGN_PINS
    assert moved[(1, 1)] > 50 and moved[(2, 1, 1)] > 50


ALIGN_PINS = {
    (1, 1): "f5c16e7c7160a249df31a1c5bf9f77f36409a01a6e219484e3799cd34313b344",
    (2, 1, 1): "ff866b30378ab474f3c15a2169ca915717eb54bd7f701b6582f0f7849a7a2e14",
}


def _no_chain(*args, **kwargs):
    raise AssertionError("a chain ran for a configuration that should be refused")


def _chain_started(*args, **kwargs):
    raise ValueError("chain started")


@pytest.fixture
def b_series(tmp_path):
    path = tmp_path / "b.csv"
    write_series_csv(path, simulate_path(model_b_spec(), 120, seed=1).values)
    return path


RELABEL_REFUSALS = [
    (["relabel_subset=weigths"], "unknown subset entry 'weigths'"),
    (["fixed_shift=true", "relabel_subset=weights,shifts"],
     "relabel_subset holds shifts, which fixed_shift holds at zero"),
    (["relabel_warm_start=1"], "warm-start length m must be at least 2"),
    (["n_iter=300", "burn_in=100", "relabel_warm_start=200"],
     r"warm-start length m=200 must be below the number of draws \(200\)"),
]


def _sets(pairs):
    return [arg for pair in pairs for arg in ("--set", pair)]


class TestRefusedBeforeTheFirstSweep:
    @pytest.mark.parametrize("pairs, message", RELABEL_REFUSALS)
    def test_fit(self, b_series, tmp_path, monkeypatch, capsys, pairs, message):
        monkeypatch.setattr(mixar.sampler, "run_chain", _no_chain)
        code = run_cli(["fit", *_sets([
            f"input={b_series}", f"output_dir={tmp_path / 'fit'}", "g=3", "orders=2,1,1",
            "gamma=40", *pairs,
        ])])
        assert code == 2
        assert re.search(message, capsys.readouterr().err)

    @pytest.mark.parametrize("pairs, message", RELABEL_REFUSALS)
    def test_replicate(self, tmp_path, monkeypatch, capsys, pairs, message):
        monkeypatch.setattr(mixar.sampler, "run_chain", _no_chain)
        code = run_cli(["replicate", *_sets([
            f"output_dir={tmp_path / 'rep'}", "spec=B", "replicas=2", "replica_length=120",
            "gamma=40", "workers=1", *pairs,
        ])])
        assert code == 2
        assert re.search(message, capsys.readouterr().err)

    @pytest.mark.parametrize("pairs, message", RELABEL_REFUSALS)
    def test_select(self, b_series, tmp_path, monkeypatch, capsys, pairs, message):
        monkeypatch.setattr(mixar.evidence, "select_g", _no_chain)
        code = run_cli(["select", *_sets([
            f"input={b_series}", f"output_dir={tmp_path / 'sel'}", "g_range=1,3",
            "workers=1", *pairs,
        ])])
        assert code == 2
        assert re.search(message, capsys.readouterr().err)

    def test_one_component_chain_is_not_relabelled(self, b_series, tmp_path):
        # a warm start as long as the draws only matters where relabelling runs
        code = run_cli(["fit", *_sets([
            f"input={b_series}", f"output_dir={tmp_path / 'fit'}", "g=1", "orders=1",
            "n_iter=300", "burn_in=100", "relabel_warm_start=200", "gamma=40",
        ])])
        assert code == 0

    def test_short_pilot(self, b_series, tmp_path, monkeypatch, capsys):
        # a tuned gamma needs a pilot of at least 500 sweeps
        monkeypatch.setattr(mixar.sampler, "run_chain", _no_chain)
        out = tmp_path / "fit"
        code = run_cli(["fit", *_sets([
            f"input={b_series}", f"output_dir={out}", "g=3", "orders=2,1,1", "pilot_iters=100",
        ])])
        assert code == 2
        assert "pilot_iters must be at least 500" in capsys.readouterr().err
        assert not (out / "draws.csv").exists()

    @pytest.mark.parametrize("shape", [
        ["g=1", "orders=1", "n_iter=2150", "burn_in=2100"],
        ["g=3", "orders=2,1,1", "n_iter=300", "burn_in=250", "relabel_warm_start=20"],
    ])
    def test_too_few_draws_to_summarize(self, b_series, tmp_path, monkeypatch, capsys, shape):
        # the summaries need 100 retained draws; 50 are refused before the pilot
        monkeypatch.setattr(mixar.sampler, "gibbs_sweep", _no_chain)
        out = tmp_path / "fit"
        code = run_cli(["fit", *_sets([f"input={b_series}", f"output_dir={out}", *shape])])
        assert code == 2
        assert "need at least 100 draws to summarize, got 50" in capsys.readouterr().err
        assert not (out / "draws.csv").exists()

    def test_fit_recipe_with_fixed_shift_refuses_shifts(self, b_series, tmp_path, monkeypatch,
                                                         capsys):
        # the ibm recipe fixes the shifts, whatever the fixed_shift key says
        monkeypatch.setattr(mixar.sampler, "run_chain", _no_chain)
        with pytest.warns(UserWarning, match="ibm"):
            code = run_cli(["fit", *_sets([
                f"input={b_series}", f"output_dir={tmp_path / 'fit'}", "recipe=ibm",
                "relabel_subset=scales,shifts",
            ])])
        assert code == 2
        err = capsys.readouterr().err
        assert "relabel_subset holds shifts" in err and "fixed_shift" in err

    @pytest.mark.parametrize("pair, key", [("g=1", "g"), ("g=2", "g"), ("orders=1,2", "orders")])
    @pytest.mark.parametrize("in_file", [False, True], ids=["set", "config-file"])
    def test_fit_recipe_refuses_g_and_orders(self, b_series, tmp_path, monkeypatch, capsys, pair,
                                             key, in_file):
        # the recipe sets fit's shape, so a g or orders beside it would be echoed, not run
        monkeypatch.setattr(mixar.sampler, "run_chain", _no_chain)
        args = _sets([f"input={b_series}", f"output_dir={tmp_path / 'fit'}", "recipe=lynx"])
        if in_file:
            (tmp_path / "run.cfg").write_text(pair + "\n")
            args += ["--config", str(tmp_path / "run.cfg")]
        else:
            args += _sets([pair])
        assert run_cli(["fit", *args]) == 2
        assert f"recipe 'lynx' sets fit's g and orders; drop {key} or the recipe" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("name", ["lynx", "ibm"])
    def test_fit_runs_the_recipe_shape(self, tmp_path, monkeypatch, capsys, name):
        recipe = RECIPES[name]
        data = tmp_path / "y.csv"
        values = simulate_path(model_b_spec(), recipe.expected_length, seed=2).values
        write_series_csv(data, np.exp(values / 10.0))  # positive, as lynx's log needs
        shapes = []

        def chain_shape(series, g, orders, *args):
            shapes.append((g, orders))
            raise ValueError("chain started")

        monkeypatch.setattr(mixar.sampler, "run_chain", chain_shape)
        code = run_cli(["fit", *_sets([f"input={data}", f"output_dir={tmp_path / 'fit'}",
                                       f"recipe={name}", "gamma=40"])])
        assert code == 2 and "chain started" in capsys.readouterr().err
        assert shapes == [(recipe.g, recipe.orders)]

    def test_select_recipe_keeps_pinned_orders(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "y.csv"
        write_series_csv(data, simulate_path(model_b_spec(), 369, seed=2).values)
        monkeypatch.setattr(mixar.evidence, "select_g", _chain_started)
        code = run_cli(["select", *_sets([
            f"input={data}", f"output_dir={tmp_path / 'sel'}", "recipe=ibm", "g_range=1",
            "orders=1", "p_max=1", "workers=1",
        ])])
        assert code == 2 and "chain started" in capsys.readouterr().err

    def test_one_component_fixed_shift_chain_keeps_shifts(self, b_series, tmp_path):
        # a one-component chain is never relabelled, so its subset is not checked
        code = run_cli(["fit", *_sets([
            f"input={b_series}", f"output_dir={tmp_path / 'fit'}", "g=1", "orders=1",
            "fixed_shift=true", "relabel_subset=shifts", "n_iter=300", "burn_in=100",
            "gamma=40",
        ])])
        assert code == 0

    def test_fit_orders_follow_g(self, b_series, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(mixar.sampler, "run_chain", _no_chain)
        code = run_cli(["fit", *_sets([
            f"input={b_series}", f"output_dir={tmp_path / 'fit'}", "g=2", "orders=1",
        ])])
        assert code == 2
        assert "orders must list one order per component" in capsys.readouterr().err

    def test_fit_does_not_read_p_max(self, b_series, tmp_path, monkeypatch, capsys):
        # fit takes its orders as given; p_max bounds only select's order chain
        monkeypatch.setattr(mixar.sampler, "run_chain", _chain_started)
        code = run_cli(["fit", *_sets([
            f"input={b_series}", f"output_dir={tmp_path / 'fit'}", "g=2", "orders=6,1",
            "p_max=5", "gamma=40",
        ])])
        assert code == 2
        assert "chain started" in capsys.readouterr().err

    def test_select_orders_follow_g_range_and_p_max(self, b_series, tmp_path, monkeypatch,
                                                    capsys):
        # select reads g_range, not g, so orders=2,1,1 pins its one candidate g=3
        monkeypatch.setattr(mixar.evidence, "select_g", _chain_started)
        code = run_cli(["select", *_sets([
            f"input={b_series}", f"output_dir={tmp_path / 'sel'}", "g_range=3",
            "orders=2,1,1", "p_max=2", "workers=1",
        ])])
        assert code == 2
        assert "chain started" in capsys.readouterr().err
        monkeypatch.setattr(mixar.evidence, "select_g", _no_chain)
        code = run_cli(["select", *_sets([
            f"input={b_series}", f"output_dir={tmp_path / 'sel'}", "g_range=1",
            "orders=9", "p_max=5", "workers=1",
        ])])
        assert code == 2
        assert "orders cannot exceed p_max" in capsys.readouterr().err

    def test_select_refuses_orders_it_would_ignore(self, b_series, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(mixar.evidence, "select_g", _no_chain)
        code = run_cli(["select", *_sets([
            f"input={b_series}", f"output_dir={tmp_path / 'sel'}", "orders=1,1",
        ])])
        assert code == 2
        err = capsys.readouterr().err
        assert "orders=[1, 1]" in err and "g_range=[2, 3]" in err


def run_cli(args):
    return main(args)


def csv_columns(path):
    """name -> column of a CSV that a command wrote."""
    header = Path(path).read_text().split("\n", 1)[0].split(",")
    return dict(zip(header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T))


class TestSimulate:
    def test_deterministic_bytes(self, tmp_path, capsys):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        for d in (d1, d2):
            code = run_cli([
                "simulate", "--set", f"output_dir={d}", "--set", "seed=42",
                "--set", "n=100",
            ])
            assert code == 0
        assert (d1 / "series.csv").read_bytes() == (d2 / "series.csv").read_bytes()
        out = capsys.readouterr().out
        assert f"wrote {d1 / 'series.csv'}" in out
        assert read_series_csv(d1 / "series.csv").size == 100

    def test_builtin_lengths_and_manifest(self, tmp_path):
        d = tmp_path / "sim"
        assert run_cli(["simulate", "--set", f"output_dir={d}",
                        "--set", "spec=B"]) == 0
        assert read_series_csv(d / "series.csv").size == 600
        manifest = json.loads((d / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 0
        assert manifest["config"]["spec"] == "B"
        assert set(manifest["versions"]) == {"python", "numpy", "mixar"}
        assert manifest["outputs"] == sorted(manifest["outputs"])
        assert manifest["diagnostics"]["n"] == 600
        assert manifest["wall_clock_seconds"] >= 0

    def test_model_a_radius_in_manifest(self, tmp_path):
        d = tmp_path / "sim"
        run_cli(["simulate", "--set", f"output_dir={d}", "--set", "n=10"])
        diag = json.loads((d / "manifest.json").read_text())["diagnostics"]
        assert diag["spectral_radius"] == pytest.approx(0.625, abs=1e-12)

    def test_unstable_user_spec_refused(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "weights": [1.0], "shifts": [0.0], "ar_coeffs": [[1.05]], "scales": [1.0],
        }))
        code = run_cli([
            "simulate", "--set", f"output_dir={tmp_path / 'out'}",
            "--set", f"spec_file={spec_file}",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "refusing to simulate" in err and "1.1025" in err

    def test_spec_file_missing_key(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"weights": [1.0]}))
        code = run_cli([
            "simulate", "--set", f"output_dir={tmp_path / 'out'}",
            "--set", f"spec_file={spec_file}",
        ])
        assert code == 2
        assert "missing key" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1, 2]", "3", "{"], ids=["array", "number", "not-json"])
    def test_spec_file_that_is_not_a_spec_object(self, tmp_path, capsys, text):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(text)
        code = run_cli([
            "simulate", "--set", f"output_dir={tmp_path / 'out'}",
            "--set", f"spec_file={spec_file}",
        ])
        assert code == 2
        assert f"spec file {spec_file}: " in capsys.readouterr().err

    def test_unknown_override_is_a_clean_error(self, tmp_path, capsys):
        # a key whose option was removed is refused like any other unknown key
        for key in ("bogus", "literal_death_density"):
            code = run_cli(["simulate", "--set", f"{key}=1"])
            assert code == 2
            assert "unknown configuration key" in capsys.readouterr().err

    def test_console_script_installed(self, tmp_path):
        """The declared `mixar` console script runs `simulate` end to end.

        The entry point is read from `pyproject.toml` and run the way an
        installed wrapper runs it, so the check holds with the package
        imported from a source tree. Where a `mixar` distribution is
        installed, the script on PATH is run as well.
        """
        scripts = _declared_scripts()
        assert "mixar" in scripts, "pyproject.toml declares no 'mixar' script"
        entry = importlib.metadata.EntryPoint(
            "mixar", scripts["mixar"], "console_scripts"
        )
        assert callable(entry.load()), f"{entry.value} is not callable"

        args = ["simulate", "--set", "n=20"]
        wrapper = (
            "import sys; sys.argv[0] = 'mixar'; "
            f"from {entry.module} import {entry.attr} as main; "
            "sys.exit(main())"
        )
        out = tmp_path / "entry_point"
        res = run_fresh(wrapper, *args, "--set", f"output_dir={out}")
        assert res.returncode == 0, res.stderr
        assert (out / "series.csv").exists()

        try:
            importlib.metadata.distribution("mixar")
        except importlib.metadata.PackageNotFoundError:
            return
        exe = shutil.which("mixar")
        assert exe, "console script 'mixar' not on PATH"
        out = tmp_path / "installed"
        res = subprocess.run(
            [exe, *args, "--set", f"output_dir={out}"],
            capture_output=True, text=True, timeout=120,
        )
        assert res.returncode == 0, res.stderr
        assert (out / "series.csv").exists()


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run Python source, with sys.argv[1:] = args, in a new interpreter that
    imports mixar from the tree under test."""
    package_root = str(Path(mixar.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=120)


COMMANDS_WITHOUT_SCIPY = """
import sys
from mixar.cli import main

out, steps = sys.argv[1], sys.argv[2:]
sets = lambda *pairs: [arg for pair in pairs for arg in ("--set", pair)]
series, draws = f"input={out}/series.csv", f"draws={out}/draws.csv"
forecast = sets(series, draws, "horizon=3", "thin=20", "mc_paths=200")
commands = {
    "simulate": ["simulate", *sets(f"output_dir={out}", "n=120", "seed=3")],
    "fit": ["fit", *sets(series, f"output_dir={out}", "g=1", "orders=1", "n_iter=260",
                         "burn_in=100", "gamma=40", "relabel_warm_start=50")],
    "mc": ["forecast", *forecast, "--set", "mode=monte-carlo", "--set", f"output_dir={out}/mc"],
    "exact": ["forecast", *forecast, "--set", "mode=exact", "--set", f"output_dir={out}/exact"],
}
for step in steps:
    assert main(commands[step]) == 0, step
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, f"{steps} loaded {loaded[:5]}"
if steps == ["exact"]:
    assert "numpy.random" not in sys.modules, "an exact forecast loaded numpy.random"
"""


def test_commands_leave_out_scipy_and_unused_generators(tmp_path):
    """No command loads scipy, and an exact forecast does not load numpy.random.

    The package has its own logsumexp, normal CDF and kernel density
    estimate, and manifests record only python, numpy and mixar versions;
    loading scipy would add 18-30 ms to every command, and numpy.random
    about 20 ms to a forecast that draws nothing.
    """
    for steps in (["simulate", "fit", "mc"], ["exact"]):
        res = run_fresh(COMMANDS_WITHOUT_SCIPY, str(tmp_path), *steps)
        assert res.returncode == 0, res.stderr


COMMANDS_WITHOUT_NUMPY_MA = """
import sys
from mixar.cli import main

out = sys.argv[1]
sets = lambda *pairs: [arg for pair in pairs for arg in ("--set", pair)]
series, chain = f"input={out}/series.csv", ["n_iter=260", "burn_in=100", "gamma=40"]
for argv in (
    ["simulate", *sets(f"output_dir={out}", "n=120", "seed=3")],
    ["fit", *sets(series, f"output_dir={out}", "g=2", "orders=1,1", "relabel_warm_start=50",
                  *chain)],
    ["select", *sets(series, f"output_dir={out}/select", "g_range=1", "p_max=1", "n_j=20",
                     "n_i=20", "reduced_burn_in=5", "workers=1", *chain)],
    ["forecast", *sets(series, f"draws={out}/draws.csv", "horizon=2", "thin=20",
                       f"output_dir={out}/forecast")],
):
    assert main(argv) == 0, argv[0]
assert "numpy.ma" not in sys.modules, "a command loaded numpy.ma"
"""


def test_commands_leave_out_numpy_ma(tmp_path):
    """`fit`, `select` and `forecast` do not load numpy.ma.

    np.quantile imports it, which costs 11-15 ms at every start; the
    starting allocations and the forecast bands use `model.quantile`.
    """
    res = run_fresh(COMMANDS_WITHOUT_NUMPY_MA, str(tmp_path))
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.special", "concurrent.futures"])
def test_cli_import_leaves_out(module):
    """`import mixar.cli` loads neither scipy nor the process pool.

    No mixar module uses scipy.stats or scipy.special (the package has its
    own logsumexp and normal CDF); either would add about as much start-up
    time to every command as the package does.  Only runs with workers > 1
    start a process pool, and they import it themselves; loading it up
    front adds about 20 ms to every command.
    """
    res = run_fresh(f"import sys, mixar.cli; assert {module!r} not in sys.modules")
    assert res.returncode == 0, res.stderr


LOADED_MODULES = """
import sys
from mixar.cli import main

assert main(sys.argv[1:]) == 0
assert "gzip" not in sys.modules, "the command loaded gzip"
print(*sorted(m for m in sys.modules if m.startswith("mixar.")))
"""


@QUIET
@pytest.mark.parametrize("command, modules", [
    ("simulate", "cli config datasets io model stability"),
    ("fit", "cli config datasets io model relabel sampler stability summary"),
    ("forecast", "cli config datasets forecast io model summary"),
], ids=["simulate", "fit", "forecast"])
def test_command_loads_only_the_modules_it_runs(fitted, tmp_path, command, modules):
    """A command imports the compute modules it calls and no others: an exact
    forecast from stored draws loads no sampler, and `fit` loads neither the
    evidence, the order moves nor the forecast.  No command loads gzip, which
    numpy's text routines import when handed a path instead of a file."""
    sim, fit = fitted
    series = f"input={sim / 'series.csv'}"
    pairs = {
        "simulate": ["n=50"],
        "fit": [series, "g=1", "orders=1", "n_iter=260", "burn_in=100", "gamma=40"],
        "forecast": [series, f"draws={fit / 'draws.csv'}", "horizon=3", "thin=20"],
    }[command]
    res = run_fresh(LOADED_MODULES, command, *_sets([*pairs, f"output_dir={tmp_path}"]))
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1].split() == [f"mixar.{m}" for m in modules.split()]


def test_package_import_loads_no_submodule():
    res = run_fresh("import sys, mixar\n"
                    "loaded = [m for m in sys.modules if m.startswith('mixar.')]\n"
                    "assert not loaded, loaded")
    assert res.returncode == 0, res.stderr


PUBLIC_NAMES = """
import importlib
import mixar

for name in mixar.__all__:
    obj = getattr(mixar, name)
    if name == "__version__":
        assert isinstance(obj, str)
        continue
    home = f"mixar.{mixar._EXPORTS[name]}"
    assert obj.__module__ == home and getattr(importlib.import_module(home), name) is obj, name
"""


def test_every_public_name_resolves_to_its_home_module():
    res = run_fresh(PUBLIC_NAMES)
    assert res.returncode == 0, res.stderr


def test_unknown_package_attribute_is_an_attribute_error():
    res = run_fresh("import mixar\n"
                    "try:\n    mixar.no_such_name\n"
                    "except AttributeError as exc:\n    assert 'no_such_name' in str(exc)\n"
                    "else:\n    raise SystemExit('mixar.no_such_name resolved')")
    assert res.returncode == 0, res.stderr


def _declared_scripts():
    """The `[project.scripts]` table of the repository's pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh).get("project", {}).get("scripts", {})


ROW_REFUSAL = "a row that does not hold one value per header column"


@pytest.fixture(scope="module")
def b_draws(tmp_path_factory):
    """A spec-B series and a draws file holding spec B three times (g=3)."""
    root = tmp_path_factory.mktemp("bdraws")
    spec = model_b_spec()
    write_series_csv(root / "series.csv", simulate_path(spec, 100, seed=5).values)
    n = 3
    write_draws_csv(root / "draws.csv", ChainOutput(
        g=3,
        weights=np.tile(spec.weights, (n, 1)), shifts=np.tile(spec.shifts, (n, 1)),
        means=np.tile(spec.shifts, (n, 1)), scales=np.tile(spec.scales, (n, 1)),
        ar=np.tile(spec.phi_matrix(), (n, 1, 1)), orders=np.tile(spec.orders, (n, 1)),
        lam=np.ones(n), log_likelihoods=np.zeros(n), log_posteriors=np.zeros(n),
        acceptance=None, stability_rejections=0, gamma=None, fixed_shift=False,
    ))
    return root / "series.csv", root / "draws.csv"


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """One small fit run shared by the fit/forecast assertions."""
    root = tmp_path_factory.mktemp("fitrun")
    sim = root / "sim"
    run_cli(["simulate", "--set", f"output_dir={sim}", "--set", "n=300",
             "--set", "seed=7"])
    fit = root / "fit"
    code = run_cli([
        "fit",
        "--set", f"input={sim / 'series.csv'}",
        "--set", f"output_dir={fit}",
        "--set", "g=2", "--set", "orders=1,1",
        "--set", "n_iter=900", "--set", "burn_in=300",
        "--set", "relabel_warm_start=100",
        "--set", "gamma=40", "--set", "seed=11",
    ])
    assert code == 0
    return sim, fit


@QUIET
class TestFit:
    def test_outputs_exist(self, fitted):
        _, fit = fitted
        assert (fit / "draws.csv").exists()
        assert (fit / "summaries.json").exists()
        manifest = json.loads((fit / "manifest.json").read_text())
        assert manifest["command"] == "fit"
        diag = manifest["diagnostics"]
        assert diag["g"] == 2 and diag["orders"] == [1, 1]
        assert len(diag["acceptance_rates"]) == 2
        assert diag["transform"] == "none"
        # perf_counter spans of the run's phases; the draws and summaries carry no times
        timing = diag["timing"]
        assert set(timing) == {"pilot_s", "burn_in_s", "retain_s", "relabel_s"}
        assert all(v >= 0.0 for v in timing.values()) and timing["retain_s"] > 0.0
        relabel = diag["relabel"]
        assert set(relabel) == {"draws_permuted", "warm_window_warning"}
        assert 0 <= relabel["draws_permuted"] <= 500  # the 100 warm draws keep their labels
        assert isinstance(relabel["warm_window_warning"], bool)

    def test_draws_layout(self, fitted):
        _, fit = fitted
        header = (fit / "draws.csv").read_text().splitlines()[0].split(",")
        assert header == draws_header(2, 1)
        cols = csv_columns(fit / "draws.csv")
        assert cols["iteration"].size == 600
        assert np.all(cols["order_1"] == 1)

    def test_round_trip_summaries_exact(self, fitted):
        # reloading the draws and re-summarizing must reproduce the stored
        # report bit for bit (writing goes through 17 significant digits)
        _, fit = fitted
        reloaded = read_draws_csv(fit / "draws.csv")
        assert reloaded.g == 2 and reloaded.cond == 1
        assert not reloaded.fixed_shift
        payload = jsonify(summaries_payload(_fit_summaries(reloaded)))
        assert payload == json.loads((fit / "summaries.json").read_text())

    def test_draws_reload_bitwise_and_contiguous(self, tmp_path):
        rng = np.random.default_rng(2)
        n, g, width = 7, 3, 2
        output = ChainOutput(
            g=g, weights=rng.dirichlet(np.ones(g), n), shifts=rng.normal(size=(n, g)),
            means=rng.normal(size=(n, g)), scales=rng.random((n, g)),
            ar=rng.normal(size=(n, g, width)), orders=rng.integers(1, width + 1, (n, g)),
            lam=rng.random(n), log_likelihoods=rng.normal(size=n),
            log_posteriors=rng.normal(size=n), acceptance=None, stability_rejections=0,
            gamma=None, fixed_shift=False,
        )
        write_draws_csv(tmp_path / "draws.csv", output)
        reloaded = read_draws_csv(tmp_path / "draws.csv")
        assert (reloaded.g, reloaded.cond) == (g, width)
        for name in ("weights", "shifts", "means", "scales", "ar", "orders", "lam",
                     "log_likelihoods", "log_posteriors"):
            got, want = getattr(reloaded, name), getattr(output, name)
            assert got.dtype == want.dtype and got.flags.c_contiguous, name
            assert got.tobytes() == want.tobytes(), name

    def test_draws_file_io_memory_is_proportional_to_the_array(self, tmp_path):
        # numpy's C text routines parse and format the values; a Python float
        # and str per value took 17 and 8 times the array to read and write
        rng = np.random.default_rng(4)
        n, g, width = 2000, 3, 2
        output = ChainOutput(
            g=g, weights=rng.dirichlet(np.ones(g), n), shifts=rng.normal(size=(n, g)),
            means=rng.normal(size=(n, g)), scales=rng.random((n, g)),
            ar=rng.normal(size=(n, g, width)), orders=rng.integers(1, width + 1, (n, g)),
            lam=rng.random(n), log_likelihoods=rng.normal(size=n),
            log_posteriors=rng.normal(size=n), acceptance=None, stability_rejections=0,
            gamma=None, fixed_shift=False,
        )
        path = tmp_path / "draws.csv"
        array_bytes = n * len(draws_header(g, width)) * 8
        for step in (write_draws_csv, lambda p, _: read_draws_csv(p)):
            tracemalloc.start()
            try:
                step(path, output)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3 * array_bytes, (step, peak / array_bytes)

    @pytest.mark.parametrize("columns, values, message", [
        (-1, -1, "column layout does not match"),
        (0, -1, "a row that does not hold one value per header column"),
        (0, 1, "a row that does not hold one value per header column"),
        # a blank line is a row, not a line to skip
        pytest.param(0, (0, None, 0), "a row that does not hold one value per header column",
                     id="blank-line-mid-file"),
        pytest.param(0, (0, None), "a row that does not hold one value per header column",
                     id="blank-line-at-end"),
    ])
    def test_draws_file_of_another_layout_is_refused(self, tmp_path, columns, values, message):
        # `values` is the row's length less the header's, or a tuple of them
        # for several rows, None standing for a blank line
        path = tmp_path / "draws.csv"
        header = draws_header(2, 1)
        width = len(header)
        rows = values if isinstance(values, tuple) else (values,)
        path.write_text(",".join(header[: width + columns]) + "\n"
                        + "".join("\n" if v is None else ",".join(["0.5"] * (width + v)) + "\n"
                                  for v in rows))
        with pytest.raises(ValueError, match=message):
            read_draws_csv(path)

    @pytest.mark.parametrize("edit, message", [
        *[pytest.param(lambda row, c=c: row.replace(",", c + ",", 1), ROW_REFUSAL,
                       id=f"{ord(c):#x}-in-a-row") for c in "\x0b\x0c\x85\u2028"],
        *[pytest.param(lambda row, c=c: row + c, ROW_REFUSAL, id=f"{ord(c):#x}-ends-a-row")
          for c in "\x0b\x0c\x85\u2028"],
        pytest.param(lambda row: row + "\x1f", "is not a finite number", id="0x1f-after-a-value"),
        pytest.param(lambda row: " \t", ROW_REFUSAL, id="whitespace-only-line"),
    ])
    def test_draws_line_that_splitlines_or_float_refuses(self, fitted, tmp_path, edit, message):
        # float() reads the first four characters as whitespace, yet str.splitlines
        # breaks a line at each; it refuses 0x1f beside a number
        lines = (fitted[1] / "draws.csv").read_text().split("\n")
        lines[2] = edit(lines[2])
        path = tmp_path / "draws.csv"
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match=message):
            read_draws_csv(path)

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace(b"\n", b"\r\n"),
        lambda text: text.replace(b"\n", b"\r"),
        lambda text: text[:-1],
    ], ids=["crlf", "cr-only", "no-final-newline"])
    def test_draws_file_line_endings_reload_bitwise(self, fitted, tmp_path, edit):
        draws = fitted[1] / "draws.csv"
        path = tmp_path / "draws.csv"
        path.write_bytes(edit(draws.read_bytes()))
        want, got = read_draws_csv(draws), read_draws_csv(path)
        for name in ("weights", "shifts", "means", "scales", "ar", "orders", "lam",
                     "log_likelihoods", "log_posteriors"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_repeat_run_is_bitwise_identical(self, fitted, tmp_path):
        sim, fit = fitted
        again = tmp_path / "again"
        code = run_cli([
            "fit",
            "--set", f"input={sim / 'series.csv'}",
            "--set", f"output_dir={again}",
            "--set", "g=2", "--set", "orders=1,1",
            "--set", "n_iter=900", "--set", "burn_in=300",
            "--set", "relabel_warm_start=100",
            "--set", "gamma=40", "--set", "seed=11",
        ])
        assert code == 0
        assert (again / "draws.csv").read_bytes() == (fit / "draws.csv").read_bytes()
        assert (again / "summaries.json").read_bytes() == (
            fit / "summaries.json"
        ).read_bytes()
        m1 = json.loads((fit / "manifest.json").read_text())
        m2 = json.loads((again / "manifest.json").read_text())
        assert m1["config"] != m2["config"]  # output_dir differs
        m1["config"].pop("output_dir")
        m2["config"].pop("output_dir")
        assert m1["config"] == m2["config"] and m1["seed"] == m2["seed"]

    def test_missing_orders_is_an_error(self, fitted, tmp_path, capsys):
        sim, _ = fitted
        code = run_cli([
            "fit", "--set", f"input={sim / 'series.csv'}",
            "--set", f"output_dir={tmp_path}",
        ])
        assert code == 2
        assert "orders" in capsys.readouterr().err

    def test_missing_input_is_an_error(self, tmp_path, capsys):
        code = run_cli(["fit", "--set", f"output_dir={tmp_path}",
                        "--set", "orders=1,1"])
        assert code == 2
        assert "input" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["nan", "-inf", "1.5x"])
    def test_series_entry_that_is_not_a_finite_number(self, tmp_path, capsys, entry):
        series = tmp_path / "series.csv"
        series.write_text(f"y\n0.5\n\n{entry}\n1.5\n")
        code = run_cli(["fit", "--set", f"input={series}", "--set", f"output_dir={tmp_path}",
                        "--set", "orders=1,1"])
        assert code == 2
        assert f"error: {series}:4: {entry!r} is not a finite number" in capsys.readouterr().err


@QUIET
class TestForecast:
    def test_forecast_csv_and_diagnostics(self, fitted, tmp_path):
        sim, fit = fitted
        fc = tmp_path / "fc"
        code = run_cli([
            "forecast",
            "--set", f"input={sim / 'series.csv'}",
            "--set", f"draws={fit / 'draws.csv'}",
            "--set", f"output_dir={fc}",
            "--set", "horizon=2", "--set", "thin=20",
        ])
        assert code == 0
        cols = csv_columns(fc / "forecast.csv")
        assert list(cols) == ["y", "mean", "lo90", "hi90"]
        assert cols["y"].size == 512
        assert np.all(cols["lo90"] <= cols["hi90"] + 1e-12)
        diag = json.loads((fc / "manifest.json").read_text())["diagnostics"]
        assert diag["integral_ok"] is True
        assert abs(diag["integral"] - 1.0) <= 1e-3
        assert diag["mode"] == "exact" and diag["horizon"] == 2
        assert diag["predictive_sd"] > 0

    def test_monte_carlo_mode(self, fitted, tmp_path):
        sim, fit = fitted
        fc = tmp_path / "fcmc"
        code = run_cli([
            "forecast",
            "--set", f"input={sim / 'series.csv'}",
            "--set", f"draws={fit / 'draws.csv'}",
            "--set", f"output_dir={fc}",
            "--set", "horizon=3", "--set", "thin=60",
            "--set", "mode=mc", "--set", "mc_paths=2000",
        ])
        assert code == 0
        diag = json.loads((fc / "manifest.json").read_text())["diagnostics"]
        assert diag["mode"] == "monte-carlo"
        assert abs(diag["integral"] - 1.0) <= 5e-3

    def test_long_horizon_monte_carlo_on_three_components(self, b_draws, tmp_path, capsys):
        # 3^13 paths exceed the exact expansion's limit; the Monte Carlo mode
        # and its grid need no path expansion
        series, draws = b_draws
        base = ["forecast", "--set", f"input={series}", "--set", f"draws={draws}",
                "--set", "horizon=13", "--set", "thin=1"]
        fc = tmp_path / "mc13"
        code = run_cli(base + ["--set", f"output_dir={fc}", "--set", "mode=monte-carlo",
                               "--set", "mc_paths=500"])
        assert code == 0
        assert csv_columns(fc / "forecast.csv")["y"].size == 512
        assert json.loads((fc / "manifest.json").read_text())["diagnostics"]["predictive_sd"] > 0
        code = run_cli(base + ["--set", f"output_dir={tmp_path / 'exact13'}",
                               "--set", "mode=exact"])
        assert code == 2
        assert "use the Monte Carlo mode" in capsys.readouterr().err

    def test_integral_without_numpy_trapezoid(self, fitted, tmp_path, monkeypatch):
        # numpy < 2 has no np.trapezoid; the forecast must not depend on it
        sim, fit = fitted
        monkeypatch.delattr(np, "trapezoid", raising=False)
        fc = tmp_path / "fc"
        code = run_cli([
            "forecast", "--set", f"input={sim / 'series.csv'}",
            "--set", f"draws={fit / 'draws.csv'}", "--set", f"output_dir={fc}",
            "--set", "horizon=2", "--set", "thin=20",
        ])
        assert code == 0
        assert json.loads((fc / "manifest.json").read_text())["diagnostics"]["integral_ok"] is True

    @staticmethod
    def edited_draws(draws, path, column, value):
        """The draws file with `column` of iteration 1 set to the text `value`."""
        lines = [line.split(",") for line in draws.read_text().splitlines()]
        lines[2][lines[0].index(column)] = value
        path.write_text("\n".join(",".join(line) for line in lines) + "\n")
        return path

    @pytest.mark.parametrize("column, value, reason", [
        ("order_1", "1.5", "column order_1: 1.5 is not an integer in 1..2"),
        ("order_2", "3", "column order_2: 3 is not an integer in 1..2"),
        ("order_3", "0", "column order_3: 0 is not an integer in 1..2"),
        ("pi_2", "nan", "column pi_2: nan is not a finite number"),
        ("ar_1_2", "inf", "column ar_1_2: inf is not a finite number"),
        ("lambda", "-inf", "column lambda: -inf is not a finite number"),
        ("shift_3", "abc", "column shift_3: abc is not a finite number"),
        ("pi_3", "-0.1", "column pi_3: -0.1 is not a positive mixing weight"),
        ("sigma_2", "0", "column sigma_2: 0 is not a positive scale"),
        ("pi_1", "0.75", "columns pi_1..pi_3: mixing weights must sum to 1, got 1.25"),
    ])
    def test_malformed_draws_file_is_refused(self, b_draws, tmp_path, capsys, column, value,
                                             reason):
        series, draws = b_draws
        bad = self.edited_draws(draws, tmp_path / "bad.csv", column, value)
        code = run_cli(["forecast", "--set", f"input={series}", "--set", f"draws={bad}",
                        "--set", f"output_dir={tmp_path / 'fc'}", "--set", "horizon=2"])
        assert code == 2
        assert f"{bad}: iteration 1, {reason}" in capsys.readouterr().err

    def test_ar_entries_beyond_the_order_are_ignored(self, b_draws, tmp_path):
        # spec B has orders (2, 1, 1): ar_2_2 lies beyond component 2's order
        series, draws = b_draws
        edited = self.edited_draws(draws, tmp_path / "edited.csv", "ar_2_2", "99")
        for name, path in (("plain", draws), ("edited", edited)):
            code = run_cli(["forecast", "--set", f"input={series}", "--set", f"draws={path}",
                            "--set", f"output_dir={tmp_path / name}", "--set", "horizon=2"])
            assert code == 0
        assert ((tmp_path / "plain" / "forecast.csv").read_bytes()
                == (tmp_path / "edited" / "forecast.csv").read_bytes())

    def test_missing_draws_file(self, fitted, tmp_path, capsys):
        sim, _ = fitted
        code = run_cli([
            "forecast", "--set", f"input={sim / 'series.csv'}",
            "--set", f"output_dir={tmp_path}", "--set", "draws=nowhere.csv",
        ])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err


@QUIET
class TestSelect:
    def test_single_candidate_with_pinned_orders(self, tmp_path):
        spec = MARSpec(
            weights=np.array([1.0]), shifts=np.array([0.0]),
            ar_coeffs=(np.array([0.6]),), scales=np.array([1.0]),
        )
        series = simulate_path(spec, 90, seed=3)
        data = tmp_path / "y.csv"
        write_series_csv(data, series.values)
        out = tmp_path / "sel"
        code = run_cli([
            "select",
            "--set", f"input={data}", "--set", f"output_dir={out}",
            "--set", "g_range=1", "--set", "orders=1",
            "--set", "p_max=1", "--set", "fixed_shift=true",
            "--set", "n_iter=800", "--set", "burn_in=300",
            "--set", "n_j=300", "--set", "n_i=300",
            "--set", "reduced_burn_in=100", "--set", "workers=1",
            "--set", "relabel_warm_start=100", "--set", "seed=4",
        ])
        assert code == 0
        report = json.loads((out / "evidence.json").read_text())
        assert report["best_g"] == 1
        (model,) = report["models"]
        assert model["g"] == 1
        assert model["orders"] == [1]
        assert model["preference"] == 1.0
        assert model["log_p_g"] == 0.0  # single candidate
        assert np.isfinite(model["log_marginal"])
        parts = model["parts"]
        recomposed = (
            parts["log_likelihood"] + parts["log_prior"] + parts["log_order_prior"]
            - parts["log_phi_ordinate"] - parts["log_mu_ordinate"]
            - parts["log_tau_ordinate"] - parts["log_pi_ordinate"]
            - parts["log_order_posterior"]
        )
        assert model["log_marginal"] == pytest.approx(recomposed, abs=1e-9)
        diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
        assert diag["best_g"] == 1 and diag["workers"] == 1

    def test_recipe_fixes_the_shifts(self, tmp_path):
        # the ibm recipe's fixed_shift holds for select too: no mean block, so
        # the mu ordinate is exactly zero, and the manifest echoes the value that ran
        data = tmp_path / "y.csv"
        write_series_csv(data, simulate_path(model_b_spec(), 369, seed=2).values)
        out = tmp_path / "sel"
        code = run_cli(["select", *_sets([
            f"input={data}", f"output_dir={out}", "recipe=ibm", "g_range=1", "p_max=1",
            "gamma=50", "n_iter=200", "burn_in=50", "n_j=20", "n_i=20", "reduced_burn_in=5",
            "workers=1", "seed=3",
        ])])
        assert code == 0
        (model,) = json.loads((out / "evidence.json").read_text())["models"]
        assert model["parts"]["log_mu_ordinate"] == 0.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["fixed_shift"] is True
        assert manifest["diagnostics"]["transform"] == "difference"

    def test_order_chain_tallies_cover_every_sweep(self, tmp_path):
        data = tmp_path / "y.csv"
        write_series_csv(data, simulate_path(model_b_spec(), 120, seed=9).values)
        out = tmp_path / "sel"
        code = run_cli([
            "select", *_sets([
                f"input={data}", f"output_dir={out}", "gamma=50", "g_range=1", "p_max=2",
                "n_iter=200", "burn_in=50", "n_j=30", "n_i=30", "reduced_burn_in=10",
                "workers=1", "seed=8",
            ]),
        ])
        assert code == 0
        chain = json.loads((out / "manifest.json").read_text())["diagnostics"]["chains"]["1"]
        moves = chain["order_moves"]
        # one birth or death move follows each of the n_iter sweeps; the pilot moves nothing
        assert moves["birth_attempts"] + moves["death_attempts"] == 200
        assert 0 <= moves["birth_accepts"] <= moves["birth_attempts"]
        assert 0 <= moves["death_accepts"] <= moves["death_attempts"]
        assert chain["relabel"] == {"draws_permuted": 0, "warm_window_warning": False}

    def test_single_gamma_for_every_candidate(self, tmp_path):
        series = simulate_path(model_b_spec(), 120, seed=5)
        data = tmp_path / "y.csv"
        write_series_csv(data, series.values)
        out = tmp_path / "sel"
        code = run_cli([
            "select",
            "--set", f"input={data}", "--set", f"output_dir={out}",
            "--set", "gamma=50", "--set", "g_range=1,2", "--set", "p_max=1",
            "--set", "n_iter=200", "--set", "burn_in=50",
            "--set", "n_j=30", "--set", "n_i=30",
            "--set", "reduced_burn_in=10", "--set", "relabel_warm_start=50",
            "--set", "workers=1", "--set", "seed=6",
        ])
        assert code == 0
        report = json.loads((out / "evidence.json").read_text())
        assert [m["g"] for m in report["models"]] == [1, 2]
        assert all("timing" not in m for m in report["models"])
        timing = json.loads((out / "manifest.json").read_text())["diagnostics"]["timing"]
        assert set(timing) == {"1", "2"}
        for spans in timing.values():
            assert set(spans) == {
                "order_chain_s", "fit_chain_s", "phi_ordinate_s", "mu_ordinate_s",
                "tau_ordinate_s", "pi_ordinate_s",
            }
            assert spans["order_chain_s"] == 0.0  # p_max = 1 runs no order chain
            assert min(spans["fit_chain_s"], spans["pi_ordinate_s"]) > 0.0
        chains = json.loads((out / "manifest.json").read_text())["diagnostics"]["chains"]
        assert set(chains) == {"1", "2"}
        for g, chain in chains.items():
            g = int(g)
            assert set(chain) == {
                "acceptance_rates", "stability_rejections", "reduced_stability_rejections",
                "relabel", "order_moves",
            }
            # p_max = 1 runs no order chain, so it moves nothing
            assert set(chain["order_moves"].values()) == {0}
            assert set(chain["relabel"]) == {"draws_permuted", "warm_window_warning"}
            assert 0 <= chain["relabel"]["draws_permuted"] <= (100 if g > 1 else 0)
            assert len(chain["acceptance_rates"]) == g
            assert all(0.0 <= a <= 1.0 for a in chain["acceptance_rates"])
            runs = chain["reduced_stability_rejections"]
            assert list(runs) == [f"phi_{k}_{side}" for k in range(1, g + 1)
                                  for side in ("num", "den")] + ["mu", "tau", "pi"]
            assert all(isinstance(n, int) and 0 <= n <= 40 for n in runs.values())
            assert 0 <= chain["stability_rejections"] <= 200


@QUIET
class TestReplicate:
    def test_two_replica_study(self, tmp_path):
        out = tmp_path / "rep"
        code = run_cli([
            "replicate",
            "--set", f"output_dir={out}", "--set", "spec=A",
            "--set", "replicas=2", "--set", "replica_length=120",
            "--set", "n_iter=700", "--set", "burn_in=300",
            "--set", "pilot_iters=500", "--set", "relabel_warm_start=100",
            "--set", "workers=1", "--set", "seed=6",
        ])
        assert code == 0
        names = [
            "pi_1", "shift_1", "sigma_1", "ar_1_1",
            "pi_2", "shift_2", "sigma_2", "ar_2_1",
        ]
        for name in names:
            cols = csv_columns(out / f"replicate_{name}.csv")
            assert list(cols) == ["y", "density"]
            assert cols["y"].size == 512
            assert np.all(cols["density"] >= 0)
        diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
        assert diag["replicas"] == 2
        assert set(diag["density_modes"]) == set(names)

    def short_study(self, out, *extra):
        return run_cli([
            "replicate",
            "--set", f"output_dir={out}", "--set", "spec=A",
            "--set", "replicas=1", "--set", "replica_length=150",
            "--set", "n_iter=300", "--set", "burn_in=100", "--set", "pilot_iters=100",
            "--set", "gamma=50", "--set", "relabel_warm_start=50", "--set", "workers=1",
            *extra,
        ])

    def test_set_gamma_skips_the_pilot(self, tmp_path):
        # pilot_iters=100 is below the pilot's minimum, so this exits 0 only
        # when every replica takes the set gamma instead of tuning one
        out = tmp_path / "rep"
        assert self.short_study(out) == 0
        assert (out / "replicate_shift_1.csv").exists()

    def test_spec_b_aligns_components_of_equal_order(self, tmp_path):
        # spec B has orders 2,1,1; matching the order-2 truth to an order-1
        # fitted component read its AR padding as a constant ar_1_2 column,
        # which the density estimate refuses
        out = tmp_path / "rep"
        code = run_cli([
            "replicate",
            "--set", f"output_dir={out}", "--set", "spec=B",
            "--set", "replicas=2", "--set", "replica_length=200",
            "--set", "n_iter=600", "--set", "burn_in=200", "--set", "pilot_iters=500",
            "--set", "relabel_warm_start=100", "--set", "workers=1", "--set", "seed=17",
        ])
        assert code == 0
        assert (out / "replicate_ar_1_2.csv").exists()
        assert not list(out.glob("replicate_ar_2_2.csv"))

    def test_spec_file_sets_the_truth(self, tmp_path, capsys):
        # one AR(2) component, where spec A has two AR(1) components; its
        # weight is 1 in every draw and gets no density
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "weights": [1.0], "shifts": [0.5], "ar_coeffs": [[0.5, -0.3]], "scales": [1.0],
        }))
        out = tmp_path / "rep"
        assert self.short_study(out, "--set", f"spec_file={spec_file}") == 0
        diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
        assert diag["spec"] == str(spec_file)
        assert set(diag["density_modes"]) == {"shift_1", "sigma_1", "ar_1_1", "ar_1_2"}
        missing = tmp_path / "missing.json"
        assert self.short_study(tmp_path / "none", "--set", f"spec_file={missing}") == 2
        assert f"spec_file path {missing} does not exist" in capsys.readouterr().err

    def test_fixed_shift_pins_the_shifts(self, tmp_path):
        out = tmp_path / "rep"
        assert self.short_study(out, "--set", "fixed_shift=yes") == 0
        modes = json.loads((out / "manifest.json").read_text())["diagnostics"]["density_modes"]
        assert set(modes) == {"pi_1", "sigma_1", "ar_1_1", "pi_2", "sigma_2", "ar_2_1"}
        assert not list(out.glob("replicate_shift_*.csv"))
