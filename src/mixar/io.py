"""Serialization: series and draws CSVs, grid CSVs, JSON reports, manifests.

All numeric output goes through a 17-significant-digit format so every
written value reloads to the identical double.  Draws CSVs carry one row
per retained iteration with labelled columns and reload into a ChainOutput
whose summaries match the originals bit for bit; run diagnostics that are
not per-draw (acceptance rates, proposal precisions, seed) live in the
manifest instead.
"""

from __future__ import annotations

import json
import math
import platform
from pathlib import Path

import numpy as np

from .sampler import ChainOutput

FLOAT_FMT = "{:.17g}"


def fmt(x: float) -> str:
    return FLOAT_FMT.format(float(x))


def jsonify(obj):
    """Convert to plain JSON types, routing floats through the 17-digit format."""
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return float(fmt(x)) if math.isfinite(x) else str(x)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(json.dumps(jsonify(obj), indent=2) + "\n")


def _write_columns(path: str | Path, header: list[str], columns: list[np.ndarray]) -> None:
    """The one CSV writer: a header line, then one row per index of the equal-length
    columns, every value through `fmt` (which prints an integer-valued double
    below 1e17, such as an order, as `str(int)` does)."""
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    lines = [",".join(header)]
    lines.extend(",".join(map(fmt, row.tolist())) for row in table)
    Path(path).write_text("\n".join(lines) + "\n")


def write_series_csv(path: str | Path, values: np.ndarray) -> None:
    """A one-column CSV headed y."""
    write_grid_csv(path, values, {})


def read_series_csv(path: str | Path) -> np.ndarray:
    """Load a one-column CSV; a single non-numeric first line is a header."""
    lines = [ln.strip() for ln in Path(path).read_text().splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError(f"{path} is empty")
    start = 0
    try:
        float(lines[0])
    except ValueError:
        start = 1
    if start == len(lines):
        raise ValueError(f"{path} has a header but no data")
    try:
        return np.array([float(ln) for ln in lines[start:]])
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric entry in series column: {exc}") from None


def draws_header(g: int, width: int) -> list[str]:
    cols = ["iteration"]
    for k in range(1, g + 1):
        cols += [f"pi_{k}", f"shift_{k}", f"mean_{k}", f"sigma_{k}", f"order_{k}"]
        cols += [f"ar_{k}_{i}" for i in range(1, width + 1)]
    cols += ["lambda", "loglik", "logpost"]
    return cols


def write_draws_csv(path: str | Path, output: ChainOutput) -> None:
    """One row per retained draw, in the `draws_header` column order."""
    columns = [np.arange(output.n_draws)]
    for k in range(output.g):
        columns += [output.weights[:, k], output.shifts[:, k], output.means[:, k],
                    output.scales[:, k], output.orders[:, k], *output.ar[:, k].T]
    columns += [output.lam, output.log_likelihoods, output.log_posteriors]
    _write_columns(path, draws_header(output.g, output.ar.shape[2]), columns)


def read_draws_csv(path: str | Path) -> ChainOutput:
    """Reload a draws CSV into a ChainOutput carrying the draws only.

    Run diagnostics that are not stored per draw come back as None; the
    conditioning length is re-derived as the widest per-draw order.
    """
    text = Path(path).read_text().splitlines()
    if len(text) < 2:
        raise ValueError(f"{path} holds no draws")
    header = text[0].split(",")
    g = sum(1 for name in header if name.startswith("pi_"))
    if g < 1:
        raise ValueError(f"{path} has no pi_k columns; not a draws file")
    width = sum(1 for name in header if name.startswith("ar_1_"))
    expected = draws_header(g, width)
    if header != expected:
        raise ValueError(f"{path} column layout does not match a draws file for g={g}")
    data = np.array([[float(x) for x in line.split(",")] for line in text[1:]])
    n = data.shape[0]
    idx = {name: j for j, name in enumerate(header)}

    def block(prefix):
        return np.column_stack([data[:, idx[f"{prefix}_{k}"]] for k in range(1, g + 1)])

    weights = block("pi")
    shifts = block("shift")
    means = block("mean")
    scales = block("sigma")
    orders = block("order").astype(np.int64)
    ar = np.zeros((n, g, width))
    for k in range(1, g + 1):
        for j in range(1, width + 1):
            ar[:, k - 1, j - 1] = data[:, idx[f"ar_{k}_{j}"]]
    return ChainOutput(
        g=g,
        cond=int(orders.max()),
        weights=weights,
        shifts=shifts,
        means=means,
        scales=scales,
        ar=ar,
        orders=orders,
        lam=data[:, idx["lambda"]],
        log_likelihoods=data[:, idx["loglik"]],
        log_posteriors=data[:, idx["logpost"]],
        acceptance=None,
        stability_rejections=0,
        gamma=None,
        fixed_shift=bool(np.all(shifts == 0.0)),
    )


def write_grid_csv(path: str | Path, abscissa: np.ndarray, columns: dict[str, np.ndarray]) -> None:
    """Write a grid CSV: first column y, then one named density column each."""
    abscissa = np.asarray(abscissa, dtype=float)
    for name, column in columns.items():
        if np.asarray(column).shape != abscissa.shape:
            raise ValueError(f"column {name!r} does not match the abscissa length")
    _write_columns(path, ["y", *columns], [abscissa, *columns.values()])


def summaries_payload(summaries) -> dict:
    return {
        s.name: {
            "mean": s.mean,
            "standard_error": s.standard_error,
            "hpdr_90": list(s.hpdr_90),
            "hd_value": s.hd_value,
        }
        for s in summaries
    }


def evidence_payload(results, best_g: int | None = None) -> dict:
    rows = []
    for r in results:
        rows.append(
            {
                "g": r.g,
                "orders": list(r.orders),
                "preference": r.preference,
                "log_marginal": r.log_marginal,
                "log_p_g": r.log_p_g,
                "parts": dict(r.parts),
            }
        )
    payload = {"models": rows}
    if best_g is not None:
        payload["best_g"] = best_g
    return payload


def _versions() -> dict[str, str]:
    from . import __version__

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mixar": __version__,
    }


def write_manifest(
    path: str | Path,
    command: str,
    config_echo: dict,
    seed: int,
    wall_clock_seconds: float,
    outputs: list[str],
    diagnostics: dict | None = None,
) -> None:
    """Record everything needed to reproduce the run bit for bit."""
    manifest = {
        "command": command,
        "config": config_echo,
        "seed": seed,
        "versions": _versions(),
        "wall_clock_seconds": wall_clock_seconds,
        "outputs": sorted(outputs),
        "diagnostics": diagnostics or {},
    }
    write_json(path, manifest)
