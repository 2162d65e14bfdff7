"""Serialization: series and draws CSVs, grid CSVs, JSON reports, manifests.

CSV values are written in 17 significant digits and JSON floats as their
shortest repr, so every written value reloads to the identical double.
Draws CSVs carry one row per retained iteration with labelled columns and
reload into a ChainOutput whose summaries match the originals bit for bit;
run diagnostics that are not per-draw (acceptance rates, proposal
precisions, seed) live in the manifest instead.  CSV tables are written by
np.savetxt; a draws file is read one line at a time into a preallocated
array, so it costs memory in proportion to its array, not a Python object
per value.
"""

from __future__ import annotations

import itertools
import json
import math
import platform
from pathlib import Path

import numpy as np

from .model import WEIGHT_SUM_TOL, ChainOutput


def jsonify(obj):
    """Convert to plain JSON types; a non-finite float becomes its str."""
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
        return x if math.isfinite(x) else str(x)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(json.dumps(jsonify(obj), indent=2) + "\n")


def _write_columns(path: str | Path, header: list[str], columns: list[np.ndarray]) -> None:
    """The one CSV writer: a header line, then one row per index of the equal-length
    columns, every value as `%.17g` (which prints an integer-valued double below
    1e17, such as an order, as `str(int)` does).  np.savetxt gets an open file:
    given a path, it opens one through numpy's data-source layer, which imports
    gzip."""
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    with open(path, "w") as fh:
        np.savetxt(fh, table, fmt="%.17g", delimiter=",", header=",".join(header), comments="")


def write_series_csv(path: str | Path, values: np.ndarray) -> None:
    """A one-column CSV headed y."""
    write_grid_csv(path, values, {})


def read_series_csv(path: str | Path) -> np.ndarray:
    """Load a one-column CSV; a single non-numeric first line is a header.

    Blank lines are skipped.  Every other entry must be a finite number; the
    first that is not is refused by its 1-based line.
    """
    lines = [(i, ln.strip()) for i, ln in enumerate(Path(path).read_text().splitlines(), 1)]
    lines = [(i, ln) for i, ln in lines if ln]
    if not lines:
        raise ValueError(f"{path} is empty")
    try:
        float(lines[0][1])
    except ValueError:
        lines = lines[1:]
    if not lines:
        raise ValueError(f"{path} has a header but no data")
    values = [_number(ln) for _, ln in lines]
    for (i, ln), x in zip(lines, values):
        if not math.isfinite(x):
            raise ValueError(f"{path}:{i}: {ln!r} is not a finite number")
    return np.array(values)


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

    Every row is checked (`_check_draws`).  Run diagnostics that are not
    stored per draw come back as None; the conditioning length is the
    file's AR width.  The file is read one line at a time into a float
    array preallocated from its line count.  A line without one value per
    header column, or one that str.splitlines would break (at a form feed,
    say), is refused; a value that float() refuses reads as NaN, so that
    `_check_draws` names its text.
    """
    with open(path) as fh:
        n_lines = 0
        for n_lines, _ in enumerate(fh, 1):
            pass
        if n_lines < 2:
            raise ValueError(f"{path} holds no draws")
        fh.seek(0)
        header = fh.readline().rstrip("\n").split(",")
        g, width = _draws_layout(path, header)
        data = np.empty((n_lines - 1, len(header)))
        for i, line in enumerate(fh):
            text, *rest = line.splitlines()
            row = text.split(",")
            if rest or len(row) != len(header):
                raise ValueError(f"{path} has a row that does not hold one value per header column")
            try:
                data[i] = row
            except ValueError:
                data[i] = [_number(x) for x in row]
    return _draws_output(path, header, g, width, data)


def _row_tokens(path: str | Path, i: int) -> list[str]:
    """The values of draw i (body line i) as written in the file."""
    with open(path) as fh:
        return next(itertools.islice(fh, i + 1, None)).splitlines()[0].split(",")


def _draws_layout(path: str | Path, header: list[str]) -> tuple[int, int]:
    """(g, AR width) of a draws header, refusing any other layout."""
    g = [name.startswith("pi_") for name in header].count(True)
    if g < 1:
        raise ValueError(f"{path} has no pi_k columns; not a draws file")
    # iteration, g blocks of (pi, shift, mean, sigma, order, ar_1..ar_width), 3 trailing columns
    width = (len(header) - 4) // g - 5
    if header != draws_header(g, width):
        raise ValueError(f"{path} column layout does not match a draws file for g={g}")
    return g, width


def _draws_output(path, header, g, width, data) -> ChainOutput:
    """The checked ChainOutput of a draws table."""
    blocks = data[:, 1:-3].reshape(data.shape[0], g, 5 + width)
    fields = np.ascontiguousarray(blocks[:, :, :5].transpose(2, 0, 1))
    weights, shifts, means, scales, orders = fields
    _check_draws(path, header, data, width, weights, scales, orders)
    lam, log_likelihoods, log_posteriors = np.ascontiguousarray(data[:, -3:].T)
    return ChainOutput(
        g=g,
        weights=weights,
        shifts=shifts,
        means=means,
        scales=scales,
        ar=np.ascontiguousarray(blocks[:, :, 5:]),
        orders=orders.astype(np.int64),
        lam=lam,
        log_likelihoods=log_likelihoods,
        log_posteriors=log_posteriors,
        fixed_shift=bool(np.all(shifts == 0.0)),
    )


def _number(text: str) -> float:
    """float(text), or NaN for text that is not a number, which `_check_draws` refuses."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def _check_draws(path, header, data, width, weights, scales, orders) -> None:
    """Refuse the first bad value of a draws file, naming its iteration and column.

    Every value must be a finite number and every order an integer in
    1..width, and each draw must pass `model.check_fields`' rules: positive
    weights summing to one and positive scales.  AR entries beyond a draw's
    order are not read.  The message quotes the file's text (`_row_tokens`).
    """
    g = orders.shape[1]
    pi_col = 1 + (5 + width) * np.arange(g)  # the column of pi_k, for 0-based k
    for bad, offset, reason in (
        (~np.isfinite(data), None, "is not a finite number"),
        (~((orders == np.round(orders)) & (orders >= 1) & (orders <= width)), 4,
         f"is not an integer in 1..{width}"),
        (~(weights > 0.0), 0, "is not a positive mixing weight"),
        (~(scales > 0.0), 3, "is not a positive scale"),
    ):
        if bad.any():
            i, j = np.argwhere(bad)[0].tolist()
            j = j if offset is None else int(pi_col[j]) + offset
            row = _row_tokens(path, i)
            raise ValueError(f"{path}: iteration {row[0]}, column {header[j]}: "
                             f"{row[j]} {reason}")
    total = weights.sum(axis=1)
    off = np.abs(total - 1.0) > WEIGHT_SUM_TOL
    if off.any():
        i = int(off.argmax())
        raise ValueError(f"{path}: iteration {_row_tokens(path, i)[0]}, columns pi_1..pi_{g}: "
                         f"mixing weights must sum to 1, got {float(total[i])}")


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
