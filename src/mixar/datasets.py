"""Built-in simulation specs and named recipes for real-data analyses.

Two standard mixture autoregressive processes are bundled for simulation
studies: a two-component model with one non-stationary component (spec A)
and a three-component model prone to label switching (spec B).  Recipes for
the IBM closing-price and Canadian lynx series carry the preprocessing and
fit settings only; the data files themselves must be supplied by the user.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import MARSpec


def model_a_spec() -> MARSpec:
    """Two equal-weight components, AR coefficients -0.5 and 1, scales 1 and 2."""
    return MARSpec(
        weights=np.array([0.5, 0.5]),
        shifts=np.zeros(2),
        ar_coeffs=(np.array([-0.5]), np.array([1.0])),
        scales=np.array([1.0, 2.0]),
    )


def model_b_spec() -> MARSpec:
    """Three components with orders (2, 1, 1) and well-separated scales."""
    return MARSpec(
        weights=np.array([0.5, 0.3, 0.2]),
        shifts=np.zeros(3),
        ar_coeffs=(np.array([-0.5, 0.5]), np.array([-0.4]), np.array([1.0])),
        scales=np.array([1.0, 2.0, 4.0]),
    )


BUILTIN_SPECS = {"A": model_a_spec, "B": model_b_spec}
BUILTIN_LENGTHS = {"A": 300, "B": 600}


@dataclass(frozen=True)
class DatasetRecipe:
    """Preprocessing and default fit settings for a named series."""

    name: str
    transform: str  # one of TRANSFORMS
    expected_length: int  # raw length before any transform
    g: int
    orders: tuple[int, ...]
    fixed_shift: bool

    def check_length(self, raw_length: int) -> None:
        """Warn, not refuse, on a raw series of another length: the recipe
        still applies to a longer or shorter version of the same series."""
        if raw_length != self.expected_length:
            warnings.warn(
                f"recipe {self.name!r} expects {self.expected_length} raw observations, "
                f"got {raw_length}",
                stacklevel=2,
            )


RECIPES = {
    "ibm": DatasetRecipe(
        name="ibm",
        transform="difference",
        expected_length=369,
        g=3,
        orders=(4, 1, 1),
        fixed_shift=True,
    ),
    "lynx": DatasetRecipe(
        name="lynx",
        transform="log",
        expected_length=111,
        g=2,
        orders=(1, 2),
        fixed_shift=False,
    ),
}


TRANSFORMS = ("difference", "log")


def apply_transform(values: np.ndarray, transform: str) -> np.ndarray:
    """Apply a named preprocessing step (one of TRANSFORMS, or "none") to a raw series."""
    values = np.asarray(values, dtype=float)
    if transform == "none":
        return values.copy()
    if transform == "difference":
        if values.size < 2:
            raise ValueError("differencing needs at least two observations")
        return np.diff(values)
    if transform == "log":
        if np.any(values <= 0):
            raise ValueError("log transform requires strictly positive observations")
        return np.log(values)
    raise ValueError(f"unknown transform {transform!r}")


def _recipe(name: str) -> DatasetRecipe:
    try:
        return RECIPES[name]
    except KeyError:
        raise ValueError(f"unknown recipe {name!r}; available: {sorted(RECIPES)}") from None
