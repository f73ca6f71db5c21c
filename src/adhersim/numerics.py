"""Grid construction and small numerical helpers shared by the engine."""

from __future__ import annotations

import math

import numpy as np

# Canonical simulation resolution: 100 steps per year (0.01-year step).
# Event times (policy starts, nudge activations, window ends) are snapped to
# this grid, and the nudge rule always runs on it.  Only quadrature grids
# whose steps_per_year is a multiple of this keep every event on a node.
STEPS_PER_YEAR = 100


def time_grid(horizon: float, steps_per_year: int = STEPS_PER_YEAR) -> np.ndarray:
    """Uniform grid over [0, horizon] with exact node values.

    Nodes are computed as integer/steps_per_year so that a snapped event time
    compares bit-exactly equal to the grid node it sits on.
    """
    n = round(horizon * steps_per_year)
    if abs(n - horizon * steps_per_year) > 1e-9:
        raise ValueError(
            f"horizon {horizon} is not representable on a 1/{steps_per_year}-year grid"
        )
    if n <= 0:
        raise ValueError("horizon must be positive")
    return np.arange(n + 1) / steps_per_year


def sigmoid(z: np.ndarray | float, out: np.ndarray | None = None) -> np.ndarray | float:
    """Numerically stable logistic function 1 / (1 + exp(-z)), written to
    ``out`` (an array shaped like z, which may be z) if given."""
    z = np.asarray(z, dtype=float)
    if z.ndim == 0:
        return float(sigmoid(z.reshape(1))[0])
    # exp(-|z|) never overflows: 1 / (1 + exp(-z)) for z >= 0, exp(z) / (1 + exp(z)) below.
    # It lies in [0, 1], so the numerator is max(exp(-|z|), 1.0 if z >= 0 else 0.0).
    numerator = np.greater_equal(z, 0.0, out=np.empty(z.shape))
    e = np.exp(np.negative(np.abs(z, out=out), out=out), out=out)
    np.maximum(e, numerator, out=numerator)
    e += 1.0
    return np.divide(numerator, e, out=e)


def check_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name}: must be finite, got {value}")
    return value
