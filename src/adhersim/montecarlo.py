"""Parameter-uncertainty layer: adherence-gain distributions, seeded Monte
Carlo execution, and distributional ROI summaries.

Sub-stream derivation is counter-based and pinned: draw i uses
``numpy.random.default_rng(numpy.random.SeedSequence(master_seed,
spawn_key=(i,)))``.  Draws are therefore independent of execution order,
and summaries are bit-identical across reruns.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .analytics import baseline_cost, roi
from .costmodel import simulate_trajectory
from .numerics import check_finite
from .params import ModelParams
from .scenarios import PolicyConfig

QUANTILE_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)
DEFAULT_DELTA_SD = 0.05


class DistributionKind(enum.Enum):
    BETA = "beta"
    TRUNC_NORMAL = "trunc_normal"
    BINARY = "binary"


@dataclass(frozen=True)
class DistributionSpec:
    """Distribution over the adherence gain delta; every draw lies in [0, 1]."""

    kind: DistributionKind
    # Beta
    alpha_shape: float = 0.0
    beta_shape: float = 0.0
    # Truncated normal on [lo, hi]
    mu: float = 0.0
    sigma: float = 0.0
    lo: float = 0.0
    hi: float = 1.0
    # Binary high/low responders
    delta_high: float = 0.0
    delta_low: float = 0.0
    p_high: float = 0.0

    def __post_init__(self) -> None:
        if self.kind is DistributionKind.BETA:
            if self.alpha_shape <= 0 or self.beta_shape <= 0:
                raise ValueError("beta shapes must be > 0")
        elif self.kind is DistributionKind.TRUNC_NORMAL:
            check_finite("mu", self.mu)
            if self.sigma <= 0:
                raise ValueError("sigma must be > 0")
            if not (self.lo < self.hi):
                raise ValueError("lo must be < hi")
            if self.lo < 0 or self.hi > 1:
                raise ValueError("truncation bounds must stay within [0, 1]")
        elif self.kind is DistributionKind.BINARY:
            for name in ("delta_high", "delta_low"):
                v = getattr(self, name)
                if not (0.0 <= v <= 1.0):
                    raise ValueError(f"{name} must be in [0, 1]")
            if not (0.0 <= self.p_high <= 1.0):
                raise ValueError("p_high must be in [0, 1]")
        else:  # pragma: no cover
            raise ValueError(f"unknown distribution kind {self.kind}")

    @staticmethod
    def beta(alpha_shape: float, beta_shape: float) -> "DistributionSpec":
        return DistributionSpec(DistributionKind.BETA, alpha_shape=alpha_shape, beta_shape=beta_shape)

    @staticmethod
    def beta_from_mean(mean: float, sd: float = DEFAULT_DELTA_SD) -> "DistributionSpec":
        """Shapes matched to a target mean and standard deviation."""
        if not (0.0 < mean < 1.0):
            raise ValueError("mean must be in (0, 1)")
        nu = mean * (1.0 - mean) / (sd * sd) - 1.0
        if nu <= 0:
            raise ValueError("sd too large for the requested mean")
        return DistributionSpec.beta(mean * nu, (1.0 - mean) * nu)

    @staticmethod
    def trunc_normal(mu: float, sigma: float, lo: float = 0.0, hi: float = 1.0) -> "DistributionSpec":
        return DistributionSpec(DistributionKind.TRUNC_NORMAL, mu=mu, sigma=sigma, lo=lo, hi=hi)

    @staticmethod
    def binary(delta_high: float, delta_low: float, p_high: float) -> "DistributionSpec":
        return DistributionSpec(
            DistributionKind.BINARY, delta_high=delta_high, delta_low=delta_low, p_high=p_high
        )


@dataclass(frozen=True)
class McSummary:
    """Distributional summary of a Monte Carlo run."""

    n_draws: int
    master_seed: int
    roi_mean: float
    roi_sd: float
    roi_quantiles: dict[float, float]
    prob_roi_positive: float
    cost_mean: float
    cost_sd: float

    def as_dict(self) -> dict:
        return {
            "n_draws": self.n_draws,
            "master_seed": self.master_seed,
            "roi_mean": self.roi_mean,
            "roi_sd": self.roi_sd,
            "roi_quantiles": {str(k): v for k, v in self.roi_quantiles.items()},
            "prob_roi_positive": self.prob_roi_positive,
            "cost_mean": self.cost_mean,
            "cost_sd": self.cost_sd,
        }


def substream(master_seed: int, draw_index: int) -> np.random.Generator:
    """Independent generator for one draw; pinned construction, see module doc."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(draw_index,)))


def sample_delta(spec: DistributionSpec, stream: np.random.Generator) -> float:
    """One adherence-gain draw in [0, 1]."""
    if spec.kind is DistributionKind.BETA:
        return float(stream.beta(spec.alpha_shape, spec.beta_shape))
    if spec.kind is DistributionKind.TRUNC_NORMAL:
        # Rejection on the truncated support; acceptance is ~1 for the
        # reference (mu well inside [0, 1], small sigma).
        for _ in range(10000):
            x = stream.normal(spec.mu, spec.sigma)
            if spec.lo <= x <= spec.hi:
                return float(x)
        raise ValueError("truncated-normal rejection sampling failed to accept")
    # Binary
    return float(spec.delta_high if stream.random() < spec.p_high else spec.delta_low)


def _nearest_rank_quantiles(sorted_values: np.ndarray) -> dict[float, float]:
    n = len(sorted_values)
    out: dict[float, float] = {}
    for q in QUANTILE_LEVELS:
        rank = max(1, math.ceil(q * n))
        out[q] = float(sorted_values[rank - 1])
    return out


def positive_rate(roi_values: np.ndarray) -> float:
    """Fraction of draws with strictly positive ROI."""
    roi_values = np.asarray(roi_values, dtype=float)
    return float(np.count_nonzero(roi_values > 0.0) / len(roi_values))


def run_monte_carlo(
    params: ModelParams,
    policy_template: PolicyConfig,
    spec: DistributionSpec,
    n: int,
    master_seed: int,
    n_workers: int = 1,
) -> tuple[McSummary, np.ndarray]:
    """Propagate n adherence-gain draws through the deterministic engine.

    Returns the summary plus the raw per-draw records as a structured array
    with fields (draw_index, delta, total_cost, roi_percent), in draw-index
    order.  Draws run in order in the calling thread, since each is a few
    small numpy calls that hold the interpreter lock; ``n_workers`` is
    validated but changes neither the execution nor the output.
    """
    if n < 1:
        raise ValueError("n_draws: must be >= 1")
    if master_seed < 0:
        raise ValueError("seed: must be >= 0")
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    c_base = baseline_cost(params)

    def one_draw(i: int) -> tuple[int, float, float, float]:
        delta = sample_delta(spec, substream(master_seed, i))
        try:
            policy = replace(policy_template, adherence_gain_delta=delta)
            cost = simulate_trajectory(params, policy).final_cost
            return i, delta, cost, roi(c_base, cost)
        except ValueError as exc:
            raise ValueError(f"draw {i} (delta={delta:.6f}) failed: {exc}") from exc

    draws = np.array(
        [one_draw(i) for i in range(n)],
        dtype=[
            ("draw_index", np.int64),
            ("delta", np.float64),
            ("total_cost", np.float64),
            ("roi_percent", np.float64),
        ],
    )
    rois = draws["roi_percent"]
    costs = draws["total_cost"]
    summary = McSummary(
        n_draws=n,
        master_seed=master_seed,
        roi_mean=float(np.mean(rois)),
        roi_sd=float(np.std(rois, ddof=0)),
        roi_quantiles=_nearest_rank_quantiles(np.sort(rois)),
        prob_roi_positive=positive_rate(rois),
        cost_mean=float(np.mean(costs)),
        cost_sd=float(np.std(costs, ddof=0)),
    )
    return summary, draws


def positive_roi_rate(summary: McSummary) -> float:
    """Empirical fraction of draws with ROI strictly greater than zero."""
    return summary.prob_roi_positive
