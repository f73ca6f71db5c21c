"""Parameter-uncertainty layer: the adherence gain's distribution (a Beta or
a point mass), seeded Monte Carlo execution, and distributional ROI
summaries.

Sub-stream derivation is counter-based and pinned: draw i uses
``numpy.random.default_rng(numpy.random.SeedSequence(master_seed,
spawn_key=(i,)))``.  Draws are therefore independent of execution order,
and summaries are bit-identical across reruns.

That construction is unchanged, but ``draw_deltas`` does not build a
``SeedSequence`` per draw.  numpy pools the master seed once; adhersim then
mixes in each draw's spawn-key word and hashes the output, one vectorised
pass over all draw indices, and numpy seeds each draw's PCG64 from the four
words that pass gives.  ``substream`` stays the reference construction;
each draw equals ``sample_delta(spec, substream(master_seed, i))``.
``numpy.random`` loads on first use, never at ``import adhersim``.

``run_monte_carlo`` is two steps and a summary: ``draw_deltas`` samples the
gains, and ``price_draws`` prices each gain's arm against the no-policy
arm's cost.  A caller that runs several policies, such as the mc figure
family, calls them apart: the draws depend only on the spec, n and the
master seed, so policies whose specs are equal share one set of draws.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import asdict, dataclass

import numpy as np

from .analytics import RejectedCost, baseline_cost, roi
from .costmodel import arm_costs, total_cost
from .numerics import check_finite
from .params import ModelParams
from .scenarios import PolicyConfig

QUANTILE_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)
DEFAULT_DELTA_SD = 0.05
MAX_DRAWS = 1_000_000  # 100 times the documented 10 000; a run holds a few hundred bytes per draw

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), kept as Python
# ints below 2**32 so that no numpy scalar arithmetic can overflow.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class DistributionSpec:
    """Distribution over the adherence gain delta: a Beta or a point mass.
    Every draw lies in [0, 1]."""

    alpha_shape: float = 0.0
    beta_shape: float = 0.0
    # The gain of a point mass; None for a Beta.
    point: float | None = None

    def __post_init__(self) -> None:
        if self.point is not None:
            if not (0.0 <= self.point <= 1.0):
                raise ValueError("point must be in [0, 1]")
        # numpy's Beta draws NaN for a NaN or infinite shape.
        elif not (0 < self.alpha_shape < math.inf and 0 < self.beta_shape < math.inf):
            raise ValueError("beta shapes must be finite and > 0")

    @staticmethod
    def beta(alpha_shape: float, beta_shape: float) -> "DistributionSpec":
        return DistributionSpec(alpha_shape=alpha_shape, beta_shape=beta_shape)

    @staticmethod
    def beta_from_mean(mean: float, sd: float = DEFAULT_DELTA_SD) -> "DistributionSpec":
        """Shapes matched to a target mean and standard deviation."""
        if not (0.0 < mean < 1.0):
            raise ValueError("mean must be in (0, 1)")
        if not (0.0 < sd < math.inf and sd * sd > 0.0):
            raise ValueError(f"sd: must be finite and > 0, with a square > 0; got {sd!r}")
        nu = mean * (1.0 - mean) / (sd * sd) - 1.0
        if nu <= 0:
            raise ValueError(f"{mean!r} is too close to 0 or 1 for a Beta draw with sd {sd!r}")
        return DistributionSpec.beta(mean * nu, (1.0 - mean) * nu)


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
    # Monte Carlo standard errors: sd/sqrt(n) and sqrt(p(1-p)/n).
    roi_mean_se: float
    prob_roi_positive_se: float

    def as_dict(self) -> dict:
        """The fields by name; JSON writes the quantile levels as their repr."""
        return asdict(self)


def check_draw_keys(seed: int | None, n_draws: int | None) -> None:
    """Range rules of a master seed and a draw count, where given."""
    if seed is not None and seed < 0:
        raise ValueError("seed: must be >= 0")
    if n_draws is not None and n_draws < 1:
        raise ValueError("n_draws: must be >= 1")
    if n_draws is not None and n_draws > MAX_DRAWS:
        raise ValueError(f"n_draws: must be <= {MAX_DRAWS}")


def substream(master_seed: int, draw_index: int) -> np.random.Generator:
    """Independent generator for one draw; pinned construction, see module doc."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(draw_index,)))


def _hashmix(value, hash_const: list[int]):
    """One word of SeedSequence's hashmix; ``value`` is an int or a uint32 array."""
    value = value ^ hash_const[0]
    hash_const[0] = (hash_const[0] * _MULT_A) & _MASK32
    value = (value * hash_const[0]) & _MASK32
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
    return result ^ (result >> _XSHIFT)


def _spawn_seed_words(master_seed: int, n: int) -> np.ndarray:
    """Row i is ``SeedSequence(master_seed, spawn_key=(i,)).generate_state(4, np.uint64)``.

    numpy pools the master seed's max(4, L) words (L its count of 32-bit
    words, zero-padded as for any spawn key), moving the hash constant 4
    steps per word.  Only the spawn-key word, mixed in last, differs, so that
    mix and the output hash run here on uint32 arrays over all n draws at once.
    """
    master_seed = operator.index(master_seed)  # bit_length needs a Python int
    n_words = max(_POOL_SIZE, -(-master_seed.bit_length() // 32))
    hash_const = [_INIT_A * pow(_MULT_A, _POOL_SIZE * n_words, 1 << 32) & _MASK32]
    mixer = np.random.SeedSequence(master_seed).pool.tolist()
    draw_word = np.arange(n, dtype=np.uint32)
    for i_dst in range(_POOL_SIZE):
        mixer[i_dst] = _mix(mixer[i_dst], _hashmix(draw_word, hash_const))
    hash_const = _INIT_B
    state = np.empty((n, 2 * _POOL_SIZE), dtype=np.uint32)
    for i_dst in range(2 * _POOL_SIZE):
        value = mixer[i_dst % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state[:, i_dst] = value ^ (value >> _XSHIFT)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _draw_streams(master_seed: int, n: int) -> Iterator[np.random.Generator]:
    """For i in range(n), a generator in the state ``substream(master_seed, i)`` starts in.

    numpy seeds each PCG64 from the draw's row of ``_spawn_seed_words``.  The
    adapter is defined here so that ``import adhersim`` leaves ``numpy.random`` unloaded.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.words  # PCG64 asks once, for 4 uint64 words

    for words in _spawn_seed_words(master_seed, n):
        yield np.random.Generator(np.random.PCG64(SeedWords(words)))


def sample_delta(spec: DistributionSpec, stream: np.random.Generator) -> float:
    """One adherence-gain draw in [0, 1]."""
    if spec.point is not None:
        return float(spec.point)
    return float(stream.beta(spec.alpha_shape, spec.beta_shape))


def positive_rate(roi_values: np.ndarray) -> float:
    """Fraction of draws with strictly positive ROI."""
    roi_values = np.asarray(roi_values, dtype=float)
    return float(np.count_nonzero(roi_values > 0.0) / len(roi_values))


def draw_deltas(spec: DistributionSpec, n: int, master_seed: int) -> np.ndarray:
    """n adherence-gain draws, draw i from its own substream (see module doc)."""
    check_draw_keys(master_seed, n)
    return np.array([sample_delta(spec, stream) for stream in _draw_streams(master_seed, n)], dtype=float)


def price_draws(params: ModelParams, policy_template: PolicyConfig, deltas: np.ndarray,
                c_base: float) -> tuple[np.ndarray, np.ndarray]:
    """Total cost and ROI against the baseline cost ``c_base`` of each gain's
    arm.  ``costmodel.arm_costs`` runs the gains in chunks whose rows each
    equal a one-arm run bit for bit.  A failure names the first failing draw."""
    rest, spend = arm_costs(params, policy_template, deltas)
    costs = total_cost(params, policy_template, rest, spend)
    try:
        return costs, roi(c_base, costs)
    except RejectedCost as exc:
        raise ValueError(f"draw {exc.index} (delta={deltas[exc.index]:.6f}) failed: {exc}") from exc


def run_monte_carlo(
    params: ModelParams,
    policy_template: PolicyConfig,
    spec: DistributionSpec,
    n: int,
    master_seed: int,
) -> tuple[McSummary, np.ndarray]:
    """Propagate n adherence-gain draws through the deterministic engine:
    ``draw_deltas``, then ``price_draws`` against the no-policy arm.

    Returns the summary plus the raw per-draw records as a structured array
    with fields (draw_index, delta, total_cost, roi_percent), in draw-index
    order.
    """
    deltas = draw_deltas(spec, n, master_seed)
    costs, rois = price_draws(params, policy_template, deltas, baseline_cost(params))
    draws = np.empty(
        n,
        dtype=[
            ("draw_index", np.int64),
            ("delta", np.float64),
            ("total_cost", np.float64),
            ("roi_percent", np.float64),
        ],
    )
    draws["draw_index"] = np.arange(n)
    draws["delta"], draws["total_cost"], draws["roi_percent"] = deltas, costs, rois
    # Centred on a draw, a series of one value has an sd of exactly 0.
    roi_sd = float(np.std(rois - rois[0], ddof=0))
    p_positive = positive_rate(rois)
    summary = McSummary(
        n_draws=n,
        master_seed=master_seed,
        roi_mean=float(np.mean(rois)),
        roi_sd=roi_sd,
        # inverted_cdf is the nearest-rank rule: the value of rank max(1, ceil(q n)).
        roi_quantiles=dict(zip(QUANTILE_LEVELS,
                               np.quantile(rois, QUANTILE_LEVELS, method="inverted_cdf").tolist())),
        prob_roi_positive=p_positive,
        cost_mean=float(np.mean(costs)),
        cost_sd=float(np.std(costs - costs[0], ddof=0)),
        roi_mean_se=roi_sd / math.sqrt(n),
        prob_roi_positive_se=math.sqrt(p_positive * (1.0 - p_positive) / n),
    )
    # Finite draws can still sum past the float range.  The quantiles are
    # draws' ROIs, finite where their mean is.
    for name, value in summary.as_dict().items():
        if isinstance(value, float):
            check_finite(name, value)
    return summary, draws
