"""Parameter-uncertainty layer: adherence-gain distributions, seeded Monte
Carlo execution, and distributional ROI summaries.

Sub-stream derivation is counter-based and pinned: draw i uses
``numpy.random.default_rng(numpy.random.SeedSequence(master_seed,
spawn_key=(i,)))``.  Draws are therefore independent of execution order,
and summaries are bit-identical across reruns.

That construction is unchanged, but ``run_monte_carlo`` does not build it
once per draw.  It computes every draw's seed words in one vectorised pass
of ``SeedSequence``'s hash over the draw index, turns each into the PCG64
state that seeding would produce, and sets that state on one generator
reused for every draw.  ``substream`` stays the reference construction;
each draw equals ``sample_delta(spec, substream(master_seed, i))``.
"""

from __future__ import annotations

import enum
import math
import operator
from collections.abc import Iterator
from dataclasses import asdict, dataclass

import numpy as np

from .analytics import RejectedCost, baseline_cost, roi
from .costmodel import arm_costs, total_cost
from .params import ModelParams
from .scenarios import PolicyConfig

QUANTILE_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)
DEFAULT_DELTA_SD = 0.05

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), kept as Python
# ints below 2**32 so that no numpy scalar arithmetic can overflow.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64).
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


class DistributionKind(enum.Enum):
    BETA = "beta"
    BINARY = "binary"


@dataclass(frozen=True)
class DistributionSpec:
    """Distribution over the adherence gain delta: a Beta, or a binary mix of
    high and low responders.  Every draw lies in [0, 1]."""

    kind: DistributionKind
    # Beta
    alpha_shape: float = 0.0
    beta_shape: float = 0.0
    # Binary high/low responders
    delta_high: float = 0.0
    delta_low: float = 0.0
    p_high: float = 0.0

    def __post_init__(self) -> None:
        if self.kind is DistributionKind.BETA:
            if self.alpha_shape <= 0 or self.beta_shape <= 0:
                raise ValueError("beta shapes must be > 0")
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
            raise ValueError(f"{mean!r} is too close to 0 or 1 for a Beta draw with sd {sd!r}")
        return DistributionSpec.beta(mean * nu, (1.0 - mean) * nu)

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

    The master seed's words fill the pool (zero-padded to its size, as
    numpy does whenever a spawn key is given) and are mixed as Python ints,
    the same for every draw.  Only the spawn-key word, mixed in last,
    differs, so that step and the output hash run on uint32 arrays over all
    n draws at once.
    """
    master_seed = operator.index(master_seed)  # a numpy integer would overflow below
    run_words = [master_seed & _MASK32]
    while master_seed >> 32:
        master_seed >>= 32
        run_words.append(master_seed & _MASK32)
    run_words += [0] * (_POOL_SIZE - len(run_words))
    hash_const = [_INIT_A]
    mixer = [_hashmix(word, hash_const) for word in run_words[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                mixer[i_dst] = _mix(mixer[i_dst], _hashmix(mixer[i_src], hash_const))
    for word in run_words[_POOL_SIZE:] + [np.arange(n, dtype=np.uint32)]:
        for i_dst in range(_POOL_SIZE):
            mixer[i_dst] = _mix(mixer[i_dst], _hashmix(word, hash_const))
    hash_const = _INIT_B
    state = np.empty((n, 2 * _POOL_SIZE), dtype=np.uint32)
    for i_dst in range(2 * _POOL_SIZE):
        value = mixer[i_dst % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state[:, i_dst] = value ^ (value >> _XSHIFT)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _draw_streams(master_seed: int, n: int) -> Iterator[np.random.Generator]:
    """For i in range(n), one reused generator in the state ``substream(master_seed, i)`` starts in.

    PCG64 seeds from the words (initstate hi, lo, initseq hi, lo) as
    ``inc = 2 initseq + 1`` and ``state = (inc + initstate) MULT + inc``,
    mod 2**128.  Each yielded stream is valid until the next is taken.
    """
    bit_generator = np.random.PCG64(0)
    stream = np.random.Generator(bit_generator)
    for state_hi, state_lo, seq_hi, seq_lo in _spawn_seed_words(master_seed, n).tolist():
        inc = ((seq_hi << 65) | (seq_lo << 1) | 1) & _MASK128
        state = ((inc + ((state_hi << 64) | state_lo)) * _PCG64_MULT + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield stream


def sample_delta(spec: DistributionSpec, stream: np.random.Generator) -> float:
    """One adherence-gain draw in [0, 1]."""
    if spec.kind is DistributionKind.BETA:
        return float(stream.beta(spec.alpha_shape, spec.beta_shape))
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
) -> tuple[McSummary, np.ndarray]:
    """Propagate n adherence-gain draws through the deterministic engine.

    Returns the summary plus the raw per-draw records as a structured array
    with fields (draw_index, delta, total_cost, roi_percent), in draw-index
    order.  Each draw is sampled from its own substream, reproduced on one
    reused generator (see module doc); the engine then evaluates the draws
    in fixed-size chunks (see ``costmodel.arm_costs``), each row of which
    equals a one-arm run bit for bit, so the output does not depend on the
    chunk size.  A failure names the first failing draw.
    """
    check_draw_keys(master_seed, n)
    c_base = baseline_cost(params)
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
    deltas = draws["delta"]
    deltas[:] = [sample_delta(spec, stream) for stream in _draw_streams(master_seed, n)]

    def name(i: int) -> str:
        return f"draw {i} (delta={deltas[i]:.6f})"

    in_range = (deltas >= 0.0) & (deltas <= 1.0)
    if not in_range.all():
        raise ValueError(f"{name(int(in_range.argmin()))} failed: adherence_gain_delta: must be in [0, 1]")
    rest, spend = arm_costs(params, policy_template, deltas)
    costs = total_cost(params, policy_template, rest, spend)
    try:
        rois = roi(c_base, costs)
    except RejectedCost as exc:
        raise ValueError(f"{name(exc.index)} failed: {exc}") from exc
    draws["total_cost"], draws["roi_percent"] = costs, rois
    roi_sd = float(np.std(rois, ddof=0))
    p_positive = positive_rate(rois)
    summary = McSummary(
        n_draws=n,
        master_seed=master_seed,
        roi_mean=float(np.mean(rois)),
        roi_sd=roi_sd,
        roi_quantiles=_nearest_rank_quantiles(np.sort(rois)),
        prob_roi_positive=p_positive,
        cost_mean=float(np.mean(costs)),
        cost_sd=float(np.std(costs, ddof=0)),
        roi_mean_se=roi_sd / math.sqrt(n),
        prob_roi_positive_se=math.sqrt(p_positive * (1.0 - p_positive) / n),
    )
    return summary, draws
