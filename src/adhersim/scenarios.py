"""Policy scenario definitions: adherence trajectories, expenditure functions,
the adaptive-nudge feedback rule, and the stress transforms.

All adherence and expenditure functions are right-continuous in time; a policy
active from time tau contributes from s = tau onward.  Every policy event (the
snapped start, each nudge activation and each window closure) sits on a node
of the canonical 0.01-year grid, so between two nodes the policy stays on the
piece in force at the earlier one.  ``adherence_array`` takes the time at
which to read the piece (``piece_at``), which lets the integrator evaluate a
panel's interior and right end on the piece its start node set; spend is
constant on a panel, so it needs no such argument.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .numerics import STEPS_PER_YEAR, check_finite, snap_up, time_grid
from .params import ModelParams

# Pinned scenario defaults not covered by the reference parameter file.
REGRESSIVE_DECAY_THETA = 0.5      # per year; half-life ~1.4 years
ADAPTIVE_DECAY_THETA = 0.02       # per year; slow erosion between nudges
ADAPTIVE_NUDGE_THRESHOLD = 0.82   # re-engagement trigger level
NUDGE_WINDOW_YEARS = 0.5          # each activation opens a cost window of this length
DEFAULT_NUDGE_UNIT_COST = 0.5     # units of P(s) added per open window
DEFAULT_BASELINE_DECAY = 0.05     # per year, decaying-counterfactual variant


class PolicyKind(enum.Enum):
    BASELINE = "baseline"
    EARLY_ADHERENCE = "early_adherence"
    DELAYED = "delayed"
    REGRESSIVE = "regressive"
    ADAPTIVE_NUDGES = "adaptive_nudges"
    LOW_IMPACT = "low_impact"
    CUSTOM = "custom"


class StressKind(enum.Enum):
    COST_INFLATION = "cost_inflation"
    ACCELERATED_PROGRESSION = "accelerated_progression"


@dataclass(frozen=True)
class PolicyConfig:
    """One policy design.

    Fields not used by a given kind (see ``_gain_law``) are ignored by the
    evaluators but still range-validated.  ``inflation_factor`` and
    ``progression_compression`` are stress multipliers applied by
    :func:`apply_stress`.
    """

    kind: PolicyKind
    start_tau: float = 0.0
    adherence_gain_delta: float = 0.0
    cost_scale_gamma: float = 0.0
    decay_theta: float = 0.0
    nudge_threshold: float = 0.0
    nudge_unit_cost: float = DEFAULT_NUDGE_UNIT_COST
    baseline_decay: float | None = None
    inflation_factor: float = 1.0
    progression_compression: float = 1.0

    def __post_init__(self) -> None:
        check_finite("start_tau", self.start_tau)
        check_finite("adherence_gain_delta", self.adherence_gain_delta)
        check_finite("cost_scale_gamma", self.cost_scale_gamma)
        check_finite("decay_theta", self.decay_theta)
        check_finite("nudge_threshold", self.nudge_threshold)
        check_finite("nudge_unit_cost", self.nudge_unit_cost)
        if self.start_tau < 0:
            raise ValueError("start_tau must be >= 0")
        if not (0.0 <= self.adherence_gain_delta <= 1.0):
            raise ValueError("adherence_gain_delta must be in [0, 1]")
        if self.cost_scale_gamma < 0:
            raise ValueError("cost_scale_gamma must be >= 0")
        if self.decay_theta < 0:
            raise ValueError("decay_theta must be >= 0")
        if not (0.0 <= self.nudge_threshold <= 1.0):
            raise ValueError("nudge_threshold must be in [0, 1]")
        if self.nudge_unit_cost < 0:
            raise ValueError("nudge_unit_cost must be >= 0")
        if self.baseline_decay is not None:
            check_finite("baseline_decay", self.baseline_decay)
            if self.baseline_decay < 0:
                raise ValueError("baseline_decay must be >= 0")
        if self.inflation_factor < 1.0:
            raise ValueError("inflation_factor must be >= 1")
        if not (0.0 < self.progression_compression <= 1.0):
            raise ValueError("progression_compression must be in (0, 1]")

    @property
    def tau_snapped(self) -> float:
        return float(snap_up(self.start_tau))


@dataclass(frozen=True)
class NudgeLog:
    """Activation times of the adaptive re-engagement rule."""

    activation_times: tuple[float, ...] = ()

    @property
    def count(self) -> int:
        return len(self.activation_times)


EMPTY_NUDGE_LOG = NudgeLog()

_PRESETS = {
    "baseline": dict(kind=PolicyKind.BASELINE),
    "early_adherence": dict(
        kind=PolicyKind.EARLY_ADHERENCE, start_tau=2.0,
        adherence_gain_delta=0.3, cost_scale_gamma=1.5,
    ),
    "delayed": dict(
        kind=PolicyKind.DELAYED, start_tau=5.0,
        adherence_gain_delta=0.3, cost_scale_gamma=1.5,
    ),
    "regressive": dict(
        kind=PolicyKind.REGRESSIVE, start_tau=2.0,
        adherence_gain_delta=0.3, cost_scale_gamma=1.2,
        decay_theta=REGRESSIVE_DECAY_THETA,
    ),
    "adaptive_nudges": dict(
        kind=PolicyKind.ADAPTIVE_NUDGES, start_tau=2.0,
        adherence_gain_delta=0.3, cost_scale_gamma=2.0,
        decay_theta=ADAPTIVE_DECAY_THETA, nudge_threshold=ADAPTIVE_NUDGE_THRESHOLD,
    ),
    "low_impact": dict(
        kind=PolicyKind.LOW_IMPACT, start_tau=2.0,
        adherence_gain_delta=0.05, cost_scale_gamma=3.0,
    ),
}

PRESET_NAMES = tuple(_PRESETS)


def build_preset(name: str) -> PolicyConfig:
    """Return the pinned configuration for a named scenario."""
    key = name.strip().lower()
    if key not in _PRESETS:
        raise ValueError(
            f"unknown scenario {name!r}; valid names: {', '.join(PRESET_NAMES)}"
        )
    return PolicyConfig(**_PRESETS[key])


def validate_pair(params: ModelParams, policy: PolicyConfig) -> None:
    """Cross-checks that couple the parameter vector with a policy design.

    Only conditions the engine cannot evaluate past are rejected here.
    A0 + delta above 1 is tolerated (adherence is clamped to [0, 1]) and an
    unreachable nudge threshold simply never triggers: stochastic draws near
    the edges of their support must propagate through the engine rather than
    abort a whole Monte Carlo run.  Hand-authored run configurations enforce
    the stricter A0 + delta <= 1 and threshold < A0 + delta invariants at
    parse time instead (see cli/runconfig).
    """
    if policy.start_tau > params.horizon_T:
        raise ValueError("start_tau lies beyond horizon_T")


def validate_authored_pair(params: ModelParams, policy: PolicyConfig) -> None:
    """Strict invariants for hand-authored configurations."""
    validate_pair(params, policy)
    a_top = params.adherence_baseline_A0 + policy.adherence_gain_delta
    if a_top > 1.0 + 1e-12:
        raise ValueError(
            f"adherence_gain_delta: A0 + delta = {a_top:.4f} exceeds 1"
        )
    if policy.kind is PolicyKind.ADAPTIVE_NUDGES and policy.nudge_threshold >= a_top:
        raise ValueError(
            "nudge_threshold must be below adherence_baseline_A0 + adherence_gain_delta"
        )


def _base_component(params: ModelParams, policy: PolicyConfig, s: np.ndarray) -> np.ndarray:
    a0 = params.adherence_baseline_A0
    if policy.baseline_decay is not None:
        return a0 * np.exp(-policy.baseline_decay * s)
    return np.full_like(s, a0, dtype=float)


def _gain_law(policy: PolicyConfig) -> tuple[float, float]:
    """(delta, theta) of the gain delta * exp(-theta * (s - last boost)) from tau on.

    The one place that says which fields each kind ignores: BASELINE has no
    gain, the step kinds (EARLY_ADHERENCE, DELAYED, LOW_IMPACT) ignore
    ``decay_theta``, and REGRESSIVE, CUSTOM and ADAPTIVE_NUDGES use both.
    """
    kind = policy.kind
    if kind is PolicyKind.BASELINE:
        return 0.0, 0.0
    if kind in (PolicyKind.EARLY_ADHERENCE, PolicyKind.DELAYED, PolicyKind.LOW_IMPACT):
        return policy.adherence_gain_delta, 0.0
    return policy.adherence_gain_delta, policy.decay_theta


def _nudge_log(params: ModelParams, policy: PolicyConfig) -> NudgeLog:
    """The policy's activation log: computed for ADAPTIVE_NUDGES, empty otherwise."""
    if policy.kind is PolicyKind.ADAPTIVE_NUDGES:
        return compute_nudge_log(params, policy)
    return EMPTY_NUDGE_LOG


def adherence_array(
    params: ModelParams,
    policy: PolicyConfig,
    nudges: NudgeLog,
    s: np.ndarray,
    piece_at: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized adherence A(s), clamped to [0, 1], on the piece in force at ``piece_at``.

    ``nudges`` is the policy's own log (``_nudge_log``).  A piece starts at
    each boost (the snapped start tau and every activation); ``piece_at``
    defaults to ``s``, which gives the right-continuous trajectory.
    """
    s = np.asarray(s, dtype=float)
    piece_at = s if piece_at is None else np.asarray(piece_at, dtype=float)
    tau = policy.tau_snapped
    delta, theta = _gain_law(policy)
    active = piece_at >= tau
    if theta == 0.0:
        gain = delta * active
    else:
        boosts = np.array((tau,) + nudges.activation_times)
        t_last = boosts[np.maximum(np.searchsorted(boosts, piece_at, side="right") - 1, 0)]
        gain = delta * np.exp(-theta * np.maximum(s - t_last, 0.0)) * active
    return np.clip(_base_component(params, policy, s) + gain, 0.0, 1.0)


def policy_cost_array(policy: PolicyConfig, nudges: NudgeLog, s: np.ndarray) -> np.ndarray:
    """Vectorized expenditure function P(s), in policy units (scaled to dollars
    by the model's policy_unit_cost inside the cost integrand).

    Right-continuous: 1 from tau on, plus ``nudge_unit_cost`` for each window
    open at s.  A window opens at its activation and closes at the grid node
    ``snap_up(activation + NUDGE_WINDOW_YEARS)``.
    """
    s = np.asarray(s, dtype=float)
    if policy.kind is PolicyKind.BASELINE:
        return np.zeros_like(s)
    p = (s >= policy.tau_snapped).astype(float)
    if nudges.count:
        starts = np.array(nudges.activation_times)
        ends = snap_up(starts + NUDGE_WINDOW_YEARS)
        n_open = np.searchsorted(starts, s, side="right") - np.searchsorted(ends, s, side="right")
        p = p + policy.nudge_unit_cost * n_open
    return p


def adherence_at(params: ModelParams, policy: PolicyConfig, s: float) -> float:
    """Adherence fraction at time s (right-continuous)."""
    if not (0.0 <= s <= params.horizon_T):
        raise ValueError(f"s={s} outside [0, {params.horizon_T}]")
    validate_pair(params, policy)
    return float(adherence_array(params, policy, _nudge_log(params, policy), np.array([s]))[0])


def policy_cost_at(policy: PolicyConfig, nudges: NudgeLog, s: float) -> float:
    """Policy expenditure P(s) in policy units (right-continuous)."""
    if s < 0:
        raise ValueError(f"s={s} must be >= 0")
    return float(policy_cost_array(policy, nudges, np.array([s]))[0])


def compute_nudge_log(params: ModelParams, policy: PolicyConfig) -> NudgeLog:
    """Activation times of the adaptive re-engagement rule, in closed form.

    The rule runs on the canonical 0.01-year grid: whenever the decaying
    value A0 + delta * exp(-theta * elapsed) falls below the trigger threshold
    at a node, an activation is recorded there and the elapsed time restarts
    from zero.  Every reset returns the rule to the same state, so the
    activations fall every m nodes after tau, where m is the first step count
    whose value is below the threshold.  The log is independent of any finer
    quadrature grid used later.
    """
    if policy.kind is not PolicyKind.ADAPTIVE_NUDGES:
        raise ValueError("compute_nudge_log requires an adaptive_nudges policy")
    validate_pair(params, policy)
    a0 = params.adherence_baseline_A0
    delta = policy.adherence_gain_delta
    theta = policy.decay_theta
    threshold = policy.nudge_threshold
    if theta == 0.0 or delta == 0.0:
        return EMPTY_NUDGE_LOG
    if a0 + delta <= threshold:
        # The boosted level never reaches the trigger band, so adherence can
        # never cross below it; the rule stays inert.
        return EMPTY_NUDGE_LOG

    i_last = len(time_grid(params.horizon_T, STEPS_PER_YEAR)) - 1
    i_start = int(round(policy.tau_snapped * STEPS_PER_YEAR))
    steps = np.arange(1, i_last - i_start + 1)
    below = a0 + delta * np.exp(-theta * (steps / STEPS_PER_YEAR)) < threshold
    if not below.any():
        return EMPTY_NUDGE_LOG
    period = int(below.argmax()) + 1
    nodes = np.arange(i_start + period, i_last + 1, period)
    return NudgeLog(tuple((nodes / STEPS_PER_YEAR).tolist()))


def apply_stress(policy: PolicyConfig, stress: StressKind, value: float) -> PolicyConfig:
    """Return a copy of the policy with one stress transform applied.

    CostInflation multiplies the effective cost intensity by ``value``
    (reference 1.20); AcceleratedProgression rescales disease time by
    ``value`` (reference 0.85), applied in the cost model as k -> k/value,
    s0 -> value * s0.
    """
    check_finite("stress value", value)
    if stress is StressKind.COST_INFLATION:
        if value < 1.0:
            raise ValueError("cost inflation factor must be >= 1")
        return replace(policy, inflation_factor=value)
    if stress is StressKind.ACCELERATED_PROGRESSION:
        if not (0.0 < value <= 1.0):
            raise ValueError("progression compression must be in (0, 1]")
        return replace(policy, progression_compression=value)
    raise ValueError(f"unknown stress kind {stress!r}")
