"""Policy scenario definitions: adherence trajectories, expenditure functions,
the adaptive-nudge feedback rule, and the stress transforms.

All adherence and expenditure functions are right-continuous in time; a policy
active from time tau contributes from s = tau onward.  Every policy event (the
snapped start, each nudge activation and each window closure) sits on a node
of the canonical 0.01-year grid, so between two nodes the policy stays on the
piece in force at the earlier one.  ``adherence_array`` takes the canonical
node whose piece to read, which lets the integrator evaluate a panel's
interior and right end on the piece its start node set; spend is constant on
a panel.

The engine keeps nudge logs in period form: the adaptive rule fires every m
canonical nodes after tau's node i0 (``_nudge_periods``; m = 0 never fires).
With N(x) = floor(max(x - i0, 0) / m) activations by node x, the last boost
at or before node j is node i0 + m * N(j), and N(j) - N(j - W) windows of W
nodes are open there, all in integer node arithmetic over a (B, n) batch of
gains.  ``NudgeLog`` tuples of times are built only for public callers.
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


def _gain_law(policy: PolicyConfig, delta: np.ndarray) -> tuple[np.ndarray, float]:
    """(delta, theta) of the gain delta * exp(-theta * (s - last boost)) from tau on,
    for an array of gains ``delta`` that replace the policy's.

    The one place that says which fields each kind ignores: BASELINE has no
    gain, the step kinds (EARLY_ADHERENCE, DELAYED, LOW_IMPACT) ignore
    ``decay_theta``, and REGRESSIVE, CUSTOM and ADAPTIVE_NUDGES use both.
    """
    kind = policy.kind
    if kind is PolicyKind.BASELINE:
        return 0.0 * delta, 0.0
    if kind in (PolicyKind.EARLY_ADHERENCE, PolicyKind.DELAYED, PolicyKind.LOW_IMPACT):
        return delta, 0.0
    return delta, policy.decay_theta


def _nudge_periods(params: ModelParams, policy: PolicyConfig, deltas) -> tuple[int, np.ndarray]:
    """Tau's canonical node i0 and, per gain in ``deltas``, the period m of
    ``compute_nudge_log``'s activations at nodes i0 + m, i0 + 2m, ... (m = 0:
    none).  It holds a (gains, nodes) array: pass the gains in bounded blocks."""
    deltas = np.asarray(deltas, dtype=float)
    i0 = round(policy.tau_snapped * STEPS_PER_YEAR)
    i_last = len(time_grid(params.horizon_T, STEPS_PER_YEAR)) - 1
    if policy.kind is not PolicyKind.ADAPTIVE_NUDGES or i0 == i_last:
        return i0, np.zeros(deltas.size, dtype=np.int64)
    a0 = params.adherence_baseline_A0
    threshold = policy.nudge_threshold
    steps = np.arange(1, i_last - i0 + 1)
    below = a0 + deltas[:, None] * np.exp(-policy.decay_theta * (steps / STEPS_PER_YEAR)) < threshold
    # The rule stays inert when the boosted level never reaches the trigger
    # band, so adherence can never cross below it; this also covers a zero
    # gain or decay, under which no value falls below the threshold.
    fires = below.any(axis=1) & (a0 + deltas > threshold)
    return i0, np.where(fires, below.argmax(axis=1) + 1, 0)


def _activations_by(nudges: tuple[int, np.ndarray], nodes: np.ndarray, out=None):
    """Each log's period m as a column, and N at each canonical node (into ``out``)."""
    i0, periods = nudges
    # A log that never fires gets a period that no node offset reaches.
    m = np.where(periods > 0, periods, np.iinfo(np.int64).max)[:, None]
    return m, np.floor_divide(np.maximum(nodes - i0, 0), m, out=out)


def adherence_array(
    params: ModelParams,
    policy: PolicyConfig,
    deltas,
    nudges: tuple[int, np.ndarray],
    s: np.ndarray,
    piece: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized adherence A(s), clamped to [0, 1]: one row per gain in
    ``deltas``, each replacing the policy's, written to ``out`` if given.

    ``nudges`` holds the gains' logs (``_nudge_periods``).  ``piece`` gives,
    per s, the canonical node whose piece is read: by default the last node at
    or before s, which gives the right-continuous trajectory.
    """
    s = np.asarray(s, dtype=float)
    if piece is None:
        piece = np.searchsorted(time_grid(params.horizon_T, STEPS_PER_YEAR), s, side="right") - 1
    i0, periods = nudges
    delta, theta = _gain_law(policy, np.asarray(deltas, dtype=float)[:, None])
    gain = np.empty((len(delta), s.size)) if out is None else out
    active = piece >= i0
    if theta == 0.0:
        np.multiply(delta, active, out=gain)
    else:
        if periods.any():
            # The last boost's node i0 + m * N, in integers held in gain's own bytes.
            m, last = _activations_by(nudges, piece, out=gain.view(np.int64))
            last *= m
            last += i0
            elapsed = np.subtract(s, np.divide(last, STEPS_PER_YEAR, out=gain), out=gain)
        else:
            elapsed = s - i0 / STEPS_PER_YEAR
        np.maximum(elapsed, 0.0, out=elapsed)
        elapsed *= -theta
        np.multiply(delta, np.exp(elapsed, out=elapsed), out=gain)
        gain *= active
    gain += _base_component(params, policy, s)
    return np.clip(gain, 0.0, 1.0, out=gain)


def _spend_at_nodes(policy: PolicyConfig, nudges: tuple[int, np.ndarray], nodes: np.ndarray) -> np.ndarray:
    """``policy_cost_array`` at canonical nodes, one row per log in period form."""
    if policy.kind is PolicyKind.BASELINE:
        return np.zeros((len(nudges[1]), len(nodes)))
    _, opened = _activations_by(nudges, nodes)
    _, closed = _activations_by(nudges, nodes - round(NUDGE_WINDOW_YEARS * STEPS_PER_YEAR))
    return (nodes >= nudges[0]).astype(float) + policy.nudge_unit_cost * (opened - closed)


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
    deltas = [policy.adherence_gain_delta]
    nudges = _nudge_periods(params, policy, deltas)
    return float(adherence_array(params, policy, deltas, nudges, np.array([s]))[0, 0])


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
    i0, (m,) = _nudge_periods(params, policy, [policy.adherence_gain_delta])
    if not m:
        return EMPTY_NUDGE_LOG
    i_last = len(time_grid(params.horizon_T, STEPS_PER_YEAR)) - 1
    return NudgeLog(tuple((np.arange(i0 + m, i_last + 1, m) / STEPS_PER_YEAR).tolist()))


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
