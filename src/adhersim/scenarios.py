"""Policy scenario definitions: adherence trajectories, expenditure functions,
the nudge feedback rule, and the stress transforms.

One rule prices every policy from its own fields: from tau its gain is
delta * exp(-decay_theta * (s - last boost)), boosted again whenever
A0 + delta * exp(-decay_theta * elapsed) falls below ``nudge_threshold``, and
each boost opens a window that adds ``nudge_unit_cost`` to the spend.  The
presets are field sets of that rule; a zero ``decay_theta`` gives a step, and a
threshold at or below A0 never fires.

All adherence and expenditure functions are right-continuous in time; a policy
active from time tau contributes from s = tau onward.  A policy never starts if
it is the no-policy arm or its tau lies past the horizon: its tau node is one
past the grid's last, so it is priced as the no-policy arm.  Every policy event
(the snapped start, each nudge activation and each window closure) sits on a
node of the canonical 0.01-year grid, so between two nodes the policy stays on
the piece in force at the earlier one.  ``_decay_factor`` takes the canonical
node whose piece to read, which lets the integrator evaluate a panel's interior
and right end on the piece its start node set; spend is constant on a panel.

Adherence is A0 + delta * e, clamped to [0, 1], where the decay factor
e(s) = active * exp(-decay_theta * elapsed) is 1 at each boost, falls with
the time elapsed since it, and is 0 on the pieces before tau's node
(``_decay_factor``).  e depends on a gain only through its nudge period, so
the gains of one period share it, and ``adherence_array`` is one scaling of
it per gain.

The engine keeps nudge logs in period form: the rule fires every m
canonical nodes after tau's node i0 (``_nudge_periods``; m = 0 never fires).
m is the first step after a boost whose level is below the threshold;
``_nudge_periods`` finds it by bisection on the rule's own float test, which
is exact because the level never rises with the step count.  With
N(x) = floor(max(x - i0, 0) / m) activations by node x, the last boost at or
before node j is node i0 + m * N(j), and N(j) - N(j - W) windows of W nodes
are open there, over a (B, n) batch of gains.  This node arithmetic
runs in float64 and is exact (``_activations_by``): every operand is an
integer of at most 100 000, the node count of the longest grid ModelParams
allows.  ``_decay_factor`` forms the last boost once per node and copies it
to the panel reads that share the node's piece (``Pieces``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .numerics import STEPS_PER_YEAR, check_finite
from .params import ModelParams

# Pinned scenario defaults not covered by the reference parameter file.
REGRESSIVE_DECAY_THETA = 0.5      # per year; half-life ~1.4 years
ADAPTIVE_DECAY_THETA = 0.02       # per year; slow erosion between nudges
ADAPTIVE_NUDGE_THRESHOLD = 0.82   # re-engagement trigger level
NUDGE_WINDOW_YEARS = 0.5          # each activation opens a cost window of this length
DEFAULT_NUDGE_UNIT_COST = 0.5     # units of P(s) added per open window
DEFAULT_BASELINE_DECAY = 0.05     # per year, decaying-counterfactual variant


class StressKind(enum.Enum):
    COST_INFLATION = "cost_inflation"
    ACCELERATED_PROGRESSION = "accelerated_progression"


# The PolicyConfig multiplier each stress sets, and its reference value.
# Cost inflation multiplies gamma's dollar price; an accelerated progression
# rescales disease time, applied in the cost model as k -> k/value and
# s0 -> value * s0.
STRESSES = {
    StressKind.COST_INFLATION: ("inflation_factor", 1.2),
    StressKind.ACCELERATED_PROGRESSION: ("progression_compression", 0.85),
}


@dataclass(frozen=True)
class PolicyConfig:
    """One policy design.  The one rule reads every field: the gain
    ``adherence_gain_delta`` from ``start_tau`` decays at ``decay_theta``, and
    is boosted again whenever the level falls below ``nudge_threshold``, each
    boost adding ``nudge_unit_cost`` to the spend for a window.

    ``starts`` is False only for the no-policy arm, whose gain and spend never
    begin; no run document or flag sets it.  ``inflation_factor`` and
    ``progression_compression`` are stress multipliers applied by
    :func:`apply_stress`.
    """

    starts: bool = True
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
        for f in fields(self)[1:]:  # every field after starts
            if (value := getattr(self, f.name)) is not None:
                check_finite(f.name, value)
        if self.start_tau < 0:
            raise ValueError("start_tau: must be >= 0")
        if not (0.0 <= self.adherence_gain_delta <= 1.0):
            raise ValueError("adherence_gain_delta: must be in [0, 1]")
        if self.cost_scale_gamma < 0:
            raise ValueError("cost_scale_gamma: must be >= 0")
        if self.decay_theta < 0:
            raise ValueError("decay_theta: must be >= 0")
        if not (0.0 <= self.nudge_threshold <= 1.0):
            raise ValueError("nudge_threshold: must be in [0, 1]")
        if self.nudge_unit_cost < 0:
            raise ValueError("nudge_unit_cost: must be >= 0")
        if self.baseline_decay is not None and self.baseline_decay < 0:
            raise ValueError("baseline_decay: must be >= 0")
        if self.inflation_factor < 1.0:
            raise ValueError("inflation_factor: must be >= 1")
        if not (0.0 < self.progression_compression <= 1.0):
            raise ValueError("progression_compression: must be in (0, 1]")

    @property
    def tau_snapped(self) -> float:
        """start_tau snapped up to the canonical grid, to within 1e-9 of a step."""
        return math.ceil(max(self.start_tau * STEPS_PER_YEAR - 1e-9, 0.0)) / STEPS_PER_YEAR


_PRESETS = {
    "baseline": dict(starts=False),
    "early_adherence": dict(start_tau=2.0, adherence_gain_delta=0.3, cost_scale_gamma=1.5),
    "delayed": dict(start_tau=5.0, adherence_gain_delta=0.3, cost_scale_gamma=1.5),
    "regressive": dict(
        start_tau=2.0, adherence_gain_delta=0.3, cost_scale_gamma=1.2, decay_theta=REGRESSIVE_DECAY_THETA,
    ),
    "adaptive_nudges": dict(
        start_tau=2.0, adherence_gain_delta=0.3, cost_scale_gamma=2.0,
        decay_theta=ADAPTIVE_DECAY_THETA, nudge_threshold=ADAPTIVE_NUDGE_THRESHOLD,
    ),
    "low_impact": dict(start_tau=2.0, adherence_gain_delta=0.05, cost_scale_gamma=3.0),
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


def validate_authored_pair(params: ModelParams, policy: PolicyConfig) -> None:
    """Strict invariants for hand-authored configurations.

    The engine evaluates any pair, so that stochastic draws near the edges of
    their support propagate through it rather than abort a whole Monte Carlo
    run: a policy that starts after the horizon never starts, adherence is
    clamped to [0, 1] and an unreachable nudge threshold never triggers.
    """
    if policy.start_tau > params.horizon_T:
        raise ValueError(f"start_tau: {policy.start_tau} lies beyond horizon_T {params.horizon_T}")
    a_top = params.adherence_baseline_A0 + policy.adherence_gain_delta
    if a_top > 1.0 + 1e-12:
        raise ValueError(
            f"adherence_gain_delta: A0 + delta = {a_top:.4f} exceeds 1"
        )
    if policy.nudge_threshold > 0.0 and policy.nudge_threshold >= a_top:
        raise ValueError(
            "nudge_threshold: must be below adherence_baseline_A0 + adherence_gain_delta"
        )


def _tau_node(policy: PolicyConfig) -> int:
    """Tau's canonical node."""
    return round(policy.tau_snapped * STEPS_PER_YEAR)


def _nudge_periods(params: ModelParams, policy: PolicyConfig, deltas) -> tuple[int, np.ndarray]:
    """Tau's canonical node i0 and, per gain in ``deltas``, the period m of the
    nudge rule's activations at nodes i0 + m, i0 + 2m, ... (m = 0: none).

    The rule runs on the canonical grid: when A0 + delta * exp(-theta * elapsed)
    falls below the trigger threshold at a node, the rule fires there and the
    elapsed time restarts from zero.  Every reset returns the rule to the same
    state, so m is the first of the n steps after tau whose level is below the
    threshold.  That level never rises with the step count k: k / 100 and
    -theta * k / 100 are monotone under rounding, numpy's exp does not rise as
    its argument falls (a property the tests pin), and a gain that can fire is
    positive.  So the steps below the threshold are the last ones, and a
    bisection that applies the rule's own float test to each gain finds the
    first of them exactly, in one round per bit of n."""
    i_last = round(params.horizon_T * STEPS_PER_YEAR)
    # The no-policy arm and a policy whose unsnapped tau is past the horizon never start.
    never = not policy.starts or policy.start_tau > params.horizon_T
    i0 = i_last + 1 if never else _tau_node(policy)
    a0, theta, threshold = params.adherence_baseline_A0, policy.decay_theta, policy.nudge_threshold
    # No level falls below a threshold at or below A0, nor falls at all at theta = 0.
    if theta == 0.0 or threshold <= a0 or i0 >= i_last:
        return i0, np.zeros(len(deltas), dtype=np.int64)
    deltas = np.asarray(deltas, dtype=float)
    n = i_last - i0
    # The first step below lies in [lo, hi]; hi = n + 1 while no tested step is below.
    lo, hi = np.ones(len(deltas), dtype=np.int64), np.full(len(deltas), n + 1)
    for _ in range(n.bit_length()):
        k = (lo + hi) // 2
        below = a0 + deltas * np.exp(-theta * (k / STEPS_PER_YEAR)) < threshold
        hi = np.where(below, k, hi)
        lo = np.where(below, lo, k + 1)
    # The rule stays inert when the boosted level never reaches the trigger
    # band, so adherence can never cross below it; this also covers a zero
    # gain, under which no level falls below the threshold.
    fires = (hi <= n) & (a0 + deltas > threshold)
    return i0, np.where(fires, hi, 0)


# The period of a log that never fires, as a float: no node offset reaches it.
_NEVER = float(np.iinfo(np.int64).max)


def _activations_by(nudges: tuple[int, np.ndarray], nodes: np.ndarray):
    """Each log's period m as a float column, and N = floor(max(x - i0, 0) / m)
    at each canonical node x, in float64.

    The float floor division is exact.  The offset and m are integers of at
    most 100 000, the last node of a 1 000-year grid, so both are exact
    floats; an integer quotient is exact, and any other lies at least
    1/m >= 1e-5 from an integer, far beyond the quotient's rounding error of
    under 1e-10.  A log that never fires has m = ``_NEVER``, so N is 0 and
    m * N is 0."""
    i0, periods = nudges
    m = np.where(periods > 0, periods, _NEVER)[:, None]
    n = np.divide(np.maximum(np.subtract(nodes, i0, dtype=float), 0.0), m)
    return m, np.floor(n, out=n)


class Pieces(NamedTuple):
    """The ``piece`` of ``_decay_factor`` with what its read layout knows of
    it.  ``at`` gives, per point, the canonical node whose piece is read.  The
    first ``nodes`` points read pieces of their own, and the points after them
    read the pieces of the first nodes - 1 again, in runs of nodes - 1 (the
    midpoints and right ends of each node's panel).  ``active``: every piece
    read is at or after tau's node."""

    at: np.ndarray
    nodes: int
    active: bool


def _decay_factor(policy: PolicyConfig, nudges: tuple[int, np.ndarray], s: np.ndarray,
                  piece: np.ndarray | Pieces, out: np.ndarray | None = None) -> np.ndarray:
    """The decay factor e(s) = active * exp(-decay_theta * elapsed), one row
    per log in ``nudges`` (``_nudge_periods``), written to ``out`` if given:
    the share of the gain in force at s, so that adherence is A0 + delta * e
    before the clamp (``adherence_array``).  ``active`` is 1 on a piece at or
    after tau's node and 0 before it; elapsed is the time since the piece's
    last boost.  e depends on a gain only through its period.

    ``piece`` gives, per s, the canonical node whose piece is read: the last
    node at or before s gives the right-continuous trajectory.  Given as
    ``Pieces``, it tells which points share a piece, so the last boost is
    formed once per node and copied to the points after it, and whether
    every piece is active, so no mask is applied.
    """
    i0, periods = nudges
    piece, nodes, all_active = piece if isinstance(piece, Pieces) else (piece, piece.size, False)
    e = np.empty((len(periods), s.size)) if out is None else out
    active = None if all_active else piece >= i0
    if policy.decay_theta == 0.0:
        e[...] = 1.0 if all_active else active
        return e
    if periods.any():
        # The last boost's time at the nodes' pieces, i0 + m * N in exact
        # float node arithmetic, copied to the points that read them again.
        m, last = _activations_by(nudges, piece[:nodes])
        last *= m
        last += i0
        last /= STEPS_PER_YEAR
        e[:, :nodes] = last
        for lo in range(nodes, s.size, max(nodes - 1, 1)):
            e[:, lo:lo + nodes - 1] = last[:, :-1]
        elapsed = np.subtract(s, e, out=e)
    else:
        elapsed = np.subtract(s, i0 / STEPS_PER_YEAR, out=e)
    np.maximum(elapsed, 0.0, out=elapsed)
    elapsed *= -policy.decay_theta
    np.exp(elapsed, out=e)
    if not all_active:
        e *= active
    return e


def adherence_array(params: ModelParams, policy: PolicyConfig, deltas, decay: np.ndarray, s: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Adherence A(s) = A0 + delta * e(s), clamped to [0, 1]: one row per gain
    in ``deltas``, each replacing the policy's, written to ``out`` if given.

    ``decay`` holds e at the points s (``_decay_factor``), one row per gain
    or one row that every gain shares.  A policy with a ``baseline_decay``
    adds A0 * exp(-baseline_decay * s) in place of A0.
    """
    a = np.multiply(np.asarray(deltas, dtype=float)[:, None], decay, out=out)
    a0 = params.adherence_baseline_A0
    if policy.baseline_decay is None:
        a += a0
    else:
        base = np.multiply(s, -policy.baseline_decay)
        a += np.multiply(np.exp(base, out=base), a0, out=base)
    # np.clip's bounds with the scalar first: -0.0 and NaN pass through as clip leaves them.
    np.maximum(0.0, a, out=a)
    return np.minimum(a, 1.0, out=a)


def _spend_at_nodes(unit_cost: float, nudges: tuple[int, np.ndarray], nodes: np.ndarray) -> np.ndarray:
    """The expenditure function P, in policy units, at canonical nodes, one row
    per log in period form, for a nudge window's unit cost ``unit_cost`` (a
    policy's ``nudge_unit_cost``).

    P is right-continuous: 1 from tau's node on, plus ``unit_cost`` for each
    window open at the node.  A window opens at its activation's node and
    closes NUDGE_WINDOW_YEARS later, on a node too.  A log that never fires
    adds unit_cost * 0 = 0.0 to the step.
    """
    # The step, 1.0 from tau's node on, in every row.
    p = np.greater_equal(nodes, nudges[0], out=np.empty((len(nudges[1]), len(nodes))))
    _, opened = _activations_by(nudges, nodes)
    _, closed = _activations_by(nudges, nodes - round(NUDGE_WINDOW_YEARS * STEPS_PER_YEAR))
    p += unit_cost * (opened - closed)
    return p


def apply_stress(policy: PolicyConfig, stress: StressKind, value: float) -> PolicyConfig:
    """A copy of the policy with the ``STRESSES`` field of one stress set to
    ``value``; PolicyConfig checks its range."""
    return replace(policy, **{STRESSES[stress][0]: value})
