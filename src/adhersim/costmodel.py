"""Cost model: disease dynamics, the four-term cost integrand, and discounted
cumulative-cost integration.

Severity follows dD/ds = k_eff(s) * D * (1 - D/Dmax) with
k_eff(s) = k * (1 - eta * max(0, A(s) - A0)) and D(0) on the exogenous
logistic, so with eta = 0 or A = A0 the closed-form logistic
Dmax / (1 + exp(-k (s - s0))) is recovered exactly.  The ODE is integrated
with fixed-step fourth-order Runge-Kutta on the logit z = ln(D / (Dmax - D)),
where the right-hand side reduces to z' = k_eff(s); for a state-independent
right-hand side the RK4 stage sum is Simpson's rule, which keeps the
closed-form reduction exact instead of O(h^4)-approximate.  One Simpson step
(``_logit_steps``) serves the grid, ``disease_severity`` and off-grid times.

Cumulative cost C(t) = C0 + integral_0^t exp(-rho s) c(s) ds is computed by
composite trapezoid on the same grid.  Every policy event (start, nudge
activation, window closure) sits on a canonical grid node, so each panel
[t_i, t_{i+1}] stays on the policy piece in force at its start: adherence is
read on that piece at the panel's start, midpoint and end, and the spend P is
constant across it.  Simpson and the trapezoid thus integrate the
piecewise-smooth integrand without smearing the jumps.  This holds only on
grids whose steps_per_year is a multiple of STEPS_PER_YEAR.

The engine integrates two channels separately: the rest, alpha*D + beta*A^2,
and the policy spend P(s) in policy units, giving I_P(t).  gamma enters only
the spend channel, so

    C(t) = (C0 + rest(t)) + (gamma * inflation) * policy_unit_cost * I_P(t)

is exactly linear in gamma.  ``total_cost`` is the one place this sum is
formed: the trajectory's columns and every analytics result that re-prices
an arm at another gamma go through it, so they agree bit for bit.

The kernel (``_arms``) evaluates B arms of one policy that differ only in the
adherence gain delta, on (B, n) node arrays.  Every reduction along the grid
is a row-wise cumulative sum, so each row equals the one-arm run bit for bit:
``simulate_trajectory`` is the B = 1 case, and ``arm_costs`` runs many gains
in chunks of ``_CHUNK_ARMS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import STEPS_PER_YEAR, check_finite, sigmoid, time_grid
from .params import ModelParams
from .scenarios import (
    PolicyConfig,
    _nudge_log,
    _nudge_logs,
    adherence_array,
    policy_cost_array,
    validate_pair,
)


@dataclass(frozen=True)
class Trajectory:
    """Aligned time series produced by one simulation run.

    ``policy_cost`` holds the scenario expenditure function P(s) in policy
    units, matching ``policy_cost_at`` pointwise; the dollar conversion
    (gamma * inflation * policy_unit_cost) only enters ``instantaneous_cost``
    and ``cumulative_cost``.  ``rest_cost`` (C0 plus the discounted
    alpha*D + beta*A^2 integral) and ``spend_integral`` (the discounted
    integral of P) are the two channels at the horizon; ``total_cost`` of the
    pair is ``final_cost``.
    """

    times: np.ndarray
    adherence: np.ndarray
    severity: np.ndarray
    policy_cost: np.ndarray
    instantaneous_cost: np.ndarray
    cumulative_cost: np.ndarray
    rest_cost: float
    spend_integral: float

    def __post_init__(self) -> None:
        n = len(self.times)
        for name in ("adherence", "severity", "policy_cost", "instantaneous_cost", "cumulative_cost"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length differs from times")

    @property
    def final_cost(self) -> float:
        return float(self.cumulative_cost[-1])


def total_cost(params: ModelParams, policy: PolicyConfig, rest, spend_units, gamma=None):
    """rest + (gamma * inflation) * policy_unit_cost * spend_units.

    Works on rates and on integrals, scalars and arrays alike.  ``gamma``
    defaults to the policy's ``cost_scale_gamma``; passing another value (or
    an array of them) re-prices the same arm, since nothing else depends on it.
    """
    if gamma is None:
        gamma = policy.cost_scale_gamma
    spend = (gamma * policy.inflation_factor) * params.policy_unit_cost
    return rest + spend * spend_units


# Arms per kernel call.  An arm reads adherence at 3n - 2 points (3 001 on
# the 10-year canonical grid); a budget of about 25 000 points per call keeps
# the kernel's (B, 3n - 2) temporaries, and with them peak memory, small.
_CHUNK_ARMS = 25_000 // 3_001


def _effective_curve(params: ModelParams, compression: float) -> tuple[float, float]:
    """Disease-curve parameters after time compression (k/c, c*s0)."""
    return params.disease_steepness_k / compression, params.disease_midpoint_s0 * compression


def _logistic_closed_form(params: ModelParams, s: np.ndarray, compression: float = 1.0) -> np.ndarray:
    k_c, s0_c = _effective_curve(params, compression)
    return params.disease_max_Dmax * sigmoid(k_c * (np.asarray(s, dtype=float) - s0_c))


def _logit_steps(params: ModelParams, compression: float, h, a_start, a_mid, a_end):
    """Logit increments over steps of width h from adherence at each step's
    start, midpoint and end: RK4 on z' = k_eff(A), which is Simpson's rule."""
    k_c, _ = _effective_curve(params, compression)
    eta, a0 = params.severity_coupling_eta, params.adherence_baseline_A0

    def k_eff(a):
        return k_c * (1.0 - eta * np.maximum(0.0, a - a0))

    return (h / 6.0) * (k_eff(a_start) + 4.0 * k_eff(a_mid) + k_eff(a_end))


def _severity_grid(
    params: ModelParams,
    policy: PolicyConfig,
    times: np.ndarray,
    a_start: np.ndarray,
    a_mid: np.ndarray,
    a_end: np.ndarray,
) -> np.ndarray:
    """Severity on the grid, one row per arm, via RK4/Simpson on the logit
    variable from each panel's adherence at its start, midpoint and end."""
    if params.severity_coupling_eta == 0.0:
        closed = _logistic_closed_form(params, times, policy.progression_compression)
        return np.tile(closed, (len(a_start), 1))

    h = times[1] - times[0]
    increments = _logit_steps(params, policy.progression_compression, h, a_start, a_mid, a_end)
    z0 = -params.disease_steepness_k * params.disease_midpoint_s0
    return params.disease_max_Dmax * sigmoid(z0 + _cumsum_from_zero(increments))


def disease_severity(
    params: ModelParams,
    adherence_fn: Callable[[float], float] | None,
    s: float,
) -> float:
    """Disease severity at time s under an arbitrary adherence trajectory.

    ``adherence_fn`` may be None for the exogenous curve.  Discontinuities in
    the supplied function are assumed to sit on canonical grid nodes.
    """
    check_finite("s", s)
    if not (0.0 <= s <= params.horizon_T):
        raise ValueError(f"s={s} outside [0, {params.horizon_T}]")
    if params.severity_coupling_eta == 0.0 or adherence_fn is None:
        return float(_logistic_closed_form(params, np.array(s)))

    def a(u) -> np.ndarray:
        return np.array([adherence_fn(float(v)) for v in np.atleast_1d(u)])

    n_full = int(np.floor(s * STEPS_PER_YEAR + 1e-9))
    nodes = np.arange(n_full + 1) / STEPS_PER_YEAR
    z = -params.disease_steepness_k * params.disease_midpoint_s0
    if n_full > 0:
        h = 1.0 / STEPS_PER_YEAR
        av = a(nodes)
        z += np.sum(_logit_steps(params, 1.0, h, av[:-1], a(nodes[:-1] + h / 2.0), av[1:]))
    rest = s - nodes[-1]
    if rest > 1e-12:
        z += _logit_steps(params, 1.0, rest, *a([nodes[-1], nodes[-1] + rest / 2.0, s]))
    return float(params.disease_max_Dmax * sigmoid(np.array(z)))


def instantaneous_cost(
    params: ModelParams,
    A: float,
    P: float,
    H: float,
    D: float,
    gamma: float,
) -> float:
    """Four-term cost rate alpha*D + beta*A^2 + gamma*P + lambda*H.

    P is the expenditure rate in dollars per year as seen by the integrand;
    the engine performs the policy-unit conversion before calling this.
    """
    for name, value in (("A", A), ("P", P), ("H", H), ("D", D), ("gamma", gamma)):
        check_finite(name, value)
    if not (0.0 <= A <= 1.0):
        raise ValueError(f"A={A} outside [0, 1]")
    return (
        params.disease_cost_alpha * D
        + params.adherence_cost_beta * A * A
        + gamma * P
        + params.health_weight_lambda * H
    )


def _cumsum_from_zero(panels: np.ndarray) -> np.ndarray:
    """Row-wise running sum of the panels, 0 at the first node."""
    out = np.zeros(panels.shape[:-1] + (panels.shape[-1] + 1,))
    np.cumsum(panels, axis=-1, out=out[..., 1:])
    return out


def _discounted_trapezoid(disc: np.ndarray, h: float, f_start: np.ndarray, f_end: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid of disc * f from each panel's start and end values, 0 at the first node."""
    return _cumsum_from_zero((h / 2.0) * (disc[:-1] * f_start + disc[1:] * f_end))


def _arms(params: ModelParams, policy: PolicyConfig, deltas, steps_per_year: int):
    """The engine on one arm of ``policy`` per adherence gain in ``deltas``.

    Returns the grid and, with one row per arm, adherence, severity and P at
    the nodes, the rest rate at the nodes, and the cumulative rest and spend
    channels.
    """
    if steps_per_year < 1 or steps_per_year % STEPS_PER_YEAR:
        # Only refinements of the canonical grid keep every policy event on a node.
        raise ValueError(
            f"steps_per_year must be a positive multiple of {STEPS_PER_YEAR}, got {steps_per_year}"
        )
    validate_pair(params, policy)
    nudges = _nudge_logs(params, policy, deltas)
    times = time_grid(params.horizon_T, steps_per_year)
    h = 1.0 / steps_per_year
    n = len(times)

    # Nodes, then each panel's midpoint and right end, all read on the piece
    # in force at the panel's start node.
    starts = times[:-1]
    a = adherence_array(
        params, policy, deltas, nudges,
        np.concatenate((times, starts + h / 2.0, times[1:])),
        piece_at=np.concatenate((times, starts, starts)),
    )
    a_nodes, a_mid, a_end = a[:, :n], a[:, n:2 * n - 1], a[:, 2 * n - 1:]
    spend_of = {log: policy_cost_array(policy, log, times) for log in set(nudges)}
    p = np.array([spend_of[log] for log in nudges])
    severity = _severity_grid(params, policy, times, a_nodes[:, :-1], a_mid, a_end)

    alpha, beta = params.disease_cost_alpha, params.adherence_cost_beta
    # Health-outcome rate H(s) is zero in the engine; lambda enters only via
    # direct instantaneous_cost calls and the monetized-ROI analysis.
    rest_nodes = alpha * severity + beta * a_nodes**2
    rest_end = alpha * severity[:, 1:] + beta * a_end**2

    disc = np.exp(-params.discount_rate_rho * times)
    rest = params.baseline_cost_C0 + _discounted_trapezoid(disc, h, rest_nodes[:, :-1], rest_end)
    # P is constant on each panel: its value at the end is the one at the start.
    spend = _discounted_trapezoid(disc, h, p[:, :-1], p[:, :-1])
    return times, a_nodes, severity, p, rest_nodes, rest, spend


def simulate_trajectory(
    params: ModelParams,
    policy: PolicyConfig,
    steps_per_year: int = STEPS_PER_YEAR,
) -> Trajectory:
    """Simulate one policy arm on the fixed grid."""
    times, *rows = _arms(params, policy, [policy.adherence_gain_delta], steps_per_year)
    adherence, severity, p, rest_nodes, rest, spend = (row[0] for row in rows)
    return Trajectory(
        times=times,
        adherence=adherence,
        severity=severity,
        policy_cost=p,
        instantaneous_cost=total_cost(params, policy, rest_nodes, p),
        cumulative_cost=total_cost(params, policy, rest, spend),
        rest_cost=float(rest[-1]),
        spend_integral=float(spend[-1]),
    )


def arm_costs(params: ModelParams, policy: PolicyConfig, deltas) -> tuple[np.ndarray, np.ndarray]:
    """Rest cost and spend integral at the horizon of one arm per gain in ``deltas``.

    Row i equals ``simulate_trajectory`` of ``policy`` with gain ``deltas[i]``
    bit for bit: ``total_cost`` of the pair is that run's ``final_cost``.  The
    gains are taken as given (the caller checks they lie in [0, 1]) and are
    run ``_CHUNK_ARMS`` at a time.
    """
    deltas = np.asarray(deltas, dtype=float)
    rest, spend = np.empty(deltas.size), np.empty(deltas.size)
    for lo in range(0, deltas.size, _CHUNK_ARMS):
        chunk = slice(lo, lo + _CHUNK_ARMS)
        *_, rest_rows, spend_rows = _arms(params, policy, deltas[chunk], STEPS_PER_YEAR)
        rest[chunk], spend[chunk] = rest_rows[:, -1], spend_rows[:, -1]
    return rest, spend


def cumulative_cost(
    params: ModelParams,
    policy: PolicyConfig,
    t: float,
    steps_per_year: int = STEPS_PER_YEAR,
) -> float:
    """Discounted cumulative cost C(t) = C0 + integral_0^t exp(-rho s) c(s) ds."""
    check_finite("t", t)
    if not (0.0 <= t <= params.horizon_T):
        raise ValueError(f"t={t} outside [0, {params.horizon_T}]")
    traj = simulate_trajectory(params, policy, steps_per_year)
    times = traj.times
    i_near = int(round(t * steps_per_year))
    if i_near < len(times) and abs(t - times[i_near]) < 1e-12:
        return float(traj.cumulative_cost[i_near])

    i_full = int(np.floor(t * steps_per_year + 1e-9))
    base = float(traj.cumulative_cost[i_full])
    t0 = times[i_full]
    # Partial panel [t0, t] lies strictly inside a smooth piece; severity
    # continues the logit integral from t0 by one partial Simpson step.
    rest = t - t0
    nudges = _nudge_log(params, policy)
    a = adherence_array(
        params, policy, [policy.adherence_gain_delta], (nudges,), np.array([t0, t0 + rest / 2.0, t])
    )[0]
    p = float(policy_cost_array(policy, nudges, np.array([t]))[0])
    d = float(traj.severity[i_full])
    if params.severity_coupling_eta == 0.0:
        d = float(_logistic_closed_form(params, np.array(t), policy.progression_compression))
    elif rest > 1e-12:
        dmax = params.disease_max_Dmax
        z = float(np.log(d / (dmax - d))) + _logit_steps(params, policy.progression_compression, rest, *a)
        d = float(dmax * sigmoid(np.array(z)))
    a_t = float(a[2])
    c_t = total_cost(
        params, policy, params.disease_cost_alpha * d + params.adherence_cost_beta * a_t * a_t, p
    )

    rho = params.discount_rate_rho
    f0 = np.exp(-rho * t0) * float(traj.instantaneous_cost[i_full])
    f1 = np.exp(-rho * t) * c_t
    return base + (t - t0) / 2.0 * (f0 + f1)
