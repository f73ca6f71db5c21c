"""ROI, payback, break-even and design-space sweeps.

ROI follows the study's cost-relative definition
ROI = (C_baseline - C_policy) / C_policy * 100, with the policy-arm cost in
the denominator (not incremental policy spend).

gamma enters the engine only through the spend channel, so an arm's total
cost is C(gamma) = R + gamma * inflation * policy_unit_cost * I_P with R
(C0 plus the rest) and I_P read off one simulated arm (see costmodel).
Break-even, the per-row sweep and the ROI slope are closed forms on that
line: one engine arm per (design, delta) instead of one per gamma, and the
arms of a sweep's delta axis run through one batched engine call
(``arm_costs``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .costmodel import Trajectory, arm_costs, simulate_trajectory, total_cost
from .numerics import check_finite
from .params import ModelParams
from .scenarios import PolicyConfig, build_preset

BREAKEVEN_GAMMA_MAX = 20.0
BREAKEVEN_ROI_TOL = 0.01  # percentage points: |ROI(0)| below this breaks even at gamma* = 0

# Contour levels exported with design-space sweeps.
CONTOUR_LEVELS_SIGN = (-5.0, 0.0, 5.0)
CONTOUR_LEVELS_DESIGN = (0.0, 50.0, 100.0)


@dataclass(frozen=True)
class RoiGrid:
    """Design-space sweep over adherence gain (rows) and cost scale (columns)."""

    delta_axis: np.ndarray
    gamma_axis: np.ndarray
    roi_percent: np.ndarray        # shape (len(delta_axis), len(gamma_axis))
    total_cost: np.ndarray         # policy-arm C(T) per cell
    breakeven_gamma_per_delta: tuple[float | None, ...]


class RejectedCost(ValueError):
    """``roi`` rejected a policy cost; ``index`` is its flat index in the array given."""

    def __init__(self, message: str, index: int) -> None:
        super().__init__(message)
        self.index = index


def roi(cost_baseline: float, cost_policy):
    """Return on investment in percent; positive iff the policy arm is cheaper.

    Elementwise over an array of policy costs.  A cost that is not finite or
    not > 0 raises ``RejectedCost`` for the first such cost in flat order.
    """
    check_finite("cost_baseline", cost_baseline)
    costs = np.asarray(cost_policy, dtype=float)
    ok = np.isfinite(costs) & (costs > 0.0)
    if not ok.all():
        i = int(ok.argmin())
        bad = float(costs.flat[i])
        rule = "be > 0" if np.isfinite(bad) else "be finite"
        raise RejectedCost(f"cost_policy must {rule}, got {bad}", i)
    return (cost_baseline - cost_policy) / cost_policy * 100.0


def monetized_roi(cost_baseline: float, cost_policy: float, health_benefit: float) -> float:
    """ROI with a monetized health benefit credited as additional savings."""
    check_finite("health_benefit", health_benefit)
    if cost_policy <= 0:
        raise ValueError(f"cost_policy must be > 0, got {cost_policy}")
    return (cost_baseline - cost_policy + health_benefit) / cost_policy * 100.0


def payback_time(traj_baseline: Trajectory, traj_policy: Trajectory) -> float | None:
    """First time the policy arm's cumulative cost drops below the baseline's.

    Linearly interpolated between the bracketing grid nodes; None when the
    policy arm never becomes strictly cheaper within the horizon.
    """
    if len(traj_baseline.times) != len(traj_policy.times) or not np.array_equal(
        traj_baseline.times, traj_policy.times
    ):
        raise ValueError("trajectories are on different grids")
    diff = traj_policy.cumulative_cost - traj_baseline.cumulative_cost
    below = np.nonzero(diff < 0)[0]
    below = below[below > 0]
    if len(below) == 0:
        return None
    i = int(below[0])
    t0, t1 = traj_baseline.times[i - 1], traj_baseline.times[i]
    d0, d1 = diff[i - 1], diff[i]
    if d0 <= 0:
        return float(t1) if d0 == 0 else float(t0)
    return float(t0 + (t1 - t0) * d0 / (d0 - d1))


def baseline_cost(params: ModelParams) -> float:
    """Cumulative cost of the no-policy counterfactual at the horizon."""
    return simulate_trajectory(params, build_preset("baseline")).final_cost


def _spend_per_gamma(params: ModelParams, policy: PolicyConfig, spend_integral):
    """dC/dgamma = inflation * policy_unit_cost * I_P."""
    return policy.inflation_factor * params.policy_unit_cost * spend_integral


def _breakeven(
    params: ModelParams, policy: PolicyConfig, c_base: float, rest: float, spend_integral: float
) -> float | None:
    """gamma* on the cost line of one arm; see ``breakeven_gamma``."""
    r0 = roi(c_base, rest)
    if abs(r0) < BREAKEVEN_ROI_TOL:
        return 0.0
    spend_per_gamma = _spend_per_gamma(params, policy, spend_integral)
    if r0 < 0 or spend_per_gamma <= 0:
        return None
    root = (c_base - rest) / spend_per_gamma
    return root if root <= BREAKEVEN_GAMMA_MAX else None


def breakeven_gamma(
    params: ModelParams,
    policy_template: PolicyConfig,
    delta: float,
) -> float | None:
    """Cost intensity gamma* at which ROI is zero, in closed form.

    C(gamma) = R + gamma * inflation * policy_unit_cost * I_P is linear, so
    gamma* = (C_base - R) / (inflation * policy_unit_cost * I_P) from one arm.
    Returns 0.0 when |ROI(gamma=0)| < BREAKEVEN_ROI_TOL, and None when the
    design already loses money at gamma = 0, spends nothing (I_P = 0), or
    breaks even only above BREAKEVEN_GAMMA_MAX.
    """
    check_finite("delta", delta)
    if not (0.0 <= delta <= 1.0):
        raise ValueError("delta must be in [0, 1]")
    policy = replace(policy_template, adherence_gain_delta=delta)
    c_base = baseline_cost(params)
    arm = simulate_trajectory(params, policy)
    return _breakeven(params, policy, c_base, arm.rest_cost, arm.spend_integral)


def sweep_design_space(
    params: ModelParams,
    template: PolicyConfig,
    delta_axis: np.ndarray,
    gamma_axis: np.ndarray,
) -> RoiGrid:
    """Evaluate ROI and total cost over the (delta, gamma) design space.

    One arm per delta row, all from one batched engine call: every gamma cell
    re-prices its row's cost split with ``total_cost``, which equals a direct
    run at that gamma bit for bit.
    """
    delta_axis = np.asarray(delta_axis, dtype=float)
    gamma_axis = np.asarray(gamma_axis, dtype=float)
    for name, axis in (("delta_axis", delta_axis), ("gamma_axis", gamma_axis)):
        if axis.size == 0:
            raise ValueError(f"{name} must be nonempty")
        if axis.size > 1 and not np.all(np.diff(axis) > 0):
            raise ValueError(f"{name} must be strictly increasing")
    # Rows and cells re-price arms instead of building a policy each, so the
    # range checks PolicyConfig would make are made here.
    if not np.all((delta_axis >= 0.0) & (delta_axis <= 1.0)):
        raise ValueError("delta_axis: values must be in [0, 1]")
    if not (np.all(np.isfinite(gamma_axis)) and gamma_axis[0] >= 0):
        raise ValueError("gamma_axis: values must be finite and >= 0")

    c_base = baseline_cost(params)
    rest, spend = arm_costs(params, template, delta_axis)
    cost_grid = total_cost(params, template, rest[:, None], spend[:, None], gamma_axis)
    try:
        roi_grid = roi(c_base, cost_grid)
    except RejectedCost as exc:
        i, j = divmod(exc.index, gamma_axis.size)
        raise ValueError(f"sweep cell (delta={delta_axis[i]}, gamma={gamma_axis[j]}) failed: {exc}") from exc
    return RoiGrid(
        delta_axis=delta_axis,
        gamma_axis=gamma_axis,
        roi_percent=roi_grid,
        total_cost=cost_grid,
        breakeven_gamma_per_delta=tuple(
            _breakeven(params, template, c_base, r, i_p) for r, i_p in zip(rest.tolist(), spend.tolist())
        ),
    )


def roi_slope(
    params: ModelParams,
    template: PolicyConfig,
    delta: float,
    gamma: float,
) -> float:
    """dROI/dgamma = -100 * C_base * inflation * policy_unit_cost * I_P / C(gamma)^2.

    Exact, since ROI = 100 * (C_base / C - 1) and C is linear in gamma.
    """
    check_finite("gamma", gamma)
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    policy = replace(template, adherence_gain_delta=delta, cost_scale_gamma=gamma)
    c_base = baseline_cost(params)
    arm = simulate_trajectory(params, policy)
    cost = arm.final_cost
    if cost <= 0:
        raise ValueError(f"cost_policy must be > 0, got {cost}")
    return -100.0 * c_base * _spend_per_gamma(params, policy, arm.spend_integral) / (cost * cost)


def scenario_roi_table(params: ModelParams, preset_names: tuple[str, ...] | None = None) -> dict[str, float]:
    """ROI per preset against the shared baseline (the Figure 4/5 comparison)."""
    from .scenarios import PRESET_NAMES

    names = preset_names or tuple(n for n in PRESET_NAMES if n != "baseline")
    c_base = baseline_cost(params)
    out: dict[str, float] = {}
    for name in names:
        out[name] = roi(c_base, simulate_trajectory(params, build_preset(name)).final_cost)
    return out
