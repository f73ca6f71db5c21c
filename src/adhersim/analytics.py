"""ROI, payback, break-even, iso-ROI curves, design-space sweeps and stress pairs.

ROI follows the study's cost-relative definition
ROI = (C_baseline - C_policy) / C_policy * 100, with the policy-arm cost in
the denominator (not incremental policy spend).

gamma enters the engine only through the spend channel, so an arm's total
cost is C(gamma) = R + gamma * inflation * policy_unit_cost * I_P with R
(C0 plus the rest) and I_P read off one simulated arm (see costmodel), and
only ``costmodel.total_cost`` prices that line.  Only ``gamma_at_roi``
inverts it, exactly and with no new arm: break-even is its zero level and a
sweep's iso-ROI curves its contour levels, all read under one rule
(``reachable``).  A sweep's arms run through one batched engine call
(``arm_costs``); ``stress_pairs`` serves the stress mode and figure family.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .costmodel import Trajectory, arm_costs, simulate_trajectory, total_cost
from .numerics import check_finite
from .params import ModelParams
from .scenarios import PolicyConfig, StressKind, apply_stress, build_preset

# ROI levels (percent) exported with design-space sweeps, each with its iso-ROI curve.
CONTOUR_LEVELS_SIGN = (-5.0, 0.0, 5.0)
CONTOUR_LEVELS_DESIGN = (0.0, 50.0, 100.0)
CONTOUR_LEVELS = tuple(sorted(set(CONTOUR_LEVELS_SIGN + CONTOUR_LEVELS_DESIGN)))
MAX_SWEEP_CELLS = 1_000_000  # as many as MAX_DRAWS; the grids hold a few 8-byte floats per cell


@dataclass(frozen=True)
class RoiGrid:
    """Design-space sweep over adherence gain (rows) and cost scale (columns)."""

    delta_axis: np.ndarray
    gamma_axis: np.ndarray
    roi_percent: np.ndarray        # shape (len(delta_axis), len(gamma_axis))
    total_cost: np.ndarray         # policy-arm C(T) per cell
    iso_roi_gamma: np.ndarray      # gamma_at_roi per delta row and CONTOUR_LEVELS column
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
        rule = "must be > 0" if np.isfinite(bad) else "must be finite"
        raise RejectedCost(f"cost_policy: {rule}, got {bad}", i)
    return (cost_baseline - cost_policy) / cost_policy * 100.0


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


# The no-policy counterfactual; a PolicyConfig is frozen, so one serves every call.
_BASELINE = build_preset("baseline")


def baseline_cost(params: ModelParams) -> float:
    """Cumulative cost of the no-policy counterfactual at the horizon."""
    return simulate_trajectory(params, _BASELINE).final_cost


def gamma_at_roi(params: ModelParams, policy: PolicyConfig, c_base, rest, spend_integral, level=0.0):
    """gamma_L at which an arm's ROI equals ``level`` percent, elementwise: on the
    line C(gamma) = R + s * gamma, ROI >= L exactly where gamma <= gamma_L =
    (C_base / (1 + L/100) - R) / s.  Raw: negative where the arm misses L even at
    gamma = 0, inf or NaN where it spends nothing (s = 0); see ``reachable``."""
    slope = total_cost(params, policy, 0.0, spend_integral, 1.0)  # s = dC/dgamma
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(c_base / (1.0 + np.asarray(level) / 100.0) - rest, slope)


def reachable(gamma):
    """The reachability rule: a finite gamma_L >= 0, else None; lists for an array."""
    gamma = np.asarray(gamma, dtype=float)
    return np.where(np.isfinite(gamma) & (gamma >= 0.0), gamma, None).tolist()


def breakeven_gamma(params: ModelParams, policy_template: PolicyConfig, delta: float) -> float | None:
    """Cost intensity gamma* at which ROI is zero, from one arm: ``gamma_at_roi``
    at level 0.  None when the design already loses money at gamma = 0 or
    spends nothing (I_P = 0).  ``delta`` replaces the template's gain, so
    PolicyConfig checks it; a baseline cost that is not finite raises
    ValueError, as in ``roi``."""
    policy = replace(policy_template, adherence_gain_delta=delta)
    arm = simulate_trajectory(params, policy)
    c_base = check_finite("cost_baseline", baseline_cost(params))
    return reachable(gamma_at_roi(params, policy, c_base, arm.rest_cost, arm.spend_integral))


def sweep_design_space(
    params: ModelParams, template: PolicyConfig, delta_axis: np.ndarray, gamma_axis: np.ndarray
) -> RoiGrid:
    """Evaluate ROI and total cost over the (delta, gamma) design space.

    One arm per delta row, all from one batched engine call: every gamma cell
    re-prices its row's cost split with ``total_cost``, which equals a direct
    run at that gamma bit for bit, and the row's line is inverted at every
    contour level.
    """
    delta_axis = np.asarray(delta_axis, dtype=float)
    gamma_axis = np.asarray(gamma_axis, dtype=float)
    for name, axis in (("delta_axis", delta_axis), ("gamma_axis", gamma_axis)):
        if axis.size == 0:
            raise ValueError(f"{name}: must be nonempty")
        if axis.size > 1 and not np.all(np.diff(axis) > 0):
            raise ValueError(f"{name}: must be strictly increasing")
    # Rows and cells re-price arms instead of building a policy each, so the
    # range checks PolicyConfig would make are made here.
    if not np.all((delta_axis >= 0.0) & (delta_axis <= 1.0)):
        raise ValueError("delta_axis: values must be in [0, 1]")
    if not (np.all(np.isfinite(gamma_axis)) and gamma_axis[0] >= 0):
        raise ValueError("gamma_axis: values must be finite and >= 0")
    if delta_axis.size * gamma_axis.size > MAX_SWEEP_CELLS:
        raise ValueError(f"gamma_axis: {delta_axis.size} x {gamma_axis.size} cells; at most {MAX_SWEEP_CELLS}")

    c_base = baseline_cost(params)
    rest, spend = arm_costs(params, template, delta_axis)
    cost_grid = total_cost(params, template, rest[:, None], spend[:, None], gamma_axis)
    try:
        roi_grid = roi(c_base, cost_grid)
    except RejectedCost as exc:
        i, j = divmod(exc.index, gamma_axis.size)
        raise ValueError(f"sweep cell (delta={delta_axis[i]}, gamma={gamma_axis[j]}) failed: {exc}") from exc
    curves = gamma_at_roi(params, template, c_base, rest[:, None], spend[:, None], CONTOUR_LEVELS)
    return RoiGrid(
        delta_axis=delta_axis,
        gamma_axis=gamma_axis,
        roi_percent=roi_grid,
        total_cost=cost_grid,
        iso_roi_gamma=curves,
        breakeven_gamma_per_delta=tuple(reachable(curves[:, CONTOUR_LEVELS.index(0.0)])),
    )


def stress_pairs(
    params: ModelParams,
    policies: Iterable[PolicyConfig],
    stresses: tuple[tuple[StressKind, float], ...],
) -> list[dict[str, tuple[float, float]]]:
    """(ROI, cost) of each policy's arm, unstressed and under each stress, in
    one dict per policy keyed ``"unstressed"`` and by each stress kind's value.

    A stressed arm is compared against the baseline under the same stress;
    the baseline's costs are run once for all policies.  Cost inflation
    re-prices the unstressed arm's cost split with ``total_cost``, bit for bit
    the ``final_cost`` of a new run; an accelerated progression changes the
    disease curve, so that arm runs again.
    """

    def costs(policy: PolicyConfig) -> dict[str, float]:
        arm = simulate_trajectory(params, policy)
        out = {"unstressed": arm.final_cost}
        for kind, value in stresses:
            stressed = apply_stress(policy, kind, value)
            if kind is StressKind.COST_INFLATION:
                out[kind.value] = total_cost(params, stressed, arm.rest_cost, arm.spend_integral)
            else:
                out[kind.value] = simulate_trajectory(params, stressed).final_cost
        return out

    base = costs(_BASELINE)
    return [{key: (roi(base[key], cost), cost) for key, cost in costs(policy).items()}
            for policy in policies]
