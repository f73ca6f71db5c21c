"""Property tests over generated step policies on the reference parameters.

Examples are derandomized and have no deadline, so the suite stays
deterministic and its run time does not depend on the host.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from adhersim.analytics import (
    BREAKEVEN_GAMMA_MAX,
    BREAKEVEN_ROI_TOL,
    baseline_cost,
    breakeven_gamma,
    roi,
    sweep_design_space,
)
from adhersim.costmodel import simulate_trajectory
from adhersim.params import reference_params
from adhersim.scenarios import PolicyConfig, PolicyKind

PARAMS = reference_params()
C_BASE = baseline_cost(PARAMS)
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=40)

# A0 + delta <= 1 on the reference A0 = 0.55.
deltas = st.floats(0.0, 0.45)
gammas = st.floats(0.0, 6.0)
step_policies = st.builds(
    PolicyConfig,
    kind=st.sampled_from(
        (PolicyKind.EARLY_ADHERENCE, PolicyKind.DELAYED, PolicyKind.LOW_IMPACT, PolicyKind.CUSTOM)
    ),
    start_tau=st.floats(0.0, PARAMS.horizon_T),
    adherence_gain_delta=deltas,
    cost_scale_gamma=gammas,
    inflation_factor=st.floats(1.0, 2.0),
)


def roi_at(policy: PolicyConfig, delta: float, gamma: float, params=PARAMS) -> float:
    arm = replace(policy, adherence_gain_delta=delta, cost_scale_gamma=gamma)
    return roi(baseline_cost(params), simulate_trajectory(params, arm).final_cost)


def axis(values):
    return st.lists(values, min_size=1, max_size=3, unique=True).map(sorted)


@PROPERTY
@given(step_policies, axis(deltas), axis(gammas))
def test_sweep_cell_equals_direct_run(policy, delta_axis, gamma_axis):
    grid = sweep_design_space(PARAMS, policy, np.array(delta_axis), np.array(gamma_axis))
    for i, delta in enumerate(delta_axis):
        for j, gamma in enumerate(gamma_axis):
            arm = replace(policy, adherence_gain_delta=delta, cost_scale_gamma=gamma)
            cost = simulate_trajectory(PARAMS, arm).final_cost
            assert grid.total_cost[i, j] == cost
            assert grid.roi_percent[i, j] == roi(C_BASE, cost)


@PROPERTY
@given(step_policies, axis(deltas), axis(gammas))
def test_roi_never_rises_with_gamma_nor_falls_with_delta(policy, delta_axis, gamma_axis):
    rois = np.array([[roi_at(policy, d, g) for g in gamma_axis] for d in delta_axis])
    assert np.all(np.diff(rois, axis=1) <= 1e-9)
    assert np.all(np.diff(rois, axis=0) >= -1e-9)


# Unit costs down to zero push gamma* past BREAKEVEN_GAMMA_MAX or leave nothing
# to spend; a positive beta makes adherence itself costly, so ROI(0) < 0.
cost_parameters = st.builds(
    lambda u_scale, beta_sign: replace(
        PARAMS,
        policy_unit_cost=u_scale * PARAMS.policy_unit_cost,
        adherence_cost_beta=beta_sign * PARAMS.adherence_cost_beta,
    ),
    st.sampled_from((1.0, 0.5, 0.05, 0.0)),
    st.sampled_from((1.0, -1.0)),
)


@PROPERTY
@given(cost_parameters, step_policies, deltas)
def test_breakeven_is_a_root_or_has_none(params, policy, delta):
    g = breakeven_gamma(params, policy, delta)
    r0 = roi_at(policy, delta, 0.0, params)
    if abs(r0) < BREAKEVEN_ROI_TOL:
        assert g == 0.0
    elif r0 < 0 or roi_at(policy, delta, BREAKEVEN_GAMMA_MAX, params) > 0:
        # Losing money for free, or still saving money at the largest gamma.
        assert g is None
    else:
        assert g is not None and 0.0 < g <= BREAKEVEN_GAMMA_MAX
        assert abs(roi_at(policy, delta, g, params)) <= 1e-8
