"""Property tests over generated policies on the reference parameters.

Examples are derandomized and have no deadline, so the suite stays
deterministic and its run time does not depend on the host.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
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
from adhersim.numerics import STEPS_PER_YEAR, time_grid
from adhersim.params import reference_params
from adhersim.scenarios import (
    NUDGE_WINDOW_YEARS,
    NudgeLog,
    PolicyConfig,
    PolicyKind,
    build_preset,
    compute_nudge_log,
    policy_cost_array,
)

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


def nudge_log_oracle(params, policy) -> tuple[float, ...]:
    """The re-engagement rule stepped node by node on the canonical grid."""
    a0 = params.adherence_baseline_A0
    delta, theta = policy.adherence_gain_delta, policy.decay_theta
    threshold = policy.nudge_threshold
    if theta == 0.0 or delta == 0.0 or a0 + delta <= threshold:
        return ()
    i_reset = round(policy.tau_snapped * STEPS_PER_YEAR)
    activations = []
    for i in range(i_reset + 1, round(params.horizon_T * STEPS_PER_YEAR) + 1):
        if a0 + delta * math.exp(-theta * ((i - i_reset) / STEPS_PER_YEAR)) < threshold:
            i_reset = i
            activations.append(i / STEPS_PER_YEAR)
    return tuple(activations)


# The threshold sits at a fraction of the gain above A0; fractions >= 1 leave
# the rule inert, small ones make it fire rarely or never within the horizon.
nudge_cases = st.builds(
    lambda a0, delta, theta, fraction, tau: (
        replace(PARAMS, adherence_baseline_A0=a0),
        PolicyConfig(
            kind=PolicyKind.ADAPTIVE_NUDGES, start_tau=tau, adherence_gain_delta=delta,
            decay_theta=theta, nudge_threshold=min(a0 + fraction * delta, 1.0),
        ),
    ),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 5.0),
    st.floats(0.0, 1.1),
    st.floats(0.0, PARAMS.horizon_T),
)


@PROPERTY
@given(nudge_cases)
def test_closed_form_nudge_log_equals_stepped_rule(case):
    params, policy = case
    times = compute_nudge_log(params, policy).activation_times
    assert times == nudge_log_oracle(params, policy)
    assert all(type(t) is float for t in times)


def test_every_nudge_window_closes_on_its_grid_node():
    policy = replace(build_preset("adaptive_nudges"), start_tau=0.0)
    nodes = time_grid(PARAMS.horizon_T)
    width = round(NUDGE_WINDOW_YEARS * STEPS_PER_YEAR)
    for k in range(len(nodes) - width):
        log = NudgeLog((float(nodes[k]),))
        spend = policy_cost_array(policy, log, nodes[[k + width - 1, k + width]])
        assert spend.tolist() == [1.0 + policy.nudge_unit_cost, 1.0], k


def test_grid_must_refine_the_canonical_grid():
    with pytest.raises(ValueError, match="steps_per_year"):
        simulate_trajectory(PARAMS, build_preset("early_adherence"), steps_per_year=150)
