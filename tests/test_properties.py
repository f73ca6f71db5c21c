"""Property tests over generated policies on the reference parameters.

Examples are derandomized and have no deadline, so the suite stays
deterministic and its run time does not depend on the host.
"""

import contextlib
import io
import math
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adhersim.analytics import (
    CONTOUR_LEVELS,
    baseline_cost,
    breakeven_gamma,
    gamma_at_roi,
    reachable,
    roi,
    sweep_design_space,
)
from adhersim import costmodel
from adhersim.cli import main
from adhersim.costmodel import arm_costs, simulate_trajectory, total_cost
from adhersim.exports import csv_bytes, trajectory_csv
from adhersim.montecarlo import (
    MAX_DRAWS,
    DistributionSpec,
    _draw_streams,
    _spawn_seed_words,
    run_monte_carlo,
    sample_delta,
    substream,
)
from adhersim.numerics import STEPS_PER_YEAR, sigmoid, time_grid
from adhersim.params import MAX_HORIZON_YEARS, reference_params, reference_params_path
from adhersim.runconfig import (
    _POLICY_OVERRIDE_FIELDS,
    RunConfig,
    RunMode,
    parse_run_config,
    serialize_run_config,
    validate_run_config,
)
from adhersim.scenarios import (
    NUDGE_WINDOW_YEARS,
    PRESET_NAMES,
    PolicyConfig,
    PolicyKind,
    _nudge_periods,
    _spend_at_nodes,
    _tau_node,
    adherence_array,
    build_preset,
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


# Small unit costs push gamma_L far above any gamma a preset uses, and a zero
# one leaves nothing to spend; a positive beta makes adherence itself costly,
# so ROI(0) < 0.
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
@given(cost_parameters, step_policies, deltas, st.sampled_from(CONTOUR_LEVELS))
# A root just above 0 (|ROI(0)| < 0.01 pp), and an arm that spends nothing.
@example(PARAMS, build_preset("regressive"), 0.001, 0.0)
@example(PARAMS, build_preset("baseline"), 0.3, 0.0)
def test_breakeven_is_a_root_or_has_none(params, policy, delta, level):
    """At every contour level L, gamma_L is None exactly when the arm spends
    nothing or misses L at gamma = 0; otherwise a direct run at gamma_L has
    ROI L.  Break-even is the level-0 case."""
    arm = simulate_trajectory(params, replace(policy, adherence_gain_delta=delta))
    g = reachable(gamma_at_roi(params, policy, baseline_cost(params), arm.rest_cost, arm.spend_integral, level))
    if params.policy_unit_cost * arm.spend_integral == 0.0 or roi_at(policy, delta, 0.0, params) < level:
        assert g is None
    else:
        assert g >= 0.0
        assert abs(roi_at(policy, delta, g, params) - level) <= 1e-8
    if level == 0.0:
        assert breakeven_gamma(params, policy, delta) == g


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
    i0, (m,) = _nudge_periods(params, policy, [policy.adherence_gain_delta])
    i_last = round(params.horizon_T * STEPS_PER_YEAR)
    times = tuple(i / STEPS_PER_YEAR for i in range(i0 + m, i_last + 1, m)) if m else ()
    assert times == nudge_log_oracle(params, policy)


def test_every_nudge_window_closes_on_its_grid_node():
    policy = build_preset("adaptive_nudges")
    nodes = np.arange(round(PARAMS.horizon_T * STEPS_PER_YEAR) + 1)
    width = round(NUDGE_WINDOW_YEARS * STEPS_PER_YEAR)
    period = len(nodes)
    for k in range(len(nodes) - width):
        # One activation, at node k: the next would fall past the grid.
        spend = _spend_at_nodes(policy, (k - period, np.array([period])), nodes)[0]
        open_window = (nodes >= k) & (nodes < k + width)
        assert spend.tolist() == (1.0 + policy.nudge_unit_cost * open_window).tolist(), k


def test_grid_must_refine_the_canonical_grid():
    with pytest.raises(ValueError, match="steps_per_year"):
        simulate_trajectory(PARAMS, build_preset("early_adherence"), steps_per_year=150)


# Gains over all of [0, 1] (the engine clamps adherence), with theta, tau
# and a trigger threshold above A0 = 0.55 free, for the two kinds that read
# them: within one batch, gains above the threshold's margin fire at
# different periods and the rest never fire.
decaying_policies = st.builds(
    PolicyConfig,
    kind=st.sampled_from((PolicyKind.CUSTOM, PolicyKind.ADAPTIVE_NUDGES)),
    start_tau=st.floats(0.0, PARAMS.horizon_T),
    cost_scale_gamma=gammas,
    decay_theta=st.floats(0.0, 5.0),
    nudge_threshold=st.floats(PARAMS.adherence_baseline_A0, 1.0),
)


@PROPERTY
@given(decaying_policies, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2 * costmodel._CHUNK_ARMS + 1))
def test_batched_rows_equal_direct_runs(policy, deltas):
    rest, spend = arm_costs(PARAMS, policy, deltas)
    costs = total_cost(PARAMS, policy, rest, spend)
    for delta, cost in zip(deltas, costs):
        assert cost == simulate_trajectory(PARAMS, replace(policy, adherence_gain_delta=delta)).final_cost


def period_form_oracle(params, policy, delta, activations, s, piece_at):
    """Adherence at s on the piece in force at piece_at, and P at piece_at,
    from an activation log as times, searched as floats."""
    tau = policy.tau_snapped
    boosts = np.array((tau,) + activations)
    t_last = boosts[np.maximum(np.searchsorted(boosts, piece_at, side="right") - 1, 0)]
    active = piece_at >= tau
    if policy.decay_theta == 0.0:
        gain = delta * active
    else:
        gain = delta * np.exp(-policy.decay_theta * np.maximum(s - t_last, 0.0)) * active
    adherence = np.clip(np.full_like(s, params.adherence_baseline_A0) + gain, 0.0, 1.0)
    starts = np.array(activations)
    ends = np.ceil(np.maximum((starts + NUDGE_WINDOW_YEARS) * STEPS_PER_YEAR - 1e-9, 0.0)) / STEPS_PER_YEAR
    n_open = np.searchsorted(starts, piece_at, side="right") - np.searchsorted(ends, piece_at, side="right")
    return adherence, active.astype(float) + policy.nudge_unit_cost * n_open


@PROPERTY
@given(nudge_cases, st.lists(st.floats(0.0, 3.0), min_size=2, max_size=2 * costmodel._CHUNK_ARMS))
def test_period_form_equals_activation_times(case, multiples):
    # Multiples of the design's gain below the trigger margin never fire; the
    # others fire with periods that shrink as the gain falls towards it.
    params, policy = case
    gains = [min(policy.adherence_gain_delta * k, 1.0) for k in multiples]
    for steps_per_year in (STEPS_PER_YEAR, 2 * STEPS_PER_YEAR):
        grid = costmodel._grid(params.horizon_T, steps_per_year, params.discount_rate_rho)
        times, _, _, points, pieces = grid
        nudges = _nudge_periods(params, policy, gains)
        adherence = adherence_array(params, policy, gains, nudges, points, pieces)
        spend = costmodel._spend_rows(policy, grid, nudges)[0]
        piece_at = np.concatenate((times, times[:-1], times[:-1]))
        for row, gain in enumerate(gains):
            activations = nudge_log_oracle(params, replace(policy, adherence_gain_delta=gain))
            a, _ = period_form_oracle(params, policy, gain, activations, points, piece_at)
            _, p = period_form_oracle(params, policy, gain, activations, times, times)
            assert adherence[row].tobytes() == a.tobytes(), (steps_per_year, gain)
            assert spend[row].tobytes() == p.tobytes(), (steps_per_year, gain)


def tau_snap_oracle(tau: float) -> tuple[int, float]:
    """tau's canonical node and snapped time, computed on numpy float64: the
    first grid node at or above tau, less 1e-9 of a step."""
    snapped = float(np.ceil(np.maximum(np.float64(tau) * STEPS_PER_YEAR - 1e-9, 0.0))) / STEPS_PER_YEAR
    return round(snapped * STEPS_PER_YEAR), snapped


# Canonical nodes, the floats on either side of them, and times far past any horizon.
node_times = st.integers(0, 10**7).map(lambda k: k / STEPS_PER_YEAR)
tau_values = st.one_of(
    st.floats(0.0, PARAMS.horizon_T), node_times,
    node_times.map(lambda t: math.nextafter(t, math.inf)), node_times.map(lambda t: math.nextafter(t, 0.0)),
    st.floats(0.0, 1e300),
)


@PROPERTY
@given(tau_values)
# Just inside and just outside the 1e-9-of-a-step tolerance above node 1, and off the grid.
@example(0.01 + 5e-12)
@example(0.01 + 2e-11)
@example(0.0123)
def test_tau_node_equals_rounded_snapped_tau(tau):
    policy = PolicyConfig(kind=PolicyKind.EARLY_ADHERENCE, start_tau=tau)
    assert (_tau_node(policy), policy.tau_snapped) == tau_snap_oracle(tau)


def cumsum_from_zero(panels):
    out = np.zeros(panels.shape[:-1] + (panels.shape[-1] + 1,))
    np.cumsum(panels, axis=-1, out=out[..., 1:])
    return out


def adherence_reference(params, policy, delta, activations, s, piece_at):
    """A(s) on the piece in force at piece_at, from an activation log as times,
    with each kind's gain law and the baseline's decay."""
    kind = policy.kind
    active = piece_at >= policy.tau_snapped
    if kind is PolicyKind.BASELINE:
        gain = np.zeros_like(s)
    elif kind in (PolicyKind.EARLY_ADHERENCE, PolicyKind.DELAYED, PolicyKind.LOW_IMPACT) or policy.decay_theta == 0.0:
        gain = delta * active
    else:
        boosts = np.array((policy.tau_snapped,) + activations)
        t_last = boosts[np.maximum(np.searchsorted(boosts, piece_at, side="right") - 1, 0)]
        gain = delta * np.exp(-policy.decay_theta * np.maximum(s - t_last, 0.0)) * active
    a0 = params.adherence_baseline_A0
    if policy.baseline_decay is None:
        base = np.full_like(s, a0)
    else:
        base = a0 * np.exp(-policy.baseline_decay * s)
    return np.clip(gain + base, 0.0, 1.0)


def kernel_reference(params, policy, steps_per_year=STEPS_PER_YEAR):
    """Every column of one arm from plain numpy, one expression per quantity:
    k_eff on the panels' start, midpoint and end, Simpson on the logit, the
    two-branch sigmoid, alpha*D + beta*A^2 and the discounted trapezoids."""
    times = time_grid(params.horizon_T, steps_per_year)
    starts, mids, ends = times[:-1], times[:-1] + times[1] / 2.0, times[1:]
    h = times[1] - times[0]
    delta = policy.adherence_gain_delta
    activations = nudge_log_oracle(params, policy) if policy.kind is PolicyKind.ADAPTIVE_NUDGES else ()
    a_nodes = adherence_reference(params, policy, delta, activations, times, times)
    a_mid = adherence_reference(params, policy, delta, activations, mids, starts)
    a_end = adherence_reference(params, policy, delta, activations, ends, starts)

    c = policy.progression_compression
    k_c, s0_c = params.disease_steepness_k / c, params.disease_midpoint_s0 * c
    eta, a0 = params.severity_coupling_eta, params.adherence_baseline_A0
    if eta == 0.0:
        severity = params.disease_max_Dmax * sigmoid_oracle(k_c * (times - s0_c))
    else:
        def k_eff(a):
            return k_c * (1.0 - eta * np.maximum(0.0, a - a0))

        steps = (h / 6.0) * (k_eff(a_nodes[:-1]) + 4.0 * k_eff(a_mid) + k_eff(a_end))
        z = -params.disease_steepness_k * params.disease_midpoint_s0 + cumsum_from_zero(steps)
        severity = params.disease_max_Dmax * sigmoid_oracle(z)

    alpha, beta = params.disease_cost_alpha, params.adherence_cost_beta
    rest_nodes = alpha * severity + beta * a_nodes**2
    rest_end = alpha * severity[1:] + beta * a_end**2
    disc = np.exp(-params.discount_rate_rho * times)
    rest = params.baseline_cost_C0 + cumsum_from_zero((h / 2.0) * (disc[:-1] * rest_nodes[:-1] + disc[1:] * rest_end))
    if policy.kind is PolicyKind.BASELINE:
        p = np.zeros_like(times)
    else:
        nodes = np.floor_divide(np.arange(len(times)), steps_per_year // STEPS_PER_YEAR) / STEPS_PER_YEAR
        _, p = period_form_oracle(params, policy, delta, activations, times, nodes)
    spend = cumsum_from_zero((h / 2.0) * (disc[:-1] * p[:-1] + disc[1:] * p[:-1]))
    price = (policy.cost_scale_gamma * policy.inflation_factor) * params.policy_unit_cost
    return {
        "times": times, "adherence": a_nodes, "severity": severity, "policy_cost": p,
        "instantaneous_cost": rest_nodes + price * p, "cumulative_cost": rest + price * spend,
        "rest_cost": rest[-1:], "spend_integral": spend[-1:],
    }


# Every kind, with the fields each one ignores drawn too; gains over all of
# [0, 1] and thresholds above A0, so nudges fire at many periods or never.
kernel_policies = st.builds(
    PolicyConfig,
    kind=st.sampled_from(PolicyKind),
    start_tau=st.floats(0.0, PARAMS.horizon_T),
    adherence_gain_delta=st.floats(0.0, 1.0),
    cost_scale_gamma=gammas,
    decay_theta=st.floats(0.0, 5.0),
    nudge_threshold=st.floats(PARAMS.adherence_baseline_A0, 1.0),
    baseline_decay=st.none() | st.floats(0.0, 0.5),
    inflation_factor=st.floats(1.0, 2.0),
    progression_compression=st.floats(0.5, 1.0) | st.just(1.0),
)
kernel_params = st.sampled_from((PARAMS, replace(PARAMS, severity_coupling_eta=0.0)))


@PROPERTY
@given(kernel_params, kernel_policies, st.sampled_from((STEPS_PER_YEAR, 2 * STEPS_PER_YEAR)))
def test_trajectory_columns_equal_plain_numpy_reference(params, policy, steps_per_year):
    traj = simulate_trajectory(params, policy, steps_per_year)
    expected = kernel_reference(params, policy, steps_per_year)
    for name, column in expected.items():
        got = np.atleast_1d(np.float64(getattr(traj, name)))
        assert got.tobytes() == column.tobytes(), name


@PROPERTY
@given(kernel_params, kernel_policies, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2 * costmodel._CHUNK_ARMS + 1))
def test_batched_rows_equal_plain_numpy_reference(params, policy, deltas):
    rest, spend = arm_costs(params, policy, deltas)
    for i, delta in enumerate(deltas):
        expected = kernel_reference(params, replace(policy, adherence_gain_delta=delta))
        assert rest[i:i + 1].tobytes() == expected["rest_cost"].tobytes(), delta
        assert spend[i:i + 1].tobytes() == expected["spend_integral"].tobytes(), delta


TRAJECTORY_COLUMNS = ("times", "adherence", "severity", "policy_cost", "instantaneous_cost",
                      "cumulative_cost", "rest_cost", "spend_integral", "final_cost")
# Every kind with tau anywhere past the horizon, up to the largest float.
late_policies = st.builds(replace, kernel_policies,
                          start_tau=st.floats(PARAMS.horizon_T, sys.float_info.max, exclude_min=True))


@PROPERTY
@given(kernel_params, late_policies, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2 * costmodel._CHUNK_ARMS + 1))
@example(PARAMS, replace(build_preset("adaptive_nudges"), start_tau=sys.float_info.max), [0.3])
def test_policy_starting_past_horizon_is_the_no_policy_arm(params, policy, deltas):
    never = replace(policy, kind=PolicyKind.BASELINE)
    traj, expected = simulate_trajectory(params, policy), simulate_trajectory(params, never)
    for name in TRAJECTORY_COLUMNS:
        got, want = (np.asarray(getattr(run, name), dtype=float) for run in (traj, expected))
        assert got.tobytes() == want.tobytes(), name
    for got, want in zip(arm_costs(params, policy, deltas), arm_costs(params, never, deltas)):
        assert got.tobytes() == want.tobytes()


@PROPERTY
@given(st.sampled_from(PRESET_NAMES), gammas, st.floats(1.0, 2.0), st.floats(0.5, 1.0) | st.just(1.0))
def test_final_cost_ends_the_cost_columns(name, gamma, inflation, compression):
    policy = replace(build_preset(name), cost_scale_gamma=gamma, inflation_factor=inflation,
                     progression_compression=compression)
    traj = simulate_trajectory(PARAMS, policy)
    assert traj.final_cost == traj.cumulative_cost[-1]
    assert traj.final_cost == total_cost(PARAMS, policy, traj.rest_cost, traj.spend_integral)
    # The rest rate and channel are the same arm's cost at gamma = 0; P and
    # the spend channel come from the uncached spend kernel.
    unpriced = simulate_trajectory(PARAMS, replace(policy, cost_scale_gamma=0.0))
    grid = costmodel._grid(PARAMS.horizon_T, STEPS_PER_YEAR, PARAMS.discount_rate_rho)
    nudges = _nudge_periods(PARAMS, policy, [policy.adherence_gain_delta])
    p, spend = costmodel._spend_rows(policy, grid, nudges)
    assert traj.policy_cost.tobytes() == p[0].tobytes()
    instantaneous = total_cost(PARAMS, policy, unpriced.instantaneous_cost, p[0])
    assert traj.instantaneous_cost.tobytes() == instantaneous.tobytes()
    cumulative = total_cost(PARAMS, policy, unpriced.cumulative_cost, spend[0])
    assert traj.cumulative_cost.tobytes() == cumulative.tobytes()


def sigmoid_oracle(z):
    """The two-branch logistic: exp(-z) for z >= 0, exp(z) below."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


SIGMOID_EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 709.8, -709.8,
                 745.2, -745.2, 1e308, -1e308, math.inf, -math.inf)


@PROPERTY
@given(st.lists(st.one_of(st.floats(allow_nan=False), st.sampled_from(SIGMOID_EDGES)), max_size=30))
def test_sigmoid_equals_two_branch_form(values):
    z = np.array(values, dtype=float)
    assert sigmoid(z).tobytes() == sigmoid_oracle(z).tobytes()
    for v in values:
        assert np.float64(sigmoid(v)).tobytes() == sigmoid_oracle(np.array([v]))[0].tobytes()


refinable_designs = st.builds(
    PolicyConfig,
    kind=st.sampled_from((PolicyKind.CUSTOM, PolicyKind.ADAPTIVE_NUDGES, PolicyKind.EARLY_ADHERENCE)),
    start_tau=st.floats(0.0, PARAMS.horizon_T),
    adherence_gain_delta=deltas,
    cost_scale_gamma=gammas,
    decay_theta=st.floats(0.0, 5.0),
    nudge_threshold=st.floats(PARAMS.adherence_baseline_A0, 1.0),
)


@PROPERTY
@given(refinable_designs)
def test_grid_refinement_converges_at_second_order(policy):
    # Every policy event on a node keeps the trapezoid and Simpson errors at
    # O(h^2): halving h quarters the change.  An event off its node breaks this.
    c100, c200, c400 = (simulate_trajectory(PARAMS, policy, k * STEPS_PER_YEAR).final_cost for k in (1, 2, 4))
    assert 3.5 <= (c100 - c200) / (c200 - c400) <= 4.5


MC_SPECS = {
    "beta": DistributionSpec.beta(6.0, 14.0),
    "binary": DistributionSpec.binary(0.4, 0.1, 0.5),
}


@pytest.mark.parametrize("spec", MC_SPECS.values(), ids=MC_SPECS.keys())
@pytest.mark.parametrize("preset", PRESET_NAMES)
@settings(PROPERTY, max_examples=4)
@given(st.integers(1, 20), st.integers(0, 2**31))
def test_monte_carlo_output_does_not_depend_on_chunk_size(preset, spec, n, seed):
    outputs = []
    for chunk in (1, 3, 8, n):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(costmodel, "_CHUNK_ARMS", chunk)
            summary, draws = run_monte_carlo(PARAMS, build_preset(preset), spec, n, seed)
        outputs.append((summary, draws.tobytes()))
    assert all(out == outputs[0] for out in outputs[1:])


# One 32-bit word; up to 2**63, as a run configuration allows; and at least
# 2**128, where the seed fills the hash pool and its upper words mix in late.
master_seeds = st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**63), st.integers(2**128, 2**160))


@PROPERTY
@given(master_seeds, st.integers(1, 40))
# Where the seed's count of 32-bit words, and with it the hash-constant
# exponent, changes.
@example(0, 3)
@example(2**32 - 1, 3)
@example(2**32, 3)
@example(2**128 - 1, 3)
@example(2**128, 3)
@example(2**160, 3)
def test_draw_streams_start_where_substreams_do(master_seed, n):
    words = _spawn_seed_words(master_seed, n)
    expected = [np.random.SeedSequence(master_seed, spawn_key=(i,)).generate_state(4, np.uint64) for i in range(n)]
    assert words.dtype == np.uint64
    assert np.array_equal(words, expected)
    states = [stream.bit_generator.state for stream in _draw_streams(master_seed, n)]
    assert states == [substream(master_seed, i).bit_generator.state for i in range(n)]


# Both shapes at most 1: numpy draws this Beta by Johnk's rejection method,
# so draws take differing numbers of uniforms.
REJECTING_BETA = DistributionSpec.beta(0.5, 0.5)


@pytest.mark.parametrize("spec", [*MC_SPECS.values(), REJECTING_BETA],
                         ids=[*MC_SPECS.keys(), "beta_rejecting"])
@PROPERTY
@given(master_seeds, st.integers(1, 24))
def test_monte_carlo_draws_equal_their_substreams(spec, master_seed, n):
    _, draws = run_monte_carlo(PARAMS, build_preset("early_adherence"), spec, n, master_seed)
    assert draws["delta"].tolist() == [sample_delta(spec, substream(master_seed, i)) for i in range(n)]


def rowwise_csv(header, rows) -> bytes:
    """The per-cell formatter the table writers replaced, kept as an oracle."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format(float(v), ".6g") if isinstance(v, float) else str(v) for v in row))
    return ("\n".join(lines) + "\n").encode()


# Signed zeros, subnormals, the extremes of the exponent range, and values
# exactly half-way between two 6-digit decimals (round-half-even decides).
EDGE_FLOATS = (
    0.0, -0.0, 5e-324, -2.5e-323, 2.2250738585072014e-308, math.inf, -math.inf, math.nan,
    1e300, -1e-300, 1.7976931348623157e308, 1234565.0, 1234575.0, 9999995.0, 123456.5,
    12345.25, -1234.125, 0.5, 100000.0, 999999.5,
)
cell_floats = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))


@st.composite
def tables(draw):
    """Header, float columns with one text column at index ``at``, and ``at``."""
    n, k = draw(st.integers(0, 12)), draw(st.integers(1, 4))
    columns = [draw(st.lists(cell_floats, min_size=n, max_size=n)) for _ in range(k)]
    at = draw(st.integers(0, k))
    columns.insert(at, draw(st.lists(st.text(max_size=6), min_size=n, max_size=n)))
    return [f"c{j}" for j in range(k + 1)], columns, at


@PROPERTY
@given(tables())
def test_table_format_equals_per_cell_format(table):
    header, columns, at = table
    expected = rowwise_csv(header, [list(row) for row in zip(*columns)])
    assert csv_bytes(header, columns) == expected
    arrays = [c if j == at else np.array(c, dtype=float) for j, c in enumerate(columns)]
    assert csv_bytes(header, arrays) == expected


@st.composite
def run_tables(draw):
    """Header and float columns made of runs of one value each, on n >= 0 rows.

    Run values come from EDGE_FLOATS, so runs of 0.0 and -0.0, of NaN and of
    either infinity often meet; a run may be one row long.
    """
    n, k = draw(st.integers(0, 60)), draw(st.integers(1, 3))
    columns = []
    for _ in range(k):
        lengths = draw(st.lists(st.integers(1, 12), min_size=1, max_size=n + 1))
        values = draw(st.lists(st.sampled_from(EDGE_FLOATS), min_size=len(lengths), max_size=len(lengths)))
        cells = [v for v, length in zip(values, lengths) for _ in range(length)]
        columns.append((cells * (n // len(cells) + 1))[:n])
    return [f"c{j}" for j in range(k)], columns


@PROPERTY
@given(run_tables())
@example((["c0", "c1"], [[0.0, 0.0, -0.0, -0.0, math.nan, math.nan, math.inf, -math.inf, -0.0, 0.0],
                            [-0.0] * 9 + [0.0]]))
def test_run_heavy_columns_equal_per_cell_format(table):
    header, columns = table
    expected = rowwise_csv(header, [list(row) for row in zip(*columns)])
    assert csv_bytes(header, columns) == expected
    assert csv_bytes(header, [np.array(c, dtype=float) for c in columns]) == expected


def test_each_grid_gets_its_own_time_cells():
    """The time column's text is kept per grid: a refined grid never reads the canonical one's."""
    policy = build_preset("early_adherence")
    for steps_per_year in (STEPS_PER_YEAR, 2 * STEPS_PER_YEAR, STEPS_PER_YEAR):
        traj = simulate_trajectory(PARAMS, policy, steps_per_year)
        columns = [traj.times, traj.adherence, traj.severity, traj.policy_cost,
                   traj.instantaneous_cost, traj.cumulative_cost]
        header = ["time", "adherence", "severity", "policy_cost", "instantaneous_cost", "cumulative_cost"]
        expected = rowwise_csv(header, [[float(v) for v in row] for row in zip(*columns)])
        assert len(traj.times) == len(time_grid(PARAMS.horizon_T, steps_per_year))
        assert trajectory_csv(traj) == expected


finite = st.floats(allow_nan=False, allow_infinity=False)
OVERRIDE_RANGES = {
    "start_tau": st.floats(0.0, 1e6),
    "adherence_gain_delta": st.floats(0.0, 1.0),
    "cost_scale_gamma": st.floats(0.0, 1e6),
    "decay_theta": st.floats(0.0, 1e3),
    "nudge_threshold": st.floats(0.0, 1.0),
    "nudge_unit_cost": st.floats(0.0, 1e6),
    "baseline_decay": st.floats(0.0, 10.0),
    "inflation_factor": st.floats(1.0, 1e3),
    "progression_compression": st.floats(0.0, 1.0, exclude_min=True),
}
OVERRIDE_VALUES = {name: OVERRIDE_RANGES[name] for name in _POLICY_OVERRIDE_FIELDS}
STRESS_VALUES = {
    "cost_inflation": st.floats(1.0, 1e6),
    "accelerated_progression": st.floats(0.0, 1.0, exclude_min=True),
}
# Mostly ordinary paths; arbitrary text also brings '#', line breaks and
# surrounding whitespace, which a document line cannot carry.
paths = st.one_of(st.from_regex(r"[A-Za-z0-9_./][A-Za-z0-9_./ =-]{0,12}[A-Za-z0-9_.]", fullmatch=True),
                  st.text(min_size=1, max_size=8))


@st.composite
def run_configs(draw):
    """Configurations whose every key but the two paths is valid for its mode."""
    mode = draw(st.sampled_from(RunMode))

    def maybe(strategy, required: bool):
        return draw(strategy if required else st.none() | strategy)

    def config_axis(values):
        return st.lists(values, min_size=1, max_size=4, unique=True).map(lambda v: tuple(sorted(v)))

    stress_kind = maybe(st.sampled_from(sorted(STRESS_VALUES)), mode is RunMode.STRESS)
    return RunConfig(
        params_file=draw(paths),
        scenario=draw(st.sampled_from(PRESET_NAMES + ("custom",))),
        mode=mode,
        output_dir=draw(paths),
        seed=maybe(st.integers(0, 2**63), mode is RunMode.MONTE_CARLO),
        n_draws=maybe(st.integers(1, MAX_DRAWS), mode is RunMode.MONTE_CARLO),
        delta_axis=maybe(config_axis(st.floats(0.0, 1.0)), mode in (RunMode.SWEEP, RunMode.BREAKEVEN)) or (),
        gamma_axis=maybe(config_axis(finite), mode is RunMode.SWEEP) or (),
        stress_kind=stress_kind,
        stress_value=None if stress_kind is None else maybe(STRESS_VALUES[stress_kind], False),
        policy_overrides=draw(st.fixed_dictionaries({}, optional=OVERRIDE_VALUES)),
    )


@PROPERTY
@given(run_configs())
def test_run_config_round_trips_or_is_rejected(config):
    text = serialize_run_config(config)
    try:
        validate_run_config(config)
    except ValueError as exc:
        # Only a path is rejected, and only one the document would not carry back.
        assert str(exc).startswith(("params_file:", "output_dir:"))
        try:
            assert parse_run_config(text) != config
        except ValueError:
            pass  # the document does not parse at all
        return
    assert parse_run_config(text) == config


NUMERIC_KEYS = ("seed", "n_draws", "stress_value", "delta_axis", "gamma_axis") + tuple(
    "policy." + name for name in _POLICY_OVERRIDE_FIELDS)
NOT_NUMBERS = ("abc", "", "1.2.3", "one", "--1", "0x1g", "1e", "2 x", "1_0", "\uff15", "0.\u0663")
# Values each field rejects: out of its range, or not finite.
OUT_OF_RANGE = {
    "start_tau": st.floats(max_value=0.0, exclude_max=True),
    "adherence_gain_delta": st.floats(max_value=0.0, exclude_max=True) | st.floats(min_value=1.0, exclude_min=True),
    "cost_scale_gamma": st.floats(max_value=0.0, exclude_max=True),
    "decay_theta": st.floats(max_value=0.0, exclude_max=True),
    "nudge_threshold": st.floats(max_value=0.0, exclude_max=True) | st.floats(min_value=1.0, exclude_min=True),
    "nudge_unit_cost": st.floats(max_value=0.0, exclude_max=True),
    "baseline_decay": st.floats(max_value=0.0, exclude_max=True),
    "inflation_factor": st.floats(max_value=1.0, exclude_max=True),
    "progression_compression": st.floats(max_value=0.0) | st.floats(min_value=1.0, exclude_min=True),
}
NOT_FINITE = st.sampled_from((math.nan, math.inf, -math.inf))


@st.composite
def valid_documents(draw):
    """A valid run-configuration document as an ordered key -> value dict."""
    mode = draw(st.sampled_from(RunMode))

    def wanted(required: bool) -> bool:
        return required or draw(st.booleans())

    def axis_text(values):
        return ", ".join(repr(v) for v in sorted(set(values)))

    doc = {
        "params_file": "params/reference_params.txt",
        "scenario": draw(st.sampled_from(PRESET_NAMES + ("custom",))),
        "mode": mode.value,
        "output_dir": "out/run",
    }
    if wanted(mode is RunMode.MONTE_CARLO):
        doc["seed"] = str(draw(st.integers(0, 2**63)))
    if wanted(mode is RunMode.MONTE_CARLO):
        doc["n_draws"] = str(draw(st.integers(1, 10**6)))
    if wanted(mode in (RunMode.SWEEP, RunMode.BREAKEVEN)):
        doc["delta_axis"] = axis_text(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)))
    if wanted(mode is RunMode.SWEEP):
        doc["gamma_axis"] = axis_text(draw(st.lists(finite, min_size=1, max_size=4)))
    if wanted(mode is RunMode.STRESS):
        kind = draw(st.sampled_from(sorted(STRESS_VALUES)))
        doc["stress_kind"] = kind
        if wanted(False):
            doc["stress_value"] = repr(draw(STRESS_VALUES[kind]))
    for name, value in draw(st.fixed_dictionaries({}, optional=OVERRIDE_VALUES)).items():
        doc["policy." + name] = repr(value)
    return doc


def required_keys(doc) -> tuple[str, ...]:
    mode = RunMode(doc["mode"])
    by_mode = {
        RunMode.MONTE_CARLO: ("seed", "n_draws"),
        RunMode.SWEEP: ("delta_axis", "gamma_axis"),
        RunMode.BREAKEVEN: ("delta_axis",),
        RunMode.STRESS: ("stress_kind",),
    }
    return ("params_file", "scenario", "mode", "output_dir") + by_mode.get(mode, ())


@st.composite
def broken_documents(draw):
    """A valid document, the same document with exactly one key broken, and that key."""
    doc = draw(valid_documents())
    broken = dict(doc)
    breakage = draw(st.sampled_from(("unknown", "missing", "not_a_number", "override", "axis", "stress_value")))
    if breakage == "unknown":
        key = draw(st.sampled_from(("bogus", "seeds", "Mode", "policy.kind", "policy.bogus")))
        broken[key] = "1"
    elif breakage == "missing":
        key = draw(st.sampled_from(required_keys(doc)))
        del broken[key]
    elif breakage == "not_a_number":
        key = draw(st.sampled_from(NUMERIC_KEYS))
        broken[key] = draw(st.sampled_from(NOT_NUMBERS))
    elif breakage == "override":
        name = draw(st.sampled_from(_POLICY_OVERRIDE_FIELDS))
        key = "policy." + name
        broken[key] = repr(draw(OUT_OF_RANGE[name] | NOT_FINITE))
    elif breakage == "axis":
        key = draw(st.sampled_from(("delta_axis", "gamma_axis")))
        good = draw(st.floats(0.0, 1.0))
        bad = draw(st.sampled_from((
            [draw(NOT_FINITE)], [good, draw(NOT_FINITE)], [good, good],
            [good, draw(st.floats(max_value=good))],
        )))
        broken[key] = ", ".join(repr(v) for v in bad)
    else:
        key = "stress_value"
        kind = broken.get("stress_kind")
        if kind is None:
            bad = draw(STRESS_VALUES[draw(st.sampled_from(sorted(STRESS_VALUES)))])  # given without a kind
        elif kind == "cost_inflation":
            bad = draw(st.floats(max_value=1.0, exclude_max=True) | NOT_FINITE)
        else:
            bad = draw(st.floats(max_value=0.0) | st.floats(min_value=1.0, exclude_min=True) | st.just(math.nan))
        broken[key] = repr(bad)
    return doc, broken, key


def document(doc) -> str:
    return "".join(f"{key} = {value}\n" for key, value in doc.items())


@settings(PROPERTY, max_examples=300)
@given(broken_documents())
@example(({"params_file": "p.txt", "scenario": "early_adherence", "mode": "simulate", "output_dir": "out"},
          {"params_file": "p.txt", "scenario": "early_adherence", "mode": "simulate", "output_dir": "out",
           "policy.start_tau": "-1.0"}, "policy.start_tau"))
def test_malformed_config_names_its_key(case):
    doc, broken, key = case
    parse_run_config(document(doc))
    with pytest.raises(ValueError) as exc:
        parse_run_config(document(broken))
    assert key in str(exc.value)


# Each typed flag on every command that takes it: the key its error names,
# and the arguments after --out, the malformed text standing at None.
TYPED_FLAGS = (
    ("seed", ["--seed", None, "mc", "--n-draws", "5"]),
    ("n_draws", ["--seed", "1", "mc", "--n-draws", None]),
    ("seed", ["--seed", None, "export-plots", "--family", "mc", "--n-draws", "5"]),
    ("n_draws", ["--seed", "1", "export-plots", "--family", "mc", "--n-draws", None]),
    ("stress_value", ["stress", "--kind", "cost_inflation", "--value", None]),
    ("delta_axis", ["sweep", "--delta-axis", None, "--gamma-axis", "1"]),
    ("gamma_axis", ["sweep", "--delta-axis", "0.1", "--gamma-axis", None]),
)


@pytest.mark.parametrize("key, args", TYPED_FLAGS, ids=[
    "mc-seed", "mc-n_draws", "export_plots-seed", "export_plots-n_draws", "stress-value", "sweep-delta", "sweep-gamma"])
@PROPERTY
# argparse reads "--1" as an option, not as a flag's value.
@given(text=st.sampled_from([text for text in NOT_NUMBERS if text != "--1"]))
def test_malformed_flag_names_its_key(key, args, text):
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
        out = Path(tmp) / "out"
        assert main(["--out", str(out)] + [text if a is None else a for a in args]) == 2
        assert not out.exists()
    assert err.getvalue().startswith(f"error: {key}: ")
    assert "Traceback" not in err.getvalue()


REFERENCE_LINES = reference_params_path().read_text().splitlines()
# Text for one line of a parameter file: any text, a number of any size or
# form, or a non-number.
line_texts = (st.text(st.characters(exclude_categories=("Cs",)), max_size=16)
              | st.floats().map(repr) | st.integers().map(str) | st.sampled_from(NOT_NUMBERS))


@settings(PROPERTY, max_examples=50)
@given(st.sampled_from(range(len(REFERENCE_LINES))), st.booleans(), line_texts)
# A cost weight whose integral overflows.
@example(REFERENCE_LINES.index("disease_cost_alpha = 121.1"), False, "1e308")
@example(REFERENCE_LINES.index("horizon_T = 10.0"), False, "1_0.0")
@example(REFERENCE_LINES.index("horizon_T = 10.0"), False, repr(float(MAX_HORIZON_YEARS)))
def test_a_parameter_line_runs_or_names_its_error(index, whole_line, text):
    # The line's value, or the whole line, carries the text.
    lines = list(REFERENCE_LINES)
    key, equals, _ = lines[index].partition("=")
    lines[index] = f"{key}= {text}" if equals and not whole_line else text
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err, \
            contextlib.redirect_stdout(io.StringIO()):
        params, out = Path(tmp) / "params.txt", Path(tmp) / "out"
        params.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["--params", str(params), "--out", str(out), "simulate"])
        if code == 0:
            # Validation caps the horizon, so the grid has at most this many nodes.
            rows = (out / "trajectory.csv").read_text().count("\n") - 1
            assert rows <= MAX_HORIZON_YEARS * STEPS_PER_YEAR + 1
        else:
            assert not out.exists()
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert "Traceback" not in err.getvalue()
