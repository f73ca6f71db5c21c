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
from adhersim import costmodel
from adhersim.costmodel import arm_costs, simulate_trajectory, total_cost
from adhersim.exports import csv_bytes
from adhersim.montecarlo import DistributionSpec, run_monte_carlo
from adhersim.numerics import STEPS_PER_YEAR, sigmoid, time_grid
from adhersim.params import reference_params
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
    NudgeLog,
    PolicyConfig,
    PolicyKind,
    _nudge_periods,
    adherence_array,
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
    "trunc_normal": DistributionSpec.trunc_normal(0.3, 0.1),
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

    axis = st.lists(finite, min_size=1, max_size=4, unique=True).map(lambda v: tuple(sorted(v)))
    stress_kind = maybe(st.sampled_from(sorted(STRESS_VALUES)), mode is RunMode.STRESS)
    return RunConfig(
        params_file=draw(paths),
        scenario=draw(st.sampled_from(PRESET_NAMES + ("custom",))),
        mode=mode,
        output_dir=draw(paths),
        seed=maybe(st.integers(0, 2**63), mode is RunMode.MONTE_CARLO),
        n_draws=maybe(st.integers(1, 10**9), mode is RunMode.MONTE_CARLO),
        n_workers=draw(st.integers(1, 64)),
        delta_axis=maybe(axis, mode in (RunMode.SWEEP, RunMode.BREAKEVEN)) or (),
        gamma_axis=maybe(axis, mode is RunMode.SWEEP) or (),
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
