import math
from dataclasses import replace

import numpy as np
import pytest

from adhersim.costmodel import arm_costs, simulate_trajectory
from adhersim.numerics import STEPS_PER_YEAR
from adhersim.runconfig import RunConfig, RunMode
from adhersim.scenarios import (
    ADAPTIVE_DECAY_THETA,
    ADAPTIVE_NUDGE_THRESHOLD,
    NUDGE_WINDOW_YEARS,
    PRESET_NAMES,
    PolicyConfig,
    StressKind,
    _nudge_periods,
    apply_stress,
    build_preset,
    validate_authored_pair,
)

from conftest import make_params


class TestPresets:
    def test_table_values(self):
        early = build_preset("early_adherence")
        assert (early.start_tau, early.adherence_gain_delta, early.cost_scale_gamma) == (2.0, 0.3, 1.5)
        delayed = build_preset("delayed")
        assert (delayed.start_tau, delayed.adherence_gain_delta, delayed.cost_scale_gamma) == (5.0, 0.3, 1.5)
        reg = build_preset("regressive")
        assert (reg.start_tau, reg.adherence_gain_delta, reg.cost_scale_gamma) == (2.0, 0.3, 1.2)
        assert reg.decay_theta > 0
        adaptive = build_preset("adaptive_nudges")
        assert (adaptive.adherence_gain_delta, adaptive.cost_scale_gamma) == (0.3, 2.0)
        low = build_preset("low_impact")
        assert (low.adherence_gain_delta, low.cost_scale_gamma) == (0.05, 3.0)
        base = build_preset("baseline")
        assert (base.adherence_gain_delta, base.cost_scale_gamma) == (0.0, 0.0)

    def test_unknown_name_lists_valid_names(self):
        with pytest.raises(ValueError, match="early_adherence"):
            build_preset("nope")

    def test_names_are_case_insensitive(self):
        assert build_preset("Delayed") == build_preset("delayed")


def node(s: float) -> int:
    """The canonical grid node at time s."""
    return round(s * STEPS_PER_YEAR)


def adherence(params, policy):
    return simulate_trajectory(params, policy).adherence


def spend(params, policy):
    return simulate_trajectory(params, policy).policy_cost


class TestAdherence:
    def test_baseline_constant(self):
        p = make_params()
        a = adherence(p, build_preset("baseline"))
        for s in (0.0, 3.3, 10.0):
            assert a[node(s)] == p.adherence_baseline_A0

    def test_early_step(self):
        p = make_params(adherence_baseline_A0=0.5)
        a = adherence(p, build_preset("early_adherence"))
        assert a[node(1.99)] == pytest.approx(0.5)
        assert a[node(2.0)] == pytest.approx(0.8)

    def test_regressive_half_life(self):
        # theta puts the half-life, 1.5 years after tau = 2, on the node at 3.5
        p = make_params(adherence_baseline_A0=0.5)
        reg = replace(build_preset("regressive"), decay_theta=math.log(2.0) / 1.5)
        assert adherence(p, reg)[node(3.5)] == pytest.approx(0.5 + 0.15, rel=1e-12)

    def test_regressive_monotone_decay_toward_baseline(self, ref_params):
        traj = simulate_trajectory(ref_params, build_preset("regressive"))
        post = traj.adherence[traj.times >= 2.0]
        assert np.all(np.diff(post) <= 1e-15)
        assert post[-1] >= ref_params.adherence_baseline_A0

    def test_step_exactness(self, ref_params):
        a = adherence(ref_params, build_preset("early_adherence"))
        for s, s_prev in ((2.0, 1.99), (7.3, 0.5), (10.0, 1.0)):
            assert a[node(s)] - a[node(s_prev)] == pytest.approx(0.3, abs=1e-15)

    def test_decaying_baseline_variant(self):
        p = make_params()
        a = adherence(p, PolicyConfig(starts=False, baseline_decay=0.05))
        for s in (0.0, 4.0, 10.0):
            assert a[node(s)] == pytest.approx(0.5 * math.exp(-0.05 * s))

    def test_clamped_to_unit_interval(self):
        p = make_params(adherence_baseline_A0=0.9)
        policy = PolicyConfig(
            start_tau=1.0, adherence_gain_delta=0.3,
            cost_scale_gamma=1.0,
        )
        assert adherence(p, policy)[node(5.0)] == 1.0


class TestPolicyCost:
    def test_baseline_free(self):
        assert spend(make_params(), build_preset("baseline"))[node(5.0)] == 0.0

    def test_early_indicator(self):
        p = spend(make_params(), build_preset("early_adherence"))
        assert p[node(1.0)] == 0.0
        assert p[node(3.0)] == 1.0
        assert p[node(2.0)] == 1.0

    def test_regressive_spend_persists_after_decay(self):
        assert spend(make_params(), build_preset("regressive"))[node(9.9)] == 1.0

    def test_two_open_nudge_windows(self):
        # From 0.8 at tau = 2.7 the decay crosses 0.75 after 0.30 years, so
        # the rule fires at 3.0, 3.3, 3.6, ...; 0.5-year windows from 3.0 and
        # 3.3 both cover s = 3.4, so P = base indicator + 2 * unit cost.
        p = make_params(adherence_baseline_A0=0.5)
        policy = PolicyConfig(
            start_tau=2.7, adherence_gain_delta=0.3,
            cost_scale_gamma=2.0, decay_theta=0.62, nudge_threshold=0.75, nudge_unit_cost=0.5,
        )
        i0, (m,) = _nudge_periods(p, policy, [0.3])
        assert (i0, m) == (node(2.7), 30)
        spent = spend(p, policy)
        assert spent[node(3.4)] == pytest.approx(1.0 + 2 * 0.5)
        # the first window closes at 3.5, the second is still open
        assert spent[node(3.0 + NUDGE_WINDOW_YEARS)] == pytest.approx(1.0 + 0.5)
        assert spent[node(3.5) - 1] == pytest.approx(1.0 + 2 * 0.5)


class TestNudgeLog:
    def test_no_decay_means_no_activations(self):
        p = make_params(adherence_baseline_A0=0.5)
        policy = PolicyConfig(
            start_tau=2.0, adherence_gain_delta=0.3,
            cost_scale_gamma=2.0, decay_theta=0.0, nudge_threshold=0.6,
        )
        assert _nudge_periods(p, policy, [0.3])[1].tolist() == [0]

    def test_threshold_above_peak_rejected_for_authored_configs(self):
        p = make_params(adherence_baseline_A0=0.5)
        policy = PolicyConfig(
            start_tau=2.0, adherence_gain_delta=0.3,
            cost_scale_gamma=2.0, decay_theta=0.3, nudge_threshold=0.85,
        )
        with pytest.raises(ValueError, match="nudge_threshold"):
            validate_authored_pair(p, policy)
        # the engine itself stays total: an unreachable trigger never fires
        assert _nudge_periods(p, policy, [0.3])[1].tolist() == [0]

    def test_two_activations_on_reference_toy(self):
        # decay from 0.8 crosses 0.6 after ln(0.3/0.1)/0.3 = 3.662 years,
        # snapped up to the 0.01 grid: activations near 5.67 and 9.34.
        p = make_params(adherence_baseline_A0=0.5)
        policy = PolicyConfig(
            start_tau=2.0, adherence_gain_delta=0.3,
            cost_scale_gamma=2.0, decay_theta=0.3, nudge_threshold=0.6,
        )
        i0, (m,) = _nudge_periods(p, policy, [0.3])
        times = np.arange(i0 + m, node(p.horizon_T) + 1, m) / STEPS_PER_YEAR
        assert times.tolist() == pytest.approx([5.67, 9.34])
        spacing = math.log(0.3 / 0.1) / 0.3
        assert times[0] == pytest.approx(2.0 + spacing, abs=0.011)

    def test_reference_preset_fires_within_horizon(self, ref_params):
        policy = build_preset("adaptive_nudges")
        i0, (m,) = _nudge_periods(ref_params, policy, [policy.adherence_gain_delta])
        assert i0 == node(policy.start_tau)
        assert 0 < m <= node(ref_params.horizon_T) - i0

    def test_other_kinds_never_fire(self, ref_params):
        for name in PRESET_NAMES:
            if name != "adaptive_nudges":
                policy = build_preset(name)
                assert _nudge_periods(ref_params, policy, [policy.adherence_gain_delta])[1].tolist() == [0]

    def test_adherence_never_falls_below_threshold_minus_one_step(self, ref_params):
        policy = build_preset("adaptive_nudges")
        traj = simulate_trajectory(ref_params, policy)
        post = traj.adherence[traj.times >= policy.start_tau]
        one_step_decay = policy.adherence_gain_delta * policy.decay_theta * 0.01
        assert post.min() >= policy.nudge_threshold - one_step_decay


class TestStress:
    def test_identity(self):
        early = build_preset("early_adherence")
        assert apply_stress(early, StressKind.COST_INFLATION, 1.0) == early
        assert apply_stress(early, StressKind.ACCELERATED_PROGRESSION, 1.0) == early

    def test_sets_fields(self):
        early = build_preset("early_adherence")
        assert apply_stress(early, StressKind.COST_INFLATION, 1.2).inflation_factor == 1.2
        assert apply_stress(early, StressKind.ACCELERATED_PROGRESSION, 0.85).progression_compression == 0.85

    def test_inflation_scales_effective_gamma(self, ref_params):
        early = build_preset("early_adherence")
        plain = simulate_trajectory(ref_params, early)
        inflated = simulate_trajectory(ref_params, apply_stress(early, StressKind.COST_INFLATION, 1.2))
        # spend rate at a post-start node rises by exactly 20% of gamma * unit_cost * P
        i = 500
        extra = inflated.instantaneous_cost[i] - plain.instantaneous_cost[i]
        assert extra == pytest.approx(0.2 * 1.5 * ref_params.policy_unit_cost, rel=1e-9)

    def test_range_errors(self):
        early = build_preset("early_adherence")
        with pytest.raises(ValueError):
            apply_stress(early, StressKind.COST_INFLATION, 0.9)
        with pytest.raises(ValueError):
            apply_stress(early, StressKind.ACCELERATED_PROGRESSION, 0.0)
        with pytest.raises(ValueError):
            apply_stress(early, StressKind.ACCELERATED_PROGRESSION, 1.1)

    def test_transforms_commute(self):
        early = build_preset("early_adherence")
        ab = apply_stress(apply_stress(early, StressKind.COST_INFLATION, 1.2),
                          StressKind.ACCELERATED_PROGRESSION, 0.85)
        ba = apply_stress(apply_stress(early, StressKind.ACCELERATED_PROGRESSION, 0.85),
                          StressKind.COST_INFLATION, 1.2)
        assert ab == ba

    def test_compression_is_time_rescaling(self):
        # closed-form identity: compressed severity at 8.5 equals unstressed at 10
        p = make_params(severity_coupling_eta=0.0)
        base = build_preset("baseline")
        compressed = apply_stress(base, StressKind.ACCELERATED_PROGRESSION, 0.85)
        t_plain = simulate_trajectory(p, base)
        t_comp = simulate_trajectory(p, compressed)
        i_850 = 850
        assert t_comp.severity[i_850] == pytest.approx(t_plain.severity[1000], rel=1e-12)

    def test_delayed_dominance(self, ref_params, preset_trajectories):
        early = preset_trajectories["early_adherence"].final_cost
        delayed = preset_trajectories["delayed"].final_cost
        assert early <= delayed


class TestValidation:
    def test_nudge_threshold_must_sit_below_peak(self, ref_params):
        bad = PolicyConfig(
            start_tau=2.0, adherence_gain_delta=0.3,
            cost_scale_gamma=2.0, decay_theta=0.1, nudge_threshold=0.9,
        )
        with pytest.raises(ValueError):
            validate_authored_pair(ref_params, bad)

    def test_overfull_adherence_rejected_for_authored_configs(self, ref_params):
        bad = PolicyConfig(start_tau=2.0, adherence_gain_delta=0.6, cost_scale_gamma=1.5)
        with pytest.raises(ValueError, match="exceeds 1"):
            validate_authored_pair(ref_params, bad)

    def test_tau_beyond_horizon_rejected(self, ref_params):
        bad = PolicyConfig(start_tau=11.0, adherence_gain_delta=0.3, cost_scale_gamma=1.5)
        with pytest.raises(ValueError, match="^start_tau: 11.0 lies beyond horizon_T 10.0$"):
            validate_authored_pair(ref_params, bad)

    def test_field_range_checks(self):
        with pytest.raises(ValueError):
            PolicyConfig(start_tau=-1.0)
        with pytest.raises(ValueError):
            PolicyConfig(adherence_gain_delta=1.5)
        with pytest.raises(ValueError):
            PolicyConfig(cost_scale_gamma=-0.1)
        with pytest.raises(ValueError):
            PolicyConfig(inflation_factor=0.8)
        with pytest.raises(ValueError):
            PolicyConfig(progression_compression=1.2)


ARM_COLUMNS = ("adherence", "severity", "policy_cost", "instantaneous_cost", "cumulative_cost", "final_cost")


def assert_priced_as(params, policy, preset):
    """The policy's run columns, and its ``arm_costs`` over a gain axis, equal
    the preset's bit for bit."""
    outputs = []
    for arm in (policy, build_preset(preset)):
        traj = simulate_trajectory(params, arm)
        columns = {name: np.asarray(getattr(traj, name), dtype=float) for name in ARM_COLUMNS}
        columns["rest"], columns["spend"] = arm_costs(params, arm, np.linspace(0.0, 0.45, 46))
        outputs.append(columns)
    got, want = outputs
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


class TestOneRule:
    """A policy is its fields: every field is read, whatever preset set it."""

    def test_step_preset_given_regressive_fields_is_regressive(self, ref_params):
        early = replace(build_preset("early_adherence"), decay_theta=0.5, cost_scale_gamma=1.2)
        assert_priced_as(ref_params, early, "regressive")

    def test_custom_policy_given_adaptive_fields_nudges(self, ref_params):
        custom = RunConfig("params.txt", "custom", RunMode.COMPARE, "out", policy_overrides=dict(
            start_tau=2.0, adherence_gain_delta=0.3, cost_scale_gamma=2.0,
            decay_theta=ADAPTIVE_DECAY_THETA, nudge_threshold=ADAPTIVE_NUDGE_THRESHOLD,
        )).build_policy()
        assert _nudge_periods(ref_params, custom, [0.3])[1].tolist() == [527]
        assert_priced_as(ref_params, custom, "adaptive_nudges")

    def test_any_threshold_above_zero_must_sit_below_peak(self, ref_params):
        peak = ref_params.adherence_baseline_A0 + 0.3
        for threshold in (peak, 0.9):
            custom = PolicyConfig(start_tau=2.0, adherence_gain_delta=0.3, nudge_threshold=threshold)
            with pytest.raises(ValueError, match="^nudge_threshold: "):
                validate_authored_pair(ref_params, custom)
        # A zero threshold sets no rule, so a zero peak is no error.
        validate_authored_pair(make_params(adherence_baseline_A0=0.0), PolicyConfig(start_tau=2.0))
