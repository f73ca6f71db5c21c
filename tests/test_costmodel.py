import math

import numpy as np
import pytest

from adhersim.costmodel import (
    cumulative_cost,
    disease_severity,
    instantaneous_cost,
    simulate_trajectory,
)
from adhersim.scenarios import PRESET_NAMES, PolicyConfig, PolicyKind, build_preset

from conftest import make_params

BASELINE = build_preset("baseline")
EARLY = build_preset("early_adherence")

# Frozen once from the calibrated reference run; drift beyond round-off is a bug.
GOLDEN_BASELINE_C10 = 3953.070036438873
GOLDEN_EARLY_C10 = 3602.327065953738


class TestDiseaseSeverity:
    def test_midpoint_is_half_maximum(self):
        p = make_params()
        assert disease_severity(p, None, p.disease_midpoint_s0) == pytest.approx(
            p.disease_max_Dmax / 2, abs=1e-15
        )

    def test_closed_form_value(self):
        # independent scalar computation of Dmax / (1 + exp(-k (s - s0)))
        p = make_params(disease_max_Dmax=0.95, disease_steepness_k=0.5, disease_midpoint_s0=5.0)
        expected = 0.95 / (1.0 + math.exp(-0.5 * (10.0 - 5.0)))
        assert expected == pytest.approx(0.8779347289798186, abs=1e-12)
        assert disease_severity(p, None, 10.0) == pytest.approx(expected, rel=1e-12)

    def test_coupling_vanishes_at_baseline_adherence(self):
        p = make_params(severity_coupling_eta=2.0)
        for s in (0.0, 1.0, 3.7, 5.0, 10.0):
            closed = p.disease_max_Dmax / (1.0 + math.exp(-p.disease_steepness_k * (s - 5.0)))
            assert disease_severity(p, lambda _: p.adherence_baseline_A0, s) == pytest.approx(
                closed, rel=1e-9
            )

    def test_eta_zero_ignores_adherence_entirely(self):
        p = make_params(severity_coupling_eta=0.0)
        wild = lambda s: 0.5 + 0.5 * math.sin(s)
        for s in (0.0, 2.0, 6.5, 10.0):
            closed = p.disease_max_Dmax / (1.0 + math.exp(-p.disease_steepness_k * (s - 5.0)))
            assert disease_severity(p, wild, s) == pytest.approx(closed, rel=1e-12)

    def test_raised_adherence_slows_progression(self):
        p = make_params(severity_coupling_eta=1.0)
        slowed = disease_severity(p, lambda s: 0.8, 8.0)
        exogenous = disease_severity(p, None, 8.0)
        assert slowed < exogenous

    def test_domain_errors(self):
        p = make_params()
        with pytest.raises(ValueError):
            disease_severity(p, None, -0.1)
        with pytest.raises(ValueError):
            disease_severity(p, None, 10.1)
        with pytest.raises(ValueError):
            disease_severity(p, None, float("nan"))


class TestInstantaneousCost:
    def test_all_weights_zero(self):
        p = make_params(disease_cost_alpha=0.0, adherence_cost_beta=0.0, health_weight_lambda=0.0)
        assert instantaneous_cost(p, A=0.7, P=3.0, H=1.0, D=0.4, gamma=0.0) == 0.0

    def test_four_term_sum(self):
        # hand arithmetic: 1*0.5 + (-100)*0.64 + 2*50 + 0 = 36.5
        p = make_params(disease_cost_alpha=1.0, adherence_cost_beta=-100.0, health_weight_lambda=0.0)
        assert instantaneous_cost(p, A=0.8, P=50.0, H=0.0, D=0.5, gamma=2.0) == pytest.approx(36.5)

    def test_monetized_health_term(self):
        # a 0.05-unit health outcome valued at 50,000 per unit
        p = make_params(disease_cost_alpha=0.0, adherence_cost_beta=0.0, health_weight_lambda=50000.0)
        assert instantaneous_cost(p, A=0.0, P=0.0, H=0.05, D=0.0, gamma=0.0) == pytest.approx(2500.0)

    def test_rejects_non_finite_and_bad_adherence(self):
        p = make_params()
        with pytest.raises(ValueError):
            instantaneous_cost(p, A=float("inf"), P=0.0, H=0.0, D=0.0, gamma=0.0)
        with pytest.raises(ValueError):
            instantaneous_cost(p, A=1.2, P=0.0, H=0.0, D=0.0, gamma=0.0)


class TestCumulativeCost:
    def test_at_zero_returns_initial_cost(self):
        p = make_params()
        assert cumulative_cost(p, BASELINE, 0.0) == p.baseline_cost_C0

    def test_constant_integrand_closed_form(self):
        # alpha = 0 and baseline adherence make c(s) = beta * A0^2 constant;
        # the oracle is C0 + cbar (1 - exp(-rho t)) / rho evaluated directly.
        p = make_params(disease_cost_alpha=0.0, adherence_cost_beta=500.0, adherence_baseline_A0=0.6)
        cbar = 500.0 * 0.36
        for t in range(1, 11):
            oracle = p.baseline_cost_C0 + cbar * (1.0 - math.exp(-0.03 * t)) / 0.03
            got = cumulative_cost(p, BASELINE, float(t))
            assert abs(got - oracle) / abs(oracle) <= 1e-6

    def test_undiscounted_logistic_closed_form(self):
        # rho = 0, beta = 0: the disease term integrates to
        # (alpha Dmax / k) ln((1 + e^{k(t-s0)}) / (1 + e^{-k s0})).
        p = make_params(discount_rate_rho=0.0, adherence_cost_beta=0.0, disease_cost_alpha=200.0)
        a, dmax, k, s0 = 200.0, 0.95, 0.5, 5.0
        for t in range(1, 11):
            oracle = p.baseline_cost_C0 + (a * dmax / k) * (
                math.log(1.0 + math.exp(k * (t - s0))) - math.log(1.0 + math.exp(-k * s0))
            )
            got = cumulative_cost(p, BASELINE, float(t))
            assert abs(got - oracle) / abs(oracle) <= 1e-6

    def test_domain_errors(self):
        p = make_params()
        with pytest.raises(ValueError):
            cumulative_cost(p, BASELINE, -0.5)
        with pytest.raises(ValueError):
            cumulative_cost(p, BASELINE, 10.5)

    def test_node_values_match_trajectory_exactly(self, ref_params):
        traj = simulate_trajectory(ref_params, EARLY)
        for i in (0, 1, 200, 555, 1000):
            assert cumulative_cost(ref_params, EARLY, float(traj.times[i])) == traj.cumulative_cost[i]

    def test_off_grid_time_brackets_node_values(self, ref_params):
        lo = cumulative_cost(ref_params, BASELINE, 4.00)
        mid = cumulative_cost(ref_params, BASELINE, 4.004)
        hi = cumulative_cost(ref_params, BASELINE, 4.01)
        assert lo < mid < hi


class TestSimulateTrajectory:
    def test_baseline_is_flat_and_free(self, baseline_traj, ref_params):
        assert np.all(baseline_traj.adherence == ref_params.adherence_baseline_A0)
        assert np.all(baseline_traj.policy_cost == 0.0)

    def test_grid_shape(self, baseline_traj):
        assert len(baseline_traj.times) == 1001
        assert baseline_traj.times[0] == 0.0
        assert baseline_traj.times[-1] == 10.0
        for name in ("adherence", "severity", "policy_cost", "instantaneous_cost", "cumulative_cost"):
            assert len(getattr(baseline_traj, name)) == 1001

    def test_initial_cumulative_cost(self, baseline_traj, ref_params):
        assert baseline_traj.cumulative_cost[0] == ref_params.baseline_cost_C0

    def test_golden_final_costs(self, baseline_traj, preset_trajectories):
        assert baseline_traj.final_cost == pytest.approx(GOLDEN_BASELINE_C10, rel=1e-9)
        assert preset_trajectories["early_adherence"].final_cost == pytest.approx(
            GOLDEN_EARLY_C10, rel=1e-9
        )

    def test_golden_cross_checked_against_fine_trapezoid_oracle(self, ref_params):
        # Independent integration path: closed-form logistic severity (the
        # baseline arm never leaves A0, so the coupling term vanishes) plus
        # plain numpy trapezoid at 10x resolution.
        p = ref_params
        times = np.linspace(0.0, 10.0, 10001)
        sev = p.disease_max_Dmax / (1.0 + np.exp(-p.disease_steepness_k * (times - p.disease_midpoint_s0)))
        c = p.disease_cost_alpha * sev + p.adherence_cost_beta * p.adherence_baseline_A0**2
        f = np.exp(-p.discount_rate_rho * times) * c
        oracle = p.baseline_cost_C0 + float(np.sum((f[1:] + f[:-1]) / 2.0 * np.diff(times)))
        assert abs(oracle - GOLDEN_BASELINE_C10) / GOLDEN_BASELINE_C10 < 1e-7

    def test_early_jump_lands_on_first_grid_node_at_tau(self, ref_params, preset_trajectories):
        traj = preset_trajectories["early_adherence"]
        a0 = ref_params.adherence_baseline_A0
        assert traj.adherence[199] == pytest.approx(a0)
        assert traj.adherence[200] == pytest.approx(a0 + 0.3)
        assert traj.times[200] == pytest.approx(2.0)

    def test_grid_refinement_stability(self, ref_params):
        for name in PRESET_NAMES:
            pol = build_preset(name)
            c1 = simulate_trajectory(ref_params, pol, steps_per_year=100).final_cost
            c2 = simulate_trajectory(ref_params, pol, steps_per_year=200).final_cost
            assert abs(c1 - c2) / abs(c1) <= 1e-6, name

    def test_bit_identical_reruns(self, ref_params):
        a = simulate_trajectory(ref_params, build_preset("adaptive_nudges"))
        b = simulate_trajectory(ref_params, build_preset("adaptive_nudges"))
        for field in ("times", "adherence", "severity", "policy_cost", "instantaneous_cost", "cumulative_cost"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_columns_are_writable(self):
        # With eta = 0 every arm of an engine batch shares the closed-form severity.
        traj = simulate_trajectory(make_params(severity_coupling_eta=0.0), EARLY)
        for field in ("times", "adherence", "severity", "policy_cost", "instantaneous_cost", "cumulative_cost"):
            assert getattr(traj, field).flags.writeable, field

    def test_severity_non_decreasing_without_adherence_gain(self, ref_params):
        # decaying-baseline counterfactual keeps adherence below A0 forever,
        # so the one-sided coupling leaves the pure logistic in place
        policy = PolicyConfig(kind=PolicyKind.BASELINE, baseline_decay=0.05)
        traj = simulate_trajectory(ref_params, policy)
        assert np.all(traj.adherence <= ref_params.adherence_baseline_A0 + 1e-12)
        assert np.all(np.diff(traj.severity) >= -1e-15)

    def test_cumulative_non_decreasing_for_nonnegative_integrand(self):
        p = make_params(adherence_cost_beta=50.0)
        traj = simulate_trajectory(p, EARLY)
        assert np.all(traj.instantaneous_cost >= 0.0)
        assert np.all(np.diff(traj.cumulative_cost) >= 0.0)

    def test_discount_monotonicity(self):
        lo = make_params(adherence_cost_beta=50.0, discount_rate_rho=0.01)
        hi = make_params(adherence_cost_beta=50.0, discount_rate_rho=0.08)
        for t in (2.0, 5.0, 10.0):
            assert cumulative_cost(hi, EARLY, t) <= cumulative_cost(lo, EARLY, t)

    def test_eta_zero_trajectory_matches_closed_form(self):
        p = make_params(severity_coupling_eta=0.0)
        traj = simulate_trajectory(p, EARLY)
        closed = p.disease_max_Dmax / (
            1.0 + np.exp(-p.disease_steepness_k * (traj.times - p.disease_midpoint_s0))
        )
        assert np.allclose(traj.severity, closed, rtol=0, atol=1e-15)

    def test_coupled_severity_under_constant_baseline_adherence_matches_closed_form(self, ref_params):
        traj = simulate_trajectory(ref_params, BASELINE)
        closed = ref_params.disease_max_Dmax / (
            1.0 + np.exp(-ref_params.disease_steepness_k * (traj.times - ref_params.disease_midpoint_s0))
        )
        assert np.allclose(traj.severity, closed, rtol=1e-9)
