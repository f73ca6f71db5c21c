import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from adhersim.analytics import (
    baseline_cost,
    breakeven_gamma,
    payback_time,
    roi,
    stress_pairs,
    sweep_design_space,
)
from adhersim.costmodel import simulate_trajectory
from adhersim.scenarios import PRESET_NAMES, STRESSES, PolicyConfig, build_preset

from conftest import make_params

EARLY = build_preset("early_adherence")


class TestRoi:
    def test_reported_headline_pair(self):
        # (3953.07 - 3602.26) / 3602.26 * 100
        assert roi(3953.07, 3602.26) == pytest.approx(9.7386, abs=5e-5)

    def test_equal_costs(self):
        assert roi(1234.5, 1234.5) == 0.0

    def test_negative_when_policy_costs_more(self):
        assert roi(3000.0, 4000.0) == pytest.approx(-25.0)

    def test_rejects_nonpositive_policy_cost(self):
        with pytest.raises(ValueError):
            roi(1000.0, 0.0)
        with pytest.raises(ValueError):
            roi(1000.0, -5.0)


class TestPayback:
    def test_identical_trajectories_never_pay_back(self, baseline_traj):
        assert payback_time(baseline_traj, baseline_traj) is None

    def test_free_effective_policy_pays_back_immediately(self, ref_params):
        free = PolicyConfig(start_tau=0.0, adherence_gain_delta=0.3, cost_scale_gamma=0.0)
        base = simulate_trajectory(ref_params, build_preset("baseline"))
        pol = simulate_trajectory(ref_params, free)
        pb = payback_time(base, pol)
        assert pb is not None and 0.0 < pb <= 0.01

    def test_early_preset_pays_back_within_horizon(self, ref_params, baseline_traj, preset_trajectories):
        pb = payback_time(baseline_traj, preset_trajectories["early_adherence"])
        assert pb is not None and 2.0 < pb < 10.0

    def test_crossing_against_independent_fine_grid_oracle(self, ref_params, baseline_traj, preset_trajectories):
        # brute-force oracle: locate the sign change of the cost difference on
        # a 10x-refined simulation and compare crossings to within one step
        base = simulate_trajectory(ref_params, build_preset("baseline"), steps_per_year=1000)
        pol = simulate_trajectory(ref_params, EARLY, steps_per_year=1000)
        diff = pol.cumulative_cost - base.cumulative_cost
        idx = np.nonzero(diff < 0)[0]
        idx = idx[idx > 0][0]
        oracle = base.times[idx]
        pb = payback_time(baseline_traj, preset_trajectories["early_adherence"])
        assert pb == pytest.approx(oracle, abs=0.011)

    def test_bracketing_nodes_straddle_the_crossing(self, ref_params, baseline_traj, preset_trajectories):
        pol = preset_trajectories["early_adherence"]
        diff = pol.cumulative_cost - baseline_traj.cumulative_cost
        pb = payback_time(baseline_traj, pol)
        i = int(np.searchsorted(baseline_traj.times, pb))
        assert diff[i - 1] >= 0 > diff[i]

    def test_mismatched_grids_rejected(self, ref_params, baseline_traj):
        fine = simulate_trajectory(ref_params, EARLY, steps_per_year=200)
        with pytest.raises(ValueError):
            payback_time(baseline_traj, fine)


class TestBreakeven:
    def test_zero_delta_has_nothing_to_spend_against(self, ref_params):
        [g] = breakeven_gamma(ref_params, EARLY, [0.0])
        assert g is None or g == 0.0

    def test_root_is_bracketed_by_opposite_signs(self, ref_params):
        [g] = breakeven_gamma(ref_params, EARLY, [0.15])
        assert g is not None
        c_base = baseline_cost(ref_params)
        eps = 0.01

        def roi_at(gamma):
            pol = replace(EARLY, adherence_gain_delta=0.15, cost_scale_gamma=gamma)
            return roi(c_base, simulate_trajectory(ref_params, pol).final_cost)

        assert roi_at(g - eps) > 0 > roi_at(g + eps)
        assert abs(roi_at(g)) < 0.01

    def test_strictly_increasing_in_delta(self, ref_params):
        gs = [g for d in (0.10, 0.15, 0.25) for g in breakeven_gamma(ref_params, EARLY, [d])]
        assert all(g is not None for g in gs)
        assert gs[0] < gs[1] < gs[2]

    def test_bad_delta_rejected(self, ref_params):
        with pytest.raises(ValueError):
            breakeven_gamma(ref_params, EARLY, [1.5])

    def test_memory_stays_flat_over_many_gains(self, ref_params):
        # Only two floats per gain outlive its run: keeping every run's rows,
        # about 48 KB each, peaks near 48 MB over 1 000 gains.
        deltas = np.linspace(0.0, 0.45, 1000)
        breakeven_gamma(ref_params, EARLY, deltas[:1])  # builds the cached grids
        tracemalloc.start()
        try:
            gammas = breakeven_gamma(ref_params, EARLY, deltas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(gammas) == deltas.size
        assert peak < 5_000_000


class TestStressPairs:
    def test_one_call_equals_one_call_per_policy(self, ref_params):
        policies = [build_preset(name) for name in PRESET_NAMES if name != "baseline"]
        stresses = tuple((kind, value) for kind, (_, value) in STRESSES.items())
        together = stress_pairs(ref_params, policies, stresses)
        assert len(together) == 5
        for policy, pairs in zip(policies, together):
            assert stress_pairs(ref_params, [policy], stresses) == [pairs]
            assert list(pairs) == ["unstressed", "cost_inflation", "accelerated_progression"]


class TestSweep:
    def test_single_cell_matches_direct_run(self, ref_params):
        grid = sweep_design_space(ref_params, EARLY, np.array([0.3]), np.array([1.5]))
        c_base = baseline_cost(ref_params)
        direct_cost = simulate_trajectory(ref_params, EARLY).final_cost
        assert grid.total_cost[0, 0] == direct_cost
        assert grid.roi_percent[0, 0] == roi(c_base, direct_cost)

    def test_zero_delta_row_is_pure_cost(self, ref_params):
        grid = sweep_design_space(ref_params, EARLY, np.array([0.0]), np.array([0.5, 1.0, 2.0]))
        assert np.all(grid.roi_percent <= 0.0)

    def test_reference_grid_monotonicity(self, ref_params):
        deltas = np.arange(0.20, 0.401, 0.05)
        gammas = np.arange(0.5, 1.51, 0.1)
        grid = sweep_design_space(ref_params, EARLY, deltas, gammas)
        assert grid.roi_percent.shape == (5, 11)
        # non-increasing along gamma for every delta
        assert np.all(np.diff(grid.roi_percent, axis=1) <= 1e-12)
        # non-decreasing along delta for every gamma
        assert np.all(np.diff(grid.roi_percent, axis=0) >= -1e-12)

    def test_random_cells_match_independent_runs(self, ref_params):
        deltas = np.arange(0.20, 0.401, 0.05)
        gammas = np.arange(0.5, 1.51, 0.1)
        grid = sweep_design_space(ref_params, EARLY, deltas, gammas)
        rng = np.random.default_rng(0)
        c_base = baseline_cost(ref_params)
        for i, j in zip(rng.integers(0, 5, 3), rng.integers(0, 11, 3)):
            pol = replace(EARLY, adherence_gain_delta=float(deltas[i]), cost_scale_gamma=float(gammas[j]))
            cost = simulate_trajectory(ref_params, pol).final_cost
            assert grid.total_cost[i, j] == cost
            assert grid.roi_percent[i, j] == roi(c_base, cost)

    def test_cells_straddling_breakeven_flip_sign(self, ref_params):
        [g_star] = breakeven_gamma(ref_params, EARLY, [0.25])
        grid = sweep_design_space(
            ref_params, EARLY, np.array([0.25]), np.array([g_star - 0.05, g_star + 0.05])
        )
        assert grid.roi_percent[0, 0] > 0 > grid.roi_percent[0, 1]

    def test_axis_validation(self, ref_params):
        with pytest.raises(ValueError):
            sweep_design_space(ref_params, EARLY, np.array([]), np.array([1.0]))
        with pytest.raises(ValueError):
            sweep_design_space(ref_params, EARLY, np.array([0.3, 0.2]), np.array([1.0]))

    @pytest.mark.parametrize("key", ["delta_axis", "gamma_axis"])
    def test_axis_errors_name_the_axis(self, ref_params, key):
        def sweep(axis):
            axes = {"delta_axis": np.array([0.3]), "gamma_axis": np.array([1.0]), key: np.array(axis)}
            sweep_design_space(ref_params, EARLY, **axes)

        with pytest.raises(ValueError, match=rf"^{key}: must be nonempty$"):
            sweep([])
        with pytest.raises(ValueError, match=rf"^{key}: must be strictly increasing$"):
            sweep([0.3, 0.2])

    def test_failed_cell_reports_coordinates(self):
        # a policy-arm cost that goes negative makes the ROI denominator
        # invalid; the sweep must name the offending cell
        p = make_params(baseline_cost_C0=100.0, disease_cost_alpha=0.0,
                        adherence_cost_beta=-500.0, adherence_baseline_A0=0.1)
        with pytest.raises(ValueError, match="delta=0.9"):
            sweep_design_space(p, EARLY, np.array([0.9]), np.array([0.0]))


def _roi_at(params, c_base, delta, gamma):
    pol = replace(EARLY, adherence_gain_delta=delta, cost_scale_gamma=gamma)
    return roi(c_base, simulate_trajectory(params, pol).final_cost)


class TestSlope:
    # dROI/dgamma as a difference quotient of whole-horizon runs.
    def test_nonpositive_on_reference_grid(self, ref_params):
        c_base = baseline_cost(ref_params)
        h = 1e-3
        for delta in (0.2, 0.3, 0.4):
            for gamma in (0.5, 1.0, 1.5):
                slope = (_roi_at(ref_params, c_base, delta, gamma + h)
                         - _roi_at(ref_params, c_base, delta, gamma - h)) / (2 * h)
                assert slope <= 0.0, (delta, gamma)

    def test_forward_difference_at_zero_gamma(self, ref_params):
        c_base = baseline_cost(ref_params)
        h = 1e-3
        slope = (_roi_at(ref_params, c_base, 0.3, h) - _roi_at(ref_params, c_base, 0.3, 0.0)) / h
        assert slope <= 0.0

    def test_difference_quotients_converge(self, ref_params):
        # Richardson-style check: central and forward quotients agree as the
        # step shrinks (ROI is linear in gamma here, so agreement is tight).
        c_base = baseline_cost(ref_params)

        def roi_at(gamma):
            pol = replace(EARLY, cost_scale_gamma=gamma)
            return roi(c_base, simulate_trajectory(ref_params, pol).final_cost)

        gamma = 1.0
        gaps = []
        for h in (0.08, 0.04, 0.02):
            central = (roi_at(gamma + h) - roi_at(gamma - h)) / (2 * h)
            forward = (roi_at(gamma + h) - roi_at(gamma)) / h
            gaps.append(abs(central - forward))
        assert gaps[2] <= gaps[0] + 1e-9
        assert gaps[2] < 0.05
