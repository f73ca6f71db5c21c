import math
from dataclasses import replace

import numpy as np
import pytest

from adhersim import costmodel, scenarios
from adhersim.costmodel import arm_costs, simulate_trajectory
from adhersim.montecarlo import DistributionSpec, sample_delta, substream
from adhersim.scenarios import PRESET_NAMES, PolicyConfig, PolicyKind, StressKind, apply_stress, build_preset

from conftest import make_params

BASELINE = build_preset("baseline")
EARLY = build_preset("early_adherence")

# Frozen once from the calibrated reference run; drift beyond round-off is a bug.
GOLDEN_BASELINE_C10 = 3953.070036438873
GOLDEN_EARLY_C10 = 3602.327065953738


def node(s: float) -> int:
    """The canonical grid node at time s."""
    return round(s * 100)


class TestDiseaseSeverity:
    def test_midpoint_is_half_maximum(self):
        p = make_params()
        traj = simulate_trajectory(p, BASELINE)
        assert traj.severity[node(p.disease_midpoint_s0)] == pytest.approx(p.disease_max_Dmax / 2, abs=1e-15)

    def test_closed_form_value(self):
        # independent scalar computation of Dmax / (1 + exp(-k (s - s0)))
        p = make_params(disease_max_Dmax=0.95, disease_steepness_k=0.5, disease_midpoint_s0=5.0)
        expected = 0.95 / (1.0 + math.exp(-0.5 * (10.0 - 5.0)))
        assert expected == pytest.approx(0.8779347289798186, abs=1e-12)
        assert simulate_trajectory(p, BASELINE).severity[node(10.0)] == pytest.approx(expected, rel=1e-12)

    def test_coupling_vanishes_at_baseline_adherence(self):
        p = make_params(severity_coupling_eta=2.0)
        traj = simulate_trajectory(p, BASELINE)
        assert np.all(traj.adherence == p.adherence_baseline_A0)
        for s in (0.0, 1.0, 3.7, 5.0, 10.0):
            closed = p.disease_max_Dmax / (1.0 + math.exp(-p.disease_steepness_k * (s - 5.0)))
            assert traj.severity[node(s)] == pytest.approx(closed, rel=1e-9)

    def test_eta_zero_ignores_adherence_entirely(self):
        p = make_params(severity_coupling_eta=0.0)
        for name in ("regressive", "adaptive_nudges"):
            traj = simulate_trajectory(p, build_preset(name))
            for s in (0.0, 2.0, 6.5, 10.0):
                closed = p.disease_max_Dmax / (1.0 + math.exp(-p.disease_steepness_k * (s - 5.0)))
                assert traj.severity[node(s)] == pytest.approx(closed, rel=1e-12), name

    def test_raised_adherence_slows_progression(self):
        p = make_params(severity_coupling_eta=1.0)
        raised = PolicyConfig(kind=PolicyKind.CUSTOM, adherence_gain_delta=0.3)
        slowed = simulate_trajectory(p, raised)
        exogenous = simulate_trajectory(p, BASELINE)
        assert np.all(slowed.adherence == 0.8)
        assert slowed.severity[node(8.0)] < exogenous.severity[node(8.0)]


class TestInstantaneousCost:
    def test_all_weights_zero(self):
        p = make_params(disease_cost_alpha=0.0, adherence_cost_beta=0.0)
        traj = simulate_trajectory(p, replace(EARLY, cost_scale_gamma=0.0))
        assert np.all(traj.instantaneous_cost == 0.0)

    def test_four_term_sum(self):
        # hand arithmetic at s = s0 = 5, where D = Dmax / 2 = 0.5, A = 0.8 and
        # P = 1 unit of 50 dollars: 1*0.5 + (-100)*0.64 + 2*50 = 36.5
        p = make_params(disease_max_Dmax=1.0, disease_cost_alpha=1.0, adherence_cost_beta=-100.0,
                        policy_unit_cost=50.0)
        traj = simulate_trajectory(p, replace(EARLY, cost_scale_gamma=2.0))
        i = node(5.0)
        assert (traj.severity[i], traj.adherence[i], traj.policy_cost[i]) == (0.5, 0.8, 1.0)
        assert traj.instantaneous_cost[i] == pytest.approx(36.5)


class TestCumulativeCost:
    def test_at_zero_returns_initial_cost(self):
        p = make_params()
        assert simulate_trajectory(p, BASELINE).cumulative_cost[0] == p.baseline_cost_C0

    def test_constant_integrand_closed_form(self):
        # alpha = 0 and baseline adherence make c(s) = beta * A0^2 constant;
        # the oracle is C0 + cbar (1 - exp(-rho t)) / rho evaluated directly.
        p = make_params(disease_cost_alpha=0.0, adherence_cost_beta=500.0, adherence_baseline_A0=0.6)
        cbar = 500.0 * 0.36
        traj = simulate_trajectory(p, BASELINE)
        for t in range(1, 11):
            oracle = p.baseline_cost_C0 + cbar * (1.0 - math.exp(-0.03 * t)) / 0.03
            got = traj.cumulative_cost[node(t)]
            assert abs(got - oracle) / abs(oracle) <= 1e-6

    def test_undiscounted_logistic_closed_form(self):
        # rho = 0, beta = 0: the disease term integrates to
        # (alpha Dmax / k) ln((1 + e^{k(t-s0)}) / (1 + e^{-k s0})).
        p = make_params(discount_rate_rho=0.0, adherence_cost_beta=0.0, disease_cost_alpha=200.0)
        a, dmax, k, s0 = 200.0, 0.95, 0.5, 5.0
        traj = simulate_trajectory(p, BASELINE)
        for t in range(1, 11):
            oracle = p.baseline_cost_C0 + (a * dmax / k) * (
                math.log(1.0 + math.exp(k * (t - s0))) - math.log(1.0 + math.exp(-k * s0))
            )
            got = traj.cumulative_cost[node(t)]
            assert abs(got - oracle) / abs(oracle) <= 1e-6


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

    def test_runs_compare_by_identity(self, ref_params):
        # Array fields have no one truth value, so equality is identity.
        traj, again = (simulate_trajectory(ref_params, build_preset("early_adherence")) for _ in range(2))
        assert hash(traj) == hash(traj)
        assert traj == traj
        assert traj != again
        assert len({traj, again}) == 2

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
        c_lo = simulate_trajectory(lo, EARLY).cumulative_cost
        c_hi = simulate_trajectory(hi, EARLY).cumulative_cost
        for t in (2.0, 5.0, 10.0):
            assert c_hi[node(t)] <= c_lo[node(t)]

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


COLUMNS = ("times", "adherence", "severity", "policy_cost", "instantaneous_cost", "cumulative_cost")


class TestCachedRowsStayPrivate:
    """The kernel caches gain-free rows; no array it hands out shares them."""

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_writing_columns_leaves_the_next_run_unchanged(self, ref_params, name):
        policy = build_preset(name)
        first = simulate_trajectory(ref_params, policy)
        expected = {field: getattr(first, field).tobytes() for field in COLUMNS}
        for field in ("policy_cost", "instantaneous_cost", "cumulative_cost"):
            getattr(first, field)[:] = -1.0
        again = simulate_trajectory(ref_params, policy)
        for field in COLUMNS:
            assert getattr(again, field).tobytes() == expected[field], field
        assert again.final_cost == again.cumulative_cost[-1]

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_writing_policy_cost_leaves_the_unread_cost_columns_unchanged(self, ref_params, name):
        policy = build_preset(name)
        expected = simulate_trajectory(ref_params, policy)
        traj = simulate_trajectory(ref_params, policy)
        traj.policy_cost[:] = -1.0
        assert traj.instantaneous_cost.tobytes() == expected.instantaneous_cost.tobytes()
        assert traj.cumulative_cost.tobytes() == expected.cumulative_cost.tobytes()

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("deltas", ([0.3], [0.1, 0.3, 0.45]))
    def test_writing_arm_costs_leaves_the_next_call_unchanged(self, ref_params, name, deltas):
        policy = build_preset(name)
        rest, spend = arm_costs(ref_params, policy, deltas)
        expected = rest.tobytes(), spend.tobytes()
        rest[:] = -1.0
        spend[:] = -1.0
        again = arm_costs(ref_params, policy, deltas)
        assert (again[0].tobytes(), again[1].tobytes()) == expected

    def test_cached_rows_are_read_only(self, ref_params):
        key = (ref_params.horizon_T, 100, ref_params.discount_rate_rho)
        step = costmodel._unnudged_spend(200, *key)
        cached = costmodel._grid(*key) + step + (scenarios._decay_factors(0.02, 800),)
        for array in cached:
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            step[0][0, -1] = 0.0

    def test_writing_never_started_columns_leaves_the_next_run_unchanged(self, ref_params):
        # adherence and severity are copies of the never-started cache's rows.
        first = simulate_trajectory(ref_params, BASELINE)
        expected = {field: getattr(first, field).tobytes() for field in COLUMNS}
        for field in COLUMNS[1:]:
            getattr(first, field)[:] = -1.0
        again = simulate_trajectory(ref_params, BASELINE)
        for field in COLUMNS:
            assert getattr(again, field).tobytes() == expected[field], field

    def test_params_differing_in_a_signed_zero_take_separate_entries(self, ref_params):
        # ModelParams compares 0.0 equal to -0.0: the cache keys on bit patterns.
        assert ref_params.disease_midpoint_s0 == 0.0
        signed = replace(ref_params, disease_midpoint_s0=-0.0)
        assert signed == ref_params
        costmodel._never_started_rows.cache_clear()
        for params in (ref_params, signed, ref_params, signed):
            simulate_trajectory(params, BASELINE)
        info = costmodel._never_started_rows.cache_info()
        assert (info.misses, info.hits) == (2, 2)

    def test_gains_differing_in_a_signed_zero_take_separate_entries(self):
        # With A0 = -0.0 the never-started adherence A0 + 0 * delta carries the gain's sign.
        params = make_params(adherence_baseline_A0=-0.0)
        costmodel._never_started_rows.cache_clear()
        runs = [simulate_trajectory(params, replace(BASELINE, adherence_gain_delta=d)) for d in (0.0, -0.0)]
        assert costmodel._never_started_rows.cache_info().misses == 2
        assert [np.signbit(traj.adherence).tolist() for traj in runs] == [[False] * 1001, [True] * 1001]

    def test_no_policy_arm_reads_the_nudge_free_cache(self, ref_params):
        # The no-policy arm starts past the last node, so it spends nothing
        # and its spend rows are the cache's read-only rows for that node.
        i_last = node(ref_params.horizon_T)
        i0, periods = scenarios._nudge_periods(ref_params, BASELINE, [0.0, 0.3, 1.0])
        assert (i0, periods.tolist()) == (i_last + 1, [0, 0, 0])
        traj = simulate_trajectory(ref_params, BASELINE)
        cached = costmodel._unnudged_spend(i0, ref_params.horizon_T, 100, ref_params.discount_rate_rho)
        for row, rows in zip((traj._rows[1], traj._rows[3]), cached):
            assert np.shares_memory(row, rows) and not row.flags.writeable
            assert row.tobytes() == np.zeros(i_last + 1).tobytes()


# Arms that never start: the no-policy arm, its decaying-baseline and
# accelerated-progression variants, and policies whose tau lies past the
# horizon.  The last case's A0 and gain are -0.0, so its adherence column is
# -0.0 throughout: the gain's sign reaches it.
NEVER_STARTED = {
    "baseline": (None, BASELINE),
    "decaying": (None, replace(BASELINE, baseline_decay=0.05)),
    "accelerated": (None, apply_stress(BASELINE, StressKind.ACCELERATED_PROGRESSION, 0.85)),
    "custom_late": (None, PolicyConfig(kind=PolicyKind.CUSTOM, start_tau=12.0, adherence_gain_delta=0.3,
                                       cost_scale_gamma=1.0, decay_theta=0.5)),
    "custom_late_signed_zero": (dict(adherence_baseline_A0=-0.0, severity_coupling_eta=2.0),
                                PolicyConfig(kind=PolicyKind.CUSTOM, start_tau=10.5, adherence_gain_delta=-0.0,
                                             decay_theta=0.5, baseline_decay=0.05)),
}
RUN_FIELDS = COLUMNS + ("rest_cost", "spend_integral", "final_cost")


def run_bytes(traj) -> dict:
    return {field: np.asarray(getattr(traj, field)).tobytes() for field in RUN_FIELDS}


class TestNeverStartedCache:
    """An arm that never starts reads its rows from ``_never_started_rows``."""

    @pytest.fixture(params=NEVER_STARTED.values(), ids=NEVER_STARTED.keys())
    def arm(self, request, ref_params):
        overrides, policy = request.param
        return (ref_params if overrides is None else make_params(**overrides)), policy

    def test_warm_run_equals_cold_run_and_the_direct_kernel(self, arm):
        params, policy = arm
        assert scenarios._nudge_periods(params, policy, [0.0])[0] > node(params.horizon_T)
        costmodel._never_started_rows.cache_clear()
        cold = simulate_trajectory(params, policy)
        warm = simulate_trajectory(params, policy)
        assert costmodel._never_started_rows.cache_info().hits == 1
        assert run_bytes(warm) == run_bytes(cold)
        # The policy's own kernel rows, past the cache.
        grid = costmodel._grid(params.horizon_T, 100, params.discount_rate_rho)
        deltas = [policy.adherence_gain_delta]
        a, severity, rest_nodes, rest = costmodel._rest_rows(
            params, policy, grid, deltas, scenarios._nudge_periods(params, policy, deltas))
        for got, want in zip((warm.adherence, warm.severity, *warm._rows[::2]), (a, severity, rest_nodes, rest)):
            assert got.tobytes() == want[0].tobytes()
        assert warm.adherence.flags.writeable and warm.severity.flags.writeable

    def test_arm_costs_rows_equal_the_runs(self, arm):
        params, policy = arm
        deltas = [0.0, 0.3, 1.0, policy.adherence_gain_delta]
        rest, spend = arm_costs(params, policy, deltas)
        for i, delta in enumerate(deltas):
            traj = simulate_trajectory(params, replace(policy, adherence_gain_delta=delta))
            assert (rest[i], spend[i]) == (traj.rest_cost, traj.spend_integral)
            assert rest[i].tobytes() == np.float64(traj.rest_cost).tobytes()


class TestAdherenceReads:
    """Adherence is read only where it can change: at the n nodes where it is
    constant on each piece, else at the 3n - 2 points of Simpson's rule."""

    @pytest.fixture
    def reads(self, monkeypatch):
        # A cold cache, so that a never-started arm's one read shows.
        costmodel._never_started_rows.cache_clear()
        calls = []

        def recorder(params, policy, deltas, nudges, s, piece, out=None):
            calls.append((s.size, nudges[1].copy()))
            return scenarios.adherence_array(params, policy, deltas, nudges, s, piece, out)

        monkeypatch.setattr(costmodel, "adherence_array", recorder)
        return calls

    @pytest.mark.parametrize(("policy", "node_only"), [
        (BASELINE, True),
        (EARLY, True),
        (PolicyConfig(kind=PolicyKind.CUSTOM, start_tau=1.0), True),
        (build_preset("regressive"), False),
        (replace(BASELINE, baseline_decay=0.05), False),
    ])
    def test_points_read_per_arm(self, ref_params, reads, policy, node_only):
        n = round(ref_params.horizon_T * 100) + 1
        deltas = np.linspace(0.0, 0.6, 2 * costmodel._CHUNK_ARMS + 1)
        simulate_trajectory(ref_params, policy)
        arm_costs(ref_params, policy, deltas)
        assert sum(len(periods) for _, periods in reads) == 1 + len(deltas)
        assert {size for size, _ in reads} == {n if node_only else 3 * n - 2}

    def test_never_firing_gains_share_their_chunks(self, ref_params, reads):
        spec = DistributionSpec.beta_from_mean(0.3)
        deltas = [sample_delta(spec, substream(5, i)) for i in range(200)]
        arm_costs(ref_params, build_preset("adaptive_nudges"), deltas)
        chunks = [periods for _, periods in reads]
        never = sum(np.count_nonzero(periods == 0) for periods in chunks)
        assert 0 < never < len(deltas)
        mixed = [periods for periods in chunks if (periods == 0).any() and periods.any()]
        assert len(mixed) <= 1
