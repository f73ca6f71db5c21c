import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from adhersim import costmodel, scenarios
from adhersim.costmodel import arm_costs, simulate_trajectory
from adhersim.montecarlo import DistributionSpec, sample_delta, substream
from adhersim.scenarios import PRESET_NAMES, PolicyConfig, StressKind, apply_stress, build_preset

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
        raised = PolicyConfig(adherence_gain_delta=0.3)
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
        policy = PolicyConfig(starts=False, baseline_decay=0.05)
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
        cached = costmodel._grid(*key) + step
        for array in cached:
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            step[0][0, -1] = 0.0

    def test_writing_never_started_columns_leaves_the_next_run_unchanged(self, ref_params):
        first = simulate_trajectory(ref_params, BASELINE)
        expected = {field: getattr(first, field).tobytes() for field in COLUMNS}
        for field in COLUMNS[1:]:
            getattr(first, field)[:] = -1.0
        again = simulate_trajectory(ref_params, BASELINE)
        for field in COLUMNS:
            assert getattr(again, field).tobytes() == expected[field], field

    def test_never_started_adherence_carries_the_gains_signed_zero(self):
        # With A0 = -0.0 the never-started adherence A0 + 0 * delta carries the gain's sign.
        params = make_params(adherence_baseline_A0=-0.0)
        runs = [simulate_trajectory(params, replace(BASELINE, adherence_gain_delta=d)) for d in (0.0, -0.0)]
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
    "custom_late": (None, PolicyConfig(start_tau=12.0, adherence_gain_delta=0.3, cost_scale_gamma=1.0,
                                       decay_theta=0.5)),
    "custom_late_signed_zero": (dict(adherence_baseline_A0=-0.0, severity_coupling_eta=2.0),
                                PolicyConfig(start_tau=10.5, adherence_gain_delta=-0.0, decay_theta=0.5,
                                             baseline_decay=0.05)),
}
RUN_FIELDS = COLUMNS + ("rest_cost", "spend_integral", "final_cost")


def run_bytes(traj) -> dict:
    return {field: np.asarray(getattr(traj, field)).tobytes() for field in RUN_FIELDS}


class TestNeverStartedArms:
    """An arm that never starts runs through the kernel like any other."""

    @pytest.fixture(params=NEVER_STARTED.values(), ids=NEVER_STARTED.keys())
    def arm(self, request, ref_params):
        overrides, policy = request.param
        return (ref_params if overrides is None else make_params(**overrides)), policy

    def test_warm_run_equals_cold_run_and_the_direct_kernel(self, arm):
        params, policy = arm
        assert scenarios._nudge_periods(params, policy, [0.0])[0] > node(params.horizon_T)
        cold = simulate_trajectory(params, policy)
        warm = simulate_trajectory(params, policy)
        assert run_bytes(warm) == run_bytes(cold)
        # The policy's own kernel rows.
        grid = costmodel._read_layout(policy, costmodel._grid(params.horizon_T, 100, params.discount_rate_rho))
        deltas = [policy.adherence_gain_delta]
        (a, severity, rest_nodes), rest, _ = costmodel._rest_rows(
            params, policy, grid, deltas, scenarios._nudge_periods(params, policy, deltas), (grid[0][1], -0.0, -0.0))
        # The raw channel, its first node and C0 written as the one-arm run writes them.
        rest[:, 0] = 0.0
        rest += params.baseline_cost_C0
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
    """The decay factor e is read where it can vary, once per distinct nudge
    period, and adherence once per gain, at the nodes and at the panel ends
    where they can differ from the next node's.  A one-arm run reads e at the
    n nodes where it is constant on each piece, else at the 3n - 2 points of
    Simpson's rule.  ``arm_costs`` reads the gain-free head before tau's node
    once, in that layout, then the tail of m nodes: at one point where e is
    constant on each piece, at the 2m - 1 nodes and midpoints where no nudge
    fires, and at the 3m - 2 points where one does; the gains no nudge fires
    read it once per call.  A policy that never starts keeps a one-panel tail
    in the general layout.  A row whose baseline decays also reads its
    adherence at every point.  The layout follows the policy's fields,
    whatever preset it came from."""

    @pytest.fixture
    def reads(self, monkeypatch):
        calls = {"decay": [], "adherence": []}

        def decay(policy, nudges, s, piece, out=None):
            calls["decay"].append((s.size, nudges[1].copy()))
            return scenarios._decay_factor(policy, nudges, s, piece, out)

        def adherence(params, policy, deltas, e, s, out=None):
            calls["adherence"].append((s.size, len(deltas)))
            return scenarios.adherence_array(params, policy, deltas, e, s, out)

        monkeypatch.setattr(costmodel, "_decay_factor", decay)
        monkeypatch.setattr(costmodel, "adherence_array", adherence)
        return calls

    @pytest.mark.parametrize(("policy", "node_only", "tail_widths"), [
        (BASELINE, True, lambda m: {m}),
        (EARLY, True, lambda m: {1}),
        (PolicyConfig(start_tau=1.0), True, lambda m: {1}),
        (build_preset("regressive"), False, lambda m: {2 * m - 1}),
        (build_preset("adaptive_nudges"), False, lambda m: {2 * m - 1, 3 * m - 2}),
        (replace(BASELINE, baseline_decay=0.05), False, lambda m: {3 * m - 2}),
        # A custom policy with regressive's fields, and a step with a threshold
        # above A0 that its level never falls below.
        (PolicyConfig(start_tau=2.0, adherence_gain_delta=0.3, cost_scale_gamma=1.2,
                      decay_theta=scenarios.REGRESSIVE_DECAY_THETA), False, lambda m: {2 * m - 1}),
        (replace(EARLY, nudge_threshold=0.9), True, lambda m: {1}),
    ])
    def test_points_read_per_arm(self, ref_params, reads, policy, node_only, tail_widths):
        n = round(ref_params.horizon_T * 100) + 1
        own = policy.baseline_decay is not None
        simulate_trajectory(ref_params, policy)
        width = n if node_only else 3 * n - 2
        assert [(size, len(periods)) for size, periods in reads["decay"]] == [(width, 1)]
        ends = [] if node_only else [n - 1]
        assert sorted(reads["adherence"]) == sorted((size, 1) for size in [n, *ends] + [width] * own)
        for calls in reads.values():
            calls.clear()
        # A0 + delta stays at or below 1, so only a decaying baseline reads every point.
        deltas = np.linspace(0.0, 0.45, 2 * costmodel._CHUNK_ARMS + 1)
        arm_costs(ref_params, policy, deltas)
        k0 = min(scenarios._nudge_periods(ref_params, policy, deltas)[0], n - 2)
        m = n - k0
        (head, head_periods), *tail = reads["decay"]
        assert (head, len(head_periods)) == (k0 + 1 if node_only else 3 * k0 + 1, 1)
        assert {size for size, _ in tail} == tail_widths(m)
        assert sum(not periods.any() for _, periods in tail) == 1
        for size, periods in tail:
            # A chunk where a nudge fires reads e at the 3m - 2 points, once per period.
            assert np.unique(periods).size == periods.size
            assert size == 3 * m - 2 or not periods.any()
        tail_reads = reads["adherence"][1 + len(ends) + own:]
        nodes = 1 if tail_widths(m) == {1} else m
        assert sum(gains for size, gains in tail_reads if size == nodes) == len(deltas)
        assert sum(gains for size, gains in tail_reads if size not in (nodes, m - 1)) == len(deltas) * own

    def test_never_firing_gains_share_their_chunks(self, ref_params, reads, monkeypatch):
        kernel, chunks = costmodel._rest_rows, []

        def recorder(params, policy, grid, deltas, nudges, start, buffers=None):
            chunks.append(nudges[1].copy())
            return kernel(params, policy, grid, deltas, nudges, start, buffers)

        monkeypatch.setattr(costmodel, "_rest_rows", recorder)
        spec = DistributionSpec.beta_from_mean(0.3)
        deltas = [sample_delta(spec, substream(5, i)) for i in range(200)]
        arm_costs(ref_params, build_preset("adaptive_nudges"), deltas)
        head, *chunks = chunks
        never = sum(np.count_nonzero(periods == 0) for periods in chunks)
        assert 0 < never < len(deltas)
        mixed = [periods for periods in chunks if (periods == 0).any() and periods.any()]
        assert len(mixed) <= 1
        # The chunks no nudge fires in read one decay factor, once.
        assert sum(not periods.any() for _, periods in reads["decay"][1:]) == 1
        assert sum(not periods.any() for periods in chunks) > 1


# Gains of the adaptive rule on both sides of its trigger edge A0 + delta = 0.82
# (delta = 0.27 at the reference A0 = 0.55): below it no nudge fires, just
# above it the rule fires every node, and higher gains fire at long periods.
EDGE_GAINS = np.concatenate((np.linspace(0.2, 0.27, 60), 0.27 + np.geomspace(1e-9, 1e-4, 60),
                             np.linspace(0.2701, 0.45, 60)))


class TestFloatNodeArithmetic:
    """The nudge rule's node arithmetic runs in float64 and equals integer
    arithmetic on every grid ModelParams allows: offsets and periods are
    integers of at most 100 000, the last node of a 1 000-year grid."""

    X = np.arange(100_001)
    # Every period up to 1 000, a spread up to 100 000, and a log that never fires.
    PERIODS = {
        "small": np.arange(1, 1_001),
        "spread": np.unique(np.r_[np.geomspace(1_001, 100_000, 400).astype(np.int64),
                                  [9_973, 33_333, 50_000, 65_537, 99_991, 99_999, 100_000]]),
        "never": np.array([0]),
    }

    @pytest.mark.parametrize("periods", PERIODS.values(), ids=PERIODS.keys())
    def test_floor_division_equals_integer_division(self, periods):
        for lo in range(0, len(periods), 25):
            block = periods[lo:lo + 25]
            m, n = scenarios._activations_by((0, block), self.X)
            divisor = np.where(block > 0, block, np.iinfo(np.int64).max)[:, None]
            want = self.X // divisor
            assert np.array_equal(n, want)
            # The last boost's offset m * N, as the rule reads it.
            assert np.array_equal(m * n, want * divisor)

    def test_long_horizon_arms_equal_their_runs(self):
        # A slow decay lets the periods run from 1 node up to nearly the whole
        # 99 800-node tail after tau = 2 on the 1 000-year grid.
        params = make_params(horizon_T=1_000.0)
        policy = replace(build_preset("adaptive_nudges"), decay_theta=0.0005)
        edge = policy.nudge_threshold - params.adherence_baseline_A0
        targets = [1, 2, 50, 99_700]
        # A gain fires first at step m when its level at step m - 1 is still
        # at the threshold and falls below it at step m.
        deltas = [edge * math.exp(policy.decay_theta * (m - 0.5) / 100) for m in targets]
        assert scenarios._nudge_periods(params, policy, deltas)[1].tolist() == targets
        rest, spend = arm_costs(params, policy, deltas)
        for i, delta in enumerate(deltas):
            traj = simulate_trajectory(params, replace(policy, adherence_gain_delta=delta))
            assert rest[i].tobytes() == np.float64(traj.rest_cost).tobytes()
            assert spend[i].tobytes() == np.float64(traj.spend_integral).tobytes()

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_layout_reads_equal_the_general_reads(self, ref_params, name):
        # Pieces told by the read layout give the bits of the same points read
        # with a plain piece per point, on the whole grid and on the tail.
        policy = build_preset(name)
        grid = costmodel._grid(ref_params.horizon_T, 100, ref_params.discount_rate_rho)
        nudges = scenarios._nudge_periods(ref_params, policy, EDGE_GAINS)
        n = len(grid[0])
        k0 = min(nudges[0], n - 2)
        for layout in (costmodel._read_layout(policy, grid),
                       costmodel._read_layout(policy, costmodel._span(grid, k0, n), active=k0 == nudges[0],
                                              fires=nudges[1].any())):
            points, pieces = layout[3:]
            assert isinstance(pieces, scenarios.Pieces)
            told = scenarios._decay_factor(policy, nudges, points, pieces)
            plain = scenarios._decay_factor(policy, nudges, points, pieces.at.copy())
            assert told.tobytes() == plain.tobytes()


class TestPeriodBlocks:
    """``arm_costs`` finds every gain's nudge period in one call, then prices
    the gains in chunks of ``_CHUNK_ARMS``, taken in period order."""

    def test_rows_over_several_blocks_equal_the_runs(self, ref_params):
        policy = build_preset("adaptive_nudges")
        deltas = np.random.default_rng(29).permutation(EDGE_GAINS)[:45]
        periods = scenarios._nudge_periods(ref_params, policy, deltas)[1]
        assert {0, 1} <= set(periods.tolist()) and periods.max() > 100
        rest, spend = arm_costs(ref_params, policy, deltas)
        for i, delta in enumerate(deltas):
            traj = simulate_trajectory(ref_params, replace(policy, adherence_gain_delta=delta))
            assert rest[i].tobytes() == np.float64(traj.rest_cost).tobytes(), i
            assert spend[i].tobytes() == np.float64(traj.spend_integral).tobytes(), i

    def test_peak_memory_on_the_longest_grid(self):
        params = make_params(horizon_T=1_000.0)
        policy = build_preset("adaptive_nudges")
        deltas = np.linspace(0.2, 0.45, 65)
        # Warm the grid and spend caches, which outlive the call.
        arm_costs(params, policy, deltas[:2])
        tracemalloc.start()
        try:
            arm_costs(params, policy, deltas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The peak when each chunk read adherence per gain at every point
        # (numpy 2.4); reading the decay factor once per period peaks lower.
        assert peak <= 68_742_187


class TestExcessPaths:
    """A gain's row integrates delta * e through the running sum S its
    nudge period shares, or its own excess max(0, A - A0) where adherence may
    clip (the float A0 + delta exceeds 1) or the baseline decays.  Either way
    it equals the gain's one-arm run, whatever gains share its call."""

    @pytest.mark.parametrize("policy", [
        build_preset("early_adherence"), build_preset("regressive"), build_preset("adaptive_nudges"),
        replace(build_preset("adaptive_nudges"), baseline_decay=0.05),
    ], ids=["early_adherence", "regressive", "adaptive_nudges", "decaying_baseline"])
    def test_rows_on_both_sides_of_the_clip_edge_equal_their_runs(self, ref_params, policy):
        a0 = ref_params.adherence_baseline_A0
        edge = past = 1.0 - a0
        while a0 + past <= 1.0:
            past = np.nextafter(past, 2.0)
        # 0.3 fires the adaptive rule; 1.0 and the first gain past the edge clip.
        deltas = [0.0, edge, np.nextafter(edge, 2.0), past, 1.0, 0.3]
        assert a0 + np.nextafter(edge, 2.0) <= 1.0 < a0 + past
        fires = scenarios._nudge_periods(ref_params, policy, deltas)[1] > 0
        assert fires[-1] == (policy.nudge_threshold > 0)
        rest, spend = arm_costs(ref_params, policy, deltas)
        for i, delta in enumerate(deltas):
            traj = simulate_trajectory(ref_params, replace(policy, adherence_gain_delta=delta))
            assert rest[i].tobytes() == np.float64(traj.rest_cost).tobytes(), delta
            assert spend[i].tobytes() == np.float64(traj.spend_integral).tobytes(), delta


class TestFlatTrapezoid:
    """The node-layout trapezoid adds neighbouring terms in one flat pass where
    a bound on |f| rules out an overflow across rows, and row by row else."""

    def test_flat_pass_equals_row_sums(self):
        rng = np.random.default_rng(11)
        f, disc = rng.normal(size=(5, 40)) * 1e3, np.exp(-0.03 * np.arange(40) / 100)
        start = rng.normal(size=5)
        flat, rows = (costmodel._discounted_trapezoid(disc, 0.01, f.copy(), None, start, np.empty_like(f),
                                                      bound=bound) for bound in (1e4, math.inf))
        assert flat.tobytes() == rows.tobytes()

    def test_an_unbounded_rate_is_summed_row_by_row(self):
        # The rows' end and start terms overflow when added across the rows,
        # and no sum inside a row does.
        big = 0.6 * np.finfo(float).max
        f = np.array([[1.0, 1.0, 1.0, big], [big, 1.0, 1.0, 1.0]])
        disc = np.ones(4)
        with np.errstate(all="raise"):
            out = costmodel._discounted_trapezoid(disc, 0.01, f.copy(), None, 0.0, np.empty_like(f), bound=big)
            assert np.isfinite(out).all()
            with pytest.raises(FloatingPointError):
                costmodel._discounted_trapezoid(disc, 0.01, f.copy(), None, 0.0, np.empty_like(f), bound=1.0)

    @pytest.mark.parametrize("costs", [(200.0, -120.0), (1e308, -1e308), (-1e300, 0.0)])
    def test_the_kernel_bound_holds_for_every_rate(self, monkeypatch, costs):
        trapezoid, bounds = costmodel._discounted_trapezoid, []

        def checked(disc, h, f_start, f_end, start, out, scratch=None, bound=math.inf):
            if f_end is None:
                bounds.append(bound)
                assert np.nanmax(np.abs(f_start)) <= bound
            return trapezoid(disc, h, f_start, f_end, start, out, scratch, bound)

        monkeypatch.setattr(costmodel, "_discounted_trapezoid", checked)
        params = make_params(disease_cost_alpha=costs[0], adherence_cost_beta=costs[1], disease_max_Dmax=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            for name in PRESET_NAMES:
                arm_costs(params, build_preset(name), EDGE_GAINS)
        assert bounds
