import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import adhersim
from adhersim import costmodel
from adhersim.analytics import baseline_cost, roi
from adhersim.costmodel import simulate_trajectory
from adhersim.montecarlo import (
    MAX_DRAWS,
    QUANTILE_LEVELS,
    DistributionSpec,
    check_draw_keys,
    positive_rate,
    price_draws,
    run_monte_carlo,
    sample_delta,
    substream,
)
from adhersim.scenarios import build_preset

from conftest import make_params

EARLY = build_preset("early_adherence")


class TestDistributionSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            DistributionSpec.beta(0.0, 2.0)
        for point in (-0.1, 1.2, math.nan):
            with pytest.raises(ValueError, match=r"^point must be in \[0, 1\]$"):
                DistributionSpec(point=point)

    @pytest.mark.parametrize("shapes", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf)])
    def test_beta_shapes_must_be_finite(self, shapes):
        # Every draw of a valid spec lies in [0, 1]; no engine check repeats it.
        with pytest.raises(ValueError, match="^beta shapes must be finite and > 0$"):
            DistributionSpec.beta(*shapes)

    def test_beta_from_mean_matches_requested_moments(self):
        spec = DistributionSpec.beta_from_mean(0.3, 0.05)
        a, b = spec.alpha_shape, spec.beta_shape
        assert a / (a + b) == pytest.approx(0.3)
        var = a * b / ((a + b) ** 2 * (a + b + 1))
        assert math.sqrt(var) == pytest.approx(0.05, rel=1e-9)

    @pytest.mark.parametrize("sd", [0.0, 1e-200, -0.05, math.nan, math.inf])
    def test_beta_from_mean_rejects_an_sd_it_cannot_match(self, sd):
        # 1e-200 squares to 0; -0.05 squares to the same shapes as 0.05.
        with pytest.raises(ValueError, match="^sd: "):
            DistributionSpec.beta_from_mean(0.3, sd)


class TestSampling:
    def test_point_mass(self):
        spec = DistributionSpec(point=0.3)
        stream = substream(1, 0)
        assert all(sample_delta(spec, stream) == 0.3 for _ in range(10))

    def test_beta_mean_against_law_of_large_numbers(self):
        spec = DistributionSpec.beta(2.0, 5.0)
        stream = substream(123, 0)
        draws = np.array([sample_delta(spec, stream) for _ in range(100_000)])
        assert draws.mean() == pytest.approx(2.0 / 7.0, abs=0.005)
        assert np.all((draws >= 0) & (draws <= 1))

    def test_moments_within_three_standard_errors(self):
        n = 100_000
        beta_spec = DistributionSpec.beta(2.0, 5.0)
        stream = substream(7, 0)
        draws = np.array([sample_delta(beta_spec, stream) for _ in range(n)])
        mean = 2.0 / 7.0
        var = 2.0 * 5.0 / (7.0**2 * 8.0)
        se_mean = math.sqrt(var / n)
        assert abs(draws.mean() - mean) <= 3 * se_mean
        mu4 = float(np.mean((draws - draws.mean()) ** 4))
        se_var = math.sqrt((mu4 - var**2) / n)
        assert abs(draws.var() - var) <= 3 * se_var

        # The CLI's spec: a Beta matched to mean 0.3 and sd 0.05.
        matched = DistributionSpec.beta_from_mean(0.3, 0.05)
        stream = substream(8, 0)
        draws = np.array([sample_delta(matched, stream) for _ in range(n)])
        mean, var = 0.3, 0.05**2
        se_mean = math.sqrt(var / n)
        assert abs(draws.mean() - mean) <= 3 * se_mean
        mu4 = float(np.mean((draws - draws.mean()) ** 4))
        se_var = math.sqrt((mu4 - var**2) / n)
        assert abs(draws.var() - var) <= 3 * se_var


class TestRunMonteCarlo:
    def test_draw_count_has_a_ceiling(self, ref_params):
        check_draw_keys(None, MAX_DRAWS)
        for n in (MAX_DRAWS + 1, 10**30):
            with pytest.raises(ValueError, match=f"^n_draws: must be <= {MAX_DRAWS}$"):
                run_monte_carlo(ref_params, EARLY, DistributionSpec.beta_from_mean(0.3), n, master_seed=1)

    def test_single_degenerate_draw_equals_deterministic(self, ref_params):
        spec = DistributionSpec(point=0.3)
        summary, draws = run_monte_carlo(ref_params, EARLY, spec, 1, master_seed=5)
        det = roi(baseline_cost(ref_params), simulate_trajectory(ref_params, EARLY).final_cost)
        assert summary.roi_mean == det
        assert summary.roi_sd == 0.0
        assert summary.n_draws == 1 and draws.shape == (1,)

    @pytest.mark.parametrize("preset", ["baseline", "early_adherence"])
    def test_point_mass_run_has_zero_spread(self, ref_params, preset):
        # The mean of 300 copies of a cost need not be that cost, so an sd
        # taken about the mean would read a few ulps above 0.
        design = build_preset(preset)
        spec = DistributionSpec(point=design.adherence_gain_delta)
        summary, _ = run_monte_carlo(ref_params, design, spec, 300, master_seed=5)
        assert summary.cost_sd == summary.roi_sd == summary.roi_mean_se == 0.0

    def test_same_seed_is_bit_identical(self, ref_params):
        spec = DistributionSpec.beta_from_mean(0.3)
        s1, d1 = run_monte_carlo(ref_params, EARLY, spec, 64, master_seed=42)
        s2, d2 = run_monte_carlo(ref_params, EARLY, spec, 64, master_seed=42)
        assert s1 == s2
        assert np.array_equal(d1, d2)

    def test_quantiles_monotone_and_nearest_rank(self, ref_params):
        # q n is whole at every level for n = 20 and 300, and below 1 at
        # every level for n = 1 and 2, where the rank clamps to 1.
        spec = DistributionSpec.beta_from_mean(0.3)
        for n in (1, 2, 20, 101, 300):
            summary, draws = run_monte_carlo(ref_params, EARLY, spec, n, master_seed=3)
            q = summary.roi_quantiles
            levels = sorted(q)
            assert all(q[a] <= q[b] for a, b in zip(levels, levels[1:]))
            ranked = np.sort(draws["roi_percent"])
            nearest_rank = {level: float(ranked[max(1, math.ceil(level * n)) - 1]) for level in QUANTILE_LEVELS}
            assert q == nearest_rank, n

    def test_prob_roi_positive_matches_empirical_fraction(self, ref_params):
        spec = DistributionSpec.beta_from_mean(0.3)
        summary, draws = run_monte_carlo(ref_params, EARLY, spec, 200, master_seed=12)
        assert summary.prob_roi_positive == np.mean(draws["roi_percent"] > 0)

    def test_standard_errors_match_numpy(self, ref_params):
        # delta = 0.2 puts the design near break-even, so 0 < P(ROI>0) < 1.
        design = replace(EARLY, adherence_gain_delta=0.2)
        spec = DistributionSpec.beta_from_mean(0.2)
        summary, draws = run_monte_carlo(ref_params, design, spec, 300, master_seed=17)
        rois = draws["roi_percent"]
        p = np.mean(rois > 0)
        assert 0.0 < p < 1.0
        assert summary.roi_mean_se == pytest.approx(np.std(rois) / np.sqrt(300), rel=1e-12)
        assert summary.prob_roi_positive_se == pytest.approx(np.sqrt(p * (1 - p) / 300), rel=1e-12)
        record = summary.as_dict()
        assert record["roi_mean_se"] == summary.roi_mean_se
        assert record["prob_roi_positive_se"] == summary.prob_roi_positive_se

    def test_positive_rate_strict_at_zero(self):
        assert positive_rate(np.array([0.0])) == 0.0
        assert positive_rate(np.array([1.0, 2.0])) == 1.0
        assert positive_rate(np.array([-1.0, 1.0])) == 0.5

    def test_raising_the_mean_gain_never_lowers_mean_roi(self, ref_params):
        means = []
        for mean in (0.25, 0.30, 0.35):
            spec = DistributionSpec.beta_from_mean(mean)
            summary, _ = run_monte_carlo(ref_params, EARLY, spec, 120, master_seed=21)
            means.append(summary.roi_mean)
        assert means[0] <= means[1] <= means[2]

    def test_fragile_design_has_lower_positive_rate(self, ref_params):
        fragile = replace(EARLY, adherence_gain_delta=0.25, cost_scale_gamma=1.0)
        robust = replace(EARLY, adherence_gain_delta=0.35, cost_scale_gamma=0.8)
        s_f, _ = run_monte_carlo(
            ref_params, fragile, DistributionSpec.beta_from_mean(0.25, 0.05), 800, master_seed=31
        )
        s_r, _ = run_monte_carlo(
            ref_params, robust, DistributionSpec.beta_from_mean(0.35, 0.05), 800, master_seed=31
        )
        assert s_f.prob_roi_positive < s_r.prob_roi_positive

    def test_robust_design_mostly_positive(self, ref_params):
        robust = replace(EARLY, adherence_gain_delta=0.30, cost_scale_gamma=0.9)
        summary, _ = run_monte_carlo(
            ref_params, robust, DistributionSpec.beta_from_mean(0.30, 0.05), 800, master_seed=32
        )
        assert summary.prob_roi_positive >= 0.70

    def test_per_draw_failure_reports_index_and_delta(self):
        # policy-arm cumulative cost goes negative, invalidating the ROI
        # denominator on the very first draw
        p = make_params(baseline_cost_C0=100.0, disease_cost_alpha=0.0,
                        adherence_cost_beta=-500.0, adherence_baseline_A0=0.1)
        spec = DistributionSpec(point=0.9)
        with pytest.raises(ValueError, match=r"draw 0 \(delta=0\.9"):
            run_monte_carlo(p, EARLY, spec, 4, master_seed=1)

    def test_first_failing_draw_inside_a_chunk_is_named(self):
        # On the same parameters delta = 0 keeps the cost positive, so the
        # first failure is the first 0.9 gain: draw 4, which is neither
        # draw 0 nor the first draw of an engine chunk.
        p = make_params(baseline_cost_C0=100.0, disease_cost_alpha=0.0,
                        adherence_cost_beta=-500.0, adherence_baseline_A0=0.1)
        deltas = np.array([0.0] * 4 + [0.9] * 12)
        assert 4 % costmodel._CHUNK_ARMS != 0
        with pytest.raises(ValueError, match=r"draw 4 \(delta=0\.900000\) failed: cost_policy: must be > 0"):
            price_draws(p, EARLY, deltas, baseline_cost(p))

    def test_n_must_be_positive(self, ref_params):
        with pytest.raises(ValueError):
            run_monte_carlo(ref_params, EARLY, DistributionSpec.beta_from_mean(0.3), 0, 1)


def test_import_leaves_numpy_random_unloaded():
    # numpy.random adds several milliseconds to every run's start-up; only a
    # Monte Carlo run may load it.
    env = dict(os.environ, PYTHONPATH=str(Path(adhersim.__file__).parents[1]))
    code = "import sys, adhersim, adhersim.cli; sys.exit('numpy.random' in sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
