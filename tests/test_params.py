import math
from dataclasses import fields, replace

import numpy as np
import pytest

from adhersim.costmodel import simulate_trajectory
from adhersim.params import ModelParams, parse_params, reference_params, reference_params_path
from adhersim.scenarios import build_preset

from conftest import make_params

REQUIRED = (
    "baseline_cost_C0 = 1000\n"
    "discount_rate_rho = 0.03\n"
    "disease_max_Dmax = 0.95\n"
    "disease_steepness_k = 0.5\n"
    "disease_midpoint_s0 = 5\n"
    "disease_cost_alpha = 200\n"
    "adherence_baseline_A0 = 0.5\n"
    "adherence_cost_beta = -100\n"
)


class TestParseParams:
    def test_reference_file_parses_to_pinned_values(self):
        p = reference_params()
        assert p == parse_params(reference_params_path().read_text())
        assert (p.baseline_cost_C0, p.adherence_baseline_A0, p.policy_unit_cost) == (3320.8545, 0.55, 35.4)
        assert p.horizon_T == 10.0

    def test_optional_keys_take_their_defaults(self):
        p = parse_params(REQUIRED)
        assert (p.severity_coupling_eta, p.health_weight_lambda, p.policy_unit_cost) == (0.0, 0.0, 1.0)
        assert p.horizon_T == 10.0
        assert p == make_params()

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n" + REQUIRED.replace("= 0.03\n", "= 0.03   # per year\n")
        assert parse_params(text) == parse_params(REQUIRED)

    def test_missing_required_keys_are_named(self):
        text = REQUIRED.replace("disease_cost_alpha = 200\n", "").replace("adherence_cost_beta = -100\n", "")
        with pytest.raises(ValueError, match="^missing required keys: disease_cost_alpha, adherence_cost_beta$"):
            parse_params(text)

    def test_unknown_key_is_named_with_its_line(self):
        with pytest.raises(ValueError, match="^line 9: unknown key 'horizon'"):
            parse_params(REQUIRED + "horizon = 5\n")

    def test_duplicate_key_is_named_with_its_line(self):
        with pytest.raises(ValueError, match="^line 9: duplicate key 'discount_rate_rho'$"):
            parse_params(REQUIRED + "discount_rate_rho = 0.05\n")

    def test_malformed_lines_are_rejected(self):
        with pytest.raises(ValueError, match="^line 9: expected 'key = value'"):
            parse_params(REQUIRED + "horizon_T 5\n")
        with pytest.raises(ValueError, match="^line 9: value for 'horizon_T' is not a number: 'ten'$"):
            parse_params(REQUIRED + "horizon_T = ten\n")

    @pytest.mark.parametrize("text", ["1_0.0", "\uff11\uff10", "1e0_1", "\u0661\u0660.0"])
    def test_grouped_or_non_ascii_digits_are_not_numbers(self, text):
        # float() reads each of these as 10.0.
        assert float(text) == 10.0
        with pytest.raises(ValueError, match=f"^line 9: value for 'horizon_T' is not a number: {text!r}$"):
            parse_params(REQUIRED + f"horizon_T = {text}\n")


class TestModelParamsValidation:
    def test_every_field_must_be_finite(self):
        p = make_params()
        for f in fields(ModelParams):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"^{f.name}: must be finite"):
                    replace(p, **{f.name: bad})

    def test_adherence_baseline_outside_unit_interval_rejected(self):
        for bad in (-0.1, 1.2):
            with pytest.raises(ValueError, match="adherence_baseline_A0: must be in"):
                make_params(adherence_baseline_A0=bad)
        assert make_params(adherence_baseline_A0=0.0).adherence_baseline_A0 == 0.0
        assert make_params(adherence_baseline_A0=1.0).adherence_baseline_A0 == 1.0

    @pytest.mark.parametrize("field, bad", [
        ("discount_rate_rho", -0.01),
        ("disease_max_Dmax", 0.0),
        ("disease_max_Dmax", 1.1),
        ("disease_steepness_k", 0.0),
        ("severity_coupling_eta", -1.0),
        ("policy_unit_cost", -1.0),
        ("horizon_T", 0.0),
        ("horizon_T", 1000.01),
        ("horizon_T", 1e30),
    ])
    def test_out_of_range_field_is_named(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field}: must"):
            make_params(**{field: bad})

    def test_horizon_must_end_on_a_grid_node(self):
        with pytest.raises(ValueError, match="^horizon_T: must be a whole number of 1/100-year steps"):
            make_params(horizon_T=10.005)
        assert make_params(horizon_T=0.01).horizon_T == 0.01
        assert make_params(horizon_T=3.0).horizon_T == 3.0
        assert make_params(horizon_T=1000.0).horizon_T == 1000.0

    def test_health_weight_lambda_is_read_by_no_engine_term(self):
        plain = make_params()
        weighted = make_params(health_weight_lambda=50000.0)
        for name in ("baseline", "early_adherence", "adaptive_nudges"):
            a = simulate_trajectory(plain, build_preset(name))
            b = simulate_trajectory(weighted, build_preset(name))
            assert np.array_equal(a.cumulative_cost, b.cumulative_cost), name
            assert np.array_equal(a.instantaneous_cost, b.instantaneous_cost), name
