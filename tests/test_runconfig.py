import pytest

from adhersim.runconfig import (
    RunMode,
    effective_stress_value,
    parse_run_config,
    serialize_run_config,
)

MINIMAL = """
params_file = ref.txt
scenario = baseline
mode = simulate
output_dir = out
"""


def test_minimal_config_with_defaults():
    cfg = parse_run_config(MINIMAL)
    assert cfg.mode is RunMode.SIMULATE
    assert cfg.scenario == "baseline"
    assert cfg.seed is None
    assert cfg.n_draws is None
    assert cfg.n_workers == 1
    assert cfg.delta_axis == () and cfg.gamma_axis == ()
    policy = cfg.build_policy()
    assert policy.inflation_factor == 1.0
    assert policy.progression_compression == 1.0


def test_mc_requires_seed():
    text = MINIMAL.replace("mode = simulate", "mode = mc") + "n_draws = 100\n"
    with pytest.raises(ValueError, match="seed"):
        parse_run_config(text)


def test_negative_seed_rejected():
    text = MINIMAL.replace("mode = simulate", "mode = mc") + "seed = -5\nn_draws = 100\n"
    with pytest.raises(ValueError, match="seed: must be >= 0"):
        parse_run_config(text)


def test_mc_requires_n_draws():
    text = MINIMAL.replace("mode = simulate", "mode = mc") + "seed = 42\n"
    with pytest.raises(ValueError, match="n_draws"):
        parse_run_config(text)


def test_sweep_requires_axes():
    text = MINIMAL.replace("mode = simulate", "mode = sweep")
    with pytest.raises(ValueError, match="delta_axis"):
        parse_run_config(text)


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="mystery"):
        parse_run_config(MINIMAL + "mystery = 3\n")


def test_duplicate_key_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        parse_run_config(MINIMAL + "scenario = delayed\n")


def test_axes_must_increase():
    text = MINIMAL.replace("mode = simulate", "mode = sweep") + (
        "delta_axis = 0.3, 0.2\ngamma_axis = 0.5, 1.0\n"
    )
    with pytest.raises(ValueError, match="strictly increasing"):
        parse_run_config(text)


def test_unknown_scenario_and_mode():
    with pytest.raises(ValueError, match="scenario"):
        parse_run_config(MINIMAL.replace("scenario = baseline", "scenario = bogus"))
    with pytest.raises(ValueError, match="mode"):
        parse_run_config(MINIMAL.replace("mode = simulate", "mode = bogus"))


def test_policy_overrides_applied_and_validated():
    cfg = parse_run_config(MINIMAL + "policy.cost_scale_gamma = 2.5\n")
    assert cfg.build_policy().cost_scale_gamma == 2.5
    with pytest.raises(ValueError, match="start_tau"):
        parse_run_config(MINIMAL + "policy.start_tau = -1\n")
    with pytest.raises(ValueError, match="policy.bogus"):
        parse_run_config(MINIMAL + "policy.bogus = 1\n")


def test_stress_defaults_and_ranges():
    text = MINIMAL.replace("mode = simulate", "mode = stress") + "stress_kind = cost_inflation\n"
    cfg = parse_run_config(text)
    assert effective_stress_value(cfg) == 1.2
    cfg2 = parse_run_config(
        MINIMAL.replace("mode = simulate", "mode = stress")
        + "stress_kind = accelerated_progression\n"
    )
    assert effective_stress_value(cfg2) == 0.85
    with pytest.raises(ValueError, match="stress_value"):
        parse_run_config(text + "stress_value = 0.8\n")
    with pytest.raises(ValueError, match="stress_kind"):
        parse_run_config(MINIMAL.replace("mode = simulate", "mode = stress"))


def test_round_trip_full_sweep_config():
    text = (
        "params_file = params/ref.txt\n"
        "scenario = early_adherence\n"
        "mode = sweep\n"
        "output_dir = out/sweep\n"
        "seed = 7\n"
        "delta_axis = 0.20, 0.25, 0.30, 0.35, 0.40\n"
        "gamma_axis = 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5\n"
        "policy.decay_theta = 0.4\n"
    )
    cfg = parse_run_config(text)
    assert len(cfg.delta_axis) == 5 and len(cfg.gamma_axis) == 11
    again = parse_run_config(serialize_run_config(cfg))
    assert again == cfg


def test_round_trip_mc_config():
    text = MINIMAL.replace("mode = simulate", "mode = mc") + "seed = 42\nn_draws = 1000\nn_workers = 4\n"
    cfg = parse_run_config(text)
    assert parse_run_config(serialize_run_config(cfg)) == cfg


def test_comments_and_blank_lines_ignored():
    cfg = parse_run_config("# header\n\n" + MINIMAL + "  # trailing comment line\n")
    assert cfg.scenario == "baseline"
