import hashlib
import json
from pathlib import Path

import pytest

from adhersim import cli, costmodel
from adhersim.analytics import roi, stress_pairs
from adhersim.cli import _default_mc_spec, export_plots, main
from adhersim.costmodel import simulate_trajectory
from adhersim.exports import csv_bytes, histogram_csv
from adhersim.montecarlo import run_monte_carlo
from adhersim.params import reference_params_path
from adhersim.scenarios import PRESET_NAMES, StressKind, apply_stress, build_preset

POLICY_PRESETS = [name for name in PRESET_NAMES if name != "baseline"]


def _read_csv(path: Path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _run(args):
    return main([str(a) for a in args])


class TestSimulate:
    def test_trajectory_starts_at_initial_cost(self, tmp_path):
        out = tmp_path / "sim"
        assert _run(["--out", out, "simulate", "--scenario", "baseline"]) == 0
        header, rows = _read_csv(out / "trajectory.csv")
        assert header == ["time", "adherence", "severity", "policy_cost",
                          "instantaneous_cost", "cumulative_cost"]
        assert len(rows) == 1001
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][5]) == pytest.approx(3320.85, abs=0.01)

    def test_unknown_scenario_fails_cleanly(self, tmp_path, capsys):
        rc = _run(["--out", tmp_path / "x", "simulate", "--scenario", "bogus"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestCompare:
    def test_summary_reports_headline_roi(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert _run(["--out", out, "compare", "--scenario", "early_adherence"]) == 0
        printed = capsys.readouterr().out
        assert "ROI 9.7%" in printed
        summary = json.loads((out / "summary.json").read_text())
        assert summary["roi_percent"] == pytest.approx(9.74, abs=0.01)
        assert 2.0 < summary["payback_years"] < 10.0
        assert (out / "baseline_trajectory.csv").exists()
        assert (out / "policy_trajectory.csv").exists()


class TestSweep:
    def test_outputs_and_contours(self, tmp_path):
        out = tmp_path / "sw"
        rc = _run(["--out", out, "sweep", "--scenario", "early_adherence",
                   "--delta-axis", "0.2,0.3", "--gamma-axis", "0.5,1.0,1.5"])
        assert rc == 0
        header, rows = _read_csv(out / "roi_grid.csv")
        assert header == ["delta", "gamma", "roi_percent", "total_cost"]
        assert len(rows) == 6
        # row-major by delta then gamma
        assert [r[0] for r in rows] == ["0.2"] * 3 + ["0.3"] * 3
        assert [r[1] for r in rows[:3]] == ["0.5", "1", "1.5"]
        contours = json.loads((out / "contours.json").read_text())
        assert contours["levels_sign_bands"] == [-5.0, 0.0, 5.0]
        assert contours["levels_design_space"] == [0.0, 50.0, 100.0]
        assert contours["curve_levels"] == [-5.0, 0.0, 5.0, 50.0, 100.0]
        assert contours["delta_axis"] == [0.2, 0.3]
        curves = contours["gamma_at_level"]
        assert [len(row) for row in curves] == [5, 5]
        # The zero-level curve is the break-even column; no arm reaches 50% or 100%.
        _, rows = _read_csv(out / "breakeven.csv")
        assert [g for _, g in rows] == ["%.6g" % row[1] for row in curves]
        assert all(row[3] is None and row[4] is None for row in curves)
        assert all(row[0] > row[1] for row in curves)

    def test_curves_of_an_arm_that_spends_nothing_are_null(self, tmp_path):
        out = tmp_path / "sw"
        assert _run(["--out", out, "sweep", "--scenario", "baseline",
                     "--delta-axis", "0,0.5", "--gamma-axis", "1.0"]) == 0

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        contours = json.loads((out / "contours.json").read_text(), parse_constant=reject)
        assert contours["gamma_at_level"] == [[None] * 5] * 2
        _, rows = _read_csv(out / "breakeven.csv")
        assert rows == [["0", ""], ["0.5", ""]]

    def test_sweep_over_the_cell_ceiling_is_rejected(self, tmp_path, capsys):
        # 1 001 x 1 000 cells: the check runs before any arm, so nothing large is allocated.
        out = tmp_path / "sw"
        deltas = ",".join(repr(i / 1000) for i in range(1001))
        gammas = ",".join(str(i) for i in range(1000))
        assert _run(["--out", out, "sweep", "--delta-axis", deltas, "--gamma-axis", gammas]) == 2
        assert capsys.readouterr().err == "error: gamma_axis: 1001 x 1000 cells; at most 1000000\n"
        assert not out.exists()

    def test_reproducible_byte_identical_runs(self, tmp_path):
        out = tmp_path / "a"
        names = ("roi_grid.csv", "contours.json", "breakeven.csv", "manifest.json")
        args = ["--out", out, "sweep", "--scenario", "early_adherence",
                "--delta-axis", "0.25,0.3", "--gamma-axis", "1.0,1.5"]
        assert _run(args) == 0
        first = {name: (out / name).read_bytes() for name in names}
        assert _run(args) == 0
        for name in names:
            assert (out / name).read_bytes() == first[name]


class TestBreakeven:
    def test_an_op_over_n_gains_runs_n_plus_one_arms(self, tmp_path, monkeypatch):
        # One arm per gain, and the never-started counterfactual once for the axis.
        runs = []
        kernel = costmodel._rest_rows

        def recorder(params, policy, grid, deltas, nudges, start, buffers=None):
            runs.append((len(nudges[1]), bool(nudges[0] > grid[2][-1])))
            return kernel(params, policy, grid, deltas, nudges, start, buffers)

        monkeypatch.setattr(costmodel, "_rest_rows", recorder)
        assert _run(["--out", tmp_path / "be", "breakeven", "--delta-axis", "0.1,0.2,0.3,0.4"]) == 0
        assert sum(arms for arms, _ in runs) == 5
        assert sum(arms for arms, never in runs if never) == 1


class TestManifest:
    def test_lists_every_file_with_checksums(self, tmp_path):
        out = tmp_path / "sim"
        assert _run(["--out", out, "simulate", "--scenario", "delayed"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
        listed = {entry["name"] for entry in manifest["files"]}
        assert listed == on_disk
        for entry in manifest["files"]:
            payload = (out / entry["name"]).read_bytes()
            assert entry["checksum"] == hashlib.sha256(payload).hexdigest()
            if entry["name"].endswith(".csv"):
                assert entry["rows"] == len(payload.decode().strip().splitlines()) - 1
        assert manifest["engine_version"]
        assert "scenario = delayed" in manifest["config_echo"]

    def test_failed_run_leaves_output_dir_unchanged(self, tmp_path):
        out = tmp_path / "keep"
        out.mkdir()
        (out / "precious.txt").write_text("do not touch")
        rc = _run(["--params", tmp_path / "missing.txt", "--out", out, "simulate"])
        assert rc == 2
        assert sorted(p.name for p in out.iterdir()) == ["precious.txt"]

    def test_blocked_write_names_its_key_and_leaves_no_staged_file(self, tmp_path, capsys):
        out = tmp_path / "blocked"
        (out / "policy_trajectory.csv.tmp").mkdir(parents=True)
        rc = _run(["--out", out, "compare", "--scenario", "adaptive_nudges"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: output_dir: ")
        assert "Traceback" not in err
        assert [p.name for p in out.iterdir()] == ["policy_trajectory.csv.tmp"]


class TestMonteCarloCommand:
    def test_mc_requires_seed(self, tmp_path, capsys):
        rc = _run(["--out", tmp_path / "mc", "mc", "--n-draws", "10"])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    def test_mc_outputs(self, tmp_path):
        out = tmp_path / "mc"
        rc = _run(["--out", out, "--seed", "42", "mc", "--scenario", "early_adherence",
                   "--n-draws", "50"])
        assert rc == 0
        header, rows = _read_csv(out / "draws.csv")
        assert header == ["draw_index", "delta", "total_cost", "roi_percent"]
        assert [int(r[0]) for r in rows] == list(range(50))
        summary = json.loads((out / "mc_summary.json").read_text())
        assert summary["n_draws"] == 50
        assert summary["master_seed"] == 42
        assert sorted(summary) == [
            "cost_mean", "cost_sd", "master_seed", "n_draws", "prob_roi_positive",
            "prob_roi_positive_se", "roi_mean", "roi_mean_se", "roi_quantiles", "roi_sd",
        ]
        assert list(summary["roi_quantiles"]) == ["0.05", "0.25", "0.5", "0.75", "0.95"]

    def test_point_mass_at_a_gain_of_one_prices_every_draw_as_compare(self, tmp_path, monkeypatch):
        # A gain of 1 is a point mass, as no Beta has mean 1; A0 = 0 leaves
        # room for it.
        params = tmp_path / "params.txt"
        params.write_text(reference_params_path().read_text().replace(
            "adherence_baseline_A0 = 0.55", "adherence_baseline_A0 = 0"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"params_file = {params}\nscenario = custom\npolicy.adherence_gain_delta = 1\nseed = 3\n")
        runs = []
        monkeypatch.setattr(cli, "run_monte_carlo", lambda *a: runs.append(run_monte_carlo(*a)) or runs[-1])
        assert _run(["--config", cfg, "--out", tmp_path / "mc", "mc", "--n-draws", "20"]) == 0
        assert _run(["--config", cfg, "--out", tmp_path / "compare", "compare"]) == 0
        [(_, draws)] = runs
        expected = json.loads((tmp_path / "compare" / "summary.json").read_text())["roi_percent"]
        assert draws["delta"].tolist() == [1.0] * 20
        assert draws["roi_percent"].tolist() == [expected] * 20
        _, rows = _read_csv(tmp_path / "mc" / "draws.csv")
        assert [row[1] for row in rows] == ["1"] * 20

    def test_workers_flag_is_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            _run(["--out", tmp_path / "mc", "--seed", "1", "mc", "--n-draws", "5", "--workers", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --workers 2" in err
        assert "Traceback" not in err
        assert not (tmp_path / "mc").exists()


class TestStressCommand:
    def test_paired_results(self, tmp_path):
        out = tmp_path / "st"
        rc = _run(["--out", out, "stress", "--scenario", "early_adherence",
                   "--kind", "cost_inflation"])
        assert rc == 0
        header, rows = _read_csv(out / "stress_summary.csv")
        assert header[:4] == ["stress_kind", "stress_value",
                              "roi_unstressed_percent", "roi_stressed_percent"]
        row = rows[0]
        assert row[0] == "cost_inflation"
        assert float(row[1]) == 1.2
        assert float(row[3]) < float(row[2])

    @staticmethod
    def _direct(params, policy, kind, value):
        """(ROI, cost) from simulating both stressed arms."""
        base = simulate_trajectory(params, apply_stress(build_preset("baseline"), kind, value))
        cost = simulate_trajectory(params, apply_stress(policy, kind, value)).final_cost
        return roi(base.final_cost, cost), cost

    @pytest.mark.parametrize("kind, value", [
        (StressKind.COST_INFLATION, 1.0), (StressKind.COST_INFLATION, 1.2),
        (StressKind.COST_INFLATION, 1.37), (StressKind.ACCELERATED_PROGRESSION, 0.7),
        (StressKind.ACCELERATED_PROGRESSION, 0.85), (StressKind.ACCELERATED_PROGRESSION, 1.0),
    ])
    @pytest.mark.parametrize("name", POLICY_PRESETS)
    def test_stressed_pair_equals_direct_runs(self, ref_params, name, kind, value):
        policy, stresses = build_preset(name), ((kind, value),)
        [pairs] = stress_pairs(ref_params, [policy], stresses)
        assert pairs[kind.value] == self._direct(ref_params, policy, kind, value)
        base = simulate_trajectory(ref_params, build_preset("baseline")).final_cost
        cost = simulate_trajectory(ref_params, policy).final_cost
        assert pairs["unstressed"] == (roi(base, cost), cost)

    def test_stress_family_equals_direct_runs(self, ref_params, tmp_path):
        out = tmp_path / "plots"
        assert _run(["--out", out, "export-plots", "--family", "stress"]) == 0
        stresses = ((StressKind.COST_INFLATION, 1.2), (StressKind.ACCELERATED_PROGRESSION, 0.85))
        unstressed = (StressKind.COST_INFLATION, 1.0)
        for name in POLICY_PRESETS:
            policy = build_preset(name)
            expected = csv_bytes(
                ["stress_kind", "roi_unstressed_percent", "roi_stressed_percent"],
                [[kind.value for kind, _ in stresses],
                 [self._direct(ref_params, policy, *unstressed)[0]] * len(stresses),
                 [self._direct(ref_params, policy, kind, value)[0] for kind, value in stresses]],
            )
            assert (out / f"stress_{name}.csv").read_bytes() == expected

    def test_requires_kind(self, tmp_path, capsys):
        rc = _run(["--out", tmp_path / "st", "stress"])
        assert rc == 2
        assert "stress_kind" in capsys.readouterr().err


class TestConfigFile:
    def test_run_from_config_document(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out"
        cfg.write_text(
            f"params_file = {reference_params_path()}\n"
            "scenario = early_adherence\n"
            "mode = compare\n"
            f"output_dir = {out}\n"
        )
        assert _run(["--config", cfg, "compare"]) == 0
        assert (out / "summary.json").exists()

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out_cfg, out_flag = tmp_path / "from_cfg", tmp_path / "from_flag"
        cfg.write_text(
            f"params_file = {reference_params_path()}\n"
            "scenario = baseline\n"
            "mode = simulate\n"
            f"output_dir = {out_cfg}\n"
        )
        assert _run(["--config", cfg, "--out", out_flag, "simulate"]) == 0
        assert out_flag.exists() and not out_cfg.exists()

    @pytest.mark.parametrize("mode, flags, output", [
        ("mc", ["--seed", "3", "mc", "--n-draws", "5"], "draws.csv"),
        ("sweep", ["sweep", "--delta-axis", "0.2,0.3", "--gamma-axis", "1.0"], "roi_grid.csv"),
    ], ids=["mc", "sweep"])
    def test_flags_complete_config(self, tmp_path, mode, flags, output):
        # The document lacks keys its mode requires; the flags supply them.
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out"
        cfg.write_text(
            f"params_file = {reference_params_path()}\n"
            "scenario = early_adherence\n"
            f"mode = {mode}\n"
            f"output_dir = {out}\n"
        )
        assert _run(["--config", cfg] + flags) == 0
        assert (out / output).exists()

    @pytest.mark.parametrize("mode, command", [("mc", "simulate"), ("simulate", "compare"), ("bogus", "simulate")])
    def test_document_mode_other_than_the_sub_command_is_rejected(self, tmp_path, capsys, mode, command):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out"
        cfg.write_text(
            f"params_file = {reference_params_path()}\n"
            "scenario = early_adherence\n"
            f"mode = {mode}\n"
            f"output_dir = {out}\n"
            "seed = 1\n"
            "n_draws = 5\n"
        )
        assert _run(["--config", cfg, command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: mode: ") and err.count("\n") == 1
        assert not out.exists()

    def test_out_supplies_output_dir_the_config_leaves_out(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out"
        cfg.write_text(f"params_file = {reference_params_path()}\nscenario = baseline\nmode = simulate\n")
        assert _run(["--config", cfg, "--out", out, "simulate"]) == 0
        assert (out / "trajectory.csv").exists()

    def test_authoring_rejects_overfull_adherence(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"params_file = {reference_params_path()}\n"
            "scenario = early_adherence\n"
            "mode = simulate\n"
            f"output_dir = {tmp_path / 'x'}\n"
            "policy.adherence_gain_delta = 0.6\n"
        )
        rc = _run(["--config", cfg, "simulate"])
        assert rc == 2
        assert "exceeds 1" in capsys.readouterr().err


class TestInputErrors:
    """Malformed input ends in 'error: <key>: <reason>' and exit code 2."""

    @staticmethod
    def _config(tmp_path, mode="simulate", extra=""):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"params_file = {reference_params_path()}\n"
            "scenario = baseline\n"
            f"mode = {mode}\n"
            f"output_dir = {tmp_path / 'out'}\n" + extra
        )
        return cfg

    @pytest.mark.parametrize("mode, extra, expected", [
        ("simulate", "policy.cost_scale_gamma = abc\n", "policy.cost_scale_gamma: expected a number"),
        ("mc", "seed = 1\nn_draws = two\n", "n_draws: expected an integer"),
        ("stress", "stress_kind = cost_inflation\nstress_value = big\n", "stress_value: expected a number"),
        ("mc", "seed = 1\nn_draws = 5\nn_workers = 2\n", "n_workers: unknown key;"),
        # A Beta of mean 0.001 cannot have sd 0.05.
        ("mc", "seed = 1\nn_draws = 5\npolicy.adherence_gain_delta = 0.001\n",
         "adherence_gain_delta: 0.001 is too close to 0 or 1 for a Beta draw with sd 0.05\n"),
    ], ids=["policy_field", "n_draws", "stress_value", "n_workers", "gain_without_a_beta"])
    def test_config_value_names_its_key(self, tmp_path, capsys, mode, extra, expected):
        rc = _run(["--config", self._config(tmp_path, mode, extra), mode])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {expected}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra, expected", [
        ("policy.start_tau = -1\n", "policy.start_tau: must be >= 0"),
        ("policy.adherence_gain_delta = 1.5\n", "policy.adherence_gain_delta: must be in [0, 1]"),
        ("policy.inflation_factor = nan\n", "policy.inflation_factor: must be finite, got nan"),
        ("policy.progression_compression = inf\n", "policy.progression_compression: must be finite, got inf"),
    ], ids=["negative_tau", "gain_above_one", "nan_inflation", "infinite_compression"])
    def test_out_of_range_override_names_its_key(self, tmp_path, capsys, extra, expected):
        rc = _run(["--config", self._config(tmp_path, "simulate", extra), "simulate"])
        assert rc == 2
        assert f"error: {expected}\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args, expected", [
        (["--seed", "-5", "mc", "--n-draws", "5"], "seed: must be >= 0"),
        (["--seed", "1", "export-plots", "--family", "mc", "--n-draws", "0"], "n_draws: must be >= 1"),
        (["--config", "nonexistent.cfg", "export-plots", "--family", "severity"],
         "config: export-plots reads no run configuration"),
        (["--seed", "-5", "export-plots", "--family", "severity"], "seed: must be >= 0"),
        (["export-plots", "--family", "mc", "--n-draws", "5"], "seed: the mc family requires a seed"),
        (["--seed", "1", "export-plots", "--family", "mc"], "n_draws: the mc family requires a draw count"),
        (["export-plots", "--family", "severity", "--n-draws", "0"], "n_draws: must be >= 1"),
        (["--seed", "1", "mc", "--n-draws", str(10**30)], "n_draws: must be <= 1000000"),
        (["--seed", "1", "export-plots", "--family", "mc", "--n-draws", "1000001"], "n_draws: must be <= 1000000"),
        (["breakeven", "--delta-axis", "nan"], "delta_axis: values must be finite"),
        (["breakeven", "--delta-axis", "inf"], "delta_axis: values must be finite"),
        (["breakeven", "--delta-axis", "0.1,nan"], "delta_axis: values must be finite"),
        (["breakeven", "--delta-axis", "1.5"], "delta_axis: values must be in [0, 1]"),
        (["sweep", "--delta-axis", "0.2,1.5", "--gamma-axis", "1.0"], "delta_axis: values must be in [0, 1]"),
        (["sweep", "--delta-axis", "0.2", "--gamma-axis", "1.0,nan"], "gamma_axis: values must be finite"),
        (["stress", "--kind", "cost_inflation", "--value", "0.9"], "stress_value: must be >= 1"),
        (["stress", "--kind", "accelerated_progression", "--value", "nan"], "stress_value: must be finite, got nan"),
    ], ids=["negative_seed", "zero_plot_draws", "plots_with_config",
            "plots_negative_seed", "plots_mc_without_seed", "plots_mc_without_draws", "plots_zero_draws",
            "oversize_draws", "plots_oversize_draws",
            "breakeven_nan_delta", "breakeven_inf_delta", "breakeven_trailing_nan_delta",
            "breakeven_delta_above_one", "sweep_delta_above_one", "sweep_nan_gamma",
            "deflating_stress", "nan_compression"])
    def test_flag_value_names_its_key(self, tmp_path, capsys, args, expected):
        out = tmp_path / "out"
        rc = _run(["--out", out] + args)
        assert rc == 2
        assert f"error: {expected}" in capsys.readouterr().err
        assert not out.exists()

    # int and float read digit-group underscores and non-ASCII digits; no key does.
    @pytest.mark.parametrize("args, expected", [
        (["--seed", "1_0", "mc", "--n-draws", "\uff15"], "seed: expected an integer, got '1_0'"),
        (["--seed", "10", "mc", "--n-draws", "\uff15"], "n_draws: expected an integer, got '\uff15'"),
        (["--seed", "1", "export-plots", "--family", "mc", "--n-draws", "2_0"], "n_draws: expected an integer"),
        (["stress", "--kind", "cost_inflation", "--value", "1_5"], "stress_value: expected a number"),
        (["sweep", "--delta-axis", "0.1,0.\u0663", "--gamma-axis", "1"], "delta_axis: expected a list of numbers"),
        (["sweep", "--delta-axis", "0.1", "--gamma-axis", "1_0"], "gamma_axis: expected a list of numbers"),
    ], ids=["grouped_seed", "fullwidth_draws", "plots_grouped_draws", "grouped_stress_value",
            "arabic_indic_delta", "grouped_gamma"])
    def test_grouped_or_non_ascii_digits_name_their_key(self, tmp_path, capsys, args, expected):
        out = tmp_path / "out"
        rc = _run(["--out", out] + args)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {expected}")
        assert "Traceback" not in err
        assert not out.exists()

    def test_grouped_override_names_its_key(self, tmp_path, capsys):
        rc = _run(["--config", self._config(tmp_path, "simulate", "policy.start_tau = 1_0\n"), "simulate"])
        assert rc == 2
        assert "error: policy.start_tau: expected a number, got '1_0'\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _params_with(tmp_path, line):
        """The reference parameter file with ``line`` in place of its key's line."""
        key = line.partition(" ")[0]
        text = "".join(line + "\n" if old.startswith(key + " ") else old + "\n"
                       for old in reference_params_path().read_text().splitlines())
        params = tmp_path / "params.txt"
        params.write_text(text)
        return params

    @pytest.mark.parametrize("line, args, expected", [
        ("disease_cost_alpha = 1e308", ["simulate"], "cumulative_cost: row 264 is inf"),
        # R overflows on the first panel; the logit is inf - inf once eta * delta * S
        # does too, 1.2 years after early_adherence's tau.
        ("disease_steepness_k = 1e308", ["simulate"], "severity: row 321 is nan"),
        ("policy_unit_cost = 1e308", ["export-plots", "--family", "cost"], "value: row "),
        ("disease_cost_alpha = 1e308", ["breakeven", "--delta-axis", "0.1"], "cost_baseline: must be finite, got inf"),
        ("disease_cost_alpha = 1e308", ["compare"], "cost_baseline: must be finite, got inf"),
        ("policy_unit_cost = 1e308", ["breakeven", "--delta-axis", "0.1,0.3"], "cost_policy: slope dC/dgamma must"),
        ("policy_unit_cost = 1e308", ["sweep", "--delta-axis", "0.1,0.3", "--gamma-axis", "0"],
         "cost_policy: slope dC/dgamma must"),
        ("baseline_cost_C0 = 1e308", ["--seed", "1", "mc", "--n-draws", "50"], "cost_mean: must be finite, got inf"),
    ], ids=["simulate_cost", "simulate_severity", "plotted_cost", "breakeven", "compare", "breakeven_slope",
            "sweep_slope", "mc_summary"])
    def test_outputs_out_of_the_float_range_name_their_column(self, tmp_path, capsys, line, args, expected):
        out = tmp_path / "out"
        rc = _run(["--params", self._params_with(tmp_path, line), "--out", out] + args)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {expected}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("line, args", [
        # rho * t overflows past t = 0, and exp(-inf) = 0 discounts every later cost to 0.
        ("discount_rate_rho = 1e308", ["simulate"]),
        ("discount_rate_rho = 1e308", ["compare"]),
        # Each cost is finite, and so is each ROI; only the mean cost of the
        # mc_summary case above overflows, and the family writes no summary.
        ("baseline_cost_C0 = 1e308", ["--seed", "1", "export-plots", "--family", "mc", "--n-draws", "50"]),
    ], ids=["simulate", "compare", "mc_family"])
    def test_an_overflow_that_reaches_no_output_is_no_error(self, tmp_path, capsys, line, args):
        out = tmp_path / "out"
        assert _run(["--params", self._params_with(tmp_path, line), "--out", out] + args) == 0
        assert capsys.readouterr().err == ""
        assert (out / "manifest.json").exists()

    def test_off_grid_horizon_names_its_key(self, tmp_path, capsys):
        params = tmp_path / "params.txt"
        params.write_text(reference_params_path().read_text().replace("horizon_T = 10.0", "horizon_T = 10.005"))
        rc = _run(["--params", params, "--out", tmp_path / "out", "simulate"])
        assert rc == 2
        assert "error: horizon_T: must be a whole number of 1/100-year steps, got 10.005" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_oversize_horizon_names_its_key(self, tmp_path, capsys):
        params = tmp_path / "params.txt"
        params.write_text(reference_params_path().read_text().replace("horizon_T = 10.0", "horizon_T = 1e30"))
        rc = _run(["--params", params, "--out", tmp_path / "out", "simulate"])
        assert rc == 2
        assert capsys.readouterr().err == "error: horizon_T: must be <= 1000\n"
        assert not (tmp_path / "out").exists()

    def test_out_of_range_parameter_names_its_key(self, tmp_path, capsys):
        params = tmp_path / "params.txt"
        params.write_text(reference_params_path().read_text().replace("discount_rate_rho = 0.03",
                                                                      "discount_rate_rho = -1"))
        rc = _run(["--params", params, "--out", tmp_path / "out", "simulate"])
        assert rc == 2
        assert capsys.readouterr().err == "error: discount_rate_rho: must be >= 0\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [
        ["simulate", "--scenario", "delayed"],
    ], ids=["simulate"])
    def test_start_past_horizon_names_its_key(self, tmp_path, capsys, args):
        params = tmp_path / "params.txt"
        params.write_text(reference_params_path().read_text().replace("horizon_T = 10.0", "horizon_T = 3.0"))
        rc = _run(["--params", params, "--out", tmp_path / "out"] + args)
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: start_tau: 5.0 lies beyond horizon_T 3.0\n"
        assert not (tmp_path / "out").exists()

    def test_preset_starting_past_horizon_plots_as_no_policy_arm(self, tmp_path):
        # The delayed preset starts at tau = 5: at a 3-year horizon it never starts.
        params = tmp_path / "params.txt"
        params.write_text(reference_params_path().read_text().replace("horizon_T = 10.0", "horizon_T = 3.0"))
        out = tmp_path / "out"
        assert _run(["--params", params, "--out", out, "export-plots", "--family", "severity"]) == 0
        assert len(list(out.glob("severity_*.csv"))) == 7
        assert (out / "severity_delayed.csv").read_bytes() == (out / "severity_baseline.csv").read_bytes()

    @pytest.mark.parametrize("flag, value, expected", [
        ("--out", "run#3", "output_dir: must not contain '#'"),
        ("--out", "run ", "output_dir: must not begin or end with whitespace"),
        ("--out", " run", "output_dir: must not begin or end with whitespace"),
        ("--params", "ref#1.txt", "params_file: must not contain '#'"),
        ("--params", "ref\nscenario = delayed", "params_file: must be one non-empty line"),
    ], ids=["out_hash", "out_trailing_space", "out_leading_space", "params_hash", "params_newline"])
    def test_path_a_config_line_cannot_carry(self, tmp_path, capsys, monkeypatch, flag, value, expected):
        monkeypatch.chdir(tmp_path)
        args = ["--out", "out", "simulate"] if flag == "--params" else ["simulate"]
        rc = _run([flag, value] + args)
        assert rc == 2
        assert f"error: {expected}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, name, content, expected", [
        ("--config", "missing.cfg", None, "config: {} does not exist"),
        ("--params", "", None, "params_file: cannot read {}: Is a directory"),
        ("--params", "latin1.txt", b"# caf\xe9\n",
         "params_file: {} is not UTF-8 text (invalid continuation byte at byte 5)"),
    ], ids=["missing_config", "params_directory", "params_not_utf8"])
    def test_unreadable_input_names_its_key(self, tmp_path, capsys, flag, name, content, expected):
        path = tmp_path / name
        if content is not None:
            path.write_bytes(content)
        rc = _run([flag, path, "--out", tmp_path / "out", "simulate"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {expected.format(path)}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [["simulate"], ["export-plots", "--family", "severity"]],
                             ids=["run", "export_plots"])
    def test_out_naming_a_file_names_its_key(self, tmp_path, capsys, args):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        assert _run(["--out", taken] + args) == 2
        assert capsys.readouterr().err == f"error: output_dir: cannot create {taken}: File exists\n"
        assert taken.read_text() == "kept\n"

    def test_scenario_flag_overrides_config(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        assert _run(["--config", cfg, "simulate", "--scenario", "delayed"]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert "scenario = delayed" in manifest["config_echo"]
        rc = _run(["--config", cfg, "simulate", "--scenario", "bogus"])
        assert rc == 2
        assert "error: scenario: unknown name 'bogus'" in capsys.readouterr().err


class TestParserReuse:
    """One parser serves every call in a process and keeps nothing between them."""

    def test_seed_of_one_call_does_not_reach_the_next(self, tmp_path, capsys):
        assert _run(["--out", tmp_path / "a", "--seed", "5", "mc", "--n-draws", "5"]) == 0
        capsys.readouterr()
        assert _run(["--out", tmp_path / "b", "mc", "--n-draws", "5"]) == 2
        assert "error: seed: required by mode mc" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_argument_error_leaves_the_parser_usable(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            _run(["--out", tmp_path / "a", "stress", "--kind"])
        assert exc.value.code == 2
        assert _run(["--out", tmp_path / "b", "stress", "--kind", "cost_inflation"]) == 0
        assert (tmp_path / "b" / "stress_summary.csv").exists()


@pytest.mark.parametrize("args, message", [
    (["stress", "--kind", "bogus"],
     "error: stress_kind: unknown kind 'bogus'; valid: cost_inflation, accelerated_progression\n"),
    (["export-plots", "--family", "bogus"],
     "error: family: unknown figure family 'bogus'; valid: severity, adherence, cost, mc, stress\n"),
])
def test_unknown_kind_or_family_names_its_key(tmp_path, capsys, args, message):
    out = tmp_path / "out"
    assert _run(["--out", out, *args]) == 2
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize("with_config", [False, True], ids=["bare", "config"])
def test_missing_sub_command_names_its_key(tmp_path, capsys, with_config):
    # A document's mode does not stand in for the sub-command.
    cfg = tmp_path / "doc.txt"
    cfg.write_text(f"params_file = {reference_params_path()}\nscenario = baseline\nmode = simulate\n")
    out = tmp_path / "out"
    assert _run(["--out", out] + (["--config", cfg] if with_config else [])) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: command: a sub-command is required; "
                            "valid: simulate, compare, sweep, breakeven, mc, stress, export-plots\n")
    assert captured.out == ""
    assert not out.exists()


class TestExportPlots:
    def test_severity_family(self, tmp_path):
        out = tmp_path / "plots"
        rc = _run(["--out", out, "export-plots", "--family", "severity"])
        assert rc == 0
        curves = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert len(curves) == 7
        assert "severity_baseline_decaying.csv" in curves
        for name in curves:
            _, rows = _read_csv(out / name)
            assert len(rows) == 1001

    def test_cost_family_final_values(self, tmp_path):
        out = tmp_path / "plots"
        assert _run(["--out", out, "export-plots", "--family", "cost"]) == 0
        _, rows = _read_csv(out / "cost_early_adherence.csv")
        assert float(rows[-1][1]) == pytest.approx(3602.33, abs=0.5)
        _, rows = _read_csv(out / "cost_low_impact.csv")
        assert float(rows[-1][1]) > 4600.0

    def test_mc_family_counts_conserved(self, tmp_path):
        out = tmp_path / "plots"
        rc = _run(["--out", out, "--seed", "5", "export-plots", "--family", "mc",
                   "--n-draws", "60"])
        assert rc == 0
        for name in ("early_adherence", "low_impact"):
            _, rows = _read_csv(out / f"mc_hist_{name}.csv")
            assert sum(int(r[2]) for r in rows) == 60

    @pytest.mark.parametrize("n", [1, 9, 80])
    def test_mc_family_bins_each_presets_run_monte_carlo(self, tmp_path, ref_params, n):
        out = tmp_path / "plots"
        assert _run(["--out", out, "--seed", "5", "export-plots", "--family", "mc", "--n-draws", n]) == 0
        for name in POLICY_PRESETS:
            policy = build_preset(name)
            _, draws = run_monte_carlo(ref_params, policy, _default_mc_spec(policy.adherence_gain_delta), n, 5)
            assert (out / f"mc_hist_{name}.csv").read_bytes() == histogram_csv(draws["roi_percent"])

    def test_mc_family_draws_once_per_spec_and_runs_one_baseline(self, tmp_path, monkeypatch):
        # Four presets share the gain 0.3, so two specs cover the five presets.
        calls = {"draw_deltas": 0, "baseline_cost": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(cli, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(cli, name, counted)
        assert _run(["--out", tmp_path / "plots", "--seed", "5", "export-plots", "--family", "mc",
                     "--n-draws", "4"]) == 0
        assert calls == {"draw_deltas": 2, "baseline_cost": 1}

    def test_stress_family(self, tmp_path):
        out = tmp_path / "plots"
        assert _run(["--out", out, "export-plots", "--family", "stress"]) == 0
        header, rows = _read_csv(out / "stress_early_adherence.csv")
        assert header == ["stress_kind", "roi_unstressed_percent", "roi_stressed_percent"]
        assert {r[0] for r in rows} == {"cost_inflation", "accelerated_progression"}

    @pytest.mark.parametrize("family, x_axis, y_axis, curves", [
        ("severity", "time (years)", "disease severity", None),
        ("adherence", "time (years)", "adherence fraction", None),
        ("cost", "time (years)", "cumulative discounted cost (dollars)", None),
        ("mc", "roi_percent bins", "draw count", [f"mc_hist_{name}.csv" for name in POLICY_PRESETS]),
        ("stress", "stress kind", "roi_percent", [f"stress_{name}.csv" for name in POLICY_PRESETS]),
    ])
    def test_manifest_meta_line(self, tmp_path, family, x_axis, y_axis, curves):
        if curves is None:
            curves = [f"{family}_{name}.csv" for name in PRESET_NAMES + ("baseline_decaying",)]
        out = tmp_path / "plots"
        assert _run(["--out", out, "--seed", "2", "export-plots", "--family", family, "--n-draws", "8"]) == 0
        echo = json.loads((out / "manifest.json").read_text())["config_echo"].splitlines()
        meta = {"family": family, "x_axis": x_axis, "y_axis": y_axis, "curves": sorted(curves)}
        assert echo[-1] == f"meta = {json.dumps(meta, sort_keys=True)}"

    def test_unread_seed_and_draws_leave_the_manifest_unchanged(self, tmp_path):
        plain, seeded = tmp_path / "plain", tmp_path / "seeded"
        assert _run(["--out", plain, "export-plots", "--family", "severity"]) == 0
        assert _run(["--out", seeded, "--seed", 3, "export-plots", "--family", "severity",
                     "--n-draws", 4]) == 0
        assert (plain / "manifest.json").read_bytes() == (seeded / "manifest.json").read_bytes()

    def test_seed_required_by_the_mc_family_only(self, tmp_path, capsys):
        rc = _run(["--out", tmp_path / "x", "export-plots", "--family", "severity",
                   "--n-draws", "10"])
        assert rc == 0  # extra n-draws is harmless for severity
        rc = main(["--out", str(tmp_path / "y"), "export-plots", "--family", "mc"])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    def test_unknown_family_rejected(self, tmp_path):
        # A family outside the five must not fall through to the stress
        # family's files.
        out = tmp_path / "x"
        with pytest.raises(ValueError) as exc:
            export_plots(str(reference_params_path()), family="bogus", output_dir=str(out))
        assert str(exc.value) == ("family: unknown figure family 'bogus'; valid: "
                                  "severity, adherence, cost, mc, stress")
        assert not out.exists()
