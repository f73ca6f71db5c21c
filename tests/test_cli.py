import hashlib
import json
from pathlib import Path

import pytest

from adhersim.cli import main
from adhersim.params import reference_params_path


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
        assert (out / "breakeven.csv").exists()

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

    def test_workers_do_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "w1", tmp_path / "w8"
        base = ["--seed", "9", "mc", "--scenario", "early_adherence", "--n-draws", "40"]
        assert _run(["--out", a] + base + ["--workers", "1"]) == 0
        assert _run(["--out", b] + base + ["--workers", "8"]) == 0
        assert (a / "draws.csv").read_bytes() == (b / "draws.csv").read_bytes()
        assert (a / "mc_summary.json").read_bytes() == (b / "mc_summary.json").read_bytes()


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
        ("mc", "seed = 1\nn_draws = 5\nn_workers = two\n", "n_workers: expected an integer"),
        ("stress", "stress_kind = cost_inflation\nstress_value = big\n", "stress_value: expected a number"),
    ], ids=["policy_field", "n_workers", "stress_value"])
    def test_config_value_names_its_key(self, tmp_path, capsys, mode, extra, expected):
        rc = _run(["--config", self._config(tmp_path, mode, extra), mode])
        assert rc == 2
        assert f"error: {expected}" in capsys.readouterr().err

    @pytest.mark.parametrize("args, expected", [
        (["--seed", "-5", "mc", "--n-draws", "5"], "seed: must be >= 0"),
        (["--seed", "1", "export-plots", "--family", "mc", "--n-draws", "0"], "n_draws: must be >= 1"),
        (["--config", "nonexistent.cfg", "export-plots", "--family", "severity"],
         "config: export-plots reads no run configuration"),
        (["--seed", "-5", "export-plots", "--family", "severity"], "seed: must be >= 0"),
        (["export-plots", "--family", "mc", "--n-draws", "5"], "seed: the mc family requires a seed"),
        (["--seed", "1", "export-plots", "--family", "mc"], "n_draws: the mc family requires a draw count"),
        (["breakeven", "--delta-axis", "nan"], "delta_axis: values must be finite"),
        (["breakeven", "--delta-axis", "inf"], "delta_axis: values must be finite"),
        (["breakeven", "--delta-axis", "0.1,nan"], "delta_axis: values must be finite"),
        (["breakeven", "--delta-axis", "1.5"], "delta_axis: values must be in [0, 1]"),
        (["sweep", "--delta-axis", "0.2,1.5", "--gamma-axis", "1.0"], "delta_axis: values must be in [0, 1]"),
        (["sweep", "--delta-axis", "0.2", "--gamma-axis", "1.0,nan"], "gamma_axis: values must be finite"),
    ], ids=["negative_seed", "zero_plot_draws", "plots_with_config",
            "plots_negative_seed", "plots_mc_without_seed", "plots_mc_without_draws",
            "breakeven_nan_delta", "breakeven_inf_delta", "breakeven_trailing_nan_delta",
            "breakeven_delta_above_one", "sweep_delta_above_one", "sweep_nan_gamma"])
    def test_flag_value_names_its_key(self, tmp_path, capsys, args, expected):
        out = tmp_path / "out"
        rc = _run(["--out", out] + args)
        assert rc == 2
        assert f"error: {expected}" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_workers_rejected(self, tmp_path, capsys):
        rc = _run(["--out", tmp_path / "mc", "--seed", "1", "mc", "--n-draws", "5", "--workers", "0"])
        assert rc == 2
        assert "error: n_workers: must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "mc").exists()

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
        assert "error: mode=mc requires key: seed" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_argument_error_leaves_the_parser_usable(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            _run(["--out", tmp_path / "a", "stress", "--kind", "bogus"])
        assert exc.value.code == 2
        assert _run(["--out", tmp_path / "b", "stress", "--kind", "cost_inflation"]) == 0
        assert (tmp_path / "b" / "stress_summary.csv").exists()


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

    def test_stress_family(self, tmp_path):
        out = tmp_path / "plots"
        assert _run(["--out", out, "export-plots", "--family", "stress"]) == 0
        header, rows = _read_csv(out / "stress_early_adherence.csv")
        assert header == ["stress_kind", "roi_unstressed_percent", "roi_stressed_percent"]
        assert {r[0] for r in rows} == {"cost_inflation", "accelerated_progression"}

    def test_unknown_family_rejected(self, tmp_path, capsys):
        rc = _run(["--out", tmp_path / "x", "export-plots", "--family", "severity",
                   "--n-draws", "10"])
        assert rc == 0  # extra n-draws is harmless for severity
        rc = main(["--out", str(tmp_path / "y"), "export-plots", "--family", "mc"])
        assert rc == 2
        assert "seed" in capsys.readouterr().err
