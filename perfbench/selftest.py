"""Tests of the benchmark itself, kept out of the repository's default test run.

Run from the root of the repository:

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from metrics import END_TO_END, OVERHEAD, PER_LAYER

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"
sys.path.insert(0, str(run.SRC))


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload so one run takes a few seconds."""
    for name, value in dict(SWEEP_SIZE=3, BREAKEVEN_DELTAS=2, BREAKEVENS_PER_PRESET=1,
                            MC_DRAWS=4, MC_SEEDS_PER_PRESET=1, PLOT_MC_DRAWS=4).items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(run, "MIN_PASSES", {"design_space": 3, "mc_uncertainty": 5, "scenario_report": 1})
    monkeypatch.setattr(run, "TRACE_PASSES", 1)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(run, "WORK_DIR", tmp_path)


def bench(capsys, workload: str, seed: int = 3, trace: int = 0) -> tuple[dict, str]:
    """One run: its result line and its stderr."""
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]) == 0
    captured = capsys.readouterr()
    return json.loads(captured.out.strip().splitlines()[-1]), captured.err


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_is_correct_and_complete(tiny, capsys, workload):
    result, _ = bench(capsys, workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m.name: m.unit for m in END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_gives_same_ops_and_other_seeds_differ():
    for workload in workloads.WORKLOADS:
        assert workloads.make_pass(workload, 5, 2) == workloads.make_pass(workload, 5, 2)
    assert workloads.make_pass("design_space", 5, 2) != workloads.make_pass("design_space", 6, 2)
    assert workloads.make_pass("design_space", 5, 2) != workloads.make_pass("design_space", 5, 3)


def test_corrupted_breakeven_digit_counts_as_one_failed_op(tiny, capsys, monkeypatch):
    import adhersim.cli

    original = adhersim.cli.breakeven_csv
    calls = []

    def corrupt_first_call(deltas, gammas):
        payload = original(deltas, gammas)
        calls.append(payload)
        if len(calls) > 1:
            return payload
        header, first, rest = payload.decode().split("\n", 2)
        delta, gamma = first.split(",")
        bad = str((int(gamma[0]) + 1) % 10) + gamma[1:]  # alter the leading digit of gamma*
        return f"{header}\n{delta},{bad}\n{rest}".encode()

    monkeypatch.setattr(adhersim.cli, "breakeven_csv", corrupt_first_call)
    result, err = bench(capsys, "design_space")
    assert result["failed"] == 1 and not result["correct"]
    assert result["attempted"] > 1
    assert "breakeven.csv: ROI" in err  # caught by the root condition, not the checksum


def test_traced_counts_repeat_and_wrappers_reach_imported_copies(tiny, capsys):
    import adhersim.analytics
    import adhersim.costmodel
    import adhersim.scenarios

    counts = {m.name for m in PER_LAYER if m.unit in ("count", "arms/call", "ratio", "bytes")}
    first, _ = bench(capsys, "design_space", seed=11, trace=1)
    second, _ = bench(capsys, "design_space", seed=11, trace=1)
    assert first["failed"] == second["failed"] == 0
    assert set(first["metrics"]) == {m.name for m in PER_LAYER} | {OVERHEAD.name}
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    # adherence_array is reached only through costmodel's by-name import.
    assert first["metrics"]["scenarios.adherence_array.calls"]["value"] > 0
    assert first["metrics"]["analytics.arms_per_breakeven"]["value"] > 1
    # Uninstalled after the run: every by-name copy is the original again.
    assert adhersim.analytics.simulate_trajectory is adhersim.costmodel.simulate_trajectory
    assert not hasattr(adhersim.costmodel.simulate_trajectory, "__wrapped__")
    assert adhersim.costmodel.adherence_array is adhersim.scenarios.adherence_array


def test_benchmark_json_matches_metric_definitions():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in (*PER_LAYER, OVERHEAD)
    ]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    spec = json.loads(BENCHMARK_JSON.read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "design_space", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
