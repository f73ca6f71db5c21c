"""CSV / JSON result files and the run manifest.

Numbers are written with 6 significant digits (round-half-even, the float
formatting default) so golden files stay stable across platforms.  A run
stages every payload, then renames into place and writes the manifest last,
so a failed run leaves the output directory unchanged.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analytics import RoiGrid, CONTOUR_LEVELS_DESIGN, CONTOUR_LEVELS_SIGN
from .costmodel import Trajectory, simulate_trajectory
from .montecarlo import McSummary
from .params import ModelParams
from .scenarios import DEFAULT_BASELINE_DECAY, PRESET_NAMES, build_preset

PLOT_FAMILIES = ("severity", "adherence", "cost", "mc", "stress")


def fmt(x: float) -> str:
    """6 significant digits, round-half-even."""
    return format(float(x), ".6g")


def csv_bytes(header: list[str], rows: list[list]) -> bytes:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) if isinstance(v, (int, float, np.floating)) and not isinstance(v, bool) else str(v) for v in row))
    return ("\n".join(lines) + "\n").encode()


def trajectory_csv(traj: Trajectory) -> bytes:
    header = ["time", "adherence", "severity", "policy_cost", "instantaneous_cost", "cumulative_cost"]
    rows = [
        [traj.times[i], traj.adherence[i], traj.severity[i],
         traj.policy_cost[i], traj.instantaneous_cost[i], traj.cumulative_cost[i]]
        for i in range(len(traj.times))
    ]
    return csv_bytes(header, rows)


def roi_grid_csv(grid: RoiGrid) -> bytes:
    """Row-major by delta then gamma: header delta,gamma,roi_percent,total_cost."""
    rows = []
    for i, d in enumerate(grid.delta_axis):
        for j, g in enumerate(grid.gamma_axis):
            rows.append([d, g, grid.roi_percent[i, j], grid.total_cost[i, j]])
    return csv_bytes(["delta", "gamma", "roi_percent", "total_cost"], rows)


def breakeven_csv(deltas, gammas) -> bytes:
    rows = [[d, "" if g is None else fmt(g)] for d, g in zip(deltas, gammas)]
    return csv_bytes(["delta", "gamma_star"], rows)


def contours_json() -> bytes:
    payload = {
        "roi_grid_file": "roi_grid.csv",
        "levels_sign_bands": list(CONTOUR_LEVELS_SIGN),
        "levels_design_space": list(CONTOUR_LEVELS_DESIGN),
        "units": "roi_percent",
    }
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def mc_summary_json(summary: McSummary) -> bytes:
    return (json.dumps(summary.as_dict(), indent=2, sort_keys=True) + "\n").encode()


def draws_csv(draws: np.ndarray) -> bytes:
    rows = [[int(r["draw_index"]), r["delta"], r["total_cost"], r["roi_percent"]] for r in draws]
    return csv_bytes(["draw_index", "delta", "total_cost", "roi_percent"], rows)


def histogram_csv(values: np.ndarray, n_bins: int = 40) -> bytes:
    counts, edges = np.histogram(np.asarray(values, dtype=float), bins=n_bins)
    rows = [[edges[i], edges[i + 1], int(counts[i])] for i in range(len(counts))]
    return csv_bytes(["bin_left", "bin_right", "count"], rows)


def _curve_csv(times: np.ndarray, values: np.ndarray) -> bytes:
    return csv_bytes(["time", "value"], [[times[i], values[i]] for i in range(len(times))])


def plot_family_files(
    params: ModelParams,
    family: str,
    mc_results: dict[str, tuple[McSummary, np.ndarray]] | None = None,
    stress_rois: dict[str, dict[str, float]] | None = None,
) -> tuple[dict[str, bytes], dict]:
    """Files plus axis metadata for one figure family.

    severity / adherence / cost: one curve file per preset plus the
    decaying-baseline counterfactual, 1001 rows each on the canonical grid.
    mc: one histogram file per scenario from the supplied raw draws.
    stress: one file per scenario with unstressed vs stressed ROI rows.
    """
    if family not in PLOT_FAMILIES:
        raise ValueError(f"unknown figure family {family!r}; valid: {', '.join(PLOT_FAMILIES)}")

    files: dict[str, bytes] = {}
    if family in ("severity", "adherence", "cost"):
        attr = {"severity": "severity", "adherence": "adherence", "cost": "cumulative_cost"}[family]
        curves: dict[str, Trajectory] = {
            name: simulate_trajectory(params, build_preset(name)) for name in PRESET_NAMES
        }
        decaying = replace(build_preset("baseline"), baseline_decay=DEFAULT_BASELINE_DECAY)
        curves["baseline_decaying"] = simulate_trajectory(params, decaying)
        for name, traj in curves.items():
            files[f"{family}_{name}.csv"] = _curve_csv(traj.times, getattr(traj, attr))
        meta = {
            "family": family,
            "x_axis": "time (years)",
            "y_axis": {
                "severity": "disease severity",
                "adherence": "adherence fraction",
                "cost": "cumulative discounted cost (dollars)",
            }[family],
            "curves": sorted(files),
        }
    elif family == "mc":
        if not mc_results:
            raise ValueError("mc family requires Monte Carlo results")
        for name, (summary, draws) in mc_results.items():
            files[f"mc_hist_{name}.csv"] = histogram_csv(draws["roi_percent"])
        meta = {
            "family": "mc",
            "x_axis": "roi_percent bins",
            "y_axis": "draw count",
            "curves": sorted(files),
        }
    else:  # stress
        if not stress_rois:
            raise ValueError("stress family requires stressed ROI results")
        for name, pair in stress_rois.items():
            rows = [
                [kind, pair["unstressed"], pair[kind]]
                for kind in ("cost_inflation", "accelerated_progression")
            ]
            files[f"stress_{name}.csv"] = csv_bytes(
                ["stress_kind", "roi_unstressed_percent", "roi_stressed_percent"], rows
            )
        meta = {
            "family": "stress",
            "x_axis": "stress kind",
            "y_axis": "roi_percent",
            "curves": sorted(files),
        }
    return files, meta


def write_run_outputs(output_dir: str | Path, files: dict[str, bytes], config_echo: str) -> list[str]:
    """Stage, rename, then manifest.  Returns the written file names."""
    from . import __version__

    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)

    staged: list[tuple[Path, Path]] = []
    for name, payload in files.items():
        tmp = out / (name + ".tmp")
        tmp.write_bytes(payload)
        staged.append((tmp, out / name))
    for tmp, final in staged:
        os.replace(tmp, final)

    manifest = {
        "engine_version": __version__,
        "config_echo": config_echo,
        "files": [
            {
                "name": name,
                "rows": _data_rows(payload),
                "checksum": hashlib.sha256(payload).hexdigest(),
            }
            for name, payload in sorted(files.items())
        ],
    }
    payload = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
    tmp = out / "manifest.json.tmp"
    tmp.write_bytes(payload)
    os.replace(tmp, out / "manifest.json")
    return sorted(files) + ["manifest.json"]


def _data_rows(payload: bytes) -> int:
    text = payload.decode()
    lines = [ln for ln in text.splitlines() if ln]
    if not lines:
        return 0
    if lines[0].startswith(("{", "[")):
        return 0  # JSON payloads carry no row count
    return max(len(lines) - 1, 0)
