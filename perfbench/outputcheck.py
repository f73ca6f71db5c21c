"""Output checks for benchmark ops.

Each check uses only facts that hold for any seed and any correct engine:
the golden horizon costs, the manifest checksums, the break-even root
condition, and agreement of sampled output values with direct library calls
to the 6 significant digits the files carry.  ``Checker.check`` raises
``OutputError`` naming the first fact that fails.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from adhersim import analytics, costmodel, montecarlo, params, scenarios
from workloads import Op

GOLDEN_C10 = {"baseline": 3953.070036438873, "early_adherence": 3602.327065953738}
GOLDEN_RTOL = 1e-9
STRESS_DEFAULTS = {"cost_inflation": 1.2, "accelerated_progression": 0.85}
GRID_ROWS = 1001  # 10-year horizon at 100 steps per year
SWEEP_SAMPLES = 4


class OutputError(Exception):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise OutputError(what)


def same6(text: str, value: float) -> bool:
    """True when ``text`` is ``value`` rounded to 6 significant digits."""
    x = float(text)
    if value == 0.0:
        return x == 0.0
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 5)
    return abs(x - value) <= half_unit * (1.0 + 1e-9)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=GOLDEN_RTOL, abs_tol=0.0)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:] if ln]


def check_manifest(out: Path) -> None:
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {f["name"]: f["checksum"] for f in manifest["files"]}
    present = {p.name for p in out.iterdir()} - {"manifest.json"}
    _require(set(listed) == present, f"manifest lists {sorted(listed)}, directory holds {sorted(present)}")
    for name, digest in listed.items():
        _require(hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, f"{name}: checksum mismatch")


class Checker:
    """Verifies op outputs against direct library calls on the reference parameters."""

    def __init__(self) -> None:
        self.params = params.reference_params()
        self.c_base = costmodel.simulate_trajectory(self.params, scenarios.build_preset("baseline")).final_cost
        _require(_close(self.c_base, GOLDEN_C10["baseline"]), f"library baseline C(10) {self.c_base!r} != golden")
        self.roi_tol = getattr(analytics, "BREAKEVEN_ROI_TOL", 0.01)

    def policy(self, op: Op, **changes) -> scenarios.PolicyConfig:
        policy = scenarios.build_preset(op.scenario)
        if op.gamma is not None:
            changes.setdefault("cost_scale_gamma", op.gamma)
        return dataclasses.replace(policy, **changes)

    def cost(self, policy: scenarios.PolicyConfig) -> float:
        return costmodel.simulate_trajectory(self.params, policy).final_cost

    def check(self, op: Op, out: Path) -> None:
        check_manifest(out)
        getattr(self, "_" + op.command.replace("-", "_"))(op, out)

    def _simulate(self, op: Op, out: Path) -> None:
        header, rows = read_csv(out / "trajectory.csv")
        _require(len(rows) == GRID_ROWS, f"trajectory.csv has {len(rows)} rows")
        col = header.index("cumulative_cost")
        _require(same6(rows[-1][col], self.cost(self.policy(op))), "trajectory.csv: final cost differs from the engine")

    def _compare(self, op: Op, out: Path) -> None:
        summary = json.loads((out / "summary.json").read_text())
        _require(_close(summary["cost_baseline"], GOLDEN_C10["baseline"]), "summary.json: baseline cost != golden")
        expected = self.cost(self.policy(op))
        if op.scenario in GOLDEN_C10 and op.gamma is None:
            _require(_close(expected, GOLDEN_C10[op.scenario]), f"library {op.scenario} C(10) != golden")
        _require(_close(summary["cost_policy"], expected), "summary.json: policy cost differs from the engine")
        roi = analytics.roi(summary["cost_baseline"], summary["cost_policy"])
        _require(_close(summary["roi_percent"], roi), "summary.json: ROI inconsistent with costs")

    def _stress(self, op: Op, out: Path) -> None:
        header, rows = read_csv(out / "stress_summary.csv")
        _require(len(rows) == 1, "stress_summary.csv: expected one row")
        row = dict(zip(header, rows[0]))
        value = op.stress_value if op.stress_value is not None else STRESS_DEFAULTS[op.stress_kind]
        kind = scenarios.StressKind(op.stress_kind)
        policy = self.policy(op)
        base = scenarios.build_preset("baseline")
        pol, pol_s = self.cost(policy), self.cost(scenarios.apply_stress(policy, kind, value))
        base_s = self.cost(scenarios.apply_stress(base, kind, value))
        expected = {
            "stress_value": value,
            "cost_unstressed": pol,
            "cost_stressed": pol_s,
            "roi_unstressed_percent": analytics.roi(self.c_base, pol),
            "roi_stressed_percent": analytics.roi(base_s, pol_s),
        }
        for name, v in expected.items():
            _require(same6(row[name], v), f"stress_summary.csv: {name} {row[name]} != {v!r}")

    def _breakeven(self, op: Op, out: Path) -> None:
        header, rows = read_csv(out / "breakeven.csv")
        _require(header == ["delta", "gamma_star"] and len(rows) == len(op.delta_axis), "breakeven.csv: wrong shape")
        for (d_txt, g_txt), delta in zip(rows, op.delta_axis):
            _require(same6(d_txt, delta), f"breakeven.csv: delta {d_txt} != {delta!r}")
            if g_txt == "":
                # No root: the design must already lose money at gamma = 0.
                r0 = analytics.roi(self.c_base, self.cost(self.policy(op, adherence_gain_delta=delta, cost_scale_gamma=0.0)))
                _require(r0 < self.roi_tol, f"breakeven.csv: no gamma* at delta={delta} but ROI(0)={r0}")
                continue
            policy = self.policy(op, adherence_gain_delta=delta, cost_scale_gamma=float(g_txt))
            r = analytics.roi(self.c_base, self.cost(policy))
            _require(abs(r) <= self.roi_tol, f"breakeven.csv: ROI {r:.4g}% at gamma*={g_txt}, delta={delta}")

    def _sweep(self, op: Op, out: Path) -> None:
        self._breakeven(op, out)
        header, rows = read_csv(out / "roi_grid.csv")
        n_d, n_g = len(op.delta_axis), len(op.gamma_axis)
        _require(header == ["delta", "gamma", "roi_percent", "total_cost"] and len(rows) == n_d * n_g,
                 "roi_grid.csv: wrong shape")
        # Sample cells spread over the grid, always including both corners.
        for cell in np.linspace(0, n_d * n_g - 1, SWEEP_SAMPLES).round().astype(int):
            i, j = divmod(int(cell), n_g)
            delta, gamma = op.delta_axis[i], op.gamma_axis[j]
            d_txt, g_txt, roi_txt, cost_txt = rows[cell]
            _require(same6(d_txt, delta) and same6(g_txt, gamma), f"roi_grid.csv: row {cell} axes differ")
            cost = self.cost(self.policy(op, adherence_gain_delta=delta, cost_scale_gamma=gamma))
            _require(same6(cost_txt, cost), f"roi_grid.csv: cost at ({delta}, {gamma}) {cost_txt} != {cost!r}")
            roi = analytics.roi(self.c_base, cost)
            _require(same6(roi_txt, roi), f"roi_grid.csv: ROI at ({delta}, {gamma}) {roi_txt} != {roi!r}")

    def _mc(self, op: Op, out: Path) -> None:
        header, rows = read_csv(out / "draws.csv")
        _require(header == ["draw_index", "delta", "total_cost", "roi_percent"] and len(rows) == op.n_draws,
                 "draws.csv: wrong shape")
        spec = montecarlo.DistributionSpec.beta_from_mean(scenarios.build_preset(op.scenario).adherence_gain_delta)
        for i, row in enumerate(rows):
            _require(int(row[0]) == i, f"draws.csv: row {i} has draw_index {row[0]}")
            delta = montecarlo.sample_delta(spec, montecarlo.substream(op.seed, i))
            _require(same6(row[1], delta), f"draws.csv: draw {i} delta {row[1]} != {delta!r}")
        rois = [float(row[3]) for row in rows]
        # Each ROI in the file is rounded to 6 significant digits, so the mean
        # of the file's values may differ from the exact mean by at most the
        # largest rounding error.
        slack = max(0.5 * 10.0 ** (math.floor(math.log10(abs(r))) - 5) for r in rois if r != 0.0)
        summary = json.loads((out / "mc_summary.json").read_text())
        _require(summary["n_draws"] == op.n_draws and summary["master_seed"] == op.seed,
                 "mc_summary.json: n_draws or master_seed differs from the request")
        _require(abs(summary["roi_mean"] - sum(rois) / len(rois)) <= slack * (1.0 + 1e-6),
                 "mc_summary.json: roi_mean is not the mean of the draws")

    def _export_plots(self, op: Op, out: Path) -> None:
        curve_presets = scenarios.PRESET_NAMES
        policies = [p for p in curve_presets if p != "baseline"]
        if op.family == "mc":
            for name in policies:
                _, rows = read_csv(out / f"mc_hist_{name}.csv")
                total = sum(int(r[2]) for r in rows)
                _require(total == op.n_draws, f"mc_hist_{name}.csv: {total} draws binned, expected {op.n_draws}")
        elif op.family == "stress":
            for name in policies:
                _, rows = read_csv(out / f"stress_{name}.csv")
                roi = analytics.roi(self.c_base, self.cost(scenarios.build_preset(name)))
                _require(len(rows) == 2 and all(same6(r[1], roi) for r in rows),
                         f"stress_{name}.csv: unstressed ROI differs from the engine")
        else:
            names = list(curve_presets) + ["baseline_decaying"]
            for name in names:
                _, rows = read_csv(out / f"{op.family}_{name}.csv")
                _require(len(rows) == GRID_ROWS, f"{op.family}_{name}.csv has {len(rows)} rows")
            if op.family == "cost":
                for name, golden in GOLDEN_C10.items():
                    _, rows = read_csv(out / f"cost_{name}.csv")
                    _require(same6(rows[-1][1], golden), f"cost_{name}.csv: C(10) {rows[-1][1]} != golden")
