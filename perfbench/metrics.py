"""The benchmark's metrics: names, units, direction, and what each should move.

``END_TO_END`` lists what a user of the CLI sees, measured with tracing off.
``PER_LAYER`` lists the traced run's numbers, each with the end-to-end metric
and workload it should move, so a change to one layer can name its
prediction in advance.  Per-layer counts and times are per pass of the
workload's op batch.  BENCHMARK.json carries the same names, units and
directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

Table = dict[str, dict[str, float]]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    what: str


# Timings are scaled to the reference host speed of hostspeed.py.
END_TO_END = (
    Metric("setup_s", "s", "lower", "fresh interpreter to ready: import, reference_params(), one warm-up arm"),
    Metric("wall_s", "s", "lower", "time to complete one pass of the workload's op batch"),
    Metric("op_p50_ms", "ms", "lower", "median latency of one CLI op"),
    Metric("op_tail_ms", "ms", "lower", "highest ladder percentile with at least ten ops beyond it"),
    Metric("cpu_s", "s", "lower", "process CPU time (user + sys, children included) of one pass"),
    Metric("peak_rss_mb", "MB", "lower", "peak resident memory of the workload process, unscaled"),
)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    value: Callable[[Table, int], float]
    moves: str  # end-to-end metric and workload this layer should move


def _row(table: Table, fn: str) -> dict[str, float]:
    return table.get(fn, {})


def calls(fn: str):
    return lambda t, passes: _row(t, fn).get("calls", 0) / passes


def self_ms(fn: str):
    return lambda t, passes: _row(t, fn).get("self_s", 0.0) * 1e3 / passes


def counter(fn: str, key: str):
    return lambda t, passes: _row(t, fn).get(key, 0) / passes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _arms_per_breakeven(t: Table, passes: int) -> float:
    return _ratio(_row(t, "costmodel.simulate_trajectory").get("arms_in_breakeven", 0),
                  _row(t, "analytics.breakeven_gamma").get("calls", 0))


def _useful_arm_ratio(t: Table, passes: int) -> float:
    # Results delivered: every sweep cell plus every gamma* returned.
    results = _row(t, "analytics.sweep_design_space").get("cells", 0) + _row(t, "analytics.breakeven_gamma").get("calls", 0)
    return _ratio(results, _row(t, "costmodel.simulate_trajectory").get("arms_in_analytics", 0))


_CLI = "setup_s and op_p50_ms on scenario_report"
_ENGINE = "wall_s on design_space and mc_uncertainty; small share of scenario_report"
_NUDGE = "wall_s on mc_uncertainty; zero on design_space"
_ANALYTICS = "wall_s and op_p50_ms on design_space; absent from mc_uncertainty"
_MC = "wall_s and peak_rss_mb on mc_uncertainty"
_EXPORTS = "op_p50_ms and op_tail_ms on scenario_report"

PER_LAYER = (
    LayerMetric("cli.main.calls", "count", "lower", calls("cli.main"), _CLI),
    LayerMetric("cli.main.self_ms", "ms", "lower", self_ms("cli.main"), _CLI),
    LayerMetric("params.load_params.self_ms", "ms", "lower", self_ms("params.load_params"), _CLI),
    LayerMetric("runconfig.parse_run_config.self_ms", "ms", "lower", self_ms("runconfig.parse_run_config"), _CLI),
    LayerMetric("scenarios.adherence_array.calls", "count", "lower", calls("scenarios.adherence_array"), _ENGINE),
    LayerMetric("scenarios.adherence_array.self_ms", "ms", "lower", self_ms("scenarios.adherence_array"), _ENGINE),
    LayerMetric("scenarios.adherence_array.points", "count", "lower",
                counter("scenarios.adherence_array", "points"), _ENGINE),
    LayerMetric("costmodel.simulate_trajectory.calls", "count", "lower", calls("costmodel.simulate_trajectory"), _ENGINE),
    LayerMetric("costmodel.simulate_trajectory.self_ms", "ms", "lower",
                self_ms("costmodel.simulate_trajectory"), _ENGINE),
    LayerMetric("costmodel.grid_points", "count", "lower",
                counter("costmodel.simulate_trajectory", "grid_points"), _ENGINE),
    LayerMetric("scenarios.compute_nudge_log.calls", "count", "lower", calls("scenarios.compute_nudge_log"), _NUDGE),
    LayerMetric("scenarios.compute_nudge_log.self_ms", "ms", "lower", self_ms("scenarios.compute_nudge_log"), _NUDGE),
    LayerMetric("scenarios.nudge_activations", "count", "lower",
                counter("scenarios.compute_nudge_log", "activations"), _NUDGE),
    LayerMetric("scenarios.policy_cost_array.self_ms", "ms", "lower", self_ms("scenarios.policy_cost_array"), _NUDGE),
    LayerMetric("analytics.breakeven_gamma.calls", "count", "lower", calls("analytics.breakeven_gamma"), _ANALYTICS),
    LayerMetric("analytics.breakeven_gamma.self_ms", "ms", "lower", self_ms("analytics.breakeven_gamma"), _ANALYTICS),
    LayerMetric("analytics.arms_per_breakeven", "arms/call", "lower", _arms_per_breakeven, _ANALYTICS),
    LayerMetric("analytics.baseline_cost.calls", "count", "lower", calls("analytics.baseline_cost"), _ANALYTICS),
    LayerMetric("analytics.sweep_design_space.self_ms", "ms", "lower",
                self_ms("analytics.sweep_design_space"), _ANALYTICS),
    LayerMetric("analytics.frontier.self_ms", "ms", "lower", self_ms("analytics.frontier"), _ANALYTICS),
    LayerMetric("analytics.useful_arm_ratio", "ratio", "higher", _useful_arm_ratio, _ANALYTICS),
    LayerMetric("montecarlo.run_monte_carlo.self_ms", "ms", "lower", self_ms("montecarlo.run_monte_carlo"), _MC),
    LayerMetric("montecarlo.substream.self_ms", "ms", "lower", self_ms("montecarlo.substream"), _MC),
    LayerMetric("montecarlo.sample_delta.self_ms", "ms", "lower", self_ms("montecarlo.sample_delta"), _MC),
    LayerMetric("montecarlo.draws", "count", "higher", counter("montecarlo.run_monte_carlo", "draws"), _MC),
    LayerMetric("exports.trajectory_csv.self_ms", "ms", "lower", self_ms("exports.trajectory_csv"), _EXPORTS),
    LayerMetric("exports.roi_grid_csv.self_ms", "ms", "lower", self_ms("exports.roi_grid_csv"), _EXPORTS),
    LayerMetric("exports.draws_csv.self_ms", "ms", "lower", self_ms("exports.draws_csv"), _EXPORTS),
    LayerMetric("exports.plot_family_files.self_ms", "ms", "lower", self_ms("exports.plot_family_files"), _EXPORTS),
    LayerMetric("exports.write_run_outputs.self_ms", "ms", "lower", self_ms("exports.write_run_outputs"), _EXPORTS),
    LayerMetric("exports.bytes_written", "bytes", "lower", counter("exports.write_run_outputs", "bytes"), _EXPORTS),
    LayerMetric("exports.files_written", "count", "higher", counter("exports.write_run_outputs", "files"), _EXPORTS),
)

# Filled from the paired untraced and traced passes, not from the span table.
OVERHEAD = Metric("trace.overhead_frac", "ratio", "lower",
                  "traced wall_s / untraced wall_s - 1 over the same passes; the cost of tracing itself")
