"""Simulation engine and CLI for ROI analysis of adherence-enhancing
chronic-disease policies."""

from .analytics import (
    RoiGrid,
    baseline_cost,
    breakeven_gamma,
    monetized_roi,
    payback_time,
    roi,
    roi_slope,
    scenario_roi_table,
    sweep_design_space,
)
from .costmodel import (
    Trajectory,
    cumulative_cost,
    disease_severity,
    instantaneous_cost,
    simulate_trajectory,
)
from .montecarlo import (
    DistributionKind,
    DistributionSpec,
    McSummary,
    run_monte_carlo,
    sample_delta,
    substream,
)
from .params import ModelParams, load_params, parse_params, reference_params
from .scenarios import (
    NudgeLog,
    PolicyConfig,
    PolicyKind,
    StressKind,
    adherence_at,
    apply_stress,
    build_preset,
    compute_nudge_log,
    policy_cost_at,
)

__version__ = "0.1.0"
