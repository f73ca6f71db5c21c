"""Simulation engine and CLI for ROI analysis of adherence-enhancing
chronic-disease policies."""

from .analytics import (
    RoiGrid,
    baseline_cost,
    breakeven_gamma,
    payback_time,
    roi,
    sweep_design_space,
)
from .costmodel import Trajectory, simulate_trajectory
from .montecarlo import (
    DistributionSpec,
    McSummary,
    run_monte_carlo,
    sample_delta,
    substream,
)
from .params import ModelParams, load_params, parse_params, reference_params
from .scenarios import (
    PolicyConfig,
    StressKind,
    apply_stress,
    build_preset,
)

__version__ = "0.1.0"
