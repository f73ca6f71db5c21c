"""Seeded op batches for the benchmark workloads.

An op is one ``adhersim`` CLI invocation.  A workload is an endless series of
passes; ``make_pass(workload, seed, k)`` returns pass ``k``, and the same
(workload, seed, k) always gives the same ops.  Inputs vary from pass to pass
so that no pass repeats another's arguments, while stratified draws keep the
amount of work in a pass nearly constant across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("design_space", "mc_uncertainty", "scenario_report")

ALL_PRESETS = ("baseline", "early_adherence", "delayed", "regressive", "adaptive_nudges", "low_impact")
# Step presets: one adherence jump at tau, so break-even is well defined.
STEP_PRESETS = ("early_adherence", "delayed", "regressive", "low_impact")
MC_PRESETS = ("adaptive_nudges", "regressive", "early_adherence")
REPORT_FAMILIES = ("severity", "adherence", "cost", "stress")

# Sizes of one pass.  Deltas stay within (0, 0.45] because hand-authored runs
# require A0 + delta <= 1 with the reference A0 = 0.55; every preset then has
# a break-even gamma* inside the bracket, so no op takes an early exit.
DELTA_RANGE = (0.02, 0.45)
GAMMA_RANGE = (0.0, 6.0)
SWEEP_SIZE = 16
BREAKEVEN_DELTAS = 9
BREAKEVENS_PER_PRESET = 2
MC_DRAWS = 200
MC_SEEDS_PER_PRESET = 2
PLOT_MC_DRAWS = 80


@dataclass(frozen=True)
class Op:
    """One CLI invocation, described by the inputs the output checks need."""

    command: str
    scenario: str | None = None
    delta_axis: tuple[float, ...] = ()
    gamma_axis: tuple[float, ...] = ()
    n_draws: int | None = None
    seed: int | None = None
    stress_kind: str | None = None
    stress_value: float | None = None
    gamma: float | None = None  # policy.cost_scale_gamma override
    family: str | None = None
    via_config: bool = False  # drive the op through a --config document


def _strata(rng: np.random.Generator, lo: float, hi: float, n: int) -> tuple[float, ...]:
    """One uniform draw in each of n equal strata of [lo, hi): strictly increasing."""
    width = (hi - lo) / n
    return tuple(float(v) for v in lo + (np.arange(n) + rng.random(n)) * width)


def make_pass(workload: str, seed: int, k: int) -> list[Op]:
    rng = np.random.default_rng([seed, k, WORKLOADS.index(workload)])
    ops: list[Op] = []
    if workload == "design_space":
        for preset in STEP_PRESETS:
            ops.append(Op(
                "sweep", preset,
                delta_axis=_strata(rng, *DELTA_RANGE, SWEEP_SIZE),
                gamma_axis=_strata(rng, *GAMMA_RANGE, SWEEP_SIZE),
            ))
            for _ in range(BREAKEVENS_PER_PRESET):
                ops.append(Op("breakeven", preset, delta_axis=_strata(rng, *DELTA_RANGE, BREAKEVEN_DELTAS)))
    elif workload == "mc_uncertainty":
        for preset in MC_PRESETS:
            for _ in range(MC_SEEDS_PER_PRESET):
                ops.append(Op("mc", preset, n_draws=MC_DRAWS, seed=int(rng.integers(2**31))))
        ops.append(Op("export-plots", family="mc", n_draws=PLOT_MC_DRAWS, seed=int(rng.integers(2**31))))
    elif workload == "scenario_report":
        for preset in ALL_PRESETS:
            for via_config in (False, True):
                gamma = round(float(rng.uniform(0.5, 3.0)), 4) if via_config else None
                inflation = round(float(rng.uniform(1.0, 1.5)), 4) if via_config else None
                compression = round(float(rng.uniform(0.7, 1.0)), 4) if via_config else None
                common = dict(scenario=preset, gamma=gamma, via_config=via_config)
                ops.append(Op("simulate", **common))
                ops.append(Op("compare", **common))
                ops.append(Op("stress", stress_kind="cost_inflation", stress_value=inflation, **common))
                ops.append(Op("stress", stress_kind="accelerated_progression", stress_value=compression, **common))
        for family in REPORT_FAMILIES:
            ops.append(Op("export-plots", family=family))
    else:
        raise ValueError(f"unknown workload {workload!r}; valid: {', '.join(WORKLOADS)}")
    return ops


def _axis(values: tuple[float, ...]) -> str:
    return ",".join(repr(v) for v in values)


def config_document(op: Op, out_dir: Path, params_file: Path) -> str:
    lines = [
        f"params_file = {params_file}",
        f"scenario = {op.scenario}",
        f"mode = {op.command}",
        f"output_dir = {out_dir}",
    ]
    if op.gamma is not None:
        lines.append(f"policy.cost_scale_gamma = {op.gamma!r}")
    if op.stress_kind is not None:
        lines.append(f"stress_kind = {op.stress_kind}")
    if op.stress_value is not None:
        lines.append(f"stress_value = {op.stress_value!r}")
    return "\n".join(lines) + "\n"


def cli_argv(op: Op, out_dir: Path, params_file: Path) -> list[str]:
    """Arguments for ``adhersim.cli.main``; writes the config document if the op uses one."""
    if op.via_config:
        config = out_dir.with_name(out_dir.name + ".cfg")
        config.write_text(config_document(op, out_dir, params_file))
        return ["--config", str(config), op.command]
    argv = ["--out", str(out_dir)]
    if op.seed is not None:
        argv += ["--seed", str(op.seed)]
    argv.append(op.command)
    if op.command == "export-plots":
        argv += ["--family", op.family]
    else:
        argv += ["--scenario", op.scenario]
    if op.delta_axis:
        argv += ["--delta-axis", _axis(op.delta_axis)]
    if op.gamma_axis:
        argv += ["--gamma-axis", _axis(op.gamma_axis)]
    if op.n_draws is not None:
        argv += ["--n-draws", str(op.n_draws)]
    if op.stress_kind is not None:
        argv += ["--kind", op.stress_kind]
    if op.stress_value is not None:
        argv += ["--value", repr(op.stress_value)]
    return argv
