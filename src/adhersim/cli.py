"""Command-line interface.

Subcommands: simulate, compare, sweep, breakeven, mc, stress, export-plots.
Global flags --params/--out/--seed apply to every subcommand; --config loads a
run-configuration file whose keys the flags then override.  Each run writes
its mode-specific CSV/JSON outputs plus a manifest.json with checksums, and
prints a one-line summary.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analytics import (
    baseline_cost,
    breakeven_gamma,
    payback_time,
    roi,
    sweep_design_space,
)
from .costmodel import simulate_trajectory
from .exports import (
    PLOT_FAMILIES,
    breakeven_csv,
    contours_json,
    csv_bytes,
    draws_csv,
    mc_summary_json,
    plot_family_files,
    roi_grid_csv,
    trajectory_csv,
    write_run_outputs,
)
from .montecarlo import DEFAULT_DELTA_SD, DistributionSpec, run_monte_carlo
from .params import ModelParams, load_params, reference_params_path
from .runconfig import (
    RunConfig,
    RunMode,
    _parse_axis,
    _parse_document,
    effective_stress_value,
    serialize_run_config,
    validate_run_config,
)
from .scenarios import PRESET_NAMES, PolicyConfig, StressKind, apply_stress, build_preset

import json


def _load_validated_params(config: RunConfig) -> ModelParams:
    path = Path(config.params_file)
    if not path.exists():
        raise ValueError(f"params_file: {path} does not exist")
    return load_params(path)


def _authoring_checks(params: ModelParams, config: RunConfig) -> None:
    from .scenarios import validate_authored_pair

    validate_authored_pair(params, config.build_policy())
    if not all(0.0 <= delta <= 1.0 for delta in config.delta_axis):
        raise ValueError("delta_axis: values must be in [0, 1]")


def run(config: RunConfig) -> list[str]:
    """Execute one run; returns the files written (relative names)."""
    params = _load_validated_params(config)
    _authoring_checks(params, config)
    policy = config.build_policy()
    echo = serialize_run_config(config)
    files: dict[str, bytes] = {}

    if config.mode is RunMode.SIMULATE:
        traj = simulate_trajectory(params, policy)
        files["trajectory.csv"] = trajectory_csv(traj)
        summary = (
            f"simulate {config.scenario}: C({params.horizon_T:g}) = "
            f"{traj.final_cost:.2f} over {len(traj.times)} grid points"
        )

    elif config.mode is RunMode.COMPARE:
        base = simulate_trajectory(params, build_preset("baseline"))
        pol = simulate_trajectory(params, policy)
        r = roi(base.final_cost, pol.final_cost)
        pb = payback_time(base, pol)
        files["baseline_trajectory.csv"] = trajectory_csv(base)
        files["policy_trajectory.csv"] = trajectory_csv(pol)
        files["summary.json"] = (
            json.dumps(
                {
                    "scenario": config.scenario,
                    "cost_baseline": base.final_cost,
                    "cost_policy": pol.final_cost,
                    "roi_percent": r,
                    "payback_years": pb,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        ).encode()
        pb_txt = "none" if pb is None else f"{pb:.2f} yr"
        summary = f"compare {config.scenario} vs baseline: ROI {r:.1f}%, payback {pb_txt}"

    elif config.mode is RunMode.SWEEP:
        grid = sweep_design_space(
            params, policy, np.array(config.delta_axis), np.array(config.gamma_axis)
        )
        files["roi_grid.csv"] = roi_grid_csv(grid)
        files["contours.json"] = contours_json()
        files["breakeven.csv"] = breakeven_csv(grid.delta_axis, grid.breakeven_gamma_per_delta)
        summary = (
            f"sweep {len(config.delta_axis)}x{len(config.gamma_axis)} grid: ROI range "
            f"[{grid.roi_percent.min():.1f}%, {grid.roi_percent.max():.1f}%]"
        )

    elif config.mode is RunMode.BREAKEVEN:
        gammas = [breakeven_gamma(params, policy, d) for d in config.delta_axis]
        files["breakeven.csv"] = breakeven_csv(config.delta_axis, gammas)
        pairs = ", ".join(
            f"gamma*({d:g})={'none' if g is None else format(g, '.3f')}"
            for d, g in zip(config.delta_axis, gammas)
        )
        summary = f"breakeven {config.scenario}: {pairs}"

    elif config.mode is RunMode.MONTE_CARLO:
        spec = _default_mc_spec(policy.adherence_gain_delta)
        mc_summary, draws = run_monte_carlo(
            params, policy, spec, config.n_draws, config.seed, n_workers=config.n_workers
        )
        files["mc_summary.json"] = mc_summary_json(mc_summary)
        files["draws.csv"] = draws_csv(draws)
        summary = (
            f"mc {config.scenario} n={config.n_draws} seed={config.seed}: "
            f"mean ROI {mc_summary.roi_mean:.2f}%, P(ROI>0) {mc_summary.prob_roi_positive:.3f}"
        )

    elif config.mode is RunMode.STRESS:
        value = effective_stress_value(config)
        kind = StressKind(config.stress_kind)
        pairs = _stress_pairs(params, baseline_cost(params), policy, ((kind, value),))
        (roi_un, cost_un), (roi_st, cost_st) = pairs["unstressed"], pairs[kind.value]
        files["stress_summary.csv"] = csv_bytes(
            [
                "stress_kind",
                "stress_value",
                "roi_unstressed_percent",
                "roi_stressed_percent",
                "cost_unstressed",
                "cost_stressed",
            ],
            [[config.stress_kind], [value], [roi_un], [roi_st], [cost_un], [cost_st]],
        )
        summary = (
            f"stress {config.scenario} {config.stress_kind}={value:g}: "
            f"ROI {roi_un:.2f}% -> {roi_st:.2f}%"
        )

    else:  # pragma: no cover
        raise ValueError(f"unhandled mode {config.mode}")

    written = write_run_outputs(config.output_dir, files, echo)
    print(summary)
    return written


def _stress_pairs(
    params: ModelParams,
    c_base: float,
    policy: PolicyConfig,
    stresses: tuple[tuple[StressKind, float], ...],
) -> dict[str, tuple[float, float]]:
    """(ROI, cost) of the policy arm unstressed and under each stress.

    A stressed arm is compared against the baseline under the same stress.
    """
    cost = simulate_trajectory(params, policy).final_cost
    out = {"unstressed": (roi(c_base, cost), cost)}
    for kind, value in stresses:
        base_s = simulate_trajectory(params, apply_stress(build_preset("baseline"), kind, value))
        cost_s = simulate_trajectory(params, apply_stress(policy, kind, value)).final_cost
        out[kind.value] = (roi(base_s.final_cost, cost_s), cost_s)
    return out


def _default_mc_spec(template_delta: float) -> DistributionSpec:
    # Scenario runs draw from the Beta family centered on the design's gain;
    # robustness sweeps use the truncated normal via the library API.
    if template_delta <= 0.0 or template_delta >= 1.0:
        return DistributionSpec.binary(template_delta, template_delta, 1.0)
    return DistributionSpec.beta_from_mean(template_delta, DEFAULT_DELTA_SD)


def export_plots(
    params_file: str,
    family: str,
    output_dir: str,
    seed: int | None = None,
    n_draws: int | None = None,
) -> list[str]:
    """Emit the plot-data files for one figure family plus a manifest."""
    path = Path(params_file)
    if not path.exists():
        raise ValueError(f"params_file: {path} does not exist")
    if seed is not None and seed < 0:
        raise ValueError("seed: must be >= 0")
    if family == "mc" and seed is None:
        raise ValueError("seed: the mc family requires a seed")
    if family == "mc" and n_draws is None:
        raise ValueError("n_draws: the mc family requires a draw count")
    params = load_params(path)

    mc_results = None
    stress_rois = None
    if family == "mc":
        mc_results = {}
        for name in PRESET_NAMES:
            if name == "baseline":
                continue
            policy = build_preset(name)
            spec = _default_mc_spec(policy.adherence_gain_delta)
            mc_results[name] = run_monte_carlo(params, policy, spec, n_draws, seed)
    elif family == "stress":
        c_base = baseline_cost(params)
        stresses = ((StressKind.COST_INFLATION, 1.2), (StressKind.ACCELERATED_PROGRESSION, 0.85))
        stress_rois = {}
        for name in PRESET_NAMES:
            if name == "baseline":
                continue
            pairs = _stress_pairs(params, c_base, build_preset(name), stresses)
            stress_rois[name] = {key: r for key, (r, _) in pairs.items()}
    files, meta = plot_family_files(params, family, mc_results=mc_results, stress_rois=stress_rois)

    echo_lines = [f"command = export-plots", f"family = {family}", f"params_file = {params_file}"]
    if seed is not None:
        echo_lines.append(f"seed = {seed}")
    if n_draws is not None:
        echo_lines.append(f"n_draws = {n_draws}")
    echo_lines.append(f"meta = {json.dumps(meta, sort_keys=True)}")
    written = write_run_outputs(output_dir, files, "\n".join(echo_lines) + "\n")
    print(f"export-plots {family}: {len(files)} files -> {output_dir}")
    return written


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="adhersim",
        description="ROI simulation for adherence-enhancing chronic-disease policies",
    )
    parser.add_argument("--params", help="model parameter file (default: packaged reference)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument("--config", help="run-configuration file; flags override its keys")

    sub = parser.add_subparsers(dest="command")
    scenario_cmds = {
        "simulate": "simulate one scenario trajectory",
        "compare": "compare a scenario against the baseline arm",
        "mc": "Monte Carlo over stochastic adherence gains",
        "stress": "paired unstressed/stressed run",
    }
    for name, help_text in scenario_cmds.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario",
                       help=f"preset name ({', '.join(PRESET_NAMES)}) or custom; default early_adherence")
    sweep = sub.add_parser("sweep", help="ROI sweep over the (delta, gamma) design space")
    sweep.add_argument("--scenario")
    sweep.add_argument("--delta-axis", required=False, help="comma-separated increasing deltas")
    sweep.add_argument("--gamma-axis", required=False, help="comma-separated increasing gammas")
    brk = sub.add_parser("breakeven", help="break-even gamma* for each delta")
    brk.add_argument("--scenario")
    brk.add_argument("--delta-axis", required=False, help="comma-separated increasing deltas")
    mc = next(p for p in sub.choices.values() if p.prog.endswith(" mc"))
    mc.add_argument("--n-draws", type=int, help="number of Monte Carlo draws")
    mc.add_argument("--workers", type=int,
                    help="accepted and checked (>= 1); draws run in fixed-size batches in one "
                         "thread, so the count changes nothing")
    stress = next(p for p in sub.choices.values() if p.prog.endswith(" stress"))
    stress.add_argument("--kind", choices=["cost_inflation", "accelerated_progression"])
    stress.add_argument("--value", type=float, help="stress multiplier (default 1.2 / 0.85)")
    plots = sub.add_parser("export-plots", help="CSV series reproducing the figure families")
    plots.add_argument("--family", required=True, choices=PLOT_FAMILIES)
    plots.add_argument("--n-draws", type=int, help="draws for the mc family")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.config:
        config = _parse_document(Path(args.config).read_text())
    elif args.out:
        config = RunConfig(
            params_file=str(reference_params_path()),
            scenario="early_adherence",
            mode=RunMode(args.command),
            output_dir=args.out,
        )
    else:
        raise ValueError("missing --out (or provide --config with output_dir)")

    def flag(name: str):
        return getattr(args, name, None)

    # flags override config-file keys
    scenario, delta_axis, gamma_axis = flag("scenario"), flag("delta_axis"), flag("gamma_axis")
    updates = {
        "mode": RunMode(args.command),
        "params_file": args.params,
        "output_dir": args.out,
        "seed": args.seed,
        "scenario": None if scenario is None else scenario.lower(),
        "n_draws": flag("n_draws"),
        "n_workers": flag("workers"),
        "delta_axis": None if delta_axis is None else _parse_axis("delta_axis", delta_axis),
        "gamma_axis": None if gamma_axis is None else _parse_axis("gamma_axis", gamma_axis),
        "stress_kind": flag("kind"),
        "stress_value": flag("value"),
    }
    config = replace(config, **{key: v for key, v in updates.items() if v is not None})
    validate_run_config(config)
    return config


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help()
        return 2
    try:
        if args.command == "export-plots":
            if args.config:
                raise ValueError("config: export-plots reads no run configuration")
            export_plots(
                params_file=args.params or str(reference_params_path()),
                family=args.family,
                output_dir=args.out or "plot_data",
                seed=args.seed,
                n_draws=args.n_draws,
            )
        else:
            run(_config_from_args(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
