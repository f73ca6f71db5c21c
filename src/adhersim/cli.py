"""Command-line interface.

Subcommands: simulate, compare, sweep, breakeven, mc, stress, export-plots.
Global flags --params/--out/--seed apply to every subcommand; --config loads a
run-configuration file whose keys the flags then override.  A flag's argparse
dest is the run-configuration key it sets (--out is ``output_dir``, --kind is
``stress_kind``), and a flag is its key's text: it is laid over the document's
line and parsed like one, so a malformed flag names its key as a line does.
Each run writes its mode-specific CSV/JSON outputs plus a manifest.json with
checksums, and prints a one-line summary.

The CLI runs the engine and analytics calls of every mode and every
export-plots figure family; ``exports`` then only formats their results and
writes them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

import numpy as np

from .analytics import (
    breakeven_gamma,
    payback_time,
    roi,
    stress_pairs,
    sweep_design_space,
)
from .costmodel import simulate_trajectory
from .exports import (
    PLOT_FAMILIES,
    _FAMILY_AXES,
    breakeven_csv,
    contours_json,
    csv_bytes,
    curve_csv,
    draws_csv,
    histogram_csv,
    json_bytes,
    roi_grid_csv,
    stress_csv,
    trajectory_csv,
    write_run_outputs,
)
from .montecarlo import DEFAULT_DELTA_SD, DistributionSpec, check_draw_keys, run_monte_carlo
from .params import document_lines, load_params, read_text, reference_params_path
from .runconfig import (
    RunConfig,
    RunMode,
    _KEYS,
    _STRESS_KINDS,
    effective_stress_value,
    parse_keys,
    parse_value,
    serialize_run_config,
    validate_run_config,
)
from .scenarios import (
    DEFAULT_BASELINE_DECAY,
    PRESET_NAMES,
    STRESSES,
    StressKind,
    build_preset,
    validate_authored_pair,
)


def run(config: RunConfig) -> list[str]:
    """Execute one run; returns the files written (relative names)."""
    params = load_params(config.params_file)
    policy = config.build_policy()
    validate_authored_pair(params, policy)
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
        files["summary.json"] = json_bytes({
            "scenario": config.scenario,
            "cost_baseline": base.final_cost,
            "cost_policy": pol.final_cost,
            "roi_percent": r,
            "payback_years": pb,
        })
        pb_txt = "none" if pb is None else f"{pb:.2f} yr"
        summary = f"compare {config.scenario} vs baseline: ROI {r:.1f}%, payback {pb_txt}"

    elif config.mode is RunMode.SWEEP:
        grid = sweep_design_space(
            params, policy, np.array(config.delta_axis), np.array(config.gamma_axis)
        )
        files["roi_grid.csv"] = roi_grid_csv(grid)
        files["contours.json"] = contours_json(grid)
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
        mc_summary, draws = run_monte_carlo(params, policy, spec, config.n_draws, config.seed)
        files["mc_summary.json"] = json_bytes(mc_summary.as_dict())
        files["draws.csv"] = draws_csv(draws)
        summary = (
            f"mc {config.scenario} n={config.n_draws} seed={config.seed}: "
            f"mean ROI {mc_summary.roi_mean:.2f}%, P(ROI>0) {mc_summary.prob_roi_positive:.3f}"
        )

    elif config.mode is RunMode.STRESS:
        value = effective_stress_value(config)
        [pairs] = stress_pairs(params, [policy], ((StressKind(config.stress_kind), value),))
        (roi_un, cost_un), (roi_st, cost_st) = pairs["unstressed"], pairs[config.stress_kind]
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


def _default_mc_spec(template_delta: float) -> DistributionSpec:
    # A Beta centred on the design's gain, or a point mass at a gain of 0 or 1,
    # which no Beta has for its mean.
    if template_delta <= 0.0 or template_delta >= 1.0:
        return DistributionSpec.binary(template_delta, template_delta, 1.0)
    try:
        return DistributionSpec.beta_from_mean(template_delta, DEFAULT_DELTA_SD)
    except ValueError as exc:
        raise ValueError(f"adherence_gain_delta: {exc}") from None


def export_plots(
    params_file: str,
    family: str,
    output_dir: str,
    seed: int | None = None,
    n_draws: int | None = None,
) -> list[str]:
    """Run one figure family's arms and emit its plot-data files plus a manifest.

    severity / adherence / cost: every preset's trajectory and the
    decaying-baseline counterfactual.  mc: each policy preset's draws.
    stress: each policy preset's ROI unstressed and under every reference
    stress.  Only the mc family reads ``seed`` and ``n_draws``, and only it
    echoes them.
    """
    if family not in PLOT_FAMILIES:
        raise ValueError(f"unknown figure family {family!r}; valid: {', '.join(PLOT_FAMILIES)}")
    check_draw_keys(seed, n_draws)
    if family == "mc" and seed is None:
        raise ValueError("seed: the mc family requires a seed")
    if family == "mc" and n_draws is None:
        raise ValueError("n_draws: the mc family requires a draw count")
    params = load_params(params_file)

    policies = {name: build_preset(name) for name in PRESET_NAMES if name != "baseline"}
    if family in ("severity", "adherence", "cost"):
        attr = "cumulative_cost" if family == "cost" else family
        baseline = build_preset("baseline")
        arms = {"baseline": baseline, **policies,
                "baseline_decaying": replace(baseline, baseline_decay=DEFAULT_BASELINE_DECAY)}
        files = {}
        for name, policy in arms.items():
            traj = simulate_trajectory(params, policy)
            files[f"{family}_{name}.csv"] = curve_csv(traj.times, getattr(traj, attr))
    elif family == "mc":
        files = {
            f"mc_hist_{name}.csv": histogram_csv(run_monte_carlo(
                params, policy, _default_mc_spec(policy.adherence_gain_delta), n_draws, seed)[1]["roi_percent"])
            for name, policy in policies.items()
        }
    else:
        stresses = tuple((kind, value) for kind, (_, value) in STRESSES.items())
        files = {
            f"stress_{name}.csv": stress_csv(pairs)
            for name, pairs in zip(policies, stress_pairs(params, policies.values(), stresses))
        }
    x_axis, y_axis = _FAMILY_AXES[family]
    meta = {"family": family, "x_axis": x_axis, "y_axis": y_axis, "curves": sorted(files)}

    echo_lines = [f"command = export-plots", f"family = {family}", f"params_file = {params_file}"]
    if family == "mc":
        echo_lines += [f"seed = {seed}", f"n_draws = {n_draws}"]
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
    parser.add_argument("--params", dest="params_file", metavar="PARAMS",
                        help="model parameter file (default: packaged reference)")
    parser.add_argument("--out", dest="output_dir", metavar="OUT", help="output directory")
    parser.add_argument("--seed", help="master random seed")
    parser.add_argument("--config", help="run-configuration file; flags override its keys")

    delta_axis = ("--delta-axis", {"help": "comma-separated increasing deltas"})
    defaults = " / ".join(f"{value:g}" for _, value in STRESSES.values())
    # Each run sub-command, in --help order: its help line and the flags it
    # takes beside --scenario.  A sub-command's name is its RunMode value.
    run_commands = {
        "simulate": ("simulate one scenario trajectory", ()),
        "compare": ("compare a scenario against the baseline arm", ()),
        "mc": ("Monte Carlo over stochastic adherence gains",
               (("--n-draws", {"help": "number of Monte Carlo draws"}),)),
        "stress": ("paired unstressed/stressed run", (
            ("--kind", {"dest": "stress_kind", "choices": _STRESS_KINDS}),
            ("--value", {"dest": "stress_value", "metavar": "VALUE",
                         "help": f"stress multiplier (default {defaults})"}),
        )),
        "sweep": ("ROI sweep over the (delta, gamma) design space",
                  (delta_axis, ("--gamma-axis", {"help": "comma-separated increasing gammas"}))),
        "breakeven": ("break-even gamma* for each delta", (delta_axis,)),
    }
    sub = parser.add_subparsers(dest="command")
    for name, (help_text, flags) in run_commands.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(mode=name)
        p.add_argument("--scenario",
                       help=f"preset name ({', '.join(PRESET_NAMES)}) or custom; default early_adherence")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
    plots = sub.add_parser("export-plots", help="CSV series reproducing the figure families")
    plots.add_argument("--family", required=True, choices=PLOT_FAMILIES)
    plots.add_argument("--n-draws", help="draws for the mc family")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.config:
        raw = {key: value for _, key, value in document_lines(read_text("config", args.config))}
    else:
        raw = {"params_file": str(reference_params_path()), "scenario": "early_adherence"}
    # A flag is its key's text, laid over the document's line.
    raw.update((key, text) for key, text in vars(args).items() if key in _KEYS and text is not None)
    config = parse_keys(raw)
    validate_run_config(config)
    return config


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help()
        return 2
    try:
        # An overflow or invalid operation that reaches no output is no error
        # and prints nothing; one that reaches a result fails the check on it
        # (``roi``, ``breakeven_gamma``, the trajectory and curve writers).
        with np.errstate(over="ignore", invalid="ignore"):
            if args.command == "export-plots":
                if args.config:
                    raise ValueError("config: export-plots reads no run configuration")
                export_plots(
                    params_file=args.params_file or str(reference_params_path()),
                    family=args.family,
                    output_dir=args.output_dir or "plot_data",
                    **{key: parse_value(key, text) for key in ("seed", "n_draws")
                       if (text := getattr(args, key)) is not None},
                )
            else:
                run(_config_from_args(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
