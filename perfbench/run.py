"""End-to-end and per-layer benchmark of the adhersim CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload design_space --seed 1 --seconds 30 --trace 0

The load generator is one closed-loop client in this process: each op is one
``adhersim.cli.main([...])`` call writing to a fresh output directory, and
the next op starts when the previous one returns.  Ops run in passes (see
workloads.py) until ``--seconds`` have elapsed and at least the workload's
minimum number of passes is done.  Every op's outputs are checked outside
the timed region; an op fails on a non-zero exit, an escaped exception or a
failed check.

``--trace 0`` reports the end-to-end metrics of metrics.END_TO_END, with
timings scaled to a reference host speed (see hostspeed.py).
``--trace 1`` runs a fixed number of passes twice each, untraced and traced,
and reports metrics.PER_LAYER plus the tracing overhead.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

import hostspeed
from layertrace import Tracer, add_table, layer_table
from metrics import END_TO_END, OVERHEAD, PER_LAYER
from workloads import WORKLOADS, cli_argv, make_pass

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PARAMS_FILE = SRC / "adhersim" / "data" / "reference_params.txt"
WORK_DIR = ROOT / ".perfbench_work"

# Minimum passes per untraced run, so each run has enough ops for its tail
# percentile whatever the host speed.
MIN_PASSES = {"design_space": 9, "mc_uncertainty": 15, "scenario_report": 4}
TRACE_PASSES = 3
WARMUP_PASS = 1 << 20  # pass index reserved for the untimed warm-up ops
SETUP_RUNS = 9
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
UNITS = {m.name: m.unit for m in (*END_TO_END, *PER_LAYER, OVERHEAD)}
SETUP_CODE = (
    "import adhersim\n"
    "p = adhersim.reference_params()\n"
    "adhersim.simulate_trajectory(p, adhersim.build_preset('early_adherence'))\n"
)


@dataclass
class OpResult:
    latency_s: float
    cpu_s: float
    ref_s: float  # hostspeed.kernel_s() measured just before the op


def tail_percentile(n_ops: int) -> float:
    """Highest ladder percentile with at least ten of n_ops beyond it."""
    fits = [p for p in TAIL_LADDER if n_ops - math.ceil(p / 100.0 * n_ops) >= 10]
    if not fits:
        raise ValueError(f"{n_ops} ops are too few for a tail percentile")
    return fits[-1]


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def _cpu_now() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Runner:
    """Runs ops in-process through ``adhersim.cli.main`` and checks their outputs."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        import adhersim.cli
        import outputcheck  # imports adhersim, so only once src/ is on sys.path

        self.cli = adhersim.cli
        self.workload, self.seed, self.work = workload, seed, work
        self.checker = outputcheck.Checker()
        self.attempted = 0
        self.errors: list[str] = []

    def run_op(self, op, tracer=None) -> OpResult:
        out = self.work / f"op{self.attempted}"
        self.attempted += 1
        argv = cli_argv(op, out, PARAMS_FILE)
        ref = hostspeed.kernel_s()
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        if tracer is not None:
            tracer.op_id = self.attempted
            tracer.install()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                cpu0, t0 = _cpu_now(), time.perf_counter()
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # escaped the CLI: the user would see a traceback
                    code, error = None, f"traceback: {type(exc).__name__}: {exc}"
                t1, cpu1 = time.perf_counter(), _cpu_now()
        finally:
            if tracer is not None:
                tracer.uninstall()
        if error is None and code != 0:
            error = f"exit code {code}: {stderr.getvalue().strip()}"
        if error is None and "Traceback" in stderr.getvalue():
            error = "traceback on stderr"
        if error is None:
            try:
                self.checker.check(op, out)
            except Exception as exc:  # any malformed output fails the op, never the run
                error = f"output check: {type(exc).__name__}: {exc}"
        if error is not None:
            self.errors.append(f"{' '.join(argv)}: {error}")
        shutil.rmtree(out, ignore_errors=True)
        out.with_name(out.name + ".cfg").unlink(missing_ok=True)
        return OpResult(t1 - t0, cpu1 - cpu0, ref)

    def run_pass(self, k: int, tracer=None) -> list[OpResult]:
        return [self.run_op(op, tracer) for op in make_pass(self.workload, self.seed, k)]

    def warm_up(self) -> None:
        """Run the first op of each kind once, untimed, so lazy set-up is done."""
        seen = set()
        for op in make_pass(self.workload, self.seed, WARMUP_PASS):
            if (op.command, op.family, op.via_config) not in seen:
                seen.add((op.command, op.family, op.via_config))
                self.run_op(op)


def measure_setup() -> tuple[float, float]:
    """Median wall time of fresh interpreters that import and warm the engine:
    unscaled, and scaled by a reference interpreter started just before each."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times, scaled = [], []
    for _ in range(SETUP_RUNS):
        ref = hostspeed.spawn_s(hostspeed.SPAWN_CODE, env, ROOT)
        times.append(hostspeed.spawn_s(SETUP_CODE, env, ROOT))
        scaled.append(times[-1] * hostspeed.SPAWN_S / ref)
    return statistics.median(times), statistics.median(scaled)


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "adhersim").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def fingerprint(cli, work: Path) -> dict:
    """ROADMAP item-1 correctness fingerprint: golden C(10)s and a fixed sweep's hash."""
    import adhersim

    params = adhersim.reference_params()
    out = work / "fingerprint"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--out", str(out), "sweep", "--scenario", "early_adherence",
                         "--delta-axis", "0.1,0.2,0.3,0.4", "--gamma-axis", "0,1,2,3"])
    grid = out / "roi_grid.csv"
    result = {
        "c10_baseline": adhersim.simulate_trajectory(params, adhersim.build_preset("baseline")).final_cost,
        "c10_early_adherence": adhersim.simulate_trajectory(params, adhersim.build_preset("early_adherence")).final_cost,
        "sweep_4x4_roi_grid_sha256": hashlib.sha256(grid.read_bytes()).hexdigest() if code == 0 else None,
    }
    shutil.rmtree(out, ignore_errors=True)
    return result


def provenance(runner: Runner, trace: int) -> dict:
    return {
        "workload": runner.workload,
        "seed": runner.seed,
        "trace": trace,
        "ops_attempted": runner.attempted,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "fingerprint": fingerprint(runner.cli, runner.work),
    }


def pass_scale(results: list[OpResult]) -> float:
    """Factor that scales a pass's timings to the reference host speed."""
    return hostspeed.KERNEL_S / statistics.median(r.ref_s for r in results)


def timing_metrics(passes: list[list[OpResult]], tail: float, scale: list[float]) -> dict[str, float]:
    """wall_s, op_p50_ms, op_tail_ms and cpu_s, each time multiplied by its pass's scale."""
    latencies = [r.latency_s * f for p, f in zip(passes, scale) for r in p]
    return {
        "wall_s": statistics.median(sum(r.latency_s for r in p) * f for p, f in zip(passes, scale)),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": nearest_rank(latencies, tail) * 1e3,
        "cpu_s": statistics.median(sum(r.cpu_s for r in p) * f for p, f in zip(passes, scale)),
    }


def run_untraced(runner: Runner, seconds: float, setup: tuple[float, float]) -> tuple[dict, list[str]]:
    runner.warm_up()
    passes: list[list[OpResult]] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES[runner.workload] or time.perf_counter() < deadline:
        passes.append(runner.run_pass(len(passes)))
    n_ops = sum(len(p) for p in passes)
    tail = tail_percentile(MIN_PASSES[runner.workload] * len(make_pass(runner.workload, runner.seed, 0)))
    scale = [pass_scale(p) for p in passes]
    setup_s, setup_scaled = setup
    metrics = {
        "setup_s": setup_scaled,
        **timing_metrics(passes, tail, scale),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {"setup_s": setup_s, **timing_metrics(passes, tail, [1.0] * len(passes))}
    refs = [r.ref_s for p in passes for r in p]
    notes = [
        f"{len(passes)} passes of {len(passes[0])} ops, {n_ops} timed ops",
        f"op_tail_ms is p{tail:g} of {n_ops} ops",
        f"reference kernel median {statistics.median(refs) * 1e3:.4g} ms (min {min(refs) * 1e3:.4g}, "
        f"max {max(refs) * 1e3:.4g}); timings below are scaled to {hostspeed.KERNEL_S * 1e3:g} ms "
        f"(setup_s: to a {hostspeed.SPAWN_S:g} s reference interpreter)",
        "unscaled: " + ", ".join(f"{k}={v:.6g}" for k, v in raw.items()),
    ]
    return metrics, notes


def run_traced(runner: Runner) -> tuple[dict, list[str]]:
    runner.warm_up()
    table: dict[str, dict[str, float]] = {}
    untraced = traced = 0.0
    spans = 0
    for k in range(TRACE_PASSES):
        # Alternate which side goes first so host drift cancels in the ratio.
        for traced_side in ((False, True) if k % 2 == 0 else (True, False)):
            tracer = Tracer() if traced_side else None
            results = runner.run_pass(k, tracer)
            scale = pass_scale(results)
            wall = sum(r.latency_s for r in results) * scale
            if tracer is None:
                untraced += wall
                continue
            traced += wall
            add_table(table, layer_table(tracer.spans), scale)
            spans += len(tracer.spans)
    metrics = {m.name: m.value(table, TRACE_PASSES) for m in PER_LAYER}
    metrics[OVERHEAD.name] = traced / untraced - 1.0
    notes = [f"{TRACE_PASSES} passes, each run untraced and traced; {spans} spans",
             f"counts and self times are per pass; times scaled to a {hostspeed.KERNEL_S * 1e3:g} ms reference kernel"]
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "adhersim" / "__init__.py").is_file():
        print(f"error: {SRC / 'adhersim'} not found; run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = measure_setup() if args.trace == 0 else None
        runner = Runner(args.workload, args.seed, work)
        if args.trace:
            metrics, notes = run_traced(runner)
        else:
            metrics, notes = run_untraced(runner, args.seconds, setup)
        stamp = provenance(runner, args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.errors)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {UNITS[name]}")
    print(f"  {'error_rate':40s} {failed / runner.attempted:14.6g} ratio ({failed} of {runner.attempted} ops failed)")
    for error in runner.errors[:10]:
        print(f"failed op: {error}", file=sys.stderr)
    print("provenance " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
