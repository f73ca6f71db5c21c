"""Per-layer spans for the traced benchmark run, recorded from outside the package.

``Tracer`` wraps every public function defined in each adhersim layer module.
While installed, each wrapper is bound in place of the original in *every*
adhersim module that holds it, so ``from .costmodel import
simulate_trajectory`` copies in analytics, montecarlo, cli and exports are
timed too.  Spans stay in memory; ``layer_table`` reduces them to calls,
total and self time, and work counts per function.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from importlib import import_module

import numpy as np

PACKAGE = "adhersim"
LAYERS = ("cli", "params", "runconfig", "scenarios", "costmodel", "analytics", "montecarlo", "exports")
# Called once per number written; a span per CSV cell would swamp the trace.
UNTRACED = frozenset({"exports.fmt"})


# Work done by one call, read from its arguments or result: name -> {counter: fn}.
WORK = {
    "scenarios.adherence_array": {"points": lambda a, k, r: np.size(r)},
    "scenarios.compute_nudge_log": {"activations": lambda a, k, r: r.count},
    "costmodel.simulate_trajectory": {"grid_points": lambda a, k, r: len(r.times)},
    "analytics.sweep_design_space": {"cells": lambda a, k, r: r.roi_percent.size},
    "montecarlo.run_monte_carlo": {"draws": lambda a, k, r: len(r[1])},
    "exports.write_run_outputs": {
        "files": lambda a, k, r: len(r),
        "bytes": lambda a, k, r: sum(len(p) for p in (a[1] if len(a) > 1 else k["files"]).values()),
    },
}


class Tracer:
    """Span recorder for the public functions of the adhersim layer modules."""

    def __init__(self) -> None:
        # (name, start, end, parent span index or -1, op id, work counters or None)
        self.spans: list[tuple[str, float, float, int, int, dict | None]] = []
        self.op_id = 0
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}
        self._restore: list[tuple[object, str, object]] = []
        for layer in LAYERS:
            module = import_module(f"{PACKAGE}.{layer}")
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNTRACED or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                self._wrappers[id(fn)] = self._wrap(name, fn)

    def _wrap(self, name: str, fn):
        spans, stack, work = self.spans, self._stack, WORK.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result, start = None, clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                done = {c: f(args, kwargs, result) for c, f in work.items()} if work and result is not None else None
                spans[index] = (name, start, end, parent, self.op_id, done)

        return wrapper

    def install(self) -> None:
        """Bind the wrappers in every loaded module of the package."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()


def layer_table(spans) -> dict[str, dict[str, float]]:
    """Per function: calls, total_s, self_s and its work counters; for
    simulate_trajectory also the arms run beneath a break-even span and
    beneath any sweep or break-even span."""
    child = [0.0] * len(spans)
    under = [(False, False)] * len(spans)  # (in breakeven_gamma, in sweep or breakeven)
    table: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, _op, _work) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            in_be, in_an = under[parent]
        else:
            in_be = in_an = False
        in_be = in_be or name == "analytics.breakeven_gamma"
        in_an = in_an or name in ("analytics.breakeven_gamma", "analytics.sweep_design_space")
        under[i] = (in_be, in_an)
    for i, (name, start, end, parent, _op, work) in enumerate(spans):
        row = table.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "arms_in_breakeven": 0, "arms_in_analytics": 0}
        )
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child[i]
        for counter, amount in (work or {}).items():
            row[counter] = row.get(counter, 0) + amount
        if name == "costmodel.simulate_trajectory":
            row["arms_in_breakeven"] += under[i][0]
            row["arms_in_analytics"] += under[i][1]
    return table


def add_table(total: dict[str, dict[str, float]], table: dict[str, dict[str, float]], scale: float) -> None:
    """Add ``table`` into ``total``, multiplying its times (keys ending in _s) by ``scale``."""
    for name, row in table.items():
        acc = total.setdefault(name, {})
        for key, value in row.items():
            acc[key] = acc.get(key, 0) + (value * scale if key.endswith("_s") else value)
