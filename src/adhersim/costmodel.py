"""Cost model: disease dynamics, the four-term cost integrand, and discounted
cumulative-cost integration.

Severity follows dD/ds = k_eff(s) * D * (1 - D/Dmax) with
k_eff(s) = k * (1 - eta * max(0, A(s) - A0)) and D(0) on the exogenous
logistic, so with eta = 0 or A = A0 the closed-form logistic
Dmax / (1 + exp(-k (s - s0))) is recovered exactly.  The ODE is integrated
with fixed-step fourth-order Runge-Kutta on the logit z = ln(D / (Dmax - D)),
where the right-hand side reduces to z' = k_eff(s); for a state-independent
right-hand side the RK4 stage sum is Simpson's rule, which keeps the
closed-form reduction exact instead of O(h^4)-approximate (``_logit_steps``).

Cumulative cost C(t) = C0 + integral_0^t exp(-rho s) c(s) ds is computed by
composite trapezoid on the same grid.  Every policy event (start, nudge
activation, window closure) sits on a canonical grid node, so each panel
[t_i, t_{i+1}] stays on the policy piece in force at its start: adherence is
read on that piece at the panel's start, midpoint and end, and the spend P is
constant across it.  Simpson and the trapezoid thus integrate the
piecewise-smooth integrand without smearing the jumps.  This holds only on
grids whose steps_per_year is a multiple of STEPS_PER_YEAR.

The engine integrates two channels separately: the rest, alpha*D + beta*A^2,
and the policy spend P(s) in policy units, giving I_P(t).  gamma enters only
the spend channel, so

    C(t) = (C0 + rest(t)) + (gamma * inflation) * policy_unit_cost * I_P(t)

is exactly linear in gamma.  ``total_cost`` is the one place this sum is
formed: the trajectory's columns and every analytics result that re-prices
an arm at another gamma go through it, so they agree bit for bit.

The kernel evaluates B arms of one policy that differ only in the adherence
gain delta, on (B, n) node arrays.  What no gain changes is built once and
cached as read-only arrays: the grid with its discount factors (``_grid``)
and, per tau node, the spend of an arm no nudge fires in, P = 1[node >= i0]
with its discounted trapezoid (``_unnudged_spend``).  That is every arm whose
period is 0, the no-policy arm too, whose P is 0.  An arm that never starts
(the no-policy arm, or a tau past the horizon) is the counterfactual every
ROI is measured against: ``simulate_trajectory`` builds its rest rows once
per parameter set and caches them too (``_never_started_rows``, keyed by the
floats' bit patterns).  The nudge logs enter as integers, a period per gain
(``scenarios._nudge_periods``); the spend channel depends on a gain only
through it, so ``arm_costs`` runs it once per distinct period, and runs the
rest channel (adherence, severity, alpha*D + beta*A^2) in chunks of
``_CHUNK_ARMS`` gains taken in period order, so that the gains no nudge
fires in share their chunks.  Each quantity is
written by a few in-place array operations that make the formula's float
operations in its order (swapping the two operands of one sum or product,
which leaves its result unchanged); k_eff is evaluated once over all the
adherence points.  Those are 3n - 2, except where adherence is constant on
each policy piece (no decay of the gain or of the baseline): there a panel's
start read equals its midpoint and end reads bit for bit, so adherence is
read at the n nodes alone (``_panel_reads``).  Every reduction along the grid
is a row-wise cumulative sum, so each row equals the one-arm run bit for bit,
whatever rows share its chunk: ``simulate_trajectory`` is the B = 1 case.
"""

from __future__ import annotations

import functools
import math
import struct
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .numerics import STEPS_PER_YEAR, sigmoid, time_grid
from .params import ModelParams
from .scenarios import (
    PolicyConfig,
    PolicyKind,
    _gain_law,
    _nudge_periods,
    _spend_at_nodes,
    adherence_array,
)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Aligned time series produced by one simulation run.

    ``policy_cost`` holds the scenario expenditure function P(s) in policy
    units at the nodes; the dollar conversion (gamma * inflation *
    policy_unit_cost) only enters ``instantaneous_cost`` and
    ``cumulative_cost``.  ``rest_cost`` (C0 plus the discounted
    alpha*D + beta*A^2 integral) and ``spend_integral`` (the discounted
    integral of P) are the two channels at the horizon; ``total_cost`` of the
    pair is ``final_cost``.

    The two dollar columns are formed when first read, by ``total_cost`` of
    the kernel's rows (``_rows``: the rest rate and P at the nodes, then the
    cumulative rest and spend channels), so a caller that reads only the
    horizon's channels never builds them.  Each is a new array, and
    ``cumulative_cost`` ends in ``final_cost`` bit for bit.  P and the spend
    channel in ``_rows`` may be the spend cache's read-only rows, and for an
    arm that never starts the rest rate and channel are the never-started
    cache's (``_never_started_rows``); ``policy_cost``, ``adherence`` and
    ``severity`` are copies.  Runs compare and hash by identity.
    """

    times: np.ndarray
    adherence: np.ndarray
    severity: np.ndarray
    policy_cost: np.ndarray
    rest_cost: float
    spend_integral: float
    # total_cost bound to this arm's params and policy: (rest, spend_units) -> cost.
    _cost: Callable = field(repr=False)
    _rows: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def final_cost(self) -> float:
        return self._cost(self.rest_cost, self.spend_integral)

    @functools.cached_property
    def instantaneous_cost(self) -> np.ndarray:
        return self._cost(*self._rows[:2])

    @functools.cached_property
    def cumulative_cost(self) -> np.ndarray:
        return self._cost(*self._rows[2:])


def total_cost(params: ModelParams, policy: PolicyConfig, rest, spend_units, gamma=None):
    """rest + (gamma * inflation) * policy_unit_cost * spend_units.

    Works on rates and on integrals, scalars and arrays alike.  ``gamma``
    defaults to the policy's ``cost_scale_gamma``; passing another value (or
    an array of them) re-prices the same arm, since nothing else depends on it.
    """
    if gamma is None:
        gamma = policy.cost_scale_gamma
    spend = (gamma * policy.inflation_factor) * params.policy_unit_cost
    return rest + spend * spend_units


# Arms per kernel call.  An arm reads adherence at up to 3n - 2 points (3 001
# on the 10-year canonical grid), about 25 000 points per call.  A per-chunk
# allocation of 128 KiB or more is mapped afresh and faulted in again on
# every chunk, so ``arm_costs`` owns two buffers of B * (3n - 2) elements and
# reuses them (a chunk read at the nodes alone uses their first B * n), and
# every other per-chunk array is (B, n) or smaller: 64 KiB here.
_CHUNK_ARMS = 25_000 // 3_001


def _effective_curve(params: ModelParams, compression: float) -> tuple[float, float]:
    """Disease-curve parameters after time compression (k/c, c*s0)."""
    return params.disease_steepness_k / compression, params.disease_midpoint_s0 * compression


def _logistic_closed_form(params: ModelParams, s: np.ndarray, compression: float) -> np.ndarray:
    k_c, s0_c = _effective_curve(params, compression)
    return params.disease_max_Dmax * sigmoid(k_c * (s - s0_c))


def _k_eff(params: ModelParams, compression: float, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """k_eff(A) = k_c * (1 - eta * max(0, A - A0)) over an array of adherence
    values, written to ``out``."""
    k_c, _ = _effective_curve(params, compression)
    k = np.subtract(a, params.adherence_baseline_A0, out=out)
    np.maximum(0.0, k, out=k)
    k *= params.severity_coupling_eta
    np.subtract(1.0, k, out=k)
    k *= k_c
    return k


def _logit_steps(h, k_start, k_mid, k_end):
    """Logit increments over steps of width h from k_eff at each step's start,
    midpoint and end: RK4 on z' = k_eff(A), which is Simpson's rule
    (h/6) * (k_start + 4 * k_mid + k_end)."""
    steps = np.multiply(k_mid, 4.0)
    steps += k_start
    steps += k_end
    steps *= h / 6.0
    return steps


def _severity_grid(params: ModelParams, policy: PolicyConfig, times: np.ndarray, a: np.ndarray, work: np.ndarray):
    """Severity on the grid, one row per arm, via RK4/Simpson on the logit
    variable from each panel's adherence at its start, midpoint and end, read
    at the grid's points (``a``, in either ``_panel_reads`` layout).  ``work``,
    shaped like ``a``, is scratch."""
    n = len(times)
    if params.severity_coupling_eta == 0.0:
        severity = np.empty((len(a), n))
        severity[...] = _logistic_closed_form(params, times, policy.progression_compression)
        return severity

    k = _k_eff(params, policy.progression_compression, a, out=work)
    steps = _logit_steps(times[1], *_panel_reads(k, n))
    z = np.empty((len(a), n))
    z[:, 0] = 0.0
    np.add.accumulate(steps, axis=-1, out=z[:, 1:])
    z += -params.disease_steepness_k * params.disease_midpoint_s0
    severity = sigmoid(z, out=z)
    severity *= params.disease_max_Dmax
    return severity


def _discounted_trapezoid(disc: np.ndarray, h: float, f_start, f_end, out: np.ndarray, scratch=None) -> np.ndarray:
    """Cumulative trapezoid of disc * f from each panel's start and end values,
    0 at the first node, one row per arm, into ``out``.  The end terms
    disc * f_end go to ``scratch`` (which may be ``f_end``) if given."""
    panels = out[:, 1:]
    np.multiply(f_start, disc[:-1], out=panels)
    panels += np.multiply(f_end, disc[1:], out=scratch)
    panels *= h / 2.0
    out[:, 0] = 0.0
    np.add.accumulate(panels, axis=-1, out=panels)
    return out


@functools.lru_cache(maxsize=8)
def _grid(horizon: float, steps_per_year: int, rho: float) -> tuple[np.ndarray, ...]:
    """The part of a kernel call that no gain changes, as read-only arrays: the
    nodes, their discount factors and canonical nodes, and the 3n - 2 points
    adherence that varies on a piece is read at (the nodes, then each panel's
    midpoint and right end) with the canonical node of the piece read at
    each: its panel's start."""
    if steps_per_year < 1 or steps_per_year % STEPS_PER_YEAR:
        # Only refinements of the canonical grid keep every policy event on a node.
        raise ValueError(f"steps_per_year must be a positive multiple of {STEPS_PER_YEAR}, "
                         f"got {steps_per_year}")
    times = time_grid(horizon, steps_per_year)
    nodes = np.arange(len(times)) // (steps_per_year // STEPS_PER_YEAR)
    grid = (
        times, np.exp(-rho * times), nodes,
        np.concatenate((times, times[:-1] + times[1] / 2.0, times[1:])),
        np.concatenate((nodes, nodes[:-1], nodes[:-1])),
    )
    for array in grid:
        array.setflags(write=False)
    return grid


def _piece_constant(policy: PolicyConfig) -> bool:
    """Whether adherence is constant on each policy piece: neither the gain
    nor the baseline decays, so a panel's start read is also its midpoint
    and end read."""
    return _gain_law(policy, 0.0)[1] == 0.0 and policy.baseline_decay is None


def _panel_reads(x: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """The (start, midpoint, end) views of each panel's reads in ``x``, one row
    per arm: of the 3n - 2 points (the nodes, then the midpoints and the right
    ends), or of the n nodes alone, whose start read serves all three."""
    start = x[:, :n - 1]
    if x.shape[1] == n:
        return start, start, start
    return start, x[:, n:2 * n - 1], x[:, 2 * n - 1:]


def _rest_rows(params: ModelParams, policy: PolicyConfig, grid, deltas, nudges, buffers=None):
    """Adherence, severity and the rest rate at the nodes, and the cumulative
    rest channel, one row per gain.  Adherence is read at the n nodes if it is
    constant on each piece, else at the 3n - 2 points.  It is read into the
    first elements of one of two flat ``buffers`` and the other is scratch;
    both are made here if not given."""
    times, disc, nodes, points, pieces = grid
    n = len(times)
    if _piece_constant(policy):
        points, pieces = times, nodes
    size = len(nudges[1]) * points.size
    if buffers is None:
        buffers = np.empty(size), np.empty(size)
    # Contiguous views: a strided one costs numpy about 1 us a row per call.
    a, work = (buf[:size].reshape(-1, points.size) for buf in buffers)
    adherence_array(params, policy, deltas, nudges, points, pieces, a)
    severity = _severity_grid(params, policy, times, a, work)

    # The engine has no health-outcome term: lambda * H is zero.
    # alpha * D + beta * A^2 at the nodes, and at each panel's end.
    disease = np.multiply(severity, params.disease_cost_alpha)
    rest_nodes, rest_end = np.square(a[:, :n]), np.square(_panel_reads(a, n)[2])
    for rate, d in ((rest_nodes, disease), (rest_end, disease[:, 1:])):
        rate *= params.adherence_cost_beta
        rate += d
    # The trapezoid overwrites rest_end, and alpha * D, which it is done with.
    rest = _discounted_trapezoid(disc, times[1], rest_nodes[:, :-1], rest_end, disease, scratch=rest_end)
    rest += params.baseline_cost_C0
    return a[:, :n], severity, rest_nodes, rest


def _spend_rows(policy: PolicyConfig, grid, nudges):
    """P at the nodes and the cumulative spend channel, one row per log."""
    times, disc, nodes = grid[:3]
    p = _spend_at_nodes(policy, nudges, nodes)
    # P is constant on each panel: its value at the end is the one at the start.
    return p, _discounted_trapezoid(disc, times[1], p[:, :-1], p[:, :-1], np.empty_like(p))


# A log that fires no nudge spends the step 1[node >= i0], whatever the kind.
_STEP_POLICY = PolicyConfig(kind=PolicyKind.EARLY_ADHERENCE)


@functools.lru_cache(maxsize=32)
def _unnudged_spend(i0: int, horizon: float, steps_per_year: int, rho: float) -> tuple[np.ndarray, ...]:
    """P and the cumulative spend channel, as read-only (1, n) rows, of an arm
    that spends from tau's node i0 on and fires no nudge."""
    grid = _grid(horizon, steps_per_year, rho)
    rows = _spend_rows(_STEP_POLICY, grid, (i0, np.zeros(1, dtype=np.int64)))
    for row in rows:
        row.setflags(write=False)
    return rows


def _spend(params: ModelParams, policy: PolicyConfig, steps_per_year: int, grid, nudges):
    """``_spend_rows`` of logs with distinct periods, from the cache when the
    one log is period 0."""
    if nudges[1].any():
        return _spend_rows(policy, grid, nudges)
    return _unnudged_spend(nudges[0], params.horizon_T, steps_per_year, params.discount_rate_rho)


@functools.lru_cache(maxsize=8)
def _never_started_rows(key: bytes, steps_per_year: int) -> tuple[np.ndarray, ...]:
    """``_rest_rows`` of an arm that never starts, as read-only (1, n) rows.

    ``key`` packs the floats the rows depend on (``_never_started``): the
    ModelParams fields, then the policy's progression compression, baseline
    decay (NaN for none) and a zero with the sign of its gain: the arm's
    adherence is A0 + 0 * gain throughout (times the baseline's decay), so
    when A0 is -0.0 the gain's sign sets that zero's.
    """
    *fields, compression, decay, zero = struct.unpack(f"{len(key) // 8}d", key)
    params = ModelParams(*fields)
    policy = PolicyConfig(kind=PolicyKind.BASELINE, adherence_gain_delta=zero,
                          baseline_decay=None if math.isnan(decay) else decay,
                          progression_compression=compression)
    grid = _grid(params.horizon_T, steps_per_year, params.discount_rate_rho)
    a, *rest = _rest_rows(params, policy, grid, [zero], _nudge_periods(params, policy, [zero]))
    # The adherence row is a view of its read buffer, which may hold 3n - 2 points.
    rows = (a.copy(), *rest)
    for row in rows:
        row.setflags(write=False)
    return rows


def _never_started(params: ModelParams, policy: PolicyConfig, steps_per_year: int) -> tuple[np.ndarray, ...]:
    """``_never_started_rows`` of a policy that never starts, keyed by the bit
    patterns of its floats: ModelParams compares 0.0 equal to -0.0."""
    decay = policy.baseline_decay
    floats = (*vars(params).values(), policy.progression_compression,
              math.nan if decay is None else decay, math.copysign(0.0, policy.adherence_gain_delta))
    return _never_started_rows(struct.pack(f"{len(floats)}d", *floats), steps_per_year)


def simulate_trajectory(
    params: ModelParams,
    policy: PolicyConfig,
    steps_per_year: int = STEPS_PER_YEAR,
) -> Trajectory:
    """Simulate one policy arm on the fixed grid."""
    grid = _grid(params.horizon_T, steps_per_year, params.discount_rate_rho)
    deltas = [policy.adherence_gain_delta]
    nudges = _nudge_periods(params, policy, deltas)
    if nudges[0] > grid[2][-1]:
        # Never starts: the cached rows, with copies for the public columns.
        a, severity, rest_nodes, rest = _never_started(params, policy, steps_per_year)
        a, severity = a.copy(), severity.copy()
    else:
        a, severity, rest_nodes, rest = _rest_rows(params, policy, grid, deltas, nudges)
    p, spend = _spend(params, policy, steps_per_year, grid, nudges)
    return Trajectory(
        times=grid[0].copy(),
        adherence=a[0],
        severity=severity[0],
        policy_cost=p[0].copy(),
        rest_cost=float(rest[0, -1]),
        spend_integral=float(spend[0, -1]),
        _cost=functools.partial(total_cost, params, policy),
        _rows=(rest_nodes[0], p[0], rest[0], spend[0]),
    )


def arm_costs(params: ModelParams, policy: PolicyConfig, deltas) -> tuple[np.ndarray, np.ndarray]:
    """Rest cost and spend integral at the horizon of one arm per gain in ``deltas``.

    Row i equals ``simulate_trajectory`` of ``policy`` with gain ``deltas[i]``
    bit for bit: ``total_cost`` of the pair is that run's ``final_cost``.  The
    gains are taken as given: the sweep checks its axis lies in [0, 1], and
    every ``DistributionSpec`` draws in [0, 1].

    The nudge periods are computed first, ``_CHUNK_ARMS`` gains at a time.
    The rest channel then takes the gains in chunks in stable period order
    and scatters each chunk's horizon values back to the gains' indices, so
    the gains no nudge fires in share chunks that read one adherence profile.
    Every chunk reads adherence into the first elements of one buffer of
    ``_CHUNK_ARMS * (3n - 2)`` elements and works in another, so that their
    pages are not handed back to the system and faulted in again from chunk
    to chunk.  The spend channel runs once per distinct period.
    """
    deltas = np.asarray(deltas, dtype=float)
    grid = _grid(params.horizon_T, STEPS_PER_YEAR, params.discount_rate_rho)
    periods = np.empty(deltas.size, dtype=np.int64)
    for lo in range(0, deltas.size, _CHUNK_ARMS):
        chunk = slice(lo, lo + _CHUNK_ARMS)
        i0, periods[chunk] = _nudge_periods(params, policy, deltas[chunk])
    order = np.argsort(periods, kind="stable")
    rest = np.empty(deltas.size)
    buffers = [np.empty(min(_CHUNK_ARMS, deltas.size) * len(grid[3])) for _ in range(2)]
    for lo in range(0, deltas.size, _CHUNK_ARMS):
        chunk = order[lo:lo + _CHUNK_ARMS]
        rest[chunk] = _rest_rows(params, policy, grid, deltas[chunk], (i0, periods[chunk]), buffers)[-1][:, -1]
    distinct, which = np.unique(periods, return_inverse=True)
    spend = np.empty(distinct.size)
    for lo in range(0, distinct.size, _CHUNK_ARMS):
        block = slice(lo, lo + _CHUNK_ARMS)
        spend[block] = _spend(params, policy, STEPS_PER_YEAR, grid, (i0, distinct[block]))[1][:, -1]
    return rest, spend[which]
