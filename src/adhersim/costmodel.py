"""Cost model: disease dynamics, the four-term cost integrand, and discounted
cumulative-cost integration.

Severity follows dD/ds = k_eff(s) * D * (1 - D/Dmax) with
k_eff(s) = k * (1 - eta * max(0, A(s) - A0)) and D(0) on the exogenous
logistic, so with eta = 0 or A = A0 the closed-form logistic
Dmax / (1 + exp(-k (s - s0))) is recovered exactly.  The ODE is integrated
with fixed-step fourth-order Runge-Kutta on the logit z = ln(D / (Dmax - D)),
where the right-hand side reduces to z' = k_eff(s); for a state-independent
right-hand side the RK4 stage sum is Simpson's rule, which keeps the
closed-form reduction exact instead of O(h^4)-approximate (``_simpson_sums``).

With A = A0 + delta * e, where the decay factor e depends on a gain only
through its nudge period (``scenarios._decay_factor``), the excess
max(0, A - A0) is delta * e wherever adherence does not clip and the
baseline does not decay.  Simpson's rule on k_eff is then

    z(t) = -k*s0 + (R(t) - k_c * eta * delta * S(t)),

with R the running Simpson sum of k_c (the no-policy logit) and S that of
e.  k_c goes into the weight of S's panels, so the kernel forms
(eta * delta) * (k_c S), which is 0 up to tau's node even where k_c * eta
overflows.  S is one row per distinct period, summed in one pass with R:
the gains no nudge fires share one.  A gain whose float A0 + delta exceeds 1,
or any gain of a policy whose baseline decays, integrates its own excess in
place of delta * e.  The no-policy arm and every gain-free span have S = 0,
so their logit is R, Simpson's rule on k_eff = k_c.

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
cached as read-only arrays (``_grid``, ``_unnudged_spend``).  The nudge logs
enter as integers, a period per gain (``scenarios._nudge_periods``), and the
spend channel depends on a gain only through it.  The rule's node arithmetic
runs in float64, which is exact on every grid ModelParams allows
(``scenarios._activations_by``).

Before tau's node i0 every piece is inactive, so adherence, severity and
alpha*D + beta*A^2 are the same for every gain there: ``arm_costs`` runs
that head once and the tail from node k0 = min(i0, n - 2) per chunk of gains.
A policy that never starts or starts on the last node keeps a one-panel
tail, and tau at node 0 leaves the head empty.  A span's R and rest sums go
on from given raw sums, and S from -0.0, as no gain acts before tau's node;
the -k*s0 offset and C0 are added after them.  Its panels keep the grid's
step h, so each sum adds the one-arm run's terms in its order.

The decay factor is read only where it can vary (``_read_layout``), once
per period, and adherence once per gain at the nodes and, where a jump can
part them from the next node's, at the panel ends.  A panel's midpoint and
end read the piece of its start node, so where e is constant on each piece
(no decay of the gain or of the baseline) the start read serves all three,
bit for bit.  Where every piece is active and no nudge fires, e depends on
the time alone, so a panel's end read is the next node's, bit for bit.

Each row equals the one-arm run bit for bit, whatever rows share its chunk.
Which sum a row takes depends on its gain and policy alone, and R and S
depend on no other gain, so the row's terms are its one-arm run's.  Each
quantity is written by a few in-place array operations that make the
formula's float operations in its order (swapping the two operands of one
sum or product, which leaves its result unchanged); every reduction along
the grid is a row-wise cumulative sum; and ``simulate_trajectory`` runs the
same ``_rest_rows`` for one gain, on the whole grid read in the head's
layout.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .numerics import STEPS_PER_YEAR, sigmoid, time_grid
from .params import ModelParams
from .scenarios import (
    Pieces,
    PolicyConfig,
    _decay_factor,
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
    channel in ``_rows`` may be the spend cache's read-only rows;
    ``policy_cost`` is a copy.  Runs compare and hash by identity.
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


# Arms per kernel call.  A chunk reads the decay factor of each of its
# distinct nudge periods, and the adherence of each row that integrates its
# own excess, at up to 3n - 2 points (3 001 on the 10-year canonical grid):
# about 25 000 points per call.  A per-chunk allocation of 128 KiB or more is
# mapped afresh and faulted in again on every chunk, so ``arm_costs`` keeps
# the buffers of B * (3n' - 2) elements, sized by the tail of n' nodes, for
# all its chunks (``_Workspace``; a chunk read in a smaller layout uses their
# first elements), and every other per-chunk array is (B, n') or smaller: at
# most 64 KiB here.
_CHUNK_ARMS = 25_000 // 3_001


def _effective_curve(params: ModelParams, compression: float) -> tuple[float, float]:
    """Disease-curve parameters after time compression (k/c, c*s0)."""
    return params.disease_steepness_k / compression, params.disease_midpoint_s0 * compression


def _logistic_closed_form(params: ModelParams, s: np.ndarray, compression: float) -> np.ndarray:
    k_c, s0_c = _effective_curve(params, compression)
    return params.disease_max_Dmax * sigmoid(k_c * (s - s0_c))


def _simpson_sums(weight: float, x: np.ndarray, n: int, r=None) -> np.ndarray:
    """Running sums of Simpson's rule on x, read at each panel's start,
    midpoint and end in any ``_panel_reads`` layout: one row per row of x on
    n nodes, going on from -0.0, the sum's identity, at the first node.  Each
    panel adds ((4 * x_mid + x_start) + x_end) * weight, where weight is h/6
    times any constant factor of x.  Reads of one value per row give each row
    one step, formed once and then written to every panel of the row.

    ``r`` = (start, step) adds a last row that goes on from start by the same
    step on every panel, summed in the same pass."""
    sums = np.empty((len(x) + (r is not None), n))
    if r is not None:
        sums[-1, 0], sums[-1, 1:] = r
    sums[:len(x), 0] = -0.0
    x_start, x_mid, x_end = _panel_reads(x, n)
    out = sums[:len(x), 1:]
    steps = np.multiply(x_mid, 4.0, out=out if x_mid.shape == out.shape else None)
    steps += x_start
    steps += x_end
    steps *= weight
    if steps is not out:
        out[...] = steps
    return np.add.accumulate(sums, axis=-1, out=sums)


def _discounted_trapezoid(disc: np.ndarray, h: float, f_start, f_end, start, out: np.ndarray,
                          scratch=None, bound: float = math.inf) -> np.ndarray:
    """Cumulative trapezoid of disc * f from each panel's start and end values,
    one row per arm, into ``out``, going on from ``start`` at the first node.
    The end terms disc * f_end go to ``scratch`` (which may be ``f_end``) if
    given.

    With ``f_end`` None, ``f_start`` holds f at every node and a panel's end
    value is the next node's: disc * f is then formed once per node, in place
    in ``f_start``, and each panel adds its two nodes' terms.  Where ``bound``
    bounds |f| below 2**1023, it bounds every term too (disc <= 1), and no
    sum of two terms can overflow, so the
    neighbouring terms of the C-contiguous ``f_start`` and ``out`` are added in
    one flat pass, which costs numpy one loop in place of one per row.  The
    first cell of each later row then holds a sum across two rows, which
    ``start`` overwrites; the pass raises no floating-point warning the
    row-wise sums would not."""
    panels = out[:, 1:]
    if f_end is None:
        terms = np.multiply(f_start, disc, out=f_start)
        if bound < 2.0**1023:
            flat = terms.reshape(-1)
            np.add(flat[:-1], flat[1:], out=out.reshape(-1)[1:])
        else:
            np.add(terms[:, :-1], terms[:, 1:], out=panels)
    else:
        np.multiply(f_start, disc[:-1], out=panels)
        panels += np.multiply(f_end, disc[1:], out=scratch)
    panels *= h / 2.0
    out[:, 0] = start
    return np.add.accumulate(out, axis=-1, out=out)


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
    return policy.decay_theta == 0.0 and policy.baseline_decay is None


def _panel_reads(x: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """The (start, midpoint, end) views of each panel's reads in ``x``, one row
    per arm, on n nodes.  ``x`` holds one of four layouts, told apart by its
    width: the 3n - 2 points (the nodes, then the midpoints and the right
    ends); the nodes and midpoints (2n - 1), where a panel's end read is the
    next node's; the n nodes alone, whose start read serves all three; or one
    value per row, which serves every read of every panel.  On one node,
    which has no panel, the four coincide."""
    width = x.shape[1]
    start = x[:, :n - 1]
    if width == n:
        return start, start, start
    if width == 1:
        return x, x, x
    if width == 2 * n - 1:
        return start, x[:, n:], x[:, 1:n]
    return start, x[:, n:2 * n - 1], x[:, 2 * n - 1:]


def _span(grid, lo: int, hi: int):
    """Nodes lo .. hi - 1 of ``grid`` as a grid of their own: their times,
    discount factors and canonical nodes, and their panels' 3n' - 2 points
    with the canonical node of the piece read at each."""
    times, disc, nodes, points, pieces = grid
    n = len(times)
    cut = np.r_[lo:hi, n + lo:n + hi - 1, 2 * n - 1 + lo:2 * n - 2 + hi]
    return times[lo:hi], disc[lo:hi], nodes[lo:hi], points[cut], pieces[cut]


def _read_layout(policy: PolicyConfig, grid, active: bool = False, fires: bool = True):
    """``grid`` with its points cut to those the decay factor e is read at
    (``_panel_reads``): where it is constant on each piece, one value per row
    if every piece is active, else the n nodes; where every piece is active
    and no nudge fires, the nodes and midpoints; else the 3n - 2 points.  The
    pieces read go to ``_decay_factor`` as ``Pieces``: the points past the
    nodes read their panel's start node's piece, and ``active`` says every
    piece is active."""
    times, disc, nodes, points, pieces = grid
    n = len(times)
    if _piece_constant(policy):
        width = 1 if active else n
    else:
        width = 2 * n - 1 if active and not fires else 3 * n - 2
    return times, disc, nodes, points[:width], Pieces(pieces[:width], min(n, width), active)


class _Workspace:
    """What the chunks of one ``arm_costs`` call share, on one grid and from
    one start: a flat buffer of ``size`` elements for the decay factor of a
    chunk's distinct periods, and one, made on first use, for the adherence
    of the rows that integrate their own excess; and the last chunk's decay
    factor and running sums R and k_c S, with the periods and read layout
    they were read for, which a chunk with the same ones reuses.  The
    gains no nudge fires come first in period order, so their chunks read
    these once."""

    def __init__(self, size: int):
        self.decay, self.excess = np.empty(size), None
        self.r = self.key = self.e = self.s = None


def _rest_rows(params: ModelParams, policy: PolicyConfig, grid, deltas, nudges, start, buffers=None):
    """The rows (adherence, severity and the rest rate at the nodes), the raw
    cumulative rest channel and the running sum R at the last node, one row
    per gain, on a grid or ``_span`` whose points are cut to a ``_read_layout``.

    ``start`` is (h, r, c): the grid's step, and R and the raw rest sum at
    the first node, before the -k*s0 offset and C0, which the sums go on
    from.  From time 0 both are -0.0, so the rest channel's first node is
    -0.0: a one-arm run writes it as +0.0 before adding C0, so C(0) is
    C0 + 0.0.  R is None with eta = 0, where the closed form needs no sum.
    In the one-value and 2n' - 1 layouts the rows are scratch: the trapezoid
    overwrites the rest rate and severity with its discounted terms.

    The decay factor e is read once per distinct period in ``nudges``, at
    the layout's points, and adherence once per gain at the nodes, and at the
    panel ends where they may differ from the next node's.  The logit is
    R - (eta * delta) * (k_c S), and k_c S, the running Simpson sum of
    k_c * e, is shared by the gains of a period.  A row whose float
    A0 + delta exceeds 1, so that adherence may clip, or whose baseline
    decays reads its adherence at every point and sums k_c * max(0, A - A0)
    in place of k_c * e, with eta in place of eta * delta.  These sums go on
    from -0.0: no gain acts on a span before tau's node.  ``buffers`` is the
    ``_Workspace`` of a call's chunks, made here if not given."""
    times, disc, _, points, pieces = grid
    h, r0, c0 = start
    n, width = len(times), points.size
    deltas = np.asarray(deltas, dtype=float)
    i0, periods = nudges
    if buffers is None:
        buffers = _Workspace(len(periods) * width)
    # One decay row serves the gains of one period, else one per distinct period.
    one = periods.size == 1 or not np.count_nonzero(periods != periods[0])
    distinct, rows = (periods[:1], slice(None)) if one else np.unique(periods, return_inverse=True)
    eta = params.severity_coupling_eta
    k_c = _effective_curve(params, policy.progression_compression)[0]
    # k_c in each panel's weight keeps S at 0.0 until tau, even where k_c * eta overflows.
    weight = k_c * (h / 6.0)
    key = (width, distinct.tobytes())
    if buffers.key != key:
        # Contiguous rows: a strided view costs numpy about 1 us a row per call.
        e = buffers.decay[:distinct.size * width].reshape(-1, width)
        buffers.key, buffers.e = key, _decay_factor(policy, (i0, distinct), points, pieces, out=e)
        if eta != 0.0:
            # R, Simpson's rule on k_c, takes the same step on every panel.
            sums = _simpson_sums(weight, e if policy.baseline_decay is None else e[:0], n,
                                 (r0, (4.0 * k_c + k_c + k_c) * (h / 6.0)))
            buffers.s, buffers.r = sums[:-1], sums[-1:]
    e = buffers.e

    if eta == 0.0:
        severity = np.empty((len(deltas), n))
        severity[...] = _logistic_closed_form(params, times, policy.progression_compression)
        r_end = None
    else:
        # Rows that may clip, and every row whose baseline decays, integrate their own excess.
        own = (np.ones(len(deltas), dtype=bool) if policy.baseline_decay is not None
               else params.adherence_baseline_A0 + deltas > 1.0)
        n_own = np.count_nonzero(own)
        if n_own:
            if buffers.excess is None:
                buffers.excess = np.empty(buffers.decay.size)
            a = adherence_array(params, policy, deltas[own], e if one else e[rows[own]], points,
                                out=buffers.excess[:n_own * width].reshape(-1, width))
            excess = np.subtract(a, params.adherence_baseline_A0, out=a)
            own_sums = _simpson_sums(weight, np.maximum(0.0, excess, out=excess), n)
            own_sums *= eta
        if policy.baseline_decay is not None:
            z = own_sums
        else:
            z = np.multiply((eta * deltas)[:, None], buffers.s[rows])
            if n_own:
                z[own] = own_sums
        np.subtract(buffers.r, z, out=z)
        r_end = buffers.r[0, -1]
        z += -params.disease_steepness_k * params.disease_midpoint_s0
        severity = sigmoid(z, out=z)
        severity *= params.disease_max_Dmax

    # The engine has no health-outcome term: lambda * H is zero.
    # alpha * D + beta * A^2 at the nodes, and at each panel's end.
    a_nodes = adherence_array(params, policy, deltas, e[rows, :n], points[:n])
    disease = np.multiply(severity, params.disease_cost_alpha)
    if width in (1, 2 * n - 1):
        # A panel's end read is the next node's, so its end rate is too.  The
        # trapezoid overwrites the rates with their discounted terms, and
        # severity, which it is done with.
        adherence_rate = np.square(a_nodes)
        adherence_rate *= params.adherence_cost_beta
        rest_nodes = np.add(disease, adherence_rate, out=disease)
        # |alpha * D + beta * A^2| <= |alpha| + |beta|: D <= Dmax <= 1 and A <= 1.
        bound = abs(params.disease_cost_alpha) + abs(params.adherence_cost_beta)
        rest = _discounted_trapezoid(disc, h, rest_nodes, None, c0, severity, bound=bound)
    else:
        # Adherence is constant on each piece in the n' layout, so a panel's
        # end read is its start read there; else the ends are read apart.
        a_end = a_nodes[:, :-1] if width == n else adherence_array(
            params, policy, deltas, e[rows, 2 * n - 1:], points[2 * n - 1:])
        rest_nodes, rest_end = np.square(a_nodes), np.square(a_end)
        for rate, d in ((rest_nodes, disease), (rest_end, disease[:, 1:])):
            rate *= params.adherence_cost_beta
            rate += d
        # The trapezoid overwrites rest_end, and alpha * D, which it is done with.
        rest = _discounted_trapezoid(disc, h, rest_nodes[:, :-1], rest_end, c0, disease, scratch=rest_end)
    return (a_nodes, severity, rest_nodes), rest, r_end


def _spend_rows(unit_cost: float, grid, nudges):
    """P at the nodes and the cumulative spend channel, one row per log, for
    a nudge window's ``unit_cost``; P is never -0.0, so it starts at +0.0."""
    times, disc, nodes = grid[:3]
    p = _spend_at_nodes(unit_cost, nudges, nodes)
    # P is constant on each panel: its value at the end is the one at the start.
    return p, _discounted_trapezoid(disc, times[1], p[:, :-1], p[:, :-1], 0.0, np.empty_like(p))


@functools.lru_cache(maxsize=32)
def _unnudged_spend(i0: int, horizon: float, steps_per_year: int, rho: float) -> tuple[np.ndarray, ...]:
    """P and the cumulative spend channel, as read-only (1, n) rows, of an arm
    that spends from tau's node i0 on and fires no nudge: whatever its unit
    cost, such a log spends the step 1[node >= i0]."""
    grid = _grid(horizon, steps_per_year, rho)
    rows = _spend_rows(0.0, grid, (i0, np.zeros(1, dtype=np.int64)))
    for row in rows:
        row.setflags(write=False)
    return rows


def _spend(params: ModelParams, policy: PolicyConfig, steps_per_year: int, grid, nudges):
    """``_spend_rows`` of logs with distinct periods, from the cache when the
    one log is period 0."""
    if nudges[1].any():
        return _spend_rows(policy.nudge_unit_cost, grid, nudges)
    return _unnudged_spend(nudges[0], params.horizon_T, steps_per_year, params.discount_rate_rho)


def simulate_trajectory(
    params: ModelParams,
    policy: PolicyConfig,
    steps_per_year: int = STEPS_PER_YEAR,
) -> Trajectory:
    """Simulate one policy arm on the fixed grid."""
    grid = _read_layout(policy, _grid(params.horizon_T, steps_per_year, params.discount_rate_rho))
    deltas = [policy.adherence_gain_delta]
    nudges = _nudge_periods(params, policy, deltas)
    (a, severity, rest_nodes), rest, _ = _rest_rows(params, policy, grid, deltas, nudges, (grid[0][1], -0.0, -0.0))
    # The channel's first node holds the -0.0 it went on from: C(0) is C0 + 0.0.
    rest[:, 0] = 0.0
    rest += params.baseline_cost_C0
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

    The nudge periods are computed first, in one call over every gain.  The
    head before tau's node runs once, for the first gain.  The tail then takes
    the gains in chunks in stable period order, goes on from the head's raw
    sums, and scatters each chunk's horizon values back to the gains'
    indices.  The chunks share one ``_Workspace``: the gains no nudge fires
    come first and read one decay factor and its S, once, and a chunk where
    a nudge fires reads them once per distinct period; ``_read_layout``
    gives the layouts each reads in.  Its buffers of
    ``_CHUNK_ARMS * (3n' - 2)`` elements serve every chunk, so that their
    pages are not handed back to the system and faulted in again from chunk
    to chunk.  The spend channel runs once per distinct period.  An empty
    ``deltas`` gives two empty arrays.
    """
    deltas = np.asarray(deltas, dtype=float)
    if not deltas.size:
        return np.empty(0), np.empty(0)
    grid = _grid(params.horizon_T, STEPS_PER_YEAR, params.discount_rate_rho)
    i0, periods = _nudge_periods(params, policy, deltas)
    n, h = len(grid[0]), grid[0][1]
    k0 = min(i0, n - 2)
    # The head ends at or before tau's node, so no nudge fires in it.  -0.0 is
    # the sums' identity: each goes on from the first panel's term.
    head = _read_layout(policy, _span(grid, 0, k0 + 1))
    _, head_rest, r = _rest_rows(params, policy, head, deltas[:1], (i0, np.zeros(1, dtype=np.int64)), (h, -0.0, -0.0))
    start = (h, r, head_rest[:, -1])
    tail = _span(grid, k0, n)
    order = np.argsort(periods, kind="stable")
    rest = np.empty(deltas.size)
    buffers = _Workspace(min(_CHUNK_ARMS, deltas.size) * len(tail[3]))
    for lo in range(0, deltas.size, _CHUNK_ARMS):
        chunk = order[lo:lo + _CHUNK_ARMS]
        nudges = (i0, periods[chunk])
        layout = _read_layout(policy, tail, active=k0 == i0, fires=nudges[1].any())
        rest[chunk] = _rest_rows(params, policy, layout, deltas[chunk], nudges, start, buffers)[1][:, -1]
    rest += params.baseline_cost_C0
    distinct, which = np.unique(periods, return_inverse=True)
    spend = np.empty(distinct.size)
    for lo in range(0, distinct.size, _CHUNK_ARMS):
        block = slice(lo, lo + _CHUNK_ARMS)
        spend[block] = _spend(params, policy, STEPS_PER_YEAR, grid, (i0, distinct[block]))[1][:, -1]
    return rest, spend[which]
