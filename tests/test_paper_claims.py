"""The source paper's headline claims, checked against the engine at the
reference parameters (``data/reference_params.txt``).

A reproduced claim is pinned as a property of the engine.  A claim the
engine does not reproduce is a gap: its test pins the engine's own number,
so a change that moves it is seen.  The reference parameters are not tuned
to close a gap, since that would move the goldens.

| Claim in the abstract                               | Engine at the reference parameters                 | Status         |
|-----------------------------------------------------|----------------------------------------------------|----------------|
| Early and adaptive interventions yield the highest  | ROI early_adherence 9.74% > adaptive_nudges 4.46%  | reproduced     |
| ROI                                                 | > delayed 0.32% > regressive -3.89%                |                |
|                                                     | > low_impact -14.26%                               |                |
| Low-impact or high-cost policies fail to break even | low_impact -14.26%; early_adherence at delta=0.20  | reproduced     |
|                                                     | breaks even at gamma* = 1.35, -0.89% at gamma=1.5  |                |
| ROI > 20% when delta >= 0.20 and gamma <= 1.5       | early_adherence, delta=0.20, gamma=1.5: -0.89%     | gap            |
|                                                     | (delta=0.30: 9.74%; only delta=0.45 gives 25.24%); |                |
|                                                     | gamma_20 = -1.43, 0.20, 2.08 at delta = 0.20,      |                |
|                                                     | 0.30, 0.45; gamma_20 >= 1.5 from delta ~ 0.395     |                |
|                                                     | (adaptive_nudges: 0.418); no arm reaches 50%       |                |
| $312 per patient savings                            | early_adherence saves $350.74, adaptive_nudges     | gap (unpinned) |
|                                                     | $168.75; the abstract names no arm                 |                |
| 32% ROI gap between income strata                   | the engine has no strata                           | not checkable  |
| Robust under stochastic adherence and inflation     | Monte Carlo draws delta only; inflation is a fixed | partly covered |
| variability                                         | stress multiplier                                  |                |
"""

from dataclasses import replace

import pytest

import numpy as np

from adhersim.analytics import baseline_cost, breakeven_gamma, gamma_at_roi, reachable, roi
from adhersim.costmodel import arm_costs, simulate_trajectory
from adhersim.scenarios import PRESET_NAMES, build_preset

RANKED = ("early_adherence", "adaptive_nudges", "delayed", "regressive", "low_impact")


@pytest.fixture(scope="module")
def c_base(ref_params):
    return baseline_cost(ref_params)


def _roi(params, c_base, name, **overrides):
    policy = replace(build_preset(name), **overrides)
    return roi(c_base, simulate_trajectory(params, policy).final_cost)


def test_early_and_adaptive_lead_the_roi_order(ref_params, c_base):
    rois = {name: _roi(ref_params, c_base, name) for name in RANKED}
    assert sorted(rois, key=rois.get, reverse=True) == list(RANKED)
    assert rois["early_adherence"] == pytest.approx(9.74, abs=0.005)
    assert rois["adaptive_nudges"] == pytest.approx(4.46, abs=0.005)
    assert rois["low_impact"] == pytest.approx(-14.26, abs=0.005)


def test_low_impact_fails_to_break_even(ref_params, c_base):
    assert _roi(ref_params, c_base, "low_impact") < 0.0
    policy = build_preset("low_impact")
    [gamma_star] = breakeven_gamma(ref_params, policy, [policy.adherence_gain_delta])
    assert gamma_star < policy.cost_scale_gamma


def test_high_cost_early_adherence_loses_money(ref_params, c_base):
    [gamma_star] = breakeven_gamma(ref_params, build_preset("early_adherence"), [0.20])
    assert gamma_star == pytest.approx(1.35, abs=0.005)
    assert _roi(ref_params, c_base, "early_adherence", adherence_gain_delta=0.20,
                cost_scale_gamma=1.5) < 0.0


def test_gap_roi_above_20_percent_is_not_reproduced(ref_params, c_base):
    """The claim needs ROI > 20% at delta = 0.20, gamma = 1.5; the engine gives -0.89%."""
    r = _roi(ref_params, c_base, "early_adherence", adherence_gain_delta=0.20, cost_scale_gamma=1.5)
    assert r == pytest.approx(-0.89, abs=0.005)
    assert _roi(ref_params, c_base, "early_adherence", adherence_gain_delta=0.45,
                cost_scale_gamma=1.5) > 20.0


def _gamma_at(params, c_base, name, deltas, level):
    """gamma_L of each gain's arm: ROI >= level exactly for gamma <= gamma_L."""
    policy = build_preset(name)
    rest, spend = arm_costs(params, policy, deltas)
    return gamma_at_roi(params, policy, c_base, rest, spend, level)


def test_gap_20_percent_bracket_on_the_iso_roi_curve(ref_params, c_base):
    """The exact 20% iso-ROI curve: at delta = 0.20 no gamma >= 0 gives 20%,
    and gamma = 1.5 gives 20% only from delta ~ 0.395 (early_adherence) and
    ~ 0.418 (adaptive_nudges) on."""
    gammas = _gamma_at(ref_params, c_base, "early_adherence", [0.20, 0.30, 0.45], 20.0)
    assert gammas == pytest.approx([-1.43, 0.20, 2.08], abs=0.005)
    deltas = np.linspace(0.0, 1.0, 2001)
    for name, first in (("early_adherence", 0.395), ("adaptive_nudges", 0.418)):
        reaches = _gamma_at(ref_params, c_base, name, deltas, 20.0) >= 1.5
        assert deltas[reaches.argmax()] == pytest.approx(first, abs=0.001)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_no_arm_reaches_50_percent(ref_params, c_base, name):
    """Level 50 of the exported contours has no point: no gain in [0, 1] reaches it."""
    gammas = _gamma_at(ref_params, c_base, name, np.linspace(0.0, 1.0, 201), 50.0)
    assert reachable(gammas) == [None] * 201


@pytest.mark.parametrize("name, saving", [("early_adherence", 350.74), ("adaptive_nudges", 168.75)])
def test_gap_312_dollar_saving_is_not_pinned(ref_params, c_base, name, saving):
    """Neither arm saves the abstract's $312 per patient."""
    cost = simulate_trajectory(ref_params, build_preset(name)).final_cost
    assert c_base - cost == pytest.approx(saving, abs=0.01)
