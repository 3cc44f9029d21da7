"""Pricing, Psi inversion, phi assembly, curve generation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import DESK_PAYOFFS, desk_params
from shortfall_hedge.errors import (HeavyTailError, InfeasibleInversionError,
                                    OutOfRangeError, ValidationError)
from shortfall_hedge.payoffs import (CUSTOM, DIGITAL, OUTPERFORMANCE, Payoff,
                                     QUANTO_DOMESTIC, SPREAD)
from shortfall_hedge.psi import LINEAR, LossSpec, POWER, psi_linear, psi_power
from shortfall_hedge.solver import (SolveConfig, curve, invert_psi1,
                                    invert_psi2, phi1, phi2, price)

LIN = LossSpec(LINEAR)
P2 = LossSpec(POWER, 2.0)


def test_price_symmetric_digital():
    params = desk_params(s0=(100.0, 100.0), alpha=(0.05, 0.05),
                         sigma=(0.25, 0.25), rho=0.3)
    got = price(Payoff(DIGITAL, 10.0), params)
    assert got == pytest.approx(math.exp(-0.02) * 5.0, rel=1e-12)


def test_price_zero_custom_payoff():
    zero = Payoff(CUSTOM, custom_eval=lambda s1, s2: np.zeros_like(s1))
    assert price(zero, desk_params()) == 0.0


def test_price_is_discounted_psi2_at_zero():
    params = desk_params(rho=-0.5)
    disc = math.exp(-params.r * params.T)
    for payoff in DESK_PAYOFFS:
        want = disc * psi_linear(payoff, params, c=0.0).psi2
        assert price(payoff, params) == pytest.approx(want, rel=1e-12)


def test_invert_psi2_round_trip():
    params = desk_params()
    payoff = Payoff(DIGITAL, 10.0)
    for c0 in (0.6, 1.2, 2.5):
        target = psi_linear(payoff, params, c=c0).psi2
        c = invert_psi2(payoff, params, LIN, target)
        assert abs(c - c0) <= 1e-6 * c0
    sp = Payoff(SPREAD, 5.0)
    target = psi_power(sp, params, c=30.0, p=2.0).psi2
    c = invert_psi2(sp, params, P2, target)
    assert abs(c - 30.0) <= 1e-5 * 30.0


def test_invert_psi1_round_trip_both_monotonicities():
    params = desk_params()
    qd = Payoff(QUANTO_DOMESTIC, 100.0)
    target = psi_power(qd, params, c=50.0, p=2.0).psi1  # nondecreasing side
    assert abs(invert_psi1(qd, params, P2, target) - 50.0) <= 1e-5 * 50.0
    dig = Payoff(DIGITAL, 10.0)
    target = psi_linear(dig, params, c=1.4).psi1  # nonincreasing side
    assert abs(invert_psi1(dig, params, LIN, target) - 1.4) <= 1e-6 * 1.4


def test_invert_c_grows_as_target_shrinks():
    params = desk_params()
    payoff = Payoff(SPREAD, 5.0)
    full = psi_linear(payoff, params, c=0.0).psi2
    cs = [invert_psi2(payoff, params, LIN, f * full) for f in (0.8, 0.4, 0.1)]
    assert cs[0] < cs[1] < cs[2]


def test_invert_rejects_unreachable_targets():
    params = desk_params()
    payoff = Payoff(DIGITAL, 10.0)
    full = psi_linear(payoff, params, c=0.0).psi2
    with pytest.raises(OutOfRangeError):
        invert_psi2(payoff, params, LIN, 1.5 * full)
    with pytest.raises(OutOfRangeError):
        invert_psi2(payoff, params, LIN, -0.3)
    with pytest.raises(OutOfRangeError):
        invert_psi1(payoff, params, P2, 1e9)


def test_phi1_edges_and_budget_feasibility():
    params = desk_params()
    payoff = Payoff(SPREAD, 5.0)
    p_h = price(payoff, params)
    assert phi1(payoff, params, LIN, p_h) == (0.0, 0.0)
    assert phi1(payoff, params, LIN, 2.0 * p_h) == (0.0, 0.0)
    risk0, c0 = phi1(payoff, params, LIN, 0.0)
    assert c0 == math.inf
    assert risk0 == pytest.approx(psi_linear(payoff, params, c=0.0).psi1,
                                  rel=1e-9)
    x = 0.4 * p_h
    risk, c = phi1(payoff, params, LIN, x)
    assert 0.0 < risk < risk0
    # the capital actually spent never exceeds the budget
    spent = math.exp(-params.r * params.T) * psi_linear(payoff, params, c=c).psi2
    assert spent <= x + 1e-7 * x


def test_phi2_edges():
    params = desk_params()
    payoff = Payoff(QUANTO_DOMESTIC, 100.0)
    p_h = price(payoff, params)
    cost0, c0 = phi2(payoff, params, P2, 0.0)
    assert cost0 == pytest.approx(p_h, rel=1e-9) and c0 == 0.0
    ceiling = psi_power(payoff, params, c=math.inf, p=2.0).psi1
    cost, c = phi2(payoff, params, P2, ceiling * 1.01)
    assert cost == 0.0 and c == math.inf


def test_duality_round_trip():
    params = desk_params()
    for payoff, loss in ((Payoff(DIGITAL, 10.0), LIN),
                         (Payoff(SPREAD, 5.0), P2)):
        p_h = price(payoff, params)
        for frac in (0.3, 0.7):
            x = frac * p_h
            risk, _ = phi1(payoff, params, loss, x)
            back, _ = phi2(payoff, params, loss, risk)
            assert abs(back - x) <= 1e-8 * p_h


def test_phi1_convex_nonincreasing_in_x():
    params = desk_params()
    payoff = Payoff(DIGITAL, 10.0)
    p_h = price(payoff, params)
    xs = np.linspace(0.1, 0.9, 9) * p_h
    risks = [phi1(payoff, params, LIN, float(x))[0] for x in xs]
    diffs = np.diff(risks)
    assert np.all(diffs <= 1e-10)
    assert np.all(np.diff(diffs) >= -1e-7)  # slopes increase: convex


def test_curve_single_point_and_ordering_checks():
    params = desk_params()
    payoff = Payoff(DIGITAL, 10.0)
    p_h = price(payoff, params)
    rc = curve(payoff, params, LIN, "phi1", [p_h])
    assert len(rc.points) == 1
    assert rc.points[0].value == 0.0 and rc.points[0].error is None
    with pytest.raises(ValidationError):
        curve(payoff, params, LIN, "phi3", [0.0])
    with pytest.raises(ValidationError):
        curve(payoff, params, LIN, "phi1", [])
    with pytest.raises(ValidationError):
        curve(payoff, params, LIN, "phi1", [2.0, 1.0])
    with pytest.raises(ValidationError):
        curve(payoff, params, LIN, "phi1", [-1.0, 1.0])


def test_curve_captures_per_point_failures():
    # a degenerate measure makes Psi2 a step: interior targets are infeasible
    params = desk_params(alpha=(0.02, 0.02), r=0.02)
    payoff = Payoff(DIGITAL, 10.0)
    p_h = price(payoff, params)
    rc = curve(payoff, params, LIN, "phi1", [0.0, 0.5 * p_h, p_h])
    assert rc.points[0].error is None and rc.points[2].error is None
    mid = rc.points[1]
    assert mid.error is not None and math.isnan(mid.value)


def test_curve_subset_consistency():
    params = desk_params()
    payoff = Payoff(SPREAD, 5.0)
    p_h = price(payoff, params)
    coarse = curve(payoff, params, LIN, "phi2",
                   list(np.linspace(0.0, 1.0, 5) * 16.0))
    fine = curve(payoff, params, LIN, "phi2",
                 list(np.linspace(0.0, 1.0, 9) * 16.0))
    for a, b in zip(coarse.points, fine.points[::2]):
        assert a.input == b.input and a.value == b.value
    del p_h


def test_mc_fallback_route_for_violated_signs():
    # outperformance power loss at rho=0.6 has A2 < 0: no closed form
    params = desk_params(rho=0.6)
    payoff = Payoff(OUTPERFORMANCE, 100.0)
    p_h = price(payoff, params)
    rc = curve(payoff, params, P2, "phi1", [0.5 * p_h])
    pt = rc.points[0]
    assert pt.method == "monte-carlo" and pt.error is None
    assert 0.0 < pt.value < psi_power(payoff, desk_params(rho=0.0), c=math.inf,
                                      p=2.0).psi1 * 10


def test_degenerate_step_is_infeasible_at_interior_x():
    params = desk_params(alpha=(0.02, 0.02), r=0.02)
    payoff = Payoff(DIGITAL, 10.0)
    with pytest.raises(InfeasibleInversionError):
        phi1(payoff, params, LIN, 0.5 * price(payoff, params))


def test_heavy_tail_rejected():
    params = desk_params(sigma=(6.0, 0.3))
    with pytest.raises(HeavyTailError):
        price(Payoff(QUANTO_DOMESTIC, 100.0), params)


def test_solve_config_validation():
    with pytest.raises(ValidationError):
        SolveConfig(abs_tol_target=0.0)
    with pytest.raises(ValidationError):
        SolveConfig(bisection_iters=0)
