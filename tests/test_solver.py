"""Pricing, Psi inversion, phi assembly, curve generation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import DESK_PAYOFFS, desk_params
from shortfall_hedge import psi, solver
from shortfall_hedge.errors import (HeavyTailError, InfeasibleInversionError,
                                    OutOfRangeError, ValidationError)
from shortfall_hedge.mc import McConfig
from shortfall_hedge.payoffs import (CUSTOM, DIGITAL, OUTPERFORMANCE, Payoff,
                                     QUANTO_DOMESTIC, QUANTO_FOREIGN, SPREAD)
from shortfall_hedge.psi import LINEAR, LossSpec, POWER, psi_linear, psi_power
from shortfall_hedge.solver import (SolveConfig, _edges, _phi1_impl,
                                    _phi2_impl, curve, phi1, phi2, price)

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


def test_phi1_recovers_c_of_psi2():
    # phi1 at x = e^{-rT} Psi2(c0) solves Psi2(c) = Psi2(c0)
    params = desk_params()
    disc = math.exp(-params.r * params.T)
    payoff = Payoff(DIGITAL, 10.0)
    for c0 in (0.6, 1.2, 2.5):
        x = disc * psi_linear(payoff, params, c=c0).psi2
        assert abs(phi1(payoff, params, LIN, x)[1] - c0) <= 1e-6 * c0
    sp = Payoff(SPREAD, 5.0)
    x = disc * psi_power(sp, params, c=30.0, p=2.0).psi2
    assert abs(phi1(sp, params, P2, x)[1] - 30.0) <= 1e-5 * 30.0


def test_phi2_recovers_c_of_psi1_both_monotonicities():
    params = desk_params()
    dig = Payoff(DIGITAL, 10.0)  # linear Psi1 is nonincreasing
    v = (psi_linear(dig, params, c=0.0).psi1
         - psi_linear(dig, params, c=1.4).psi1)
    assert abs(phi2(dig, params, LIN, v)[1] - 1.4) <= 1e-6 * 1.4
    qd = Payoff(QUANTO_DOMESTIC, 100.0)  # power Psi1 is nondecreasing
    v = psi_power(qd, params, c=50.0, p=2.0).psi1
    assert abs(phi2(qd, params, P2, v)[1] - 50.0) <= 1e-5 * 50.0


def test_c_grows_as_capital_shrinks():
    params = desk_params()
    payoff = Payoff(SPREAD, 5.0)
    p_h = price(payoff, params)
    cs = [phi1(payoff, params, LIN, f * p_h)[1] for f in (0.8, 0.4, 0.1)]
    assert cs[0] < cs[1] < cs[2]


def test_phi_rejects_negative_inputs():
    params = desk_params()
    payoff = Payoff(DIGITAL, 10.0)
    for loss in (LIN, P2):
        with pytest.raises(OutOfRangeError):
            phi1(payoff, params, loss, -0.3)
        with pytest.raises(OutOfRangeError):
            phi2(payoff, params, loss, -0.3)


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


@pytest.mark.parametrize("loss", (LIN, P2), ids=lambda l: l.kind)
@pytest.mark.parametrize("payoff", DESK_PAYOFFS, ids=lambda p: p.kind)
def test_curve_points_equal_one_point_solves(payoff, loss):
    # the lockstep solve runs each point's own iterates, and a Psi value
    # does not depend on the other c's of a batch: the same bits
    params = desk_params()
    for kind, impl, top in (
            ("phi1", _phi1_impl, price(payoff, params)),
            ("phi2", _phi2_impl, _edges(payoff, params, loss, None)[0])):
        grid = [f * top for f in (0.0, 0.2, 0.5, 0.8)]
        rc = curve(payoff, params, loss, kind, grid)
        for g, pt in zip(grid, rc.points):
            got = impl(payoff, params, loss, [g], None, None)[0]
            assert pt.error is None
            assert (pt.value, pt.c, pt.err_estimate, pt.method) == got[:4]


def _basket():
    return Payoff(CUSTOM, custom_eval=lambda s1, s2: np.maximum(
        0.5 * s1 + 0.5 * s2 - 95.0, 0.0))


@pytest.mark.parametrize("kind, loss", (("phi1", LIN), ("phi2", P2)))
def test_custom_curve_draws_one_sample(kind, loss, monkeypatch):
    params = desk_params()
    payoff = _basket()
    mc = McConfig(20_000, seed=3)
    impl = _phi1_impl if kind == "phi1" else _phi2_impl
    # price and the edges are cached per contract: filled before counting
    p_h, edge = price(payoff, params, mc), _edges(payoff, params, loss, mc)[0]
    top = p_h if kind == "phi1" else edge
    grid = list(np.linspace(0.0, 0.95, 21) * top)
    calls = []
    real = psi.sample

    def counting(law, n, seed):
        calls.append(n)
        return real(law, n, seed)

    monkeypatch.setattr(psi, "sample", counting)
    rc = curve(payoff, params, loss, kind, grid, mc=mc)
    assert calls == [40_000]
    for g, pt in zip(grid, rc.points):
        value, c, err, method = impl(payoff, params, loss, [g], None, mc)[0][:4]
        assert pt.error is None and pt.c == c and pt.method == method
        assert pt.value == pytest.approx(value, rel=1e-12)
        assert pt.err_estimate == pytest.approx(err, rel=1e-12)


def test_curve_psi_failures_stay_per_point(monkeypatch):
    # a batched read that raises is retried one c at a time: only the
    # points whose own c fails carry the error
    params = desk_params()
    payoff = Payoff(QUANTO_DOMESTIC, 100.0)
    grid = list(np.linspace(0.05, 0.95, 10) * price(payoff, params))
    clean = curve(payoff, params, LIN, "phi1", grid)
    cs = sorted(p.c for p in clean.points)
    # a point solved at c <= limit (a power of 2) never reads above it
    limit = 2.0 ** math.ceil(math.log2(cs[len(cs) // 2]))
    real = solver._psi_side

    def failing(payoff, params, loss, c, side, *args, **kwargs):
        if (np.asarray(c) > limit).any():
            raise HeavyTailError("c above the limit")
        return real(payoff, params, loss, c, side, *args, **kwargs)

    monkeypatch.setattr(solver, "_psi_side", failing)
    rc = curve(payoff, params, LIN, "phi1", grid)
    assert any(p.c <= limit for p in clean.points)
    assert any(p.c > limit for p in clean.points)
    for a, b in zip(clean.points, rc.points):
        if a.c <= limit:
            assert b == a
        else:
            assert b.error == "c above the limit" and math.isnan(b.value)


def test_curve_reads_psi_once_per_lockstep_step(monkeypatch):
    # 21 points share every step: about 50 reads, not 21 solves of 46 each
    params = desk_params()
    payoff = Payoff(QUANTO_FOREIGN, 9500.0)
    top = _edges(payoff, params, LIN, None)[0]
    price(payoff, params)
    calls = []
    real = solver._psi_side

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "_psi_side", counting)
    rc = curve(payoff, params, LIN, "phi2", list(np.linspace(0.0, 0.95, 21)
                                                  * top))
    assert all(p.error is None for p in rc.points)
    assert len(calls) <= 55


@pytest.mark.parametrize("loss", (LIN, P2), ids=lambda l: l.kind)
@pytest.mark.parametrize("payoff", DESK_PAYOFFS, ids=lambda p: p.kind)
def test_one_point_solve_reads_each_c_once(payoff, loss, monkeypatch):
    # the check at the answer uses the value its bisection already read
    params = desk_params()
    p_h, edge = price(payoff, params), _edges(payoff, params, loss, None)[0]
    reads = []
    real = solver._psi_side

    def counting(payoff, params, loss, c, side, *args, **kwargs):
        reads.extend((side, ci) for ci in np.atleast_1d(c).tolist())
        return real(payoff, params, loss, c, side, *args, **kwargs)

    monkeypatch.setattr(solver, "_psi_side", counting)
    for solve, side, top in ((phi1, 2, p_h), (phi2, 1, edge)):
        reads.clear()
        solve(payoff, params, loss, 0.5 * top)
        cs = [c for s, c in reads if s == side]
        assert len(cs) > 2 and len(set(cs)) == len(cs)


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
    with pytest.raises(ValidationError):  # would switch the check off
        SolveConfig(abs_tol_target=math.inf)
    with pytest.raises(ValidationError):
        SolveConfig(bisection_iters=0)
    # integer fields hold integers: 2.5 is not truncated to 2
    for bad in (dict(bisection_iters=2.5), dict(bisection_iters=True),
                dict(max_bracket_expansions=3.0),
                dict(max_bracket_expansions="3")):
        with pytest.raises(ValidationError):
            SolveConfig(**bad)
