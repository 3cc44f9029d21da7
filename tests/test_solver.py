"""Pricing, Psi inversion, phi assembly, curve generation."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from conftest import DESK_PAYOFFS, desk_params
from oracles import ln_c_bisection
from shortfall_hedge import psi, solver
from shortfall_hedge.errors import (HeavyTailError, InfeasibleInversionError,
                                    OutOfRangeError, ValidationError)
from shortfall_hedge.market import MarketParams
from shortfall_hedge.mc import McConfig
from shortfall_hedge.payoffs import (CUSTOM, DIGITAL, OUTPERFORMANCE, Payoff,
                                     QUANTO_DOMESTIC, QUANTO_FOREIGN, SPREAD)
from shortfall_hedge.psi import LINEAR, LossSpec, POWER, psi_linear, psi_power
from shortfall_hedge.solver import (SolveConfig, _edges, _one, _phi1_impl,
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


def test_price_and_edges_are_cached_once_per_contract(monkeypatch):
    # mc moves a price and the edges only for Custom payoffs: a named
    # contract fills one entry of each
    params = desk_params(rho=0.15)
    payoff = Payoff(QUANTO_DOMESTIC, 101.0)
    mc = McConfig(20_000, seed=3)
    reads = []
    real = solver._psi_side

    def counting(*args, **kwargs):
        reads.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "_psi_side", counting)
    misses = price.cache_info().misses
    got = {price(payoff, params), price(payoff, params, None),
           price(payoff, params, mc), price(payoff, params, mc=None)}
    assert len(got) == 1 and price.cache_info().misses == misses + 1
    assert len(reads) == 2  # Psi2(0) at 10 and at 12 sd, once
    misses = _edges.cache_info().misses
    assert _edges(payoff, params, LIN, None) == _edges(payoff, params, LIN, mc)
    assert _edges.cache_info().misses == misses + 1
    basket = Payoff(CUSTOM, custom_eval=lambda s1, s2: np.maximum(
        0.5 * s1 + 0.5 * s2 - 95.0, 0.0))
    misses = price.cache_info().misses
    price(basket, params, mc)
    price(basket, params, McConfig(20_000, seed=4))
    price(basket, params, mc)
    assert price.cache_info().misses == misses + 2


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
            got = impl(payoff, params, loss, [g], None)[0]
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
        value, c, err, method = impl(payoff, params, loss, [g], mc)[0][:4]
        assert pt.error is None and pt.c == c and pt.method == method
        assert pt.value == pytest.approx(value, rel=1e-12)
        assert pt.err_estimate == pytest.approx(err, rel=1e-12)


def test_custom_price_and_linear_solve_share_one_sample(monkeypatch):
    # a Custom price is the Psi2(0) of the contract's linear edges entry:
    # price and then phi1 at x = 0 draw one sample, not one each
    params = desk_params(rho=0.15)
    mc = McConfig(20_000, seed=11)
    calls = []
    real = psi.sample

    def counting(law, n, seed):
        calls.append(n)
        return real(law, n, seed)

    monkeypatch.setattr(psi, "sample", counting)
    basket = _basket()
    p_h = price(basket, params, mc)
    risk, c = phi1(basket, params, LIN, 0.0, mc=mc)
    assert calls == [40_000]
    ev = solver._Evaluator(basket, params, LIN, mc)
    disc = math.exp(-params.r * params.T)
    assert p_h == disc * float(ev.side([0.0], 2)[0][0])
    assert (risk, c) == (_edges(basket, params, LIN, mc)[0], math.inf)


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
    # 21 points share every step: 14 reads, not 21 solves of 7 each
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
    assert len(calls) <= 16


# the one side whose c's run one after another: no c is read ahead on it
ONE_C_SIDES = {(SPREAD, POWER, 1)}


@pytest.mark.parametrize("loss", (LIN, P2), ids=lambda l: l.kind)
@pytest.mark.parametrize("payoff", DESK_PAYOFFS, ids=lambda p: p.kind)
def test_one_point_solve_reads_each_c_once(payoff, loss, monkeypatch):
    # the check at the answer uses the value its steps already read, and a
    # single solve reads up to 15 c's that its next steps may compute
    params = desk_params()
    # the cached price and edges, filled under the solver's own cache keys
    p_h = price(payoff, params, None)
    edge = _edges(payoff, params, loss, None)[0]
    reads = []
    real = solver._psi_side

    def counting(payoff, params, loss, c, side, *args, **kwargs):
        reads.append((side, np.atleast_1d(c).tolist()))
        return real(payoff, params, loss, c, side, *args, **kwargs)

    monkeypatch.setattr(solver, "_psi_side", counting)
    for solve, side, top in ((phi1, 2, p_h), (phi2, 1, edge)):
        reads.clear()
        solve(payoff, params, loss, 0.5 * top)
        cs = [c for s, batch in reads if s == side for c in batch]
        assert len(cs) > 2 and len(set(cs)) == len(cs)
        if (payoff.kind, loss.kind, side) in ONE_C_SIDES:
            assert all(len(batch) == 1 for s, batch in reads if s == side)
        else:
            assert len(reads) <= 9
            assert all(len(batch) <= 15 for _s, batch in reads)


BASKET = Payoff(CUSTOM, custom_eval=lambda s1, s2:
                np.maximum(0.5 * (s1 + s2) - 95.0, 0.0))


@pytest.mark.parametrize("loss", (LIN, P2), ids=lambda l: l.kind)
@pytest.mark.parametrize("payoff", DESK_PAYOFFS + (BASKET,),
                         ids=lambda p: p.kind)
def test_read_ahead_keeps_every_bit(payoff, loss, monkeypatch):
    # reading ahead reads c's that the solve's own steps compute, and
    # changes no value it sees: one c per read, or three, run the same
    # steps and give the same tuples.  On the Monte Carlo route also an
    # 11-point curve, whose last running points read ahead.
    params = desk_params()
    mc = McConfig(20_000, seed=3) if payoff.kind == CUSTOM else None
    p_h = price(payoff, params, mc)

    def solves():
        got = []
        for f in (0.1, 0.5, 0.9):
            r1 = _phi1_impl(payoff, params, loss, [f * p_h], mc)[0]
            got += [r1, _phi2_impl(payoff, params, loss, [r1[0]], mc)[0]]
        if mc is not None:
            got.append(curve(payoff, params, loss, "phi1",
                             list(np.linspace(0.0, 1.0, 11) * p_h), mc=mc))
        return got

    read_ahead = solves()
    for n in (1, 3):
        monkeypatch.setattr(solver, "_READ_AHEAD_CS", n)
        assert solves() == read_ahead


def _failing_above(limit, raised):
    real = solver._psi_side

    def failing(payoff, params, loss, c, side, *args, **kwargs):
        top = float(np.max(c))
        if top > limit:
            raised.append(top)
            raise HeavyTailError(f"c = {top!r} is above the limit")
        return real(payoff, params, loss, c, side, *args, **kwargs)

    return failing


def test_read_ahead_failures_stay_unseen(monkeypatch):
    # a read-ahead c that fails raises only in a solve that reaches it
    params = desk_params()
    payoff = Payoff(QUANTO_DOMESTIC, 100.0)
    x = 0.5 * price(payoff, params)
    clean = _phi1_impl(payoff, params, LIN, [x], None)
    c = clean[0][1]
    # below 2^7 the walk up from c = 1 takes unit steps in log2 c: it ends
    # at the first power of 2 at or above c, and only the walk points read
    # ahead go beyond it
    assert 1.0 < c < 2.0 ** 7
    limit = 2.0 ** math.ceil(math.log2(c))
    raised = []
    monkeypatch.setattr(solver, "_psi_side", _failing_above(limit, raised))
    assert _phi1_impl(payoff, params, LIN, [x], None) == clean
    assert raised
    # below the solved c the solve raises the error a solve that reads
    # one c at a time raises
    monkeypatch.setattr(solver, "_psi_side", _failing_above(0.5 * limit, []))

    def error():
        with pytest.raises(HeavyTailError) as exc:
            phi1(payoff, params, LIN, x)
        return str(exc.value)

    read_ahead = error()
    monkeypatch.setattr(solver, "_READ_AHEAD_CS", 1)
    assert error() == read_ahead


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


def test_root_far_below_one_solves():
    # the bracket closes relative to hi: at an absolute width of 1e-13 the
    # solves of these answers, c = 2e-6 .. 2e-11, stop while still off target
    params = MarketParams(s0=(149.27, 129.46), alpha=(-0.0993, 0.1754),
                          sigma=(0.4515, 0.0561), rho=0.2127, r=0.0219, T=3.0)
    payoff = Payoff(DIGITAL, 19.76)
    p_h = price(payoff, params)
    got = [phi1(payoff, params, LIN, f * p_h)
           for f in (0.5, 0.8, 0.9, 0.95, 0.99)]
    risks, cs = zip(*got)
    assert all(0.0 < c < 2e-6 for c in cs) and min(cs) < 1e-10
    assert list(cs) == sorted(cs, reverse=True)
    assert list(risks) == sorted(risks, reverse=True) and risks[-1] > 0.0


def test_jump_at_zero_is_infeasible_at_the_walk_floor(monkeypatch):
    # a Psi2 that jumps at c = 0+ is never bracketed: the walk down from
    # c = 1 ends at its floor, the smallest normal float, and the check
    # there rejects the target
    params = desk_params()
    payoff = Payoff(QUANTO_DOMESTIC, 100.0)
    p_h = price(payoff, params)
    _edges(payoff, params, LIN, None)
    full = math.exp(params.r * params.T) * p_h
    reads = []

    def jump(payoff, params, loss, c, side, *args, **kwargs):
        c = np.asarray(c, dtype=float)
        reads.extend(c.tolist())
        return np.where(c == 0.0, full, 0.25 * full), np.zeros_like(c)

    monkeypatch.setattr(solver, "_psi_side", jump)
    with pytest.raises(InfeasibleInversionError):
        phi1(payoff, params, LIN, 0.5 * p_h)
    assert min(c for c in reads if c > 0.0) == sys.float_info.min


def test_root_below_2_to_the_minus_200_solves():
    # the walk's steps grow beyond 2^-7, so roots down to 2^-1022 are in
    # reach: here Psi2(1e-62) = 3.30 and Psi2(6.2e-61) = 2.487 straddle the
    # target 2.5, below 2^-200
    params = MarketParams(s0=(50.0, 50.0), alpha=(1.0, -1.5),
                          sigma=(0.5, 0.5), rho=0.875, r=0.0, T=3.0)
    payoff = Payoff(DIGITAL, 10.0)
    p_h = price(payoff, params)
    risk, c = _one(_phi1_impl(payoff, params, LIN, [0.5 * p_h], None))[:2]
    assert 1e-62 < c < 6.2e-61
    (v2,), (e2,) = psi._psi_side(payoff, params, LIN, [c], 2)
    assert abs(v2 - 0.5 * p_h) <= max(1e-9 * p_h, 8.0 * e2)
    assert 0.0 <= risk <= _edges(payoff, params, LIN, None)[0]


@pytest.mark.parametrize("rho", (-0.5, 0.6))
@pytest.mark.parametrize("loss", (LIN, P2), ids=lambda l: l.kind)
@pytest.mark.parametrize("payoff", DESK_PAYOFFS, ids=lambda p: p.kind)
def test_solves_match_a_plain_ln_c_bisection(payoff, loss, rho):
    # Chandrupatla steps end in the bracket a plain bisection in ln c ends
    # in: the same c within 2e-13, on either route
    params = desk_params(rho=rho)
    p_h = price(payoff, params)
    edge = _edges(payoff, params, loss, None)[0]
    growth = math.exp(params.r * params.T)
    ev = solver._Evaluator(payoff, params, loss, None)

    def psi_at(side):
        def read(c):
            (v,), (e,) = ev.side(np.array([c]), side)
            return float(v), float(e)
        return read

    tol = SolveConfig().abs_tol_target * max(1.0, edge)
    for f in (0.05, 0.5, 0.95):
        risk, c, err = _one(_phi1_impl(payoff, params, loss, [f * p_h],
                                       None))[:3]
        c_ref = ln_c_bisection(psi_at(2), growth * f * p_h, False)[0]
        assert abs(c - c_ref) <= 2e-13 * c_ref
        v1 = psi_at(1)(c_ref)[0]
        ref = max(edge - v1, 0.0) if loss.kind == LINEAR else v1
        assert abs(risk - ref) <= err + tol


def test_heavy_tail_rejected():
    params = desk_params(sigma=(6.0, 0.3))
    with pytest.raises(HeavyTailError):
        price(Payoff(QUANTO_DOMESTIC, 100.0), params)


def test_solve_config_is_a_constant():
    # the inversion tolerance is fixed: SolveConfig takes no argument and
    # only names it
    assert SolveConfig().abs_tol_target == 1e-9
    with pytest.raises(TypeError):
        SolveConfig(abs_tol_target=1e-6)


def test_mc_is_keyword_only():
    # a fifth positional argument is a TypeError, never read as a sample
    params = desk_params()
    payoff = Payoff(DIGITAL, 10.0)
    with pytest.raises(TypeError):
        phi1(payoff, params, LIN, 1.0, SolveConfig())
    with pytest.raises(TypeError):
        phi2(payoff, params, LIN, 1.0, SolveConfig())
    with pytest.raises(TypeError):
        curve(payoff, params, LIN, "phi1", [1.0], SolveConfig())


@pytest.mark.parametrize("up, end", [(True, 2.0 ** 1023),
                                     (False, sys.float_info.min)],
                         ids=["up", "down"])
def test_walk_ends_at_the_float_range(up, end):
    # 2^(+-1) .. 2^(+-7), then steps in log2 c that double, in 16 steps
    # each way to the largest power of 2 or the smallest normal float
    steps = (1, 2, 3, 4, 5, 6, 7, 9, 13, 21, 37, 69, 133, 261, 517)
    assert solver._walk(up) == [2.0 ** (e if up else -e)
                                for e in steps] + [end]
