"""Pricing, Psi inversion, phi assembly, curve generation."""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DESK_PAYOFFS, desk_params
from oracles import ln_c_bisection
from shortfall_hedge import psi, solver
from shortfall_hedge.errors import (HeavyTailError, InfeasibleInversionError,
                                    OutOfRangeError, ValidationError)
from shortfall_hedge.market import MarketParams
from shortfall_hedge.mc import McConfig, verify_risk
from shortfall_hedge.payoffs import (CUSTOM, DIGITAL, OUTPERFORMANCE, Payoff,
                                     QUANTO_DOMESTIC, QUANTO_FOREIGN, SPREAD)
from shortfall_hedge.psi import LINEAR, LossSpec, POWER, psi_linear, psi_power
from shortfall_hedge.solver import (SolveConfig, _edges, _one, _phi1_impl,
                                    _phi2_impl, curve, phi1, phi2, price)

LIN = LossSpec(LINEAR)
P2 = LossSpec(POWER, 2.0)
# the ten desk contracts: the five named payoffs, linear and p = 2
DESK_CONTRACTS = [(payoff, loss) for payoff in DESK_PAYOFFS
                  for loss in (LIN, P2)]


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


def test_price_and_edges_are_cached_once_per_contract(monkeypatch,
                                                      fresh_held):
    # mc moves a price and the edges only for Custom payoffs: a named
    # contract fills one entry of each
    params = desk_params(rho=0.15)
    payoff = Payoff(QUANTO_DOMESTIC, 101.0)
    mc = McConfig(20_000, seed=3)
    reads = []
    real = solver._psi_side

    def counting(*args, **kwargs):
        reads.append((args[4], kwargs.get("trunc_sd", 10.0)))
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "_psi_side", counting)
    misses = price.cache_info().misses
    got = {price(payoff, params), price(payoff, params, None),
           price(payoff, params, mc), price(payoff, params, mc=None)}
    assert len(got) == 1 and price.cache_info().misses == misses + 1
    assert len(reads) == 1  # Psi2(0) from its tail table, once
    # a payoff priced on its regions reads Psi2(0) at 10 and at 12 sd; the
    # 10 sd read is held, so its linear edges integrate only Psi1(0)
    reads.clear()
    outp = Payoff(OUTPERFORMANCE, 101.0)
    price(outp, params)
    assert reads == [(2, 10.0), (2, 12.0)]
    _edges(outp, params, LIN, None)
    assert reads == [(2, 10.0), (2, 12.0), (1, 10.0)]
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


@pytest.mark.parametrize("grid", (1.0, None), ids=("float", "none"))
def test_curve_grid_that_is_no_sequence_is_a_validation_error(grid):
    with pytest.raises(ValidationError, match="grid: must be a sequence"):
        curve(Payoff(DIGITAL, 10.0), desk_params(), LIN, "phi1", grid)


@pytest.mark.parametrize("mc", ("x", (20_000, 1)), ids=("str", "tuple"))
@pytest.mark.parametrize("payoff", (Payoff(DIGITAL, 10.0), Payoff(
    CUSTOM, custom_eval=lambda s1, s2: np.maximum(s1 - 100.0, 0.0))),
    ids=lambda p: p.kind)
def test_mc_that_is_no_mc_config_is_a_validation_error(payoff, mc):
    # every entry point that takes mc names it, for named payoffs (which
    # ignore a valid one) as for Custom ones, instead of an AttributeError
    # on mc.n_paths; verify_risk's simulation needs an McConfig
    params = desk_params()
    for call in (lambda: price(payoff, params, mc),
                 lambda: phi1(payoff, params, LIN, 1.0, mc=mc),
                 lambda: phi2(payoff, params, LIN, 1.0, mc=mc),
                 lambda: curve(payoff, params, LIN, "phi1", [1.0], mc=mc),
                 lambda: verify_risk(payoff, params, LIN, 1.0, mc),
                 lambda: verify_risk(payoff, params, LIN, 1.0, None)):
        with pytest.raises(ValidationError, match="mc: must be an McConfig"):
            call()


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
    # the edges left the table held: the curve and each point's one-point
    # solve read it, and with the slot emptied the curve draws it once
    curve(payoff, params, loss, kind, grid, mc=mc)
    assert calls == []
    psi._drop_mc_table()
    rc = curve(payoff, params, loss, kind, grid, mc=mc)
    assert calls == [40_000]
    for g, pt in zip(grid, rc.points):
        value, c, err, method = impl(payoff, params, loss, [g], mc)[0][:4]
        assert pt.error is None and pt.c == c and pt.method == method
        assert pt.value == pytest.approx(value, rel=1e-12)
        assert pt.err_estimate == pytest.approx(err, rel=1e-12)
    assert calls == [40_000]


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


def test_curve_psi_failures_stay_per_point(monkeypatch, fresh_held):
    # a batched read that raises is retried in halves down to single c's:
    # only the points whose own c fails carry the error
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


def test_curve_reads_psi_once_per_lockstep_step(monkeypatch, fresh_held):
    # 21 points share every step, not 21 solves of their own: a warm curve
    # reads the inverted side once per lockstep Newton step, every running
    # point in one read with its slope, on a table side (QuantoForeign/
    # linear Psi1) 2 reads at most and after a walk (QuantoDomestic/power
    # Psi1, its walk values held) 4, and the other side at the answers once
    params = desk_params()
    for payoff, loss, table in ((Payoff(QUANTO_FOREIGN, 9500.0), LIN, True),
                                (Payoff(QUANTO_DOMESTIC, 100.0), P2, False)):
        assert (1 in psi._table_sides(payoff.kind, loss.p)) == table
        top = _edges(payoff, params, loss, None)[0]
        price(payoff, params)
        grid = list(np.linspace(0.0, 0.95, 21) * top)
        curve(payoff, params, loss, "phi2", grid)
        calls = []
        real = solver._psi_side

        def counting(*args, **kwargs):
            calls.append((kwargs.get("slope", False), len(args[3])))
            return real(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(solver, "_psi_side", counting)
            rc = curve(payoff, params, loss, "phi2", grid)
        assert all(p.error is None for p in rc.points)
        stepped = [n for slope, n in calls if slope]
        assert 1 <= len(stepped) <= (2 if table else 4)
        # the point at v = 0 costs the full price, with no solve
        assert max(stepped) == 20
        assert [n for slope, n in calls if not slope] == [20]


@pytest.mark.parametrize("loss", (LIN, P2), ids=lambda l: l.kind)
@pytest.mark.parametrize("payoff", DESK_PAYOFFS, ids=lambda p: p.kind)
def test_one_point_solve_reads_each_c_once(payoff, loss, monkeypatch,
                                           fresh_held):
    # the check at the answer uses the value its steps already read.  A
    # lattice search reads up to 15 c's at once that its next steps may
    # compute; a table side (psi._table_sides) reads its Newton steps' c's
    # alone, with their slopes, 2 at most, and c = 0 from its table
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
        assert len(set(cs)) == len(cs)
        if side in psi._table_sides(payoff.kind, loss.p):
            assert 1 <= len(cs) <= 2
            assert all(len(batch) == 1 for _s, batch in reads)
        else:
            assert len(cs) > 2 and len(reads) <= 9
            assert all(len(batch) <= 15 for _s, batch in reads)


@pytest.mark.parametrize("rho", (-0.5, 0.6))
def test_quadrature_reads_step_cs_and_held_cs_only(rho, monkeypatch,
                                                    fresh_held):
    # by quadrature a read takes the c's of Newton's steps (after a
    # lattice search or on a table side) and, for a lattice search, only
    # c's of the lattice's blocks, which every contract holds: cold and
    # warm round trips integrate no c outside those two sets
    params = desk_params(rho=rho)
    stepped, integrated = set(), []
    real_side, real_newton = solver._psi_side, solver._newton

    def newton(read, *args, **kwargs):
        def stepping(cs):
            stepped.update(np.atleast_1d(cs).tolist())
            return read(cs)

        return real_newton(stepping, *args, **kwargs)

    def counting(payoff, params, loss, c, side, *args, **kwargs):
        integrated.extend(np.atleast_1d(c).tolist())
        return real_side(payoff, params, loss, c, side, *args, **kwargs)

    monkeypatch.setattr(solver, "_newton", newton)
    monkeypatch.setattr(solver, "_psi_side", counting)
    contracts = [(payoff, loss) for payoff, loss in DESK_CONTRACTS
                 if solver._route_method(payoff, params, loss)
                 == solver.METHOD_QUAD]
    assert len(contracts) >= 9
    for payoff, loss in contracts:
        p_h = price(payoff, params)
        for u in (0.2, 0.5, 0.8):
            for _cold_then_warm in range(2):
                risk, _c = phi1(payoff, params, loss, u * p_h)
                phi2(payoff, params, loss, risk)
        stray = [c for c in integrated
                 if c not in stepped and c not in solver._HELD_CS]
        assert not stray, (payoff.kind, loss.kind, stray[:5])


BASKET = Payoff(CUSTOM, custom_eval=lambda s1, s2:
                np.maximum(0.5 * (s1 + s2) - 95.0, 0.0))


@pytest.mark.parametrize("loss", (LIN, P2), ids=lambda l: l.kind)
@pytest.mark.parametrize("payoff", DESK_PAYOFFS + (BASKET,),
                         ids=lambda p: p.kind)
def test_read_ahead_keeps_every_bit(payoff, loss, monkeypatch):
    # a walk's read takes the rest of each new c's block, c's that the
    # solve's own steps may compute, and changes no value it sees: with
    # one-c blocks (the block table emptied) the solves run the same steps
    # and give the same tuples.  A table side reads no blocks, so that its
    # solves give the same tuples too.  The Monte Carlo route reads no
    # blocks: its 11-point curve, whose targets the table inverts in one
    # search, gives each point the tuple of its one-point solve.
    params = desk_params()
    mc = McConfig(20_000, seed=3) if payoff.kind == CUSTOM else None
    p_h = price(payoff, params, mc)

    def solves():
        got = []
        for f in (0.1, 0.5, 0.9):
            r1 = _phi1_impl(payoff, params, loss, [f * p_h], mc)[0]
            got += [r1, _phi2_impl(payoff, params, loss, [r1[0]], mc)[0]]
        return got

    if mc is None:
        read_ahead = solves()
        monkeypatch.setattr(solver, "_BLOCKS", {})
        assert solves() == read_ahead
    else:
        xs = list(np.linspace(0.0, 1.0, 11) * p_h)
        assert _phi1_impl(payoff, params, loss, xs, mc) == [
            _phi1_impl(payoff, params, loss, [x], mc)[0] for x in xs]


def _failing_above(limit, raised):
    real = solver._psi_side

    def failing(payoff, params, loss, c, side, *args, **kwargs):
        top = float(np.max(c))
        if top > limit:
            raised.append(top)
            raise HeavyTailError(f"c = {top!r} is above the limit")
        return real(payoff, params, loss, c, side, *args, **kwargs)

    return failing


@pytest.mark.parametrize("loss", (LIN, P2), ids=lambda l: l.kind)
def test_walk_values_are_integrated_once_per_contract(loss, monkeypatch,
                                                      fresh_held):
    # every solve reads c = 0, 1, powers of 2 and the grid of its walk
    # bracket: a contract's second solve takes their values from the first,
    # with the same bits, and so does a solve after the held values are
    # cleared
    params = desk_params()
    payoff = Payoff(OUTPERFORMANCE, 100.0)
    x = 0.4 * price(payoff, params)
    fresh_held()
    first = _phi1_impl(payoff, params, loss, [x], None)
    reads = []
    real = solver._psi_side

    def counting(payoff, params, loss, c, side, *args, **kwargs):
        reads.extend(np.atleast_1d(c).tolist())
        return real(payoff, params, loss, c, side, *args, **kwargs)

    monkeypatch.setattr(solver, "_psi_side", counting)
    assert phi1(payoff, params, loss, x) == first[0][:2]
    assert reads and not set(reads) & solver._HELD_CS
    assert _phi1_impl(payoff, params, loss, [x], None) == first
    fresh_held()
    reads.clear()
    assert _phi1_impl(payoff, params, loss, [x], None) == first
    assert {0.0, 1.0} <= set(reads)


def test_threads_share_the_held_walk(fresh_held):
    # phi1 and phi2 solves on 4 threads fill one contract's held values at
    # once, the walk and its brackets' grids, and build its side tables
    # (psi._SideTable) at once: each returns the serial bits
    params = desk_params()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for payoff, loss in DESK_CONTRACTS:
                xs = [f * price(payoff, params) for f in (0.2, 0.4, 0.45, 0.8)]
                fresh_held()
                serial = [_phi1_impl(payoff, params, loss, [x], None)
                          for x in xs]
                vs = [r[0][0] for r in serial]
                serial += [_phi2_impl(payoff, params, loss, [v], None)
                           for v in vs]
                for _ in range(2):
                    fresh_held()
                    psi._held_side_table.cache_clear()
                    futures = [pool.submit(_phi1_impl, payoff, params, loss,
                                           [x], None) for x in xs]
                    futures += [pool.submit(_phi2_impl, payoff, params, loss,
                                            [v], None) for v in vs]
                    assert [f.result(timeout=60) for f in futures] == serial
    finally:
        sys.setswitchinterval(interval)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(k=st.integers(0, len(DESK_CONTRACTS) - 1), u=st.floats(0.02, 0.98),
       shift=st.floats(-0.1, 0.1))
def test_held_grid_keeps_every_bit(k, u, shift):
    # a contract's phi1 and its phi2 round trip return the same tuples with
    # the held values cleared and after another solve on the contract has
    # filled the grid of a bracket near (or at) its own
    payoff, loss = DESK_CONTRACTS[k]
    params = desk_params()
    p_h = price(payoff, params)

    def round_trip(f):
        r1 = _phi1_impl(payoff, params, loss, [f * p_h], None)
        return r1, _phi2_impl(payoff, params, loss, [r1[0][0]], None)

    solver._held.cache_clear()
    cold = round_trip(u)
    solver._held.cache_clear()
    round_trip(min(max(u + shift, 0.01), 0.99))
    assert round_trip(u) == cold
    solver._held.cache_clear()


def test_held_values_lie_on_the_precomputed_cs(fresh_held):
    # c = 0, inf and 1, the walk's 16 c's each way, and the 15 midpoints
    # of the four-level grid of each of the 32 walk brackets, on the
    # contracts whose Psi2 a walk inverts
    assert len(solver._HELD_CS) == 3 + 2 * 16 + 32 * 15
    params = desk_params()
    walk = {0.0, math.inf, 1.0, *solver._walk(True), *solver._walk(False)}
    walks = [(payoff, loss) for payoff, loss in DESK_CONTRACTS
             if 2 not in psi._table_sides(payoff.kind, loss.p)]
    assert len(walks) == 5
    for payoff, loss in walks:
        p_h = price(payoff, params)
        rc = curve(payoff, params, loss, "phi1",
                   list(np.linspace(0.0, 0.95, 5) * p_h))
        for pt in rc.points[1:]:
            phi2(payoff, params, loss, pt.value)
        held = solver._held(payoff, params, loss)
        cs = set(held[0]) | set(held[1])
        assert cs <= solver._HELD_CS and cs - walk


def test_second_solve_in_a_bracket_reads_none_of_its_grid(monkeypatch,
                                                          fresh_held):
    # the first phi1 in a walk bracket reads its grid in one read; a
    # second phi1 in that bracket takes the grid from the held values and
    # integrates only the c's of its own closing steps (Outperformance/
    # linear, whose Psi2 a walk inverts)
    params = desk_params()
    payoff = Payoff(OUTPERFORMANCE, 100.0)
    p_h = price(payoff, params)
    c1 = phi1(payoff, params, LIN, 0.5 * p_h)[1]
    lo = 2.0 ** math.floor(math.log2(c1))
    hi = 2.0 * lo
    assert 1.0 <= lo and hi <= 2.0 ** 7
    grid = {lo, hi, *solver._grid(lo, hi, solver._GRID_LEVELS)}
    assert grid <= set(solver._held(payoff, params, LIN)[1])
    # a c 0.3 or 0.7 of the way across the bracket in ln c, away from c1
    c2 = lo * (hi / lo) ** (0.3 if c1 > solver._mid(lo, hi) else 0.7)
    (v2,), _e = psi._psi_side(payoff, params, LIN, [c2], 2)
    reads = []
    real = solver._psi_side

    def counting(payoff, params, loss, c, side, *args, **kwargs):
        reads.extend(np.atleast_1d(c).tolist())
        return real(payoff, params, loss, c, side, *args, **kwargs)

    monkeypatch.setattr(solver, "_psi_side", counting)
    c = phi1(payoff, params, LIN, math.exp(-params.r * params.T) * v2)[1]
    assert lo < c < hi and abs(c - c2) <= 1e-9 * c2
    assert reads and not set(reads) & grid


@pytest.mark.parametrize("at", (0, 7, 14))
def test_a_failing_read_is_halved(at, monkeypatch, fresh_held):
    # one c of 15 fails: the read splits its c's in halves down to that c
    # alone, 9 Psi calls at most where a retry of each c alone makes 16,
    # and every c keeps its value or its one-c error
    params = desk_params()
    payoff = Payoff(QUANTO_DOMESTIC, 100.0)
    ev = solver._Evaluator(payoff, params, LIN, None)
    cs = [1.0 + k / 16.0 for k in range(1, 15)]
    cs.insert(at, 2.5)
    assert not set(cs) & solver._HELD_CS
    clean = solver._read(ev, cs, 2)
    calls, raised = [], []
    failing = _failing_above(2.0, raised)

    def counting(*args, **kwargs):
        calls.append(1)
        return failing(*args, **kwargs)

    monkeypatch.setattr(solver, "_psi_side", counting)
    got = solver._read(ev, cs, 2)
    assert len(calls) <= 9
    for c in cs:
        if c == 2.5:
            assert str(got[c][2]) == "c = 2.5 is above the limit"
        else:
            assert got[c] == clean[c]


def test_read_ahead_failures_stay_unseen(monkeypatch, fresh_held):
    # a read-ahead c that fails raises only in a solve that reaches it
    # (Outperformance/linear, whose Psi2 a walk inverts)
    params = desk_params()
    payoff = Payoff(OUTPERFORMANCE, 100.0)
    x = 0.5 * price(payoff, params)
    clean = _phi1_impl(payoff, params, LIN, [x], None)
    c = clean[0][1]
    # below 2^7 the walk up from c = 1 takes unit steps in log2 c: it ends
    # at the first power of 2 at or above c, and only the walk points read
    # ahead go beyond it
    assert 1.0 < c < 2.0 ** 7
    limit = 2.0 ** math.ceil(math.log2(c))
    raised = []
    # the clean solve left its walk's values held: read them afresh
    fresh_held()
    monkeypatch.setattr(solver, "_psi_side", _failing_above(limit, raised))
    assert _phi1_impl(payoff, params, LIN, [x], None) == clean
    assert raised
    # below the solved c the solve raises the error a solve that reads
    # one c at a time raises
    fresh_held()
    monkeypatch.setattr(solver, "_psi_side", _failing_above(0.5 * limit, []))

    def error():
        with pytest.raises(HeavyTailError) as exc:
            phi1(payoff, params, LIN, x)
        return str(exc.value)

    read_ahead = error()
    fresh_held()
    monkeypatch.setattr(solver, "_BLOCKS", {})
    assert error() == read_ahead


@pytest.mark.parametrize("at, seen", [(-1, True), (0, True), (1, False),
                                      (None, False)],
                         ids=["below", "least", "above", "top"])
def test_a_failing_grid_c_raises_only_where_the_search_reaches_it(
        at, seen, monkeypatch, fresh_held):
    # a lattice search reads its walk bracket's grid in ascending order up
    # to the least c whose read meets the target: a grid c that fails at or
    # below that c raises its error in that point's solve, one above it
    # stays unseen, and a point whose walk ends in another bracket keeps
    # its tuple (Outperformance/linear, whose Psi2 the lattice inverts)
    params = desk_params()
    payoff = Payoff(OUTPERFORMANCE, 100.0)
    xs = [f * price(payoff, params) for f in (0.5, 0.9)]
    clean = _phi1_impl(payoff, params, LIN, xs, None)
    c = clean[0][1]
    assert clean[1][1] < 1.0 < c < 2.0
    grid = sorted(solver._grid(1.0, 2.0, solver._GRID_LEVELS))
    least = min(k for k, g in enumerate(grid) if g >= c)
    assert 0 < least < len(grid) - 2
    bad = grid[-1 if at is None else least + at]
    fresh_held()
    real = solver._psi_side

    def failing(payoff, params, loss, cs, side, *args, **kwargs):
        if side == 2 and bad in np.atleast_1d(cs):
            raise HeavyTailError(f"c = {bad!r} fails")
        return real(payoff, params, loss, cs, side, *args, **kwargs)

    monkeypatch.setattr(solver, "_psi_side", failing)
    got = _phi1_impl(payoff, params, LIN, xs, None)
    assert got[1] == clean[1]
    if seen:
        assert isinstance(got[0], HeavyTailError)
        assert str(got[0]) == f"c = {bad!r} fails"
    else:
        assert got[0] == clean[0]


def test_a_target_below_the_walk_ceiling_is_never_bracketed(monkeypatch,
                                                            fresh_held):
    # a Psi2 that levels off at half its value at c = 0 meets no target
    # below that level: the walk up reads every c to 2^1023 and the solve
    # raises; in a curve only those points carry the error, and the others
    # are their one-point solves (Outperformance/linear, whose Psi2 the
    # lattice inverts)
    params = desk_params()
    payoff = Payoff(OUTPERFORMANCE, 100.0)
    p_h = price(payoff, params)
    _edges(payoff, params, LIN, None)
    fresh_held()
    full = math.exp(params.r * params.T) * p_h
    real = solver._psi_side
    reads = []

    def levelling(payoff, params, loss, c, side, *args, slope=False,
                  **kwargs):
        if side == 1:
            return real(payoff, params, loss, c, side, *args, slope=slope,
                        **kwargs)
        c = np.asarray(c, dtype=float)
        reads.extend(c.tolist())
        got = (0.5 * full * (1.0 + 1.0 / (1.0 + c)), np.zeros_like(c))
        slopes = -0.5 * full * (c / (1.0 + c)) / (1.0 + c)
        return got + (slopes,) if slope else got

    monkeypatch.setattr(solver, "_psi_side", levelling)
    with pytest.raises(InfeasibleInversionError, match="could not bracket"):
        phi1(payoff, params, LIN, 0.3 * p_h)
    assert max(reads) == 2.0 ** 1023
    grid = [f * p_h for f in (0.2, 0.4, 0.65, 0.8)]
    for x, pt in zip(grid, curve(payoff, params, LIN, "phi1", grid).points):
        if x < 0.5 * p_h:
            assert "could not bracket" in pt.error and math.isnan(pt.c)
        else:
            one = _phi1_impl(payoff, params, LIN, [x], None)[0]
            assert pt.error is None and 1.0 / 3.0 < pt.c < 3.0
            assert (pt.value, pt.c, pt.err_estimate, pt.method) == one[:4]


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


def test_jump_at_zero_is_infeasible_at_the_walk_floor(monkeypatch, fresh_held):
    # a Psi2 that jumps at c = 0+ is never bracketed: the walk down from
    # c = 1 ends at its floor, the smallest normal float, and the check
    # there rejects the target (Outperformance/linear, whose Psi2 a walk
    # inverts)
    params = desk_params()
    payoff = Payoff(OUTPERFORMANCE, 100.0)
    p_h = price(payoff, params)
    _edges(payoff, params, LIN, None)
    # _edges held real values at c = 0: clear them, so that the stand-in
    # below answers every read
    fresh_held()
    full = math.exp(params.r * params.T) * p_h
    reads = []

    def jump(payoff, params, loss, c, side, *args, slope=False, **kwargs):
        c = np.asarray(c, dtype=float)
        reads.extend(c.tolist())
        got = np.where(c == 0.0, full, 0.25 * full), np.zeros_like(c)
        return got + (np.zeros_like(c),) if slope else got

    monkeypatch.setattr(solver, "_psi_side", jump)
    with pytest.raises(InfeasibleInversionError):
        phi1(payoff, params, LIN, 0.5 * p_h)
    assert min(c for c in reads if c > 0.0) == sys.float_info.min


def test_jump_at_zero_is_infeasible_on_a_table_side(monkeypatch, fresh_held):
    # a QuantoDomestic/linear Psi2 that jumps at c = 0+ and is flat after:
    # the Newton steps, with no slope, halve the bracket of knots that the
    # held model finds until it closes, and the check at its right end
    # rejects the target
    params = desk_params()
    payoff = Payoff(QUANTO_DOMESTIC, 100.0)
    p_h = price(payoff, params)
    _edges(payoff, params, LIN, None)
    fresh_held()
    full = math.exp(params.r * params.T) * p_h
    reads = []

    def jump(payoff, params, loss, c, side, *args, slope=False, **kwargs):
        c = np.asarray(c, dtype=float)
        reads.extend(c.tolist())
        got = np.where(c == 0.0, full, 0.25 * full), np.zeros_like(c)
        return got + (np.zeros_like(c),) if slope else got

    monkeypatch.setattr(solver, "_psi_side", jump)
    with pytest.raises(InfeasibleInversionError, match="cannot reach"):
        phi1(payoff, params, LIN, 0.5 * p_h)
    assert 2 < len(reads) <= solver._MAX_STEPS + 1


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
    # Newton's steps from the walk's bracket end where a plain bisection
    # in ln c ends: the same c within 2e-13, on either route
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


def test_a_stretch_that_reads_the_target_solves_to_its_least_c():
    # Psi1 of this Outperformance/linear market moves by one float of its
    # target over 5.7e-4 in ln c (slope -4.4e-10 at 1044.65): a Newton
    # read of the target itself inside that stretch halves the bracket
    # instead of ending the solve, so that phi2 answers the least c that
    # a plain bisection in ln c finds, and the cost there
    params = MarketParams(
        s0=(144.53309761295975, 65.26626175651325),
        alpha=(0.6975248091835735, -0.4719826775007424),
        sigma=(0.2286930258149556, 0.4431191831660811),
        rho=0.18789586338369424, r=0.015555472561995493, T=3.0)
    payoff = Payoff(OUTPERFORMANCE, 126.89730937141883)
    ev = solver._Evaluator(payoff, params, LIN, None)
    assert ev.method == solver.METHOD_QUAD
    assert 1 not in psi._table_sides(payoff.kind, LIN.p)
    edge = _edges(payoff, params, LIN, None)[0]
    v = 4.147295840084553e-10
    cost, c, err = _one(_phi2_impl(payoff, params, LIN, [v], None))[:3]

    def psi_at(side):
        def read(c):
            (x,), (e,) = ev.side(np.array([c]), side)
            return float(x), float(e)
        return read

    c_ref = ln_c_bisection(psi_at(1), edge - v, False)[0]
    assert abs(c - c_ref) <= 2e-13 * c_ref
    ref = math.exp(-params.r * params.T) * psi_at(2)(c_ref)[0]
    tol = SolveConfig().abs_tol_target * max(1.0, edge)
    assert abs(cost - ref) <= err + tol


def _table_solves():
    """(rho, payoff, loss, kind) of the desk solves that invert a table
    side by quadrature (psi._table_sides)."""
    cases = []
    for rho in (-0.5, 0.6):
        params = desk_params(rho=rho)
        for payoff, loss in DESK_CONTRACTS:
            ev = solver._Evaluator(payoff, params, loss, None)
            cases += [(rho, payoff, loss, kind)
                      for kind, side in (("phi1", 2), ("phi2", 1))
                      if ev.method == solver.METHOD_QUAD
                      and side in psi._table_sides(payoff.kind, loss.p)]
    return cases


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=st.sampled_from(_table_solves()), f=st.floats(0.02, 0.98))
def test_table_sides_invert_on_their_tables(case, f):
    # a table side finds its target on the model of its held node values
    # and then steps on exact reads: a warm solve reads the inverted side
    # once or twice, its c lies within 2e-13 of a plain bisection in ln c
    # on the same reads, Phi within its err and the tolerance of the value
    # there, and a curve's point is its one-point solve
    rho, payoff, loss, kind = case
    params = desk_params(rho=rho)
    p_h = price(payoff, params)
    edge = _edges(payoff, params, loss, None)[0]
    side, impl, top = ((2, _phi1_impl, p_h) if kind == "phi1"
                       else (1, _phi2_impl, edge))
    ev = solver._Evaluator(payoff, params, loss, None)
    impl(payoff, params, loss, [0.5 * top], None)
    reads = []
    real = solver._psi_side

    def counting(payoff, params, loss, c, side, *args, **kwargs):
        reads.append(side)
        return real(payoff, params, loss, c, side, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_psi_side", counting)
        got = _one(impl(payoff, params, loss, [f * top], None))
    assert 1 <= reads.count(side) <= 2
    value, c, err = got[:3]

    def psi_at(s):
        def read(c):
            (v,), (e,) = ev.side(np.array([c]), s)
            return float(v), float(e)
        return read

    growth = math.exp(params.r * params.T)
    if kind == "phi1":
        target, increasing = growth * f * p_h, False
    else:
        target = edge - f * edge if loss.kind == LINEAR else f * edge
        increasing = loss.kind == POWER
    c_ref = ln_c_bisection(psi_at(side), target, increasing)[0]
    assert abs(c - c_ref) <= 2e-13 * c_ref
    if kind == "phi1":
        v1 = psi_at(1)(c_ref)[0]
        ref = max(edge - v1, 0.0) if loss.kind == LINEAR else v1
        scale = edge
    else:
        ref = psi_at(2)(c_ref)[0] / growth
        scale = p_h
    assert abs(value - ref) <= err + 1e-9 * max(1.0, scale)
    grid = sorted({0.5 * top, f * top})
    pts = curve(payoff, params, loss, kind, grid).points
    pt = pts[grid.index(f * top)]
    assert (pt.value, pt.c, pt.err_estimate) == (value, c, err)


def _walk_solves():
    """(rho, payoff, loss, kind) of the desk solves that the lattice brackets
    and Newton's method closes by quadrature (_lattice)."""
    cases = []
    for rho in (-0.5, 0.6):
        params = desk_params(rho=rho)
        for payoff, loss in DESK_CONTRACTS:
            ev = solver._Evaluator(payoff, params, loss, None)
            cases += [pytest.param(rho, payoff, loss, kind, id=(
                f"{payoff.kind}-{loss.kind}-{kind}-{rho}"))
                for kind, side in (("phi1", 2), ("phi2", 1))
                if ev.method == solver.METHOD_QUAD
                and side not in psi._table_sides(payoff.kind, loss.p)]
    return cases


@pytest.mark.parametrize("rho, payoff, loss, kind", _walk_solves())
def test_warm_walk_solves_read_four_cs_at_most(rho, payoff, loss, kind,
                                                fresh_held):
    # a walk's reads are held: a warm solve reads only its Newton steps'
    # c's, each with its slope, 4 at most from the Hermite start that the
    # held bracket's ends give (psi._hermite; 2.4 on average over the desk),
    # and the other side once at the answer, with no slope; a curve's point
    # is its one-point solve
    params = desk_params(rho=rho)
    p_h = price(payoff, params)
    edge = _edges(payoff, params, loss, None)[0]
    side, impl, top = ((2, _phi1_impl, p_h) if kind == "phi1"
                       else (1, _phi2_impl, edge))
    fs = (0.05, 0.3, 0.5, 0.7, 0.95)
    solves = [_one(impl(payoff, params, loss, [f * top], None)) for f in fs]
    real = solver._psi_side
    for f, want in zip(fs, solves):
        reads = []

        def counting(payoff, params, loss, c, side, *args, slope=False,
                     **kwargs):
            reads.append((side, slope, len(c)))
            return real(payoff, params, loss, c, side, *args, slope=slope,
                        **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_psi_side", counting)
            assert _one(impl(payoff, params, loss, [f * top], None)) == want
        steps = [r for r in reads if r[0] == side]
        assert 1 <= len(steps) <= 4, (f, reads)
        assert all(slope and n == 1 for _side, slope, n in steps)
        assert [r for r in reads if r[0] != side] == [(3 - side, False, 1)]
    pts = curve(payoff, params, loss, kind, [f * top for f in fs]).points
    for pt, (value, c, err, *_rest) in zip(pts, solves):
        assert (pt.value, pt.c, pt.err_estimate) == (value, c, err)


def test_heavy_tail_rejected():
    # Outperformance/linear stays on its region side, whose 10 and 12 sd
    # boxes disagree at sigma1 = 6 (0.00323 vs 112.01).  QuantoDomestic at
    # the same market now prices from its tail table (test_psi)
    params = desk_params(sigma=(6.0, 0.3))
    with pytest.raises(HeavyTailError, match="tail"):
        price(Payoff(OUTPERFORMANCE, 100.0), params)


def test_outperformance_power_round_trip_of_the_benchmark():
    # desk-quad at seed 1, op 5088: phi2(phi1(x)) returned 5.651597132059019,
    # 1.24e-6 off, against the benchmark's tolerance of 2e-8, while each
    # region's integrand kinked inside a panel at its corner (psi._Corner).
    # Psi1 read 144.8944738611416 at c2 = 29.320259733245678 and
    # 144.8944738611327 at c1 = 29.320265832840054, where Phi1' = -c e^rT
    # asks for 3.7e-5
    params = desk_params(-0.5)
    payoff = Payoff(OUTPERFORMANCE, 100.0)
    x = 5.6515958919096585
    risk, _c1 = phi1(payoff, params, P2, x)
    cost, _c2 = phi2(payoff, params, P2, risk)
    assert abs(cost - x) <= 2e-8


def test_outperformance_power_phi2_of_the_curve_book():
    # curve-book at seed 2, op 767: Psi1(118.49806597237159) read
    # 432.09057571827907 and Psi1(118.498065972382) 432.09093852454225, a
    # step of 3.6e-4 against an err of 1.9e-7 where the corner fell inside
    # a panel, so phi2 at a v between closed its bracket across the step.
    # Both c's now read the same value within its err
    params = desk_params(-0.5)
    payoff = Payoff(OUTPERFORMANCE, 100.0)
    (v1, v2), (e1, e2) = psi._psi_side(
        payoff, params, P2, [118.49806597237159, 118.498065972382], 1)
    assert abs(v1 - v2) <= e1 + e2
    cost, c = phi2(payoff, params, P2, 432.090694075)
    assert 0.0 < cost and 118.0 < c < 119.0


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
