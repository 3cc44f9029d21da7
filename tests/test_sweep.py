"""Random-market sweep: phi1 and its phi2 round trip over a box of markets,
payoffs and losses, beyond the desk market every other Phi test runs at,
the round trip over a wider box at p = 1.2, markets that sweeps and the CLI
fuzz found, and the Monte Carlo Psi table against quadrature over a
smaller box."""

from __future__ import annotations

import math

from hypothesis import event, given, settings
from hypothesis import strategies as st

from shortfall_hedge.errors import InfeasibleInversionError, ShortfallHedgeError
from shortfall_hedge.market import MarketParams
from shortfall_hedge.mc import McConfig, verify_risk
from shortfall_hedge.payoffs import (DIGITAL, OUTPERFORMANCE, Payoff,
                                     QUANTO_DOMESTIC, QUANTO_FOREIGN, SPREAD)
from shortfall_hedge.psi import (LINEAR, LossSpec, POWER, _psi_side, psi_mc,
                                 psi_power)
from shortfall_hedge.solver import METHOD_QUAD, _route_method, phi1, phi2, price


def _strike(kind: str, s0, m: float) -> float:
    """A strike near the money; m in [0.8, 1.2] is its moneyness."""
    s1, s2 = s0
    return {DIGITAL: 10.0 * m,  # the amount paid, not a level
            QUANTO_DOMESTIC: m * s1,
            QUANTO_FOREIGN: m * s1 * s2,
            OUTPERFORMANCE: m * max(s1, s2),
            SPREAD: max(s1 - s2, 0.0) + 0.1 * m * s1}[kind]


# |theta_i| >= 0.05: at theta = 0 the density Z~ is 1, Psi is a step
# function and InfeasibleInversionError is the right answer (see
# test_degenerate_step_is_infeasible_at_interior_x)
THETA = st.floats(0.05, 0.5).flatmap(lambda t: st.sampled_from((t, -t)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kind=st.sampled_from((DIGITAL, QUANTO_DOMESTIC, QUANTO_FOREIGN,
                             OUTPERFORMANCE, SPREAD)),
       m=st.floats(0.8, 1.2),
       s0=st.tuples(st.floats(50.0, 150.0), st.floats(50.0, 150.0)),
       sigma=st.tuples(st.floats(0.05, 0.8), st.floats(0.05, 0.8)),
       theta=st.tuples(THETA, THETA),
       rho=st.floats(-0.95, 0.95), r=st.floats(0.0, 0.05),
       T=st.sampled_from((0.25, 1.0, 3.0)),
       p=st.sampled_from((None, 1.2, 1.5, 2.0, 3.0)),
       u=st.floats(0.05, 0.95))
def test_random_markets_solve_or_raise_typed_errors(kind, m, s0, sigma, theta,
                                                    rho, r, T, p, u):
    # only typed errors escape, and a quadrature solve of a target inside
    # (0, p(H)) inverts a continuous Psi2, so it is never infeasible
    alpha = tuple(r + s * t for s, t in zip(sigma, theta))
    params = MarketParams(s0=s0, alpha=alpha, sigma=sigma, rho=rho, r=r, T=T)
    payoff = Payoff(kind, _strike(kind, s0, m))
    loss = LossSpec(LINEAR) if p is None else LossSpec(POWER, p)
    method = _route_method(payoff, params, loss)
    event(f"route: {method}")
    try:
        risk, _c = phi1(payoff, params, loss, u * price(payoff, params))
        phi2(payoff, params, loss, risk)
    except InfeasibleInversionError:
        assert method != METHOD_QUAD, "a continuous Psi side jumped"
    except ShortfallHedgeError as exc:
        event(f"raised: {type(exc).__name__}")


@settings(max_examples=80, deadline=None, derandomize=True)
@given(kind=st.sampled_from((DIGITAL, QUANTO_DOMESTIC, QUANTO_FOREIGN,
                             OUTPERFORMANCE, SPREAD)),
       m=st.floats(0.8, 1.2),
       s0=st.tuples(st.floats(50.0, 150.0), st.floats(50.0, 150.0)),
       sigma=st.tuples(st.floats(0.05, 0.8), st.floats(0.05, 0.8)),
       theta=st.tuples(*2 * [st.floats(0.05, 3.0).flatmap(
           lambda t: st.sampled_from((t, -t)))]),
       rho=st.floats(-0.95, 0.95), r=st.floats(0.0, 0.05),
       T=st.sampled_from((0.25, 1.0, 3.0)),
       u=st.floats(0.05, 0.95))
def test_wide_markets_round_trip_at_p_1_2(kind, m, s0, sigma, theta, rho, r,
                                          T, u):
    # |theta_i| up to 3 at p = 1.2 (q = 6): the c-weights and tilts of the
    # power sides leave the float range on their own, and enter the masses
    # in logs.  A quadrature solve may still refuse with a typed error; one
    # that solves round-trips, phi2(phi1(x)) = x
    alpha = tuple(r + s * t for s, t in zip(sigma, theta))
    params = MarketParams(s0=s0, alpha=alpha, sigma=sigma, rho=rho, r=r, T=T)
    payoff = Payoff(kind, _strike(kind, s0, m))
    loss = LossSpec(POWER, 1.2)
    if _route_method(payoff, params, loss) != METHOD_QUAD:
        event("no closed form: a power sign condition fails")
        return
    try:
        p_h = price(payoff, params)
        x = u * p_h
        risk, _c = phi1(payoff, params, loss, x)
        cost, _c2 = phi2(payoff, params, loss, risk)
    except InfeasibleInversionError:
        raise
    except ShortfallHedgeError as exc:
        event(f"raised: {type(exc).__name__}")
        return
    assert abs(cost - x) <= 1e-8 * max(1.0, p_h), (x, risk, cost)


def test_sweep_market_140_round_trips_and_verifies():
    # a Digital at p = 1.2 where phi1's root c ~ 1e-33 lies where c^q
    # underflows and the tilt overflows: taken apart, the c-weighted term
    # was dropped, phi1 returned risk 0 and phi2 p(H) = 4.88 for x = 2.28
    params = MarketParams(
        s0=(100.0, 95.0), alpha=(0.47701144148600605, 0.663457696231605),
        sigma=(0.39454530993823755, 0.23894734837739384),
        rho=-0.8693711153792242, r=-0.013972831147581567,
        T=2.380368894599682)
    payoff, loss = Payoff(DIGITAL, 10.0), LossSpec(POWER, 1.2)
    p_h = price(payoff, params)
    x = 0.4679629335949672 * p_h
    risk, _c = phi1(payoff, params, loss, x)
    assert abs(phi2(payoff, params, loss, risk)[0] - x) <= 1e-8 * max(1.0, p_h)
    assert verify_risk(payoff, params, loss, x, McConfig(200_000, 5)).ok


def test_fuzz_quanto_market_solves_and_verifies():
    # a QuantoDomestic at p near 1.1 whose phi2 root lies where c^q leaves
    # the float range: the quadrature integrand was nan (inf * 0 of a weight
    # and its tilt) and the solve refused.  At x = 1e-6 or 1e-3 the
    # simulation of verify_risk sees no shortfall path, so it checks 1e-30
    params = MarketParams(
        s0=(461.0093608039018, 0.71286256778038),
        alpha=(0.8629124053328097, 2.1824336746729234),
        sigma=(0.013740057834448415, 0.4295021922782957),
        rho=0.05490819286769, r=-0.09685995229525057,
        T=0.025937958525741593)
    payoff = Payoff(QUANTO_DOMESTIC, 0.3920894308187772)
    loss = LossSpec(POWER, 1.1057141734329337)
    top = phi1(payoff, params, loss, 0.0)[0]
    _cost, c = phi2(payoff, params, loss, 0.9054 * top)
    assert 0.0 < c < math.inf
    got = psi_power(payoff, params, c, loss.p)
    assert abs(got.psi1 - 0.9054 * top) <= max(1e-9 * top,
                                               8.0 * got.err_estimate)
    report = verify_risk(payoff, params, loss, 1e-30, McConfig(200_000, 5))
    assert report.ok, report


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kind=st.sampled_from((DIGITAL, QUANTO_DOMESTIC, QUANTO_FOREIGN,
                             OUTPERFORMANCE, SPREAD)),
       m=st.floats(0.8, 1.2),
       sigma=st.tuples(st.floats(0.1, 0.4), st.floats(0.1, 0.4)),
       theta=st.tuples(THETA, THETA),
       rho=st.floats(-0.9, 0.9),
       p=st.sampled_from((None, 2.0)),
       u=st.floats(0.1, 0.9))
def test_mc_table_matches_quadrature(kind, m, sigma, theta, rho, p, u):
    # psi_mc reads the sorted prefix sums of the Monte Carlo table at a c
    # that a quadrature phi1 solve lands on, where A_c holds a share of the
    # paths; both sides agree with quadrature within 4 se + err
    s0, r = (100.0, 95.0), 0.02
    alpha = tuple(r + s * t for s, t in zip(sigma, theta))
    params = MarketParams(s0=s0, alpha=alpha, sigma=sigma, rho=rho, r=r, T=1.0)
    payoff = Payoff(kind, _strike(kind, s0, m))
    loss = LossSpec(LINEAR) if p is None else LossSpec(POWER, p)
    if _route_method(payoff, params, loss) != METHOD_QUAD:
        event("no closed form: a power sign condition fails")
        return
    try:
        c = phi1(payoff, params, loss, u * price(payoff, params))[1]
        quad = [_psi_side(payoff, params, loss, [c], side) for side in (1, 2)]
    except ShortfallHedgeError as exc:
        event(f"raised: {type(exc).__name__}")
        return
    mc = psi_mc(payoff, params, loss, c, 20_000, 7)
    for (v, e), got in zip(quad, (mc.psi1, mc.psi2)):
        assert abs(v[0] - got) <= 4.0 * mc.err_estimate + e[0], (c, v, e, mc)
