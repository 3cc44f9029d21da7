"""Closed-form Psi pairs: oracles, structural identities, guard rails."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import multivariate_normal

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DESK_PAYOFFS, desk_params
from oracles import (integrate_batch_one_level, line_side_quad,
                     psi1_by_parts, region_side_linear_quad,
                     spread_ln_power_moment, spread_power_psi1_quad)
from shortfall_hedge.errors import (AssumptionViolatedError, HeavyTailError,
                                    UnsupportedClosedFormError,
                                    ValidationError)
from shortfall_hedge.gaussian import sample
from shortfall_hedge.market import (UNDER_P, UNDER_PTILDE, MarketParams,
                                    derive_constants, radon_nikodym,
                                    terminal_price, wiener_law)
from shortfall_hedge.payoffs import (CUSTOM, DIGITAL, OUTPERFORMANCE, Payoff,
                                     QUANTO_DOMESTIC, QUANTO_FOREIGN, SPREAD,
                                     evaluate)
import shortfall_hedge._quad as quad_mod
import shortfall_hedge.psi as psi_mod
from shortfall_hedge.psi import (LINEAR, LossSpec, POWER, psi_linear, psi_mc,
                                 psi_power)
from shortfall_hedge.solver import phi1, phi2, price


def _mc_expectations(payoff, params, n=200_000, seed=42):
    """(E[H], E~[H]) with standard errors, by direct simulation."""
    out = []
    for under in (UNDER_P, UNDER_PTILDE):
        # each measure's own Wiener coordinates are centred: N(0, QT)
        w = sample(wiener_law(params), n, seed)
        s1 = terminal_price(params, 1, w[:, 0], under)
        s2 = terminal_price(params, 2, w[:, 1], under)
        h = np.asarray(evaluate(payoff, s1, s2), dtype=float)
        out.append((h.mean(), h.std(ddof=1) / math.sqrt(n)))
    return out


def test_linear_c0_is_plain_expectation():
    params = desk_params(rho=-0.5)
    for payoff in DESK_PAYOFFS:
        pair = psi_linear(payoff, params, c=0.0)
        (m_p, se_p), (m_pt, se_pt) = _mc_expectations(payoff, params)
        assert abs(pair.psi1 - m_p) <= 3.0 * se_p, payoff.kind
        assert abs(pair.psi2 - m_pt) <= 3.0 * se_pt, payoff.kind


def test_digital_symmetric_market_pays_half():
    # equal dynamics make {S1 >= S2} a fair coin under both measures
    params = desk_params(s0=(100.0, 100.0), alpha=(0.05, 0.05),
                         sigma=(0.25, 0.25), rho=0.3)
    pair = psi_linear(Payoff(DIGITAL, 10.0), params, c=0.0)
    assert pair.psi1 == pytest.approx(5.0, abs=1e-10)
    assert pair.psi2 == pytest.approx(5.0, abs=1e-10)


def test_linear_far_c_empties_the_region():
    params = desk_params()
    for payoff in DESK_PAYOFFS:
        pair = psi_linear(payoff, params, c=math.exp(50.0))
        assert pair.psi1 == 0.0
        assert pair.psi2 == 0.0


def test_power_edges():
    params = desk_params()
    payoff = Payoff(QUANTO_DOMESTIC, 100.0)
    at0 = psi_power(payoff, params, c=0.0, p=2.0)
    lin = psi_linear(payoff, params, c=0.0)
    assert at0.psi1 == 0.0
    assert at0.psi2 == pytest.approx(lin.psi2, rel=1e-12)
    # c = inf: nothing is hedged, shortfall is the whole claim
    at_inf = psi_power(payoff, params, c=math.inf, p=2.0)
    assert at_inf.psi2 == 0.0
    w = sample(wiener_law(params), 200_000, seed=3)
    s1 = terminal_price(params, 1, w[:, 0])
    s2 = terminal_price(params, 2, w[:, 1])
    hp = np.asarray(evaluate(payoff, s1, s2), dtype=float) ** 2 / 2.0
    se = hp.std(ddof=1) / math.sqrt(hp.size)
    assert abs(at_inf.psi1 - hp.mean()) <= 3.0 * se


def test_psi_mc_agrees_with_quadrature():
    params = desk_params(rho=0.0)
    cases = [(Payoff(DIGITAL, 10.0), LossSpec(LINEAR), 1.1),
             (Payoff(SPREAD, 5.0), LossSpec(POWER, 2.0), 30.0),
             (Payoff(QUANTO_FOREIGN, 9500.0), LossSpec(POWER, 1.5), 2.0)]
    for payoff, loss, c in cases:
        quad = psi_linear(payoff, params, c=c) if loss.kind == LINEAR else \
            psi_power(payoff, params, c=c, p=loss.p)
        mc = psi_mc(payoff, params, loss, c, n=200_000, seed=9)
        assert abs(quad.psi1 - mc.psi1) <= 3.0 * mc.err_estimate + 1e-9, payoff.kind
        assert abs(quad.psi2 - mc.psi2) <= 3.0 * mc.err_estimate + 1e-9, payoff.kind


_REGION_AND_CALL_CASES = [
    (payoff, loss)
    for payoff in DESK_PAYOFFS if payoff.kind != DIGITAL
    for loss in (LossSpec(LINEAR), LossSpec(POWER, 1.5), LossSpec(POWER, 2.0),
                 LossSpec(POWER, 3.0))
    if not (payoff.kind == SPREAD and loss.kind == POWER)]


@pytest.mark.parametrize("rho", (-0.5, 0.6))
@pytest.mark.parametrize("payoff,loss", _REGION_AND_CALL_CASES,
                         ids=lambda v: getattr(v, "kind", None) if
                         isinstance(v, Payoff) else str(v.p or "linear"))
def test_region_and_s1_call_sides_match_monte_carlo(payoff, loss, rho):
    # an oracle independent of the quadrature's integrands: the product-form
    # region sides (QuantoDomestic, Outperformance, QuantoForeign/power) and
    # the S1-call side (QuantoForeign/linear, Spread/linear) against one
    # seeded Monte Carlo table per case
    params = desk_params(rho)
    cs = [0.5, 1.0, 2.0] if loss.kind == LINEAR else [0.3, 3.0, 30.0]
    table = psi_mod._McTable(payoff, params, loss, 200_000, seed=7)
    for side in (1, 2):
        try:
            quad, err = psi_mod._psi_side(payoff, params, loss, cs, side)
        except AssumptionViolatedError:
            pytest.skip("sign condition fails: the closed form refuses")
        mc, se = table.side(cs, side)
        assert np.all(np.abs(quad - mc) <= 5.0 * se + err), (side, quad, mc, se)


def _parallel_market(t, rho, delta=0.0):
    """The desk market with drifts that make the density exponent A =
    t (sigma1, -sigma2) parallel to the Digital's X = sigma1 W1 - sigma2 W2
    (theta = Q A), so that Y = A1 W1 + A2 W2 = t X; then alpha1 is raised
    by delta."""
    (s1, s2), r = (0.2, 0.3), 0.02
    a1, a2 = t * s1, -t * s2
    return desk_params(rho, alpha=(r + s1 * (a1 + rho * a2) + delta,
                                   r + s2 * (rho * a1 + a2)))


_DIGITAL_MARKETS = {
    "desk-0.5": desk_params(-0.5),
    "desk0.6": desk_params(0.6),
    "A=0": desk_params(alpha=(0.02, 0.02)),
    "lam0.8": _parallel_market(0.8, 0.3),
    "lam-0.6": _parallel_market(-0.6, -0.4),
}


@pytest.mark.parametrize("market", _DIGITAL_MARKETS)
@pytest.mark.parametrize("loss", (LossSpec(LINEAR), LossSpec(POWER, 1.5),
                                  LossSpec(POWER, 2.0), LossSpec(POWER, 3.0)),
                         ids=lambda v: str(v.p or "linear"))
def test_digital_sides_match_monte_carlo(market, loss):
    # every case of the Digital's tail table against one seeded Monte Carlo
    # table per case: a general market (desk), Y = 0 (A = 0, where A_c is a
    # step in c) and Y = lam X with lam > 0 and lam < 0 (A parallel to
    # (sigma1, -sigma2), where P(S1 >= S2 | Y = y) is a step in y)
    params = _DIGITAL_MARKETS[market]
    payoff = Payoff(DIGITAL, 10.0)
    cs = [0.5, 1.0, 2.0] if loss.kind == LINEAR else [0.3, 1.0, 3.0]
    table = psi_mod._McTable(payoff, params, loss, 200_000, seed=7)
    for side in (1, 2):
        got, err = psi_mod._psi_side(payoff, params, loss, cs, side)
        mc, se = table.side(cs, side)
        assert np.all(np.abs(got - mc) <= 5.0 * se + err), (side, got, mc, se)


@pytest.mark.parametrize("t,rho", ((0.8, 0.3), (-0.6, -0.4)))
@pytest.mark.parametrize("delta", (1e-13, 1e-10, 1e-8, 1e-7))
def test_near_parallel_digital_solves_within_its_error(t, rho, delta):
    # A nearly parallel to (sigma1, -sigma2): the (X, Y) covariance is all
    # but singular, and Y = lam X up to a conditional sd s_yx of at most
    # about 1e-6, so that P(S1 >= S2 | Y = y) is a ramp about s_yx / |lam|
    # wide in y, where the tail table places its breakpoints
    params = _parallel_market(t, rho, delta)
    payoff = Payoff(DIGITAL, 10.0)
    for loss in (LossSpec(LINEAR), LossSpec(POWER, 2.0)):
        risk, _c = phi1(payoff, params, loss, 0.5 * price(payoff, params))
        phi2(payoff, params, loss, risk)
    cons = derive_constants(params, payoff.strike)
    s1, s2 = params.sigma
    m = np.array([[s1, -s2], [cons.a1, cons.a2]])
    cov = m @ params.wiener_cov @ m.T
    sd_x, lam = math.sqrt(cov[0, 0]), cov[0, 1] / cov[0, 0]
    # s_yx^2 = det(cov) / var X, with det(cov) = det(m)^2 det(QT)
    s_yx = (abs(s1 * cons.a2 + s2 * cons.a1) * params.T
            * math.sqrt(1.0 - rho * rho) / sd_x)

    def integrand(x, u):
        return (math.exp(-0.5 * (x / sd_x) ** 2)
                / (sd_x * math.sqrt(2.0 * math.pi))
                * ndtr((lam * x - u) / s_yx))

    for side, bs, thr in ((1, cons.b_cap, cons.thresholds["b"]),
                          (2, cons.b_cap_tilde, cons.thresholds["b_tilde"])):
        # at c_corner the boundary lam x = u meets x = thr, where the band
        # |lam x - u| <= 8 s_yx of the error bound holds least mass
        c_corner = math.exp(lam * thr + bs * params.T)
        cs = [0.5, 0.9, c_corner, 1.1, 2.0]
        got, err = psi_mod._psi_side(payoff, params, LossSpec(LINEAR), cs,
                                     side)
        for c, g, e in zip(cs, got, err):
            # K * P(X >= thr, Y >= u), with breakpoints around the ramp of
            # Phi((lam x - u) / s_yx), which is about s_yx / |lam| wide; a
            # breakpoint within rounding of thr would leave quad a piece a
            # few ulps wide
            u = math.log(c) - bs * params.T
            ramp, hi = 20.0 * s_yx / abs(lam), 12.0 * sd_x
            cuts = sorted({thr, hi} | {x for x in (u / lam - ramp, u / lam,
                                                   u / lam + ramp)
                                       if thr + 1e-14 < x < hi})
            ref = payoff.strike * sum(
                quad(integrand, a, b, args=(u,), epsabs=1e-15, epsrel=1e-13,
                     limit=200)[0] for a, b in zip(cuts, cuts[1:]))
            assert abs(g - ref) <= e, (side, c, g, ref, e)


def test_monotone_in_c():
    params = desk_params(rho=0.6)
    grid = np.exp(np.linspace(-4.0, 4.0, 20))
    lin = [psi_linear(Payoff(DIGITAL, 10.0), params, c=c) for c in grid]
    for a, b in zip(lin, lin[1:]):
        tol = a.err_estimate + b.err_estimate
        assert b.psi1 <= a.psi1 + tol
        assert b.psi2 <= a.psi2 + tol
    pw_grid = np.exp(np.linspace(-2.0, 12.0, 20))
    pw = [psi_power(Payoff(QUANTO_DOMESTIC, 100.0), params, c=c, p=2.0)
          for c in pw_grid]
    for a, b in zip(pw, pw[1:]):
        tol = a.err_estimate + b.err_estimate
        assert b.psi1 >= a.psi1 - tol
        assert b.psi2 <= a.psi2 + tol


def test_left_continuity_under_delta_halving():
    params = desk_params()
    payoff = Payoff(SPREAD, 5.0)
    for c in (5.0, 20.0, 80.0):
        base = psi_power(payoff, params, c=c, p=2.0)
        gaps = []
        for delta in (1e-3 * c, 5e-4 * c, 2.5e-4 * c):
            left = psi_power(payoff, params, c=c - delta, p=2.0)
            gaps.append(abs(left.psi1 - base.psi1) + abs(left.psi2 - base.psi2))
        assert gaps[2] <= 0.51 * gaps[0] + 1e-11


def test_measure_change_identity():
    # Psi2(c) = E[Z~ H 1_{A_c}] with everything sampled under P
    params = desk_params(rho=-0.5)
    payoff = Payoff(OUTPERFORMANCE, 100.0)
    c = 1.3
    cons = derive_constants(params, payoff.strike)
    w = sample(wiener_law(params), 400_000, seed=77)
    s1 = terminal_price(params, 1, w[:, 0])
    s2 = terminal_price(params, 2, w[:, 1])
    h = np.asarray(evaluate(payoff, s1, s2), dtype=float)
    z = radon_nikodym(cons, w[:, 0], w[:, 1])
    ind = 1.0 / z >= c
    est = z * h * ind
    se = est.std(ddof=1) / math.sqrt(est.size)
    assert abs(psi_linear(payoff, params, c=c).psi2 - est.mean()) <= 3.0 * se


def test_digital_linear_against_bivariate_normal_cdf():
    # dual route: Psi1(c)/K = P(X >= b, Y >= ln c - BT) for the jointly
    # normal pair X = s1 W1 - s2 W2, Y = A1 W1 + A2 W2
    params = desk_params(rho=0.3)
    payoff = Payoff(DIGITAL, 10.0)
    cons = derive_constants(params, payoff.strike)
    s1, s2 = params.sigma
    a1, a2 = cons.a1, cons.a2
    rho, t = params.rho, params.T
    cov = np.array([
        [s1 * s1 - 2 * rho * s1 * s2 + s2 * s2,
         s1 * a1 + rho * (s1 * a2 - s2 * a1) - s2 * a2],
        [s1 * a1 + rho * (s1 * a2 - s2 * a1) - s2 * a2,
         a1 * a1 + 2 * rho * a1 * a2 + a2 * a2]]) * t
    for c in (0.7, 1.0, 1.6):
        lower = np.array([cons.thresholds["b"], math.log(c) - cons.b_cap * t])
        # upper-orthant mass via the scipy CDF of the reflected vector
        want = multivariate_normal(mean=[0.0, 0.0], cov=cov).cdf(-lower)
        got = psi_linear(payoff, params, c=c).psi1 / payoff.strike
        assert abs(got - want) <= 1e-8


def test_spread_region_boundary_membership():
    params = desk_params()
    payoff = Payoff(SPREAD, 5.0)
    cons = derive_constants(params, payoff.strike)
    c, p = 25.0, 2.0
    kappa = 1.0 / (p - 1.0)
    t = params.T
    ctx = psi_mod._make_ctx(payoff, params, psi_mod.TRUNC_SD)

    def log_ratio(x, y, under):
        # kappa ln(c Z~) - ln H, negative exactly on the success set
        s1 = terminal_price(params, 1, x, under)
        s2 = terminal_price(params, 2, y, under)
        h = s1 - s2 - payoff.strike
        if h <= 0:
            return math.inf
        b_cap = cons.b_cap if under == UNDER_P else cons.b_cap_tilde
        lncz = math.log(c) - cons.a1 * x - cons.a2 * y - b_cap * t
        return kappa * lncz - math.log(h)

    rng = np.random.default_rng(12)
    for y in rng.normal(scale=math.sqrt(t), size=12):
        for under in (UNDER_P, UNDER_PTILDE):
            # the row at W2 = y splits at x* into shortfall [d(y), x*) and
            # success [x*, inf)
            x_star, d_y, _s2k = (float(v[0]) for v in psi_mod._spread_xstar(
                ctx, math.log(c), p, np.array([float(y)]),
                under == UNDER_PTILDE))
            # the payoff root: S1(d_y) - S2(y) - K = 0
            assert terminal_price(params, 1, d_y, under) - terminal_price(
                params, 2, y, under) - payoff.strike == pytest.approx(
                    0.0, abs=1e-6)
            assert math.isfinite(x_star)
            eps = 1e-12 * max(1.0, abs(x_star))
            assert log_ratio(x_star + eps, y, under) < 0.0
            if x_star - eps > d_y:
                assert log_ratio(x_star - eps, y, under) > 0.0


@pytest.mark.parametrize("tilde", (False, True))
def test_spread_xstar_of_a_row_does_not_depend_on_its_batch(tilde):
    # each row runs its own Newton iterates and stops on its own test
    params = desk_params()
    ctx = psi_mod._make_ctx(Payoff(SPREAD, 5.0), params, psi_mod.TRUNC_SD)
    rng = np.random.default_rng(5)
    y = rng.uniform(-10.0, 10.0, 400)
    lnc = rng.uniform(-20.0, 30.0, 400)
    lnc[:3] = -math.inf, math.inf, 0.0
    p = 2.0 if tilde else 3.0
    batch = psi_mod._spread_xstar(ctx, lnc, p, y, tilde)
    for i in range(y.size):
        alone = psi_mod._spread_xstar(ctx, lnc[i:i + 1], p, y[i:i + 1], tilde)
        for got, want in zip(alone, batch):
            assert got[0] == want[i]


@pytest.mark.parametrize("rho", (-0.5, 0.6))
@pytest.mark.parametrize("payoff", (Payoff(SPREAD, 5.0),
                                    Payoff(DIGITAL, 10.0)),
                         ids=lambda p: p.kind)
def test_power_psi1_matches_its_psi2_integrated_by_parts(payoff, rho):
    # dPsi1 = -c dPsi2, so Psi1 is the engine's own Psi2 integrated by
    # parts (oracles.psi1_by_parts): no stored reference, and none of
    # Psi1's code.  The oracle's bound holds its quad error and Psi2's
    params = desk_params(rho=rho)
    cs = [1e-3, 0.3, 1.0, 4.0, 20.0, 150.0, math.inf]
    for p in (1.5, 2.0, 3.0):
        ref, ref_err = psi1_by_parts(payoff, params, p, cs)
        got, err = psi_mod._psi_side(payoff, params, LossSpec(POWER, p), cs, 1)
        tol = err + ref_err + 1e-14 * np.abs(ref)
        assert (np.abs(got - ref) <= tol).all(), (p, got - ref, err, ref_err)


# two markets of the sweep's wide box (|theta_i| up to 3, T = 3) at p = 3,
# and the desk at p near 1
_WIDE_SPREADS = (
    pytest.param(
        MarketParams(s0=(126.52473832785226, 140.91793139905502),
                     alpha=(0.37115208518720133, -1.830689224747992),
                     sigma=(0.16329670855761164, 0.7500645442305715),
                     rho=-0.15408306326494825, r=0.0002589432907716072,
                     T=3.0),
        10.194205407847083, 3.0, (math.inf,), id="tilt-leaves-the-box"),
    pytest.param(
        MarketParams(s0=(90.24982981039815, 59.670409393174566),
                     alpha=(-0.6928126533747491, 0.5888725940890007),
                     sigma=(0.7758710382866161, 0.21125302801691004),
                     rho=-0.6999299499642191, r=0.03358825813056425, T=3.0),
        41.21066326707469, 3.0, (1e-6, 0.1), id="fine-x-rule"),
    pytest.param(desk_params(rho=-0.5), 5.0, 1.001, (0.3,), id="p-near-1"),
)


@pytest.mark.parametrize("params,strike,p,cs", _WIDE_SPREADS)
def test_spread_power_psi1_of_wide_markets_matches_a_nested_quad(
        params, strike, p, cs):
    # tilt-leaves-the-box: W's y-mass at a large c lies far below y = 0,
    # and a box fixed there read Psi1(inf) 22551214.5986503 +- 3.2e-3.
    # fine-x-rule: the fixed inner rule in x read Psi1(1e-6) 2e-5 low at an
    # err_estimate of 4e-16.  p-near-1: the mass of H > 0 under the tilt by
    # Z~^1000 underflows, and the table was refused with HeavyTailError
    payoff = Payoff(SPREAD, strike)
    got, err = psi_mod._psi_side(payoff, params, LossSpec(POWER, p), cs, 1)
    for c, v, e in zip(cs, got, err):
        ref, ref_err = spread_power_psi1_quad(payoff, params, p, c)
        assert abs(v - ref) <= e + ref_err + 1e-11 * abs(ref), (c, v, ref, e)


@pytest.mark.parametrize("rho", (-0.5, 0.6))
def test_spread_power_psi1_of_a_high_power_matches_a_grid(rho):
    # at p = 100 the mass of H^100 lies some 20 sd up W1 and, at rho =
    # -0.5, 10 sd down W2: W values on a box fixed around y = 0 read
    # Psi1(inf) 1.2772e287, half of E[H^100] / 100 = 2.4428e287
    payoff, params = Payoff(SPREAD, 5.0), desk_params(rho=rho)
    (v,), (e,) = psi_mod._psi_side(payoff, params, LossSpec(POWER, 100.0),
                                   [math.inf], 1)
    ref = spread_ln_power_moment(payoff, params, 100.0)
    assert abs(math.log(v) - ref) <= e / v + 1e-12, (math.log(v), ref, e)


def test_spread_power_psi1_refuses_a_tilt_that_rounds_off():
    # a CLI fuzz market at p - 1 = 4.5e-6: the tilt by Z~^kap carries W~
    # some 500 sd from 0, where kap A.W~ rounds off far beyond the accept
    # rule.  A fixed box read Psi1(inf) 5.9e15 +- 1.5e16 against E[H^p] / p
    # = 5.12e40; it is refused instead
    params = MarketParams(
        s0=(334.75045778249915, 569.0607852714771),
        alpha=(2.9999999999999996, -1.0073469445631953),
        sigma=(2.9999999999999996, 0.01), rho=0.10945637487311677,
        r=1.3853462495152456e-40, T=29.307303188177514)
    with pytest.raises(HeavyTailError, match="rounds off"):
        psi_mod._psi_side(Payoff(SPREAD, 0.010587665332887457), params,
                          LossSpec(POWER, 1.0000044918385982), [math.inf], 1)


# two markets of the sweep's wide box at p = 1.2 where ln H lies far below
# ln S1 under the tilt, so m(u) reaches M = P^kap(H > 0) far below the
# span's first u_lo
@pytest.mark.parametrize("params,strike", (
    pytest.param(
        MarketParams(s0=(81.2230674175029, 121.97484391385755),
                     alpha=(1.0950912458508233, -0.2051211881039437),
                     sigma=(0.3912631123642999, 0.09258077179468759),
                     rho=-0.20119051602256088, r=0.04976808297144985, T=3.0),
        6.90365657341995, id="u_lo-moves"),
    pytest.param(
        MarketParams(s0=(73.06671823011024, 146.99075735821714),
                     alpha=(0.5908120130989745, -0.048017361524647875),
                     sigma=(0.20586325034255298, 0.42985701214109806),
                     rho=0.18995192708488218, r=0.024869252210975763, T=3.0),
        6.536696430945978, id="past-the-box-bound",
        marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 15: m(u) below the first u_lo is under the bound "
            "2 Phi(-TRUNC_SD) n on its box's tail, n from V's half-plane "
            "lying far above the mass, so u_lo cannot move: Psi1(1e-20) "
            "reads 2.4997e-49 +- 2.4997e-49"))),
))
def test_spread_power_psi1_far_below_its_span_keeps_digits(params, strike):
    # u_lo-moves: a head bracketed at the first u_lo by m(u_lo) and M read
    # Psi1(1e-20) 5.98e-50 +- 5.98e-50, against a nested quad's 9.90e-52
    (v,), (e,) = psi_mod._psi_side(Payoff(SPREAD, strike), params,
                                   LossSpec(POWER, 1.2), [1e-20], 1)
    assert e <= 1e-6 * v, (v, e)


@pytest.mark.parametrize("loss", (LossSpec(LINEAR), LossSpec(POWER, 2.0)),
                         ids=lambda l: l.kind)
@pytest.mark.parametrize("payoff", DESK_PAYOFFS, ids=lambda p: p.kind)
def test_psi_side_values_keep_their_bits(payoff, loss, monkeypatch):
    # the solver holds values it read in one batch for reads in another:
    # each c's value and error are those of a one-c call.  And reading
    # ahead in the panel tree moves none of them: they are the bits of one
    # round per integrand call, Spread/power Psi1's W table rebuilt under
    # that rule included
    params = desk_params()
    cs = [0.0, 0.37, 1.0, 6.5, 41.0, math.inf]
    got = {side: psi_mod._psi_side(payoff, params, loss, cs, side)
           for side in (1, 2)}
    for side, (v, e) in got.items():
        for j, c in enumerate(cs):
            (v1,), (e1,) = psi_mod._psi_side(payoff, params, loss, [c], side)
            assert (v[j], e[j]) == (v1, e1), (side, c)
    monkeypatch.setattr(psi_mod, "integrate_batch",
                        integrate_batch_one_level)
    psi_mod._w_table.cache_clear()
    for side, (v, e) in got.items():
        v1, e1 = psi_mod._psi_side(payoff, params, loss, cs, side)
        assert np.array_equal(v, v1) and np.array_equal(e, e1), side


@pytest.mark.parametrize("side", (1, 2))
def test_region_oracle_matches_a_side_without_a_kink(side):
    # QuantoDomestic's one region has no cap, so its inner mass has no
    # kink: there the quadrature side and the independent scipy quad agree
    # within the reported error
    params = desk_params(rho=-0.5)
    payoff = Payoff(QUANTO_DOMESTIC, 100.0)
    for c in (0.3, 1.0, 1.94, 5.0):
        (v,), (err,) = psi_mod._psi_side(payoff, params, LossSpec(LINEAR),
                                         [c], side)
        ref = region_side_linear_quad(payoff, params, c, side)
        assert abs(v - ref) <= err + 1e-14 * abs(ref), c


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: the kink where a region's inner lower limit meets its "
    "cap falls inside a panel that G7 and K15 accept together"))
def test_outperformance_psi1_within_its_error_of_an_independent_quad():
    # the benchmark's desk Outperformance/linear contract: Psi1(1.94) reads
    # 4.241699343679855 with err 7.5e-11, and scipy quad with the kink as a
    # breakpoint gives 4.2417004791495625, 1.5e4 errors away
    params = desk_params(rho=-0.5)
    payoff = Payoff(OUTPERFORMANCE, 100.0)
    (v,), (err,) = psi_mod._psi_side(payoff, params, LossSpec(LINEAR),
                                     [1.94], 1)
    ref = region_side_linear_quad(payoff, params, 1.94, 1)
    assert abs(v - ref) <= err + 1e-14 * abs(ref)


def test_quanto_foreign_psi1_within_its_error_of_a_tight_rerun(monkeypatch):
    # desk QuantoForeign/linear at rho = 0.6: Psi1(e^-0.5) on the S1-call
    # side read 21.05024115166505 with err 7.1e-12, 310 errors from a rerun
    # at a 1e-14 tolerance (21.050241149459644).  The tail table's value
    # must lie within its error of its own table rebuilt at that tolerance.
    # The accept rule keys the held tables: the tight run builds its own,
    # and the restored rule reads the first table again
    params = desk_params(rho=0.6)
    payoff = Payoff(QUANTO_FOREIGN, 9500.0)
    c = [math.exp(-0.5)]
    (v,), (err,) = psi_mod._psi_side(payoff, params, LossSpec(LINEAR), c, 1)
    built = psi_mod._tail_table.cache_info().misses
    with monkeypatch.context() as patch:
        patch.setattr(quad_mod, "_REL_TOL", 1e-14)
        (ref,), _err = psi_mod._psi_side(payoff, params, LossSpec(LINEAR),
                                         c, 1)
    assert psi_mod._tail_table.cache_info().misses == built + 1
    assert abs(v - ref) <= err + 1e-14 * abs(ref)
    assert abs(ref - 21.050241149459644) <= err + 1e-14 * abs(ref)
    again = psi_mod._psi_side(payoff, params, LossSpec(LINEAR), c, 1)
    assert (again[0][0], again[1][0]) == (v, err)


@pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
def test_outperformance_power_sides_within_their_err_of_a_tight_rerun(
        p, monkeypatch):
    # each region's power integrand kinks at its corner, where the inner
    # limit v(o) of A_c meets the cap, and right of it v has the payoff's
    # root at the corner's distance (psi._Corner).  Split there, and taken
    # in w = ln F right of it, both sides at 29 c's lie within their err of
    # a rerun at a 1e-13 tolerance from 64 initial panels (and rounding);
    # a region integrated whole missed it by up to 2e7 errs on 2-5 of them
    params = desk_params(-0.5)
    payoff = Payoff(OUTPERFORMANCE, 100.0)
    loss = LossSpec(POWER, p)
    cs = np.exp(np.linspace(-6.0, 8.0, 29))
    for side in (1, 2):
        got, err = psi_mod._psi_side(payoff, params, loss, cs, side)
        with monkeypatch.context() as patch:
            patch.setattr(quad_mod, "_REL_TOL", 1e-13)
            patch.setattr(quad_mod, "_INITIAL_PANELS", 64)
            ref, _err = psi_mod._psi_side(payoff, params, loss, cs, side)
        for c, v, e, r in zip(cs, got, err, ref):
            assert abs(v - r) <= e + 1e-14 * abs(r), (side, c, v, r, e)


# the sides read from the tail tables: every linear side but the
# Outperformance's, and the Digital under power loss
_TABLE_CASES = [(payoff, loss) for payoff in DESK_PAYOFFS
                for loss in (LossSpec(LINEAR), LossSpec(POWER, 2.0))
                if payoff.kind == DIGITAL
                or (loss.kind == LINEAR and payoff.kind != OUTPERFORMANCE)]


@pytest.mark.parametrize("rho", (-0.5, 0.6))
@pytest.mark.parametrize("payoff,loss", _TABLE_CASES,
                         ids=lambda v: getattr(v, "kind", None) if
                         isinstance(v, Payoff) else str(v.p or "linear"))
def test_tail_table_sides_match_an_independent_quad(payoff, loss, rho):
    # each side at 29 c's over [e^-6, e^8] against scipy quad of its
    # integrand in Y = A1 W1 + A2 W2, whose conditional law on the line of
    # fixed Y and the payoff's set on it the oracle works out for itself.
    # QuantoDomestic/linear also against the region oracle, where its 10 sd
    # box in W1 holds the value (1e-6 of the edge and up; at 8 sd of Y, c =
    # 33, the box loses 3e-9 of it)
    params = desk_params(rho)
    cs = np.exp(np.linspace(-6.0, 8.0, 29))
    for side in (1, 2):
        got, err = psi_mod._psi_side(payoff, params, loss, cs, side)
        for c, v, e in zip(cs, got, err):
            ref = line_side_quad(payoff, params, loss, float(c), side)
            assert abs(v - ref) <= e + 1e-14 * abs(ref), (side, c, v, ref, e)
            if (payoff.kind == QUANTO_DOMESTIC and rho < 0.0
                    and v >= 1e-6 * got[0]):
                ref = region_side_linear_quad(payoff, params, float(c), side)
                assert abs(v - ref) <= e + 1e-14 * abs(ref), (side, c, v, ref)


def _scaled(payoff, params, lam):
    """The contract with s0 scaled by lam and the strike so that H scales
    by mu: (payoff, params, mu)."""
    mu = lam * lam if payoff.kind == QUANTO_DOMESTIC else lam
    strike = payoff.strike * (lam * lam if payoff.kind == QUANTO_FOREIGN
                              else lam)
    return (Payoff(payoff.kind, strike),
            MarketParams(s0=tuple(lam * s for s in params.s0),
                         alpha=params.alpha, sigma=params.sigma,
                         rho=params.rho, r=params.r, T=params.T), mu)


_THETA = st.floats(0.05, 0.5).flatmap(lambda t: st.sampled_from((t, -t)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from((DIGITAL, QUANTO_DOMESTIC, QUANTO_FOREIGN,
                             SPREAD)),
       p=st.sampled_from((None, 1.5, 2.0, 3.0)),
       lam=st.floats(0.1, 10.0), m=st.floats(0.8, 1.2),
       s0=st.tuples(st.floats(50.0, 150.0), st.floats(50.0, 150.0)),
       sigma=st.tuples(st.floats(0.05, 0.8), st.floats(0.05, 0.8)),
       theta=st.tuples(_THETA, _THETA),
       rho=st.floats(-0.95, 0.95), r=st.floats(0.0, 0.05),
       T=st.sampled_from((0.25, 1.0, 3.0)), z=st.floats(-3.0, 3.0))
def test_tail_table_sides_scale_with_the_payoff(kind, p, lam, m, s0, sigma,
                                                theta, rho, r, T, z):
    # ROADMAP item 9's identity, with no stored reference: s0 scaled by lam
    # and the strike so that H scales by mu leave Z~ alone.  So a linear
    # side scales by mu at the same c, and a Digital power side obeys
    # Psi2(mu^(p-1) c) = mu Psi2(c) and Psi1(mu^(p-1) c) = mu^p Psi1(c).
    # c is z sd of ln Z~ from its mean
    if p is not None and kind != DIGITAL:
        p = None
    loss = LossSpec(LINEAR) if p is None else LossSpec(POWER, p)
    params = MarketParams(s0=s0, alpha=tuple(r + s * t for s, t in
                                             zip(sigma, theta)),
                          sigma=sigma, rho=rho, r=r, T=T)
    strike = {DIGITAL: 10.0, QUANTO_DOMESTIC: s0[0], QUANTO_FOREIGN:
              s0[0] * s0[1], SPREAD: 0.1 * s0[0]}[kind] * m
    payoff = Payoff(kind, strike)
    big, big_params, mu = _scaled(payoff, params, lam)
    cons = derive_constants(params, strike)
    c = math.exp(z * math.sqrt(2.0 * cons.b_cap * T) + cons.b_cap * T)
    shift = 1.0 if p is None else mu ** (p - 1.0)
    for side in (1, 2):
        (v,), (e,) = psi_mod._psi_side(payoff, params, loss, [c], side)
        (w,), (f,) = psi_mod._psi_side(big, big_params, loss, [shift * c],
                                       side)
        factor = mu ** p if p is not None and side == 1 else mu
        ref = factor * v
        assert abs(w - ref) <= f + factor * e + 1e-14 * abs(ref), (
            side, w, ref, f, factor * e)


def test_digital_power_psi1_near_the_float_range_is_finite():
    # a desk Digital at K = e^1.8, p = 400.00000000000006: Psi1(1.7e308) is
    # about 1.4e306, though c^q e^(-qBT) T_q(u) / K, its shortfall term
    # before the division by p, is past the float range.  By the payoff's
    # scaling it is K^p Psi1(c / K^(p-1)) of the Digital paying 1, here
    # taken in logs
    p, c = 400.00000000000006, 1.7e308
    loss, strike = LossSpec(POWER, p), math.exp(1.8)
    ln_k = math.log(strike)
    (v,), (e,) = psi_mod._psi_side(Payoff(DIGITAL, strike), desk_params(),
                                   loss, [c], 1)
    (w,), (f,) = psi_mod._psi_side(Payoff(DIGITAL, 1.0), desk_params(),
                                   loss, [math.exp(math.log(c)
                                                   - (p - 1.0) * ln_k)], 1)
    ref = math.exp(p * ln_k + math.log(w))
    assert 1e306 < v < math.inf
    assert abs(v - ref) <= e + f / w * ref + 1e-12 * ref


@pytest.mark.parametrize("rho", (-0.5, 0.6))
def test_digital_and_quanto_domestic_prices_match_their_closed_forms(rho):
    # Digital: K e^(-rT) Phi(d) in X = sigma1 W1 - sigma2 W2; QuantoDomestic:
    # Black-Scholes with S2 as numeraire, under which S1 drifts at
    # r + rho sigma1 sigma2.  Each within its err and 1e-13 relative
    for params in (desk_params(rho), desk_params(rho, sigma=(6.0, 0.3))):
        (s10, s20), (sg1, sg2), r, t = (params.s0, params.sigma, params.r,
                                        params.T)
        disc = math.exp(-r * t)
        sd_x = math.sqrt(t * (sg1 ** 2 - 2.0 * rho * sg1 * sg2 + sg2 ** 2))
        d = (math.log(s10 / s20) - 0.5 * (sg1 ** 2 - sg2 ** 2) * t) / sd_x
        fwd = s10 * math.exp((r + rho * sg1 * sg2) * t)
        d1 = (math.log(fwd / 100.0) + 0.5 * sg1 ** 2 * t) / (sg1 * math.sqrt(t))
        cases = [(Payoff(DIGITAL, 10.0), 10.0 * disc * float(ndtr(d))),
                 (Payoff(QUANTO_DOMESTIC, 100.0), s20 * (
                     fwd * float(ndtr(d1))
                     - 100.0 * float(ndtr(d1 - sg1 * math.sqrt(t)))))]
        for payoff, want in cases:
            (_v,), (err,) = psi_mod._psi_side(payoff, params,
                                              LossSpec(LINEAR), [0.0], 2)
            got = price(payoff, params)
            assert abs(got - want) <= disc * err + 1e-13 * want, (
                payoff.kind, params.sigma, got, want, err)
    # sigma1 = 6: the 12 sd box read 3924.06956153 and price refused it
    qd = price(Payoff(QUANTO_DOMESTIC, 100.0), desk_params(-0.5,
                                                           sigma=(6.0, 0.3)))
    assert abs(qd - 3924.069563057742) <= 1e-13 * 3924.069563057742


# a Digital at p = 1.2 whose c-weights and tilts leave the float range on
# their own, though their products on A_c are bounded
_TILTED_DIGITAL = (Payoff(DIGITAL, 8.457764069246629), MarketParams(
    s0=(67.9481970657719, 126.63502756459589),
    alpha=(-0.9069156483382611, -0.9700838385487495),
    sigma=(0.42517903033162835, 0.5464007170244504),
    rho=-0.4373566057823094, r=0.03492473941503814, T=3.0))


def test_digital_tilt_past_the_float_range_matches_a_bounded_simulation():
    # power Psi1(c) = E[min(H^p, (c Z~)^q)] / p, every simulated term at
    # most K^p / p.  At c = 1e8 the tilted mass's factor passes e^600 while
    # its Phi difference underflows: taken apart, it read 0 and Psi1 3 %
    # low (1.2392) at an err_estimate of 1e-14.  At c = 1 and c = 8.8e-10
    # a weight overflowed on its own and Psi1 was refused
    payoff, params = _TILTED_DIGITAL
    p = 1.2
    q = p / (p - 1.0)
    cs = [8.8e-10, 1.0, 1e8]
    got, err = psi_mod._psi_side(payoff, params, LossSpec(POWER, p), cs, 1)
    assert np.isfinite(got).all() and np.isfinite(err).all()
    assert got[0] <= got[1] <= got[2]
    n = 1_000_000
    w = sample(wiener_law(params), n, seed=11)
    h = evaluate(payoff, terminal_price(params, 1, w[:, 0]),
                 terminal_price(params, 2, w[:, 1]))
    cons = derive_constants(params, payoff.strike)
    ln_z = -cons.a1 * w[:, 0] - cons.a2 * w[:, 1] - cons.b_cap * cons.T
    with np.errstate(divide="ignore"):
        ln_hp = p * np.log(h)
    # c = 8.8e-10 is a rare event that no path of the sample reaches
    for c, v, e in zip(cs[1:], got[1:], err[1:]):
        term = np.exp(np.minimum(ln_hp, q * (math.log(c) + ln_z))) / p
        mean, se = term.mean(), term.std(ddof=1) / math.sqrt(n)
        assert abs(v - mean) <= 4.0 * se + e, (c, v, mean, se)


def test_power_sign_guards_raise_named_conditions():
    p2 = LossSpec(POWER, 2.0)
    # quanto domestic: row-boundary slope needs A2/(p-1) + sigma2 > 0
    qd = desk_params(rho=0.9)
    with pytest.raises(AssumptionViolatedError, match="sigma2"):
        psi_power(Payoff(QUANTO_DOMESTIC, 100.0), qd, c=1.0, p=2.0)
    # outperformance: both density exponents must be positive
    outp = desk_params(rho=0.6)
    with pytest.raises(AssumptionViolatedError, match="A2"):
        psi_power(Payoff(OUTPERFORMANCE, 100.0), outp, c=1.0, p=2.0)
    # quanto foreign: the (U, Z) change of variables must be nonsingular
    qf = desk_params(rho=0.0, sigma=(0.2, 0.2), alpha=(0.0, 0.04), r=0.02)
    with pytest.raises(AssumptionViolatedError, match="singular"):
        psi_power(Payoff(QUANTO_FOREIGN, 9500.0), qf, c=1.0, p=2.0)
    # spread: success rows need A1 > 0
    sp = desk_params(alpha=(-0.04, 0.05))
    with pytest.raises(AssumptionViolatedError, match="A1"):
        psi_power(Payoff(SPREAD, 5.0), sp, c=1.0, p=2.0)
    del p2


def test_degenerate_measure_makes_psi_a_step():
    # alpha = r 1: Z~ = 1, so A_c is everything for c <= 1 and empty beyond
    params = desk_params(alpha=(0.02, 0.02), r=0.02)
    payoff = Payoff(DIGITAL, 10.0)
    full = psi_linear(payoff, params, c=0.5)
    assert full.psi1 == pytest.approx(psi_linear(payoff, params, c=0.0).psi1)
    assert full.psi1 > 1.0  # comfortably in play at the desk params
    empty = psi_linear(payoff, params, c=1.0 + 1e-12)
    assert empty.psi1 == 0.0 and empty.psi2 == 0.0


def test_psi_mc_contracts():
    params = desk_params()
    # (n, seed) obey McConfig's rules: a listed violation, not numpy's raw
    # ValueError or TypeError, and no sample for a seed of True; an n above
    # the 1e8 cap is rejected before its draws are allocated
    for n, seed in ((100, 1), (20_000, -1), (20_000.5, 1), (20_000, 1.5),
                    (20_000, True), (10 ** 8 + 1, 1)):
        with pytest.raises(ValidationError):
            psi_mc(Payoff(DIGITAL, 10.0), params, LossSpec(LINEAR), 1.0,
                   n=n, seed=seed)
    zero = Payoff(CUSTOM, custom_eval=lambda s1, s2: np.zeros_like(s1))
    pair = psi_mc(zero, params, LossSpec(POWER, 2.0), 1.0, n=10_000, seed=1)
    assert pair.psi1 == 0.0 and pair.psi2 == 0.0
    assert pair.method == "monte-carlo"
    with pytest.raises(UnsupportedClosedFormError):
        psi_linear(zero, params, c=0.0)


def test_c_validation():
    params = desk_params()
    with pytest.raises(ValidationError):
        psi_linear(Payoff(DIGITAL, 10.0), params, c=-1.0)
    with pytest.raises(ValidationError):
        psi_power(Payoff(DIGITAL, 10.0), params, c=math.nan, p=2.0)
    with pytest.raises(ValidationError):
        LossSpec(POWER, 1.0)  # p must exceed 1
    with pytest.raises(ValidationError):
        LossSpec("cubic")


def test_psi_power_rejects_non_finite_p():
    params = desk_params()
    for p in (math.inf, math.nan):
        with pytest.raises(ValidationError):
            psi_power(Payoff(DIGITAL, 10.0), params, c=1.0, p=p)
