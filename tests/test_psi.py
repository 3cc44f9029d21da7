"""Closed-form Psi pairs: oracles, structural identities, guard rails."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from conftest import DESK_PAYOFFS, desk_params
from shortfall_hedge.errors import (AssumptionViolatedError,
                                    UnsupportedClosedFormError,
                                    ValidationError)
from shortfall_hedge.gaussian import sample
from shortfall_hedge.market import (UNDER_P, UNDER_PTILDE, derive_constants,
                                    radon_nikodym, terminal_price, wiener_law)
from shortfall_hedge.payoffs import (CUSTOM, DIGITAL, OUTPERFORMANCE, Payoff,
                                     QUANTO_DOMESTIC, QUANTO_FOREIGN, SPREAD,
                                     evaluate)
import shortfall_hedge.psi as psi_mod
from shortfall_hedge.psi import (LINEAR, LossSpec, POWER, psi_linear, psi_mc,
                                 psi_power)


def _mc_expectations(payoff, params, n=200_000, seed=42):
    """(E[H], E~[H]) with standard errors, by direct simulation."""
    out = []
    for under in (UNDER_P, UNDER_PTILDE):
        # each measure's own Wiener coordinates are centred: N(0, QT)
        w = sample(wiener_law(params, under), n, seed)
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

    def log_ratio(x, y):
        # kappa ln(c Z~) - ln H, negative exactly on the success set
        s1 = terminal_price(params, 1, x)
        s2 = terminal_price(params, 2, y)
        h = s1 - s2 - payoff.strike
        if h <= 0:
            return math.inf
        lncz = math.log(c) - cons.a1 * x - cons.a2 * y - cons.b_cap * t
        return kappa * lncz - math.log(h)

    ctx = psi_mod._make_ctx(payoff, params, psi_mod.TRUNC_SD)
    rng = np.random.default_rng(12)
    for y in rng.normal(scale=math.sqrt(t), size=12):
        # the row at W2 = y splits at x* into shortfall [d(y), x*) and
        # success [x*, inf)
        x_star, d_y = (float(v[0]) for v in psi_mod._spread_xstar(
            ctx, math.log(c), p, np.array([float(y)]), False))
        # the payoff root: S1(d_y) - S2(y) - K = 0
        assert terminal_price(params, 1, d_y) - terminal_price(
            params, 2, y) - payoff.strike == pytest.approx(0.0, abs=1e-6)
        if math.isfinite(x_star):
            eps = 1e-6 * max(1.0, abs(x_star))
            assert log_ratio(x_star + eps, y) < 0.0
            if x_star - eps > d_y:
                assert log_ratio(x_star - eps, y) > 0.0


def test_spread_power_inner_chunks_keep_the_bits(monkeypatch):
    # the inner shortfall integral runs in row chunks; one chunk of all
    # rows must give the same bits
    params = desk_params()
    payoff = Payoff(SPREAD, 5.0)
    chunked = [psi_power(payoff, params, c=c) for c in (0.5, 25.0)]
    monkeypatch.setattr(psi_mod, "_INNER_CHUNK_POINTS", 10 ** 9)
    whole = [psi_power(payoff, params, c=c) for c in (0.5, 25.0)]
    assert chunked == whole


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
    with pytest.raises(ValidationError):
        psi_mc(Payoff(DIGITAL, 10.0), params, LossSpec(LINEAR), 1.0,
               n=100, seed=1)
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
