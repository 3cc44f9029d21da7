"""Acceptance suite: eight oracle- and property-based criteria at desk scale.

Each criterion is one test named test_criterion_<n>_<name>, so a verbose
run emits exactly one pass/fail line per criterion; every test also prints
an `ACCEPTANCE <n>: PASS` summary line with its measured detail.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from conftest import DESK_PAYOFFS, desk_params
from oracles import brute_force_np, discretize, uniqueness_check
from shortfall_hedge.errors import AssumptionViolatedError
from shortfall_hedge.gaussian import sample
from shortfall_hedge.market import (UNDER_P, UNDER_PTILDE, derive_constants,
                                    radon_nikodym, terminal_price, wiener_law)
from shortfall_hedge.mc import McConfig, estimate, verify_risk
from shortfall_hedge.payoffs import (DIGITAL, OUTPERFORMANCE, Payoff, QUANTO_DOMESTIC,
                                     SPREAD, evaluate)
from shortfall_hedge.psi import (LINEAR, LossSpec, POWER, psi_linear, psi_mc,
                                 psi_power)
from shortfall_hedge.solver import phi1, phi2, price

RHOS = (-0.5, 0.0, 0.6)
LIN = LossSpec(LINEAR)
POWERS = (1.5, 2.0, 3.0)


def _report(n: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {n}: {detail}"


def _claim_in_p_coords(payoff, params):
    def h(w1, w2):
        s1 = terminal_price(params, 1, w1, UNDER_P)
        s2 = terminal_price(params, 2, w2, UNDER_P)
        return np.asarray(evaluate(payoff, s1, s2), dtype=float)
    return h


def _power_c_grid(payoff, params, p, n=120_000, seed=314):
    """c-values spanning the success-region transition: quantiles of
    H^{p-1}/Z~ on {H > 0}, where A_c = {c Z~ <= H^{p-1}} switches."""
    cons = derive_constants(params, payoff.strike)
    w = sample(wiener_law(params), n, seed)
    h = _claim_in_p_coords(payoff, params)(w[:, 0], w[:, 1])
    z = radon_nikodym(cons, w[:, 0], w[:, 1])
    ratio = h[h > 0] ** (p - 1.0) / z[h > 0]
    return np.quantile(ratio, [0.1, 0.3, 0.5, 0.7, 0.9])


def _linear_c_grid(params):
    """c-values bracketing the median of Z~^{-1} = exp(Y + BT)."""
    cons = derive_constants(params, 1.0)
    a1, a2, rho, t = cons.a1, cons.a2, params.rho, params.T
    sd_y = math.sqrt(t * (a1 * a1 + 2.0 * rho * a1 * a2 + a2 * a2))
    ks = (-1.5, -0.75, 0.0, 0.75, 1.5)
    return [math.exp(cons.b_cap * t + k * max(sd_y, 0.05)) for k in ks]


def test_criterion_1_pricing_oracle():
    t0 = time.monotonic()
    worst = 0.0
    seed = 1000
    for rho in RHOS:
        params = desk_params(rho=rho)
        disc = math.exp(-params.r * params.T)
        for payoff in DESK_PAYOFFS:
            seed += 1
            h = _claim_in_p_coords(payoff, params)
            mean, se = estimate(lambda w1, w2: disc * h(w1, w2), params,
                                McConfig(1_000_000, seed=seed), UNDER_PTILDE)
            gap = abs(price(payoff, params) - mean) / (3.0 * se)
            worst = max(worst, gap)
    elapsed = time.monotonic() - t0
    _report(1, worst <= 1.0 and elapsed < 60.0,
            f"worst |price-MC| = {worst:.2f} of 3 SE over 15 cases, "
            f"{elapsed:.1f}s")


def test_criterion_2_quadrature_mc_agreement():
    params = desk_params(rho=-0.5)
    worst = 0.0
    checked = 0
    seed = 2000
    for payoff in DESK_PAYOFFS:
        for loss in (LIN,) + tuple(LossSpec(POWER, p) for p in POWERS):
            if loss.kind == LINEAR:
                grid = _linear_c_grid(params)
            else:
                grid = _power_c_grid(payoff, params, loss.p)
            for c in grid:
                seed += 1
                quad = psi_linear(payoff, params, c=c) if loss.kind == LINEAR \
                    else psi_power(payoff, params, c=c, p=loss.p)
                mc = psi_mc(payoff, params, loss, c, n=1_000_000, seed=seed)
                tol = 3.0 * mc.err_estimate + 1e-9
                worst = max(worst,
                            abs(quad.psi1 - mc.psi1) / tol,
                            abs(quad.psi2 - mc.psi2) / tol)
                checked += 1
    # violated sign assumption must surface as the structured error
    with pytest.raises(AssumptionViolatedError) as exc:
        psi_power(Payoff(OUTPERFORMANCE, 100.0), desk_params(rho=0.6),
                  c=1.0, p=2.0)
    named = "A1 > 0 and A2 > 0" in str(exc.value)
    _report(2, worst <= 1.0 and named,
            f"worst gap = {worst:.2f} of 3 SE over {checked} psi pairs; "
            f"violated-sign case raises named condition: {named}")


def test_criterion_3_monotonicity_and_continuity():
    params = desk_params(rho=-0.5)
    bad = []
    rng = np.random.default_rng(7)
    for payoff in DESK_PAYOFFS:
        lin_grid = np.exp(np.linspace(math.log(_linear_c_grid(params)[0] / 8.0),
                                      math.log(_linear_c_grid(params)[-1] * 8.0),
                                      50))
        lin = [psi_linear(payoff, params, c=float(c)) for c in lin_grid]
        for a, b in zip(lin, lin[1:]):
            tol = a.err_estimate + b.err_estimate + 1e-12
            if b.psi1 > a.psi1 + tol or b.psi2 > a.psi2 + tol:
                bad.append(f"{payoff.kind} linear not monotone")
        qs = _power_c_grid(payoff, params, 2.0)
        pw_grid = np.exp(np.linspace(math.log(qs[0] / 8.0),
                                     math.log(qs[-1] * 8.0), 50))
        pw = [psi_power(payoff, params, c=float(c), p=2.0) for c in pw_grid]
        for a, b in zip(pw, pw[1:]):
            tol = a.err_estimate + b.err_estimate + 1e-12
            if b.psi1 < a.psi1 - tol or b.psi2 > a.psi2 + tol:
                bad.append(f"{payoff.kind} power not monotone")
        # left continuity: the delta-gap must shrink when delta halves
        for grid, evalf in ((lin_grid, lambda c: psi_linear(payoff, params, c=c)),
                            (pw_grid, lambda c: psi_power(payoff, params, c=c, p=2.0))):
            scale = max(evalf(float(grid[0])).psi1,
                        evalf(float(grid[0])).psi2, 1.0)
            for c in rng.choice(grid[5:-5], size=10, replace=False):
                c = float(c)
                base = evalf(c)
                gap = []
                for delta in (1e-4 * c, 5e-5 * c):
                    left = evalf(c - delta)
                    gap.append(abs(left.psi1 - base.psi1)
                               + abs(left.psi2 - base.psi2))
                if gap[1] > 0.6 * gap[0] + 1e-10 * scale:
                    bad.append(f"{payoff.kind} continuity at c={c:.3g}: "
                               f"{gap[0]:.2e} -> {gap[1]:.2e}")
    _report(3, not bad, f"{len(bad)} violations" + (f"; first: {bad[0]}" if bad else
                                                    " on 10 x 50-point grids"))


def test_criterion_4_theorem_round_trip():
    params = desk_params(rho=-0.5)
    cases = (Payoff(DIGITAL, 10.0), Payoff(SPREAD, 5.0),
             Payoff(QUANTO_DOMESTIC, 100.0))
    # strict-monotonicity reports exist for the kinds with a known
    # direction vector; Spread legitimately reports "not established"
    assert uniqueness_check(cases[0], params).psi1_strictly_monotone
    assert uniqueness_check(cases[2], params).psi1_strictly_monotone
    worst = 0.0
    for payoff in cases:
        p_h = price(payoff, params)
        for loss in (LIN, LossSpec(POWER, 2.0)):
            for frac in np.linspace(0.04, 0.96, 20):
                x = float(frac) * p_h
                risk, _ = phi1(payoff, params, loss, x)
                back, _ = phi2(payoff, params, loss, risk)
                worst = max(worst, abs(back - x) / (1e-4 * p_h))
    _report(4, worst <= 1.0,
            f"worst |phi2(phi1(x)) - x| = {worst:.2g} of 1e-4 p(H) "
            "over 3 payoffs x 2 losses x 20 capitals")


def test_criterion_5_edge_identities():
    params = desk_params(rho=-0.5)
    bad = []
    for payoff in DESK_PAYOFFS:
        p_h = price(payoff, params)
        if phi1(payoff, params, LIN, p_h) != (0.0, 0.0):
            bad.append(f"{payoff.kind}: phi1(p(H)) != 0")
        cost, c = phi2(payoff, params, LIN, 0.0)
        if abs(cost - p_h) > 1e-9 * p_h or c != 0.0:
            bad.append(f"{payoff.kind}: phi2(0) != p(H)")
        risk0, c0 = phi1(payoff, params, LIN, 0.0)
        full = psi_linear(payoff, params, c=0.0)
        tol = 1e-9 * max(1.0, full.psi1) + 4.0 * full.err_estimate
        if abs(risk0 - full.psi1) > tol or c0 != math.inf:
            bad.append(f"{payoff.kind}: phi1(0) != E[H]")
        if psi_power(payoff, params, c=0.0, p=2.0).psi1 != 0.0:
            bad.append(f"{payoff.kind}: power psi1(0) != 0")
    _report(5, not bad, "; ".join(bad) if bad else
            "all four identities hold for all five payoffs")


def test_criterion_6_neyman_pearson_brute_force():
    params = desk_params(rho=-0.5)
    payoff = Payoff(DIGITAL, 10.0)
    p_h = price(payoff, params)
    e_h = psi_linear(payoff, params, c=0.0).psi1
    grid = discretize(payoff, params, n_side=40)
    worst = 0.0
    for frac in (0.25, 0.5, 0.75):
        x = frac * p_h
        risk, _ = phi1(payoff, params, LIN, x)
        engine_mass = (e_h - risk) / e_h
        greedy_mass, _ = brute_force_np(grid, budget=x / p_h)
        worst = max(worst, abs(greedy_mass - engine_mass) / (0.02 * engine_mass))
    _report(6, worst <= 1.0,
            f"worst greedy-vs-engine success-mass gap = {worst:.2f} "
            "of 2% rel on a 40x40 grid")


def test_criterion_7_strategy_verification():
    params = desk_params(rho=-0.5)
    mc = McConfig(200_000, seed=7000)
    bad = []
    for payoff in DESK_PAYOFFS:
        x = 0.5 * price(payoff, params)
        for loss in (LIN, LossSpec(POWER, 2.0)):
            rep = verify_risk(payoff, params, loss, x, mc)
            if not rep.ok:
                bad.append(f"{payoff.kind}/{loss.kind}: risk_ok={rep.risk_ok} "
                           f"cost_ok={rep.cost_ok}")
    _report(7, not bad, "; ".join(bad) if bad else
            "engine risk and budget confirmed by simulation, 10 configs")


def test_criterion_8_girsanov_pathwise_identities():
    params = desk_params(rho=-0.5)
    cons = derive_constants(params, 10.0)
    w = sample(wiener_law(params), 100_000, seed=8000)
    th = np.array(cons.theta) * params.T
    wt1, wt2 = w[:, 0] + th[0], w[:, 1] + th[1]
    bad = []
    # density written in either measure's coordinates is the same variable
    z_p = radon_nikodym(cons, w[:, 0], w[:, 1], UNDER_P)
    z_pt = radon_nikodym(cons, wt1, wt2, UNDER_PTILDE)
    if np.max(np.abs(z_p / z_pt - 1.0)) > 1e-12:
        bad.append("density coordinate forms disagree")
    # terminal prices agree pathwise across the drift change
    for asset in (1, 2):
        s_p = terminal_price(params, asset, w[:, asset - 1], UNDER_P)
        s_pt = terminal_price(params, asset, (wt1, wt2)[asset - 1], UNDER_PTILDE)
        if np.max(np.abs(s_p / s_pt - 1.0)) > 1e-12:
            bad.append(f"asset {asset} price forms disagree")
    # success-set indicators: raw density inequality vs log-threshold form,
    # skipping paths within 1e-12 of the boundary
    for c in (0.7, 1.3):
        lhs = 1.0 / z_p
        margin = np.abs(np.log(lhs) - math.log(c))
        keep = margin > 1e-12
        raw = lhs[keep] >= c
        y = cons.a1 * w[keep, 0] + cons.a2 * w[keep, 1]
        threshold = y >= math.log(c) - cons.b_cap * params.T
        if not np.array_equal(raw, threshold):
            bad.append(f"indicator sets differ at c={c}")
    # power-loss region: (c Z~)^kappa <= H iff kappa ln(c Z~) <= ln H
    payoff = Payoff(SPREAD, 5.0)
    h = _claim_in_p_coords(payoff, params)(w[:, 0], w[:, 1])
    kappa = 1.0
    cz = 1.3 * radon_nikodym(derive_constants(params, 5.0), w[:, 0], w[:, 1])
    pos = h > 0
    with np.errstate(divide="ignore"):
        margin = np.abs(kappa * np.log(cz[pos]) - np.log(h[pos]))
    keep = margin > 1e-12
    direct = (cz[pos] ** kappa <= h[pos])[keep]
    logform = (kappa * np.log(cz[pos]) <= np.log(h[pos]))[keep]
    if not np.array_equal(direct, logform):
        bad.append("power region forms disagree")
    _report(8, not bad, "; ".join(bad) if bad else
            "all pathwise identities hold to 1e-12 on 1e5 paths")
