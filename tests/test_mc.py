"""Monte Carlo engine, state discretization, brute-force testing problem."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import ndtr

from conftest import desk_params
from oracles import DiscreteState, brute_force_np, discretize
from shortfall_hedge.errors import NanGuardError, ValidationError
from shortfall_hedge.market import (UNDER_P, UNDER_PTILDE, derive_constants,
                                    radon_nikodym, terminal_price)
from shortfall_hedge.mc import McConfig, estimate, verify_risk
from shortfall_hedge.payoffs import (CUSTOM, DIGITAL, OUTPERFORMANCE, Payoff,
                                     QUANTO_DOMESTIC, SPREAD)
from shortfall_hedge.psi import LINEAR, LossSpec, POWER
from shortfall_hedge.solver import phi1, price


def test_estimate_constant_is_exact():
    mean, se = estimate(lambda w1, w2: np.ones_like(w1), desk_params(),
                        McConfig(10_000, seed=0))
    assert mean == 1.0 and se == 0.0


def test_estimate_density_normalizes():
    params = desk_params(rho=0.3)
    cons = derive_constants(params, 1.0)
    mean, se = estimate(lambda w1, w2: radon_nikodym(cons, w1, w2, UNDER_P),
                        params, McConfig(400_000, seed=2))
    assert abs(mean - 1.0) <= 3.0 * se


def test_estimate_martingale_pricing_under_ptilde():
    # E~[e^{-rT} S^1_T] = S^1_0; the integrand stays in P coordinates, so
    # the P~ expectation uses the alpha-drift price at the shifted law
    params = desk_params(rho=0.6)
    disc = math.exp(-params.r * params.T)

    def discounted_s1(w1, w2):
        return disc * terminal_price(params, 1, w1, UNDER_P)

    mean, se = estimate(discounted_s1, params, McConfig(400_000, seed=3),
                        under=UNDER_PTILDE)
    assert abs(mean - params.s0[0]) <= 3.0 * se


def test_estimate_matches_black_scholes_call():
    # E_P[(S1_T - K)^+] in closed form: Black-Scholes with the drift alpha1
    params = desk_params()
    s0, k = params.s0[0], 100.0
    a, sig, t = params.alpha[0], params.sigma[0], params.T

    def f(w1, w2):
        return np.maximum(terminal_price(params, 1, w1) - k, 0.0)

    d1 = (math.log(s0 / k) + (a + 0.5 * sig ** 2) * t) / (sig * math.sqrt(t))
    d2 = d1 - sig * math.sqrt(t)
    exact = s0 * math.exp(a * t) * ndtr(d1) - k * ndtr(d2)
    mean, se = estimate(f, params, McConfig(200_000, seed=5))
    assert abs(mean - exact) <= 3.0 * se


def test_estimate_reproducible_and_guarded():
    params = desk_params()
    f = lambda w1, w2: w1 * w2
    a = estimate(f, params, McConfig(50_000, seed=11))
    b = estimate(f, params, McConfig(50_000, seed=11))
    assert a == b
    with pytest.raises(NanGuardError) as exc:
        estimate(lambda w1, w2: np.where(w1 > 0, np.nan, 1.0), params,
                 McConfig(10_000, seed=1))
    assert exc.value.index >= 0


def test_mc_config_validation():
    with pytest.raises(ValidationError):
        McConfig(1, seed=0)
    with pytest.raises(ValidationError):
        McConfig(1000, seed=1.5)
    # numpy takes no negative seed; integer fields hold integers
    # an unbounded path count would try to allocate its draws; only
    # rejected counts are built here
    for bad in (dict(seed=-1), dict(n_paths=20_000.0), dict(n_paths=True),
                dict(seed=True), dict(seed="1"), dict(n_paths=10 ** 8 + 1),
                dict(n_paths=10 ** 30), dict(n_paths=9_999)):
        with pytest.raises(ValidationError):
            McConfig(**dict(dict(n_paths=20_000, seed=1), **bad))
    with pytest.raises(ValidationError):
        verify_risk(Payoff(DIGITAL, 10.0), desk_params(), LossSpec(LINEAR),
                    1.0, McConfig(20_000, seed=-1))


def test_discretize_invariants():
    params = desk_params(rho=-0.5)
    d = discretize(Payoff(DIGITAL, 10.0), params, n_side=30)
    assert d.w1.shape == (900,)
    assert np.sum(d.prob_p) == pytest.approx(1.0, abs=1e-12)
    assert np.sum(d.prob_ptilde) == pytest.approx(1.0, abs=1e-12)
    assert np.all(d.z > 0)
    # z at the nodes is the exact density, so its P-mean is close to 1
    assert np.sum(d.z * d.prob_p) == pytest.approx(1.0, abs=5e-3)
    # the discrete mass ratio tracks z up to one global constant
    ratio = d.prob_ptilde / d.prob_p
    scale = ratio / d.z
    assert np.ptp(scale) <= 1e-9 * np.max(scale)
    with pytest.raises(ValidationError):
        discretize(Payoff(DIGITAL, 10.0), params, n_side=1)


def test_discrete_state_rejects_bad_masses():
    ones = np.ones(4)
    with pytest.raises(ValidationError):
        DiscreteState(w1=ones, w2=ones, prob_p=ones, prob_ptilde=ones / 4.0,
                      h=ones, z=ones)


def test_brute_force_edges_and_shape():
    params = desk_params()
    d = discretize(Payoff(SPREAD, 5.0), params, n_side=25)
    full, chosen = brute_force_np(d, 1.0)
    assert full == pytest.approx(1.0, abs=1e-12)
    assert chosen.size > 0
    none, empty = brute_force_np(d, 0.0)
    assert none == 0.0 and empty.size == 0
    with pytest.raises(ValidationError):
        brute_force_np(d, 1.2)


def test_brute_force_mass_monotone_concave_in_budget():
    params = desk_params()
    d = discretize(Payoff(QUANTO_DOMESTIC, 100.0), params, n_side=30)
    budgets = np.linspace(0.0, 1.0, 11)
    masses = np.array([brute_force_np(d, float(b))[0] for b in budgets])
    assert np.all(np.diff(masses) >= -1e-12)
    # greedy likelihood-ratio ordering makes the frontier concave
    assert np.all(np.diff(np.diff(masses)) <= 1e-9)


def test_brute_force_beats_any_other_cell_order():
    params = desk_params()
    d = discretize(Payoff(DIGITAL, 10.0), params, n_side=20)
    p1_tot = float(np.sum(d.h * d.prob_p))
    p2_tot = float(np.sum(d.h * d.prob_ptilde))
    p1 = d.h * d.prob_p / p1_tot
    p2 = d.h * d.prob_ptilde / p2_tot
    budget = 0.5
    best, _ = brute_force_np(d, budget)
    rng = np.random.default_rng(0)
    cells = np.flatnonzero(d.h > 0)
    for _ in range(20):
        perm = rng.permutation(cells)
        cum = np.cumsum(p2[perm])
        k = int(np.searchsorted(cum, budget, side="right"))
        mass = float(np.sum(p1[perm[:k]]))
        assert mass <= best + 1e-12


def test_verify_risk_accepts_engine_solution():
    params = desk_params()
    payoff = Payoff(SPREAD, 5.0)
    mc = McConfig(150_000, seed=13)
    x = 0.5 * price(payoff, params)
    rep = verify_risk(payoff, params, LossSpec(LINEAR), x, mc)
    assert rep.ok and rep.risk_ok and rep.cost_ok
    assert rep.engine_risk == pytest.approx(
        phi1(payoff, params, LossSpec(LINEAR), x)[0], rel=1e-12)
    rep2 = verify_risk(payoff, params, LossSpec(POWER, 2.0), x, mc)
    assert rep2.ok


def test_named_fallback_solves_on_the_engines_sample():
    # Outperformance/power at rho = 0.6 fails its sign condition and leaves
    # quadrature: phi1 solves on the engine's own sample whatever mc says,
    # the solve that verify_risk checks
    params = desk_params(rho=0.6)
    payoff = Payoff(OUTPERFORMANCE, 100.0)
    loss = LossSpec(POWER, 2.0)
    mc = McConfig(20_000, seed=1)
    x = 0.5 * price(payoff, params)
    got = phi1(payoff, params, loss, x, mc=mc)
    assert got == phi1(payoff, params, loss, x)
    rep = verify_risk(payoff, params, loss, x, mc)
    assert got == (rep.engine_risk, rep.c)


@pytest.mark.parametrize("h_fn, seed, u", [
    # simulated risk 4.0 of its own se from the engine's
    (lambda s1, s2: np.maximum(100.0 - np.minimum(s1, s2), 0.0),
     854478761, 0.4),
    # simulated cost 3.07 of its own se from x
    (lambda s1, s2: np.maximum(0.5 * (s1 + s2) - 95.0, 0.0), 354253419, 0.73),
])
def test_verify_risk_counts_the_engines_mc_error(h_fn, seed, u):
    # correct MC-route solutions that a test at 3 se of the simulation alone
    # rejects; the engine's own standard error takes them back in
    params = desk_params()
    payoff = Payoff(CUSTOM, custom_eval=h_fn)
    mc = McConfig(200_000, seed=seed)
    x = u * price(payoff, params, mc)
    rep = verify_risk(payoff, params, LossSpec(LINEAR), x, mc)
    assert rep.ok
    risk_z = abs(rep.mc_risk - rep.engine_risk) / rep.mc_risk_se
    cost_z = abs(rep.mc_cost - x) / rep.mc_cost_se
    assert max(risk_z, cost_z) > 3.0
