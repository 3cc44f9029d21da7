"""Market model constants, density identities, terminal prices."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import desk_params
from shortfall_hedge.errors import InvalidCorrelationError, ValidationError
from shortfall_hedge.gaussian import sample
from shortfall_hedge.market import (MarketParams, UNDER_P, UNDER_PTILDE,
                                    derive_constants, radon_nikodym,
                                    terminal_price, wiener_law)


def test_theta_and_density_exponents_by_hand():
    params = desk_params(rho=-0.5)
    cons = derive_constants(params, 10.0)
    # theta_i = (alpha_i - r) / sigma_i = (0.3, 0.1)
    assert cons.theta == pytest.approx((0.3, 0.1), abs=1e-15)
    # A1 = (th1 - rho th2)/(1-rho^2) = 0.35/0.75, A2 = 0.25/0.75
    assert cons.a1 == pytest.approx(0.35 / 0.75, rel=1e-14)
    assert cons.a2 == pytest.approx(0.25 / 0.75, rel=1e-14)
    # B = (th1^2 - 2 rho th1 th2 + th2^2) / (2 (1-rho^2)) = 0.13/1.5
    assert cons.b_cap == pytest.approx(0.13 / 1.5, rel=1e-14)


def test_b_tilde_is_minus_b():
    # B~ = B - A.theta collapses to -B for every admissible market
    for rho in (-0.9, -0.5, 0.0, 0.3, 0.6, 0.95):
        cons = derive_constants(desk_params(rho=rho), 7.0)
        assert cons.b_cap_tilde == pytest.approx(-cons.b_cap, abs=1e-14)


def test_thresholds_invert_terminal_prices():
    params = desk_params(rho=0.3)
    k = 104.0
    th = derive_constants(params, k).thresholds
    assert set(th) == {"a1", "a1_tilde", "a2", "a2_tilde", "b", "b_tilde",
                       "d", "d_tilde"}
    # S^1_T hits K exactly at w1 = a1 (P drift) and a1_tilde (P~ drift)
    assert terminal_price(params, 1, th["a1"], UNDER_P) == pytest.approx(k, rel=1e-12)
    assert terminal_price(params, 1, th["a1_tilde"], UNDER_PTILDE) == pytest.approx(k, rel=1e-12)
    assert terminal_price(params, 2, th["a2"], UNDER_P) == pytest.approx(k, rel=1e-12)
    # on sigma1 w1 - sigma2 w2 = b the two prices cross
    w2 = 0.37
    w1 = (th["b"] + params.sigma[1] * w2) / params.sigma[0]
    assert terminal_price(params, 1, w1, UNDER_P) == pytest.approx(
        terminal_price(params, 2, w2, UNDER_P), rel=1e-12)
    # on sigma1 w1 + sigma2 w2 = d the price product hits K
    w1 = (th["d"] - params.sigma[1] * w2) / params.sigma[0]
    assert terminal_price(params, 1, w1, UNDER_P) * terminal_price(
        params, 2, w2, UNDER_P) == pytest.approx(k, rel=1e-12)


def test_zero_strike_thresholds_use_log_zero_convention():
    th = derive_constants(desk_params(), 0.0).thresholds
    assert th["a1"] == -math.inf and th["a2_tilde"] == -math.inf
    assert th["d"] == -math.inf
    assert math.isfinite(th["b"])  # b does not involve the strike


def test_density_normalizes_under_p():
    # E[Z~_T] = 1: 1e6 antithetic-free MC samples within 3 SE
    params = desk_params(rho=0.3)
    cons = derive_constants(params, 1.0)
    w = sample(wiener_law(params), 1_000_000, seed=20240801)
    z = radon_nikodym(cons, w[:, 0], w[:, 1])
    se = z.std(ddof=1) / math.sqrt(z.size)
    assert abs(z.mean() - 1.0) <= 3.0 * se


def test_radon_nikodym_measure_coordinates_agree():
    # the two coordinate forms describe the same random variable: the P~
    # coordinates of a path shift by +theta T, and B~ = B - A.theta
    params = desk_params(rho=-0.5)
    cons = derive_constants(params, 1.0)
    rng = np.random.default_rng(5)
    w = rng.normal(size=(1000, 2))
    th = np.array(cons.theta) * params.T
    z_p = radon_nikodym(cons, w[:, 0], w[:, 1], UNDER_P)
    z_pt = radon_nikodym(cons, w[:, 0] + th[0], w[:, 1] + th[1], UNDER_PTILDE)
    assert np.all(np.abs(z_p / z_pt - 1.0) <= 1e-12)


def test_martingale_pricing_of_asset_one():
    # E~[e^{-rT} S^1_T] = S^1_0 within 3 SE
    params = desk_params(rho=0.6)
    w = sample(wiener_law(params), 400_000, seed=11)
    s1 = terminal_price(params, 1, w[:, 0], UNDER_PTILDE)
    disc = math.exp(-params.r * params.T) * s1
    se = disc.std(ddof=1) / math.sqrt(disc.size)
    assert abs(disc.mean() - params.s0[0]) <= 3.0 * se


def test_wiener_law_covariance():
    params = desk_params(rho=0.25)
    law = wiener_law(params)
    assert law.mean == pytest.approx([0.0, 0.0])
    assert law.cov[0, 0] == pytest.approx(params.T)
    assert law.cov[0, 1] == pytest.approx(0.25 * params.T)


def test_invalid_inputs_rejected():
    with pytest.raises(InvalidCorrelationError):
        derive_constants(desk_params(rho=0.99999), 1.0)
    with pytest.raises(ValidationError) as exc:
        MarketParams(s0=(0.0, 95.0), alpha=(0.08, 0.05), sigma=(0.2, -0.3),
                     rho=0.0, r=0.02, T=1.0)
    # every violated field is reported, not just the first
    msg = str(exc.value)
    assert "s0[0]" in msg and "sigma[1]" in msg
    with pytest.raises(ValidationError):
        derive_constants(desk_params(), -2.0)
    with pytest.raises(ValidationError):
        terminal_price(desk_params(), 3, 0.0)


def test_pair_fields_must_be_pairs():
    # a scalar escaped as a raw TypeError, and a third entry was dropped
    for bad in (dict(s0=100.0), dict(s0=(1.0, 2.0, 3.0)), dict(alpha=(0.08,)),
                dict(sigma=None)):
        with pytest.raises(ValidationError) as exc:
            desk_params(**bad)
        assert f"{next(iter(bad))}: must be a pair" in str(exc.value)
    assert desk_params(s0=[100.0, 95.0]).s0 == (100.0, 95.0)


def test_constants_cached_and_immutable():
    params = desk_params()
    cons = derive_constants(params, 10.0)
    assert derive_constants(params, 10.0) is cons
    with pytest.raises(TypeError):
        cons.thresholds["a1"] = 0.0
