"""Monte Carlo estimates, and the check of a phi1 solution by simulation.

Everything here treats (w1, w2) as the terminal coordinates of the
P-Brownian pair: integrands are written once, in P coordinates, and the
`under` argument only switches the sampling law of those coordinates --
N(0, QT) under P versus N(-theta T, QT) under the martingale measure.
That way the same payoff / density functions serve both measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .gaussian import sample
from .market import (UNDER_P, UNDER_PTILDE, MarketParams, _check_measure,
                     radon_nikodym, terminal_price, wiener_law)
from .payoffs import Payoff, _called, evaluate, payoff_constants
from .psi import LINEAR, LossSpec, _drop_mc_table, _nan_guard

_MAX_PATHS = 10 ** 8


@dataclass(frozen=True)
class McConfig:
    """Path count and seed of a Monte Carlo sample, for estimate, psi_mc
    and the engine's Monte Carlo route: n_paths >= 1e4 (the oracle floor)
    and at most _MAX_PATHS (the draws alone take 32 bytes a path), seed >= 0
    (numpy seeds take no negative integer)."""

    n_paths: int
    seed: int

    def __post_init__(self):
        bad = []
        for name, least, most in (("n_paths", 10 ** 4, _MAX_PATHS),
                                  ("seed", 0, math.inf)):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                bad.append(f"{name}: must be an integer, got {v!r}")
            elif v < least:
                bad.append(f"{name}: must be >= {least}, got {v!r}")
            elif v > most:
                bad.append(f"{name}: must be <= {most}, got {v!r}")
        if bad:
            raise ValidationError(bad)


def _check_mc(mc, optional: bool = True):
    """ValidationError naming mc unless it is an McConfig or, where
    optional, None."""
    if not (isinstance(mc, McConfig) or (optional and mc is None)):
        also = " or None" if optional else ""
        raise ValidationError([f"mc: must be an McConfig{also}, got {mc!r}"])


def estimate(integrand, params: MarketParams, mc: McConfig,
             under: str = UNDER_P):
    """(mean, std_error) of E[integrand(w1, w2)] under the stated measure.

    integrand must be a pure vectorized function of the P-Brownian
    coordinates, one value per path; one that raises or returns anything
    else raises PayoffContractError.  The paths come in antithetic pairs
    (z, -z) about the measure's mean, ceil(n_paths / 2) of them, and the
    standard error is computed over pair means, which keeps it unbiased for
    the paired estimator.
    """
    _check_measure(under)
    return _paired(integrand, params, _draws(params, mc), under)


def _draws(params: MarketParams, mc: McConfig) -> np.ndarray:
    """The ceil(n_paths / 2) centred normals z of estimate's pairs."""
    _drop_mc_table()  # one sample's arrays alive at a time
    return sample(wiener_law(params), (mc.n_paths + 1) // 2, mc.seed)


def _paired(integrand, params: MarketParams, z: np.ndarray, under: str):
    """estimate's (mean, std_error) on the pairs (mean + z, mean - z)."""
    mean = (np.zeros(2) if under == UNDER_P
            else -params.T * np.array(params.theta))
    vals = 0.0
    for w in (mean + z, mean - z):
        vals = vals + _nan_guard(_called(integrand, "integrand",
                                         (w.shape[0],), w[:, 0], w[:, 1]), w)
    vals = 0.5 * vals  # pair means
    return (float(np.mean(vals)),
            float(np.std(vals, ddof=1) / math.sqrt(z.shape[0])))


def _modified_claim(payoff: Payoff, params: MarketParams, loss: LossSpec,
                    c: float, w1, w2):
    """Value of the optimally modified claim at the given P-coordinates.

    Linear loss keeps H on the success set A_c and drops it outside;
    power loss pays (H - (c Z~)^{1/(p-1)})^+, which is H on A_c's interior
    and 0 off it.
    """
    cons = payoff_constants(payoff, params)
    s1 = terminal_price(params, 1, w1, UNDER_P)
    s2 = terminal_price(params, 2, w2, UNDER_P)
    h = np.asarray(evaluate(payoff, s1, s2), dtype=float)
    if c == 0.0:
        return h, h
    if math.isinf(c):
        return np.zeros_like(h), h
    with np.errstate(over="ignore"):  # where c Z~ is inf the claim pays 0
        z = radon_nikodym(cons, w1, w2, UNDER_P)
        if loss.kind == LINEAR:
            return h * (c * z <= 1.0), h
        return np.maximum(h - (c * z) ** (1.0 / (loss.p - 1.0)), 0.0), h


@dataclass(frozen=True)
class VerifyReport:
    """Three-way consistency check of one phi1 solution."""

    x: float
    price: float
    c: float
    engine_risk: float
    mc_risk: float
    mc_risk_se: float
    mc_cost: float
    mc_cost_se: float
    risk_ok: bool
    cost_ok: bool

    @property
    def ok(self) -> bool:
        return self.risk_ok and self.cost_ok


def verify_risk(payoff: Payoff, params: MarketParams, loss: LossSpec,
                x: float, mc: McConfig) -> VerifyReport:
    """Check the engine's phi1(x) against direct simulation.

    Compares (i) the engine risk, (ii) the Monte Carlo expected loss of
    the shortfall H minus the modified claim under P, and (iii) the Monte
    Carlo cost of the modified claim under the martingale measure, which
    must not exceed x and must bind when x < p(H).  Each comparison allows
    3 combined standard errors: the simulation's and, on the engine's
    Monte Carlo route, the engine's own (of the risk, and of the capital
    it spends at c).  The engine solves as phi1(..., mc=mc) does.  Both
    simulations run on one draw of estimate's normals, each about its own
    measure's mean.
    """
    from .solver import _one, _phi1_impl, price

    _check_mc(mc, optional=False)
    engine_risk, c, risk_err, _method, cost_err = _one(_phi1_impl(
        payoff, params, loss, [x], mc))
    x = float(x)  # a real, or _phi1_impl has raised
    p_h = price(payoff, params, mc)

    def shortfall_loss(w1, w2):
        mod, h = _modified_claim(payoff, params, loss, c, w1, w2)
        return loss.loss(np.maximum(h - mod, 0.0))

    def discounted_mod(w1, w2):
        mod, _h = _modified_claim(payoff, params, loss, c, w1, w2)
        return math.exp(-params.r * params.T) * mod

    # both measures pair the same normals; only their mean differs
    z = _draws(params, mc)
    mc_risk, risk_se = _paired(shortfall_loss, params, z, UNDER_P)
    mc_cost, cost_se = _paired(discounted_mod, params, z, UNDER_PTILDE)
    slack = 1e-9 * max(1.0, abs(engine_risk), x)
    risk_tol = 3.0 * math.hypot(risk_se, risk_err) + slack
    cost_tol = 3.0 * math.hypot(cost_se, cost_err) + slack
    risk_ok = abs(engine_risk - mc_risk) <= risk_tol
    cost_ok = mc_cost <= x + cost_tol
    if x < p_h:
        cost_ok = cost_ok and abs(mc_cost - x) <= cost_tol
    return VerifyReport(x=x, price=p_h, c=c, engine_risk=engine_risk,
                        mc_risk=mc_risk, mc_risk_se=risk_se, mc_cost=mc_cost,
                        mc_cost_se=cost_se, risk_ok=risk_ok, cost_ok=cost_ok)
