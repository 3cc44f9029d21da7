"""Monte Carlo oracles and a brute-force Neyman-Pearson check.

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
from numpy.polynomial.hermite_e import hermegauss

from .errors import ValidationError
from .gaussian import sample
from .market import (UNDER_P, UNDER_PTILDE, MarketParams, _check_measure,
                     radon_nikodym, terminal_price, wiener_law)
from .payoffs import CUSTOM, Payoff, evaluate, payoff_constants
from .psi import LINEAR, LossSpec, _nan_guard

_MAX_PATHS = 10 ** 8


@dataclass(frozen=True)
class McConfig:
    """Path count, seed, and antithetic switch; n_paths >= 1e4 (the oracle
    floor of psi._McTable) and at most _MAX_PATHS (the draws alone take 32
    bytes a path), seed >= 0 (numpy seeds take no negative integer)."""

    n_paths: int
    seed: int
    antithetic: bool = True

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


def estimate(integrand, params: MarketParams, mc: McConfig,
             under: str = UNDER_P):
    """(mean, std_error) of E[integrand(w1, w2)] under the stated measure.

    integrand must be a pure vectorized function of the P-Brownian
    coordinates.  With antithetic pairing the standard error is computed
    over pair means, which keeps it unbiased for the paired estimator.
    """
    _check_measure(under)
    m = (mc.n_paths + 1) // 2 if mc.antithetic else mc.n_paths
    z = sample(wiener_law(params), m, mc.seed)
    mean = (np.zeros(2) if under == UNDER_P
            else -params.T * np.array(params.theta))
    vals = 0.0
    for w in (mean + z, mean - z) if mc.antithetic else (mean + z,):
        vals = vals + _nan_guard(np.asarray(integrand(w[:, 0], w[:, 1]),
                                            dtype=float), w)
    if mc.antithetic:
        vals = 0.5 * vals  # pair means
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(m))


@dataclass(frozen=True)
class DiscreteState:
    """Probability-weighted state grid for the brute-force test problem.

    Parallel arrays over cells: coordinates, cell mass under each measure
    (each summing to 1), payoff value, and the exact density Z~ at the
    node.  The discrete prob_ptilde/prob_p ratio approximates z up to the
    two renormalization constants.
    """

    w1: np.ndarray
    w2: np.ndarray
    prob_p: np.ndarray
    prob_ptilde: np.ndarray
    h: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        n = self.w1.shape[0]
        for name in ("w2", "prob_p", "prob_ptilde", "h", "z"):
            if getattr(self, name).shape != (n,):
                raise ValidationError([f"{name}: parallel arrays must share shape"])
        for name in ("prob_p", "prob_ptilde"):
            s = float(np.sum(getattr(self, name)))
            if abs(s - 1.0) > 1e-9:
                raise ValidationError(
                    [f"{name}: cell masses must sum to 1 +- 1e-9, got {s!r}"])
        for arr in (self.w1, self.w2, self.prob_p, self.prob_ptilde,
                    self.h, self.z):
            arr.setflags(write=False)


def _voronoi_widths(nodes: np.ndarray) -> np.ndarray:
    mids = 0.5 * (nodes[1:] + nodes[:-1])
    left = np.concatenate([[nodes[0] - (mids[0] - nodes[0])], mids])
    right = np.concatenate([mids, [nodes[-1] + (nodes[-1] - mids[-1])]])
    return right - left


def discretize(payoff: Payoff, params: MarketParams,
               n_side: int = 40) -> DiscreteState:
    """Tensor grid of Gauss-Hermite nodes with Voronoi cell masses.

    Cell mass is density x cell area in the standardized coordinates,
    renormalized per measure, so both measures live on the same cells and
    their mass ratio tracks the density Z~.
    """
    if n_side < 2:
        raise ValidationError([f"n_side: must be >= 2, got {n_side!r}"])
    xi, _ = hermegauss(n_side)
    widths = _voronoi_widths(xi)
    chol = np.linalg.cholesky(params.wiener_cov)
    g1, g2 = np.meshgrid(xi, xi, indexing="ij")
    a1, a2 = np.meshgrid(widths, widths, indexing="ij")
    pts = np.column_stack([g1.ravel(), g2.ravel()])
    area = (a1 * a2).ravel()
    w = pts @ chol.T

    def std_normal2(u):
        return np.exp(-0.5 * np.sum(u * u, axis=1)) / (2.0 * math.pi)

    prob_p = std_normal2(pts) * area
    prob_p /= prob_p.sum()
    # P~ law of the same coordinates is N(-theta T, QT)
    shift = np.linalg.solve(chol, params.T * np.array(params.theta))
    prob_pt = std_normal2(pts + shift) * area
    prob_pt /= prob_pt.sum()
    cons = payoff_constants(payoff, params)
    s1 = terminal_price(params, 1, w[:, 0], UNDER_P)
    s2 = terminal_price(params, 2, w[:, 1], UNDER_P)
    h = np.asarray(evaluate(payoff, s1, s2), dtype=float)
    z = np.asarray(radon_nikodym(cons, w[:, 0], w[:, 1], UNDER_P), dtype=float)
    return DiscreteState(w1=w[:, 0].copy(), w2=w[:, 1].copy(),
                         prob_p=prob_p, prob_ptilde=prob_pt, h=h, z=z)


def brute_force_np(discrete: DiscreteState, budget: float):
    """Best achievable P1-mass of a randomized test with P2-mass <= budget.

    P1 and P2 are the H-weighted normalizations of prob_p and prob_ptilde
    (success and cost measures of the testing problem).  Cells are taken
    greedily by likelihood ratio dP1/dP2 -- i.e. by z ascending -- with a
    fractional last cell.  Returns (mass, indices of fully chosen cells).
    """
    budget = float(budget)
    if not 0.0 <= budget <= 1.0:
        raise ValidationError([f"budget: must lie in [0, 1], got {budget!r}"])
    s1 = float(np.sum(discrete.h * discrete.prob_p))
    s2 = float(np.sum(discrete.h * discrete.prob_ptilde))
    if s1 <= 0.0 or s2 <= 0.0:
        return 0.0, np.empty(0, dtype=int)
    p1 = discrete.h * discrete.prob_p / s1
    p2 = discrete.h * discrete.prob_ptilde / s2
    cells = np.flatnonzero(discrete.h > 0)
    order = cells[np.argsort(discrete.z[cells], kind="stable")]
    cum2 = np.cumsum(p2[order])
    k = int(np.searchsorted(cum2, budget * (1.0 + 1e-15), side="right"))
    mass = float(np.sum(p1[order[:k]]))
    if k < order.size:
        spent = float(cum2[k - 1]) if k > 0 else 0.0
        cell = order[k]
        if p2[cell] > 0:
            frac = min(max((budget - spent) / float(p2[cell]), 0.0), 1.0)
            mass += frac * float(p1[cell])
    return min(mass, 1.0), order[:k]


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
    it spends at c).
    """
    from .solver import _one, _phi1_impl, price

    engine_mc = None if payoff.kind != CUSTOM else mc
    engine_risk, c, risk_err, _method, cost_err = _one(_phi1_impl(
        payoff, params, loss, [x], None, engine_mc))
    p_h = price(payoff, params, mc)

    def shortfall_loss(w1, w2):
        mod, h = _modified_claim(payoff, params, loss, c, w1, w2)
        return loss.loss(np.maximum(h - mod, 0.0))

    def discounted_mod(w1, w2):
        mod, _h = _modified_claim(payoff, params, loss, c, w1, w2)
        return math.exp(-params.r * params.T) * mod

    mc_risk, risk_se = estimate(shortfall_loss, params, mc, UNDER_P)
    mc_cost, cost_se = estimate(discounted_mod, params, mc, UNDER_PTILDE)
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
