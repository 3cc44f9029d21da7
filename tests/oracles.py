"""Independent oracles that the tests check the engine against.

No engine code calls these, so they live beside the tests:

- a discretized Neyman-Pearson problem (`discretize`) and its greedy
  likelihood-ratio solution with a fractional last cell (`brute_force_np`);
- the strict-monotonicity report of Psi1/Psi2 in c (`uniqueness_check`);
- a plain predicate bisection in ln c, one c per read, that the solver's
  Chandrupatla steps must agree with (`ln_c_bisection`);
- the bisection of a side of `psi._McTable` that the solver ran before
  the table inverted itself (`mc_bisect`): the exact inversion's c must
  lie in its final bracket;
- `gaussian.tilted_interval_mass` in its four-ndtr form
  (`tilted_interval_mass_four_ndtr`), which the two-ndtr form must equal
  bit for bit;
- the Monte Carlo Psi sides as masked means over the full sample,
  zero-payoff paths included (`mc_masked_means`), which the sorted
  prefix sums of `psi._McTable` must agree with;
- `_quad.integrate_batch` as a loop that evaluates one round per
  integrand call (`integrate_batch_one_level`), which the read-ahead
  must equal bit for bit;
- a linear-loss region side of `psi` by `scipy.integrate.quad`, with the
  kink of each region's inner mass as a breakpoint
  (`region_side_linear_quad`), the independent value that a quadrature
  side must match within its reported error;
- a side of `psi`'s tail tables (linear Digital, QuantoDomestic,
  QuantoForeign and Spread, and the Digital under power loss) as
  `scipy.integrate.quad` of its integrand in Y = A1 W1 + A2 W2, with the
  conditional law on the line of fixed Y taken by an eigendecomposition and
  the payoff's set on it by brentq (`line_side_quad`);
- power-loss Psi1 from the engine's own Psi2 alone, integrated by parts
  (`psi1_by_parts`): no stored reference, and none of Psi1's code;
- Spread/power Psi1 by nested `scipy.integrate.quad` under P, with the
  region boundary by brentq (`spread_power_psi1_quad`): no box, no table
  and no W of the engine's.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy import integrate
from scipy.optimize import brentq
from scipy.special import ndtr

from shortfall_hedge import _quad
from shortfall_hedge.errors import HeavyTailError, ValidationError
from shortfall_hedge.gaussian import sample
from shortfall_hedge.market import (UNDER_P, UNDER_PTILDE, MarketParams,
                                    derive_constants, radon_nikodym,
                                    terminal_price, wiener_law)
from shortfall_hedge.payoffs import (DIGITAL, QUANTO_DOMESTIC, QUANTO_FOREIGN,
                                     SPREAD, Payoff, evaluate,
                                     payoff_constants)
from shortfall_hedge.psi import (LINEAR, POWER, TRUNC_SD, LossSpec,
                                 _REGIONS, _make_ctx, _psi_side, _side_fields)

_PARALLEL_TOL = 1e-12


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


@dataclass(frozen=True)
class UniquenessReport:
    """Whether strict monotonicity of Psi1/Psi2 in c is guaranteed."""

    psi1_strictly_monotone: bool
    psi2_strictly_monotone: bool
    reason: str


def _direction_vector(kind: str, params: MarketParams):
    sg1, sg2 = params.sigma
    return {
        DIGITAL: (sg1, -sg2),
        QUANTO_DOMESTIC: (sg1, 0.0),
        QUANTO_FOREIGN: (sg1, sg2),
    }.get(kind)


def uniqueness_check(payoff: Payoff, params: MarketParams) -> UniquenessReport:
    """Report whether strict monotonicity of Psi1, Psi2 in c is guaranteed.

    The guarantee exists when the payoff's direction vector is not parallel
    to (A1, A2); it is known for Digital, QuantoDomestic and QuantoForeign.
    A vanishing (A1, A2) counts as parallel (the measure change degenerates
    and Psi becomes a step function).  For the remaining kinds no condition
    is known and the solver falls back to left-endpoint selection.
    """
    vec = _direction_vector(payoff.kind, params)
    if vec is None:
        return UniquenessReport(
            False, False,
            "strict monotonicity not established for this payoff kind; "
            "inversion uses left-endpoint selection")
    strike = payoff.strike if payoff.strike > 0 else 1.0
    cons = derive_constants(params, strike)
    a = (cons.a1, cons.a2)
    scale = max(abs(a[0]), abs(a[1]))
    if scale <= _PARALLEL_TOL:
        return UniquenessReport(
            False, False,
            "(A1, A2) = (0, 0): the measure change is degenerate and Psi is "
            "a step function in c")
    cross = vec[0] * a[1] - vec[1] * a[0]
    norm = max(abs(vec[0]), abs(vec[1])) * scale
    if abs(cross) <= _PARALLEL_TOL * norm:
        return UniquenessReport(
            False, False,
            f"direction vector {vec} is parallel to (A1, A2) = {a}; strict "
            "monotonicity is not guaranteed")
    return UniquenessReport(
        True, True,
        f"direction vector {vec} is not parallel to (A1, A2) = {a}")


def ln_c_bisection(psi, target: float, increasing: bool):
    """(c, Psi(c), err): the infimum c where psi reaches target, by plain
    predicate bisection in ln c, one c per read.

    psi(c) returns (Psi(c), err) of a monotone side: nondecreasing if
    increasing, else nonincreasing.  The predicate "left" is Psi < target
    (increasing) or Psi > target.  Not left at c = 0 answers 0; otherwise
    powers of 2 from c = 1 bracket the answer, and the geometric mean of
    the ends replaces the end with its predicate until hi - lo <= 1e-13 hi.
    """
    def left(c):
        v = psi(c)[0]
        return v < target if increasing else v > target

    if not left(0.0):
        return (0.0, *psi(0.0))
    hi = 1.0
    while left(hi):
        hi *= 2.0
    lo = 0.5 * hi
    while not left(lo):
        lo, hi = 0.5 * lo, lo
    while hi - lo > 1e-13 * hi:
        mid = math.sqrt(lo) * math.sqrt(hi)
        if left(mid):
            lo = mid
        else:
            hi = mid
    return (hi, *psi(hi))


def mc_bisect(table, side: int, target: float, increasing: bool):
    """(lo, hi, Psi_side(hi)): the final bracket of a bisection in ln c of
    one side of a psi._McTable, one c per read, closed as the solver closed
    it before the table inverted itself: at hi - lo <= 1e-13 hi.

    The side is nondecreasing in c if increasing, else nonincreasing; a c
    meets the target where its read is at least the target (increasing) or
    at most it, so that lo misses and hi meets.  lo = hi = 0 where c = 0
    meets the target.  Otherwise the bracket opens at the smallest normal
    float and the largest power of 2, the ends of the solver's walk, and
    the geometric mean of the ends replaces the end with its predicate.
    """
    def read(c):
        return float(table.side([c], side)[0][0])

    def meets(c):
        v = read(c)
        return v >= target if increasing else v <= target

    if meets(0.0):
        return 0.0, 0.0, read(0.0)
    lo, hi = sys.float_info.min, 2.0 ** 1023
    assert not meets(lo) and meets(hi), (side, target)
    while hi - lo > 1e-13 * hi:
        mid = math.sqrt(lo) * math.sqrt(hi)
        if meets(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi, read(hi)


def tilted_interval_mass_four_ndtr(gamma, m, s, lo, hi):
    """gaussian.tilted_interval_mass as written with four ndtr calls: the
    Phi difference on both tails, one of them kept."""
    gamma = np.asarray(gamma, dtype=float)
    m = np.asarray(m, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        alpha = (lo - m) / s - gamma * s
        beta = (hi - m) / s - gamma * s
        alpha = np.where(np.isneginf(lo), -np.inf, alpha)
        beta = np.where(np.isposinf(hi), np.inf, beta)
        upper_tail = (np.where(np.isinf(alpha), 0.0, alpha)
                      + np.where(np.isinf(beta), 0.0, beta)) > 0
        diff = np.where(
            upper_tail,
            ndtr(-np.minimum(alpha, beta)) - ndtr(-np.maximum(alpha, beta)),
            ndtr(np.maximum(alpha, beta)) - ndtr(np.minimum(alpha, beta)))
        diff = np.where(beta <= alpha, 0.0, diff)
        factor = np.exp(gamma * m + 0.5 * (gamma * s) ** 2)
        out = np.where(diff <= 0.0, 0.0, factor * diff)
        out = np.where(hi <= lo, 0.0, out)
    return out


def mc_masked_means(payoff: Payoff, params: MarketParams, loss: LossSpec,
                    n: int, seed: int):
    """psi(side, c) -> (Psi_side(c), standard error) as a masked mean over
    every path of the sample psi._McTable draws for (n, seed), zero-payoff
    paths included: a path's term at c is taken from its own indicator of
    A_c, and the error is the two-pass sample sd over sqrt(n).

    Rows [:n] of sample(wiener_law, 2n, seed) are W_T under P (Psi1), rows
    [n:] W~_T under P~ (Psi2).  A path is in A_c iff ln c <= key, with
    key = -ln Z~ for linear loss and (p-1) ln H - ln Z~ (-inf at H = 0)
    for power loss; ln Z~ = -a1 w1 - a2 w2 - bT is formed in the table's
    order of operations, so that a c on a key is in A_c for both.
    """
    cons = payoff_constants(payoff, params)
    draws = sample(wiener_law(params), 2 * n, seed)
    paths = {}
    for side, w, under in ((1, draws[:n], UNDER_P),
                           (2, draws[n:], UNDER_PTILDE)):
        s1 = terminal_price(params, 1, w[:, 0], under)
        s2 = terminal_price(params, 2, w[:, 1], under)
        h = np.asarray(evaluate(payoff, s1, s2), dtype=float)
        b = cons.b_cap if under == UNDER_P else cons.b_cap_tilde
        ln_z = -cons.a1 * w[:, 0] - cons.a2 * w[:, 1] - b * cons.T
        if loss.kind == LINEAR:
            key = -ln_z
        else:
            with np.errstate(divide="ignore"):
                key = np.log(h) * (loss.p - 1.0) - ln_z
        paths[side] = (h, key, np.exp(ln_z))

    def psi(side: int, c: float):
        h, key, z = paths[side]
        ln_c = -math.inf if c == 0.0 else math.log(c)
        ind = ln_c <= key
        finite = 0.0 < c < math.inf
        x = np.zeros(n)
        if loss.kind == LINEAR:
            x[ind] = h[ind]
        elif side == 1:
            p = loss.p
            x[~ind] = h[~ind] ** p / p
            if finite:
                x[ind] = (c * z[ind]) ** (p / (p - 1.0)) / p
        elif c == 0.0:
            x[:] = h
        elif finite:
            x[ind] = h[ind] - (c * z[ind]) ** (1.0 / (loss.p - 1.0))
        return float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(n))

    return psi


def integrate_batch_one_level(f, lo, hi):
    """_quad.integrate_batch without read-ahead: each integrand call
    evaluates the panels of one round, under the module's rule constants
    as they are at the call."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    n = lo.size
    vals, errs = np.zeros(n), np.zeros(n)
    live = hi - lo > 0
    if not live.any():
        return vals, errs
    panels = _quad._INITIAL_PANELS
    ids = np.repeat(np.nonzero(live)[0], panels)
    step = ((hi - lo) / panels)[ids]
    a = lo[ids] + step * np.tile(np.arange(panels), live.sum())
    b = a + step
    for rnd in range(_quad._MAX_ROUNDS):
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        x = (c[:, None] + h[:, None] * _quad.NODES[None, :]).ravel()
        y = np.asarray(f(x, np.repeat(ids, 15)), dtype=float)
        if not np.isfinite(y).all():
            i = int(np.flatnonzero(~np.isfinite(y))[0])
            raise HeavyTailError(
                f"quadrature integrand is {float(y[i])!r} at x = "
                f"{float(x[i]):.6g}: a loss term overflows, too heavy a tail "
                "for the quadrature box")
        y = y.reshape(-1, 15)
        k15 = h * (y * _quad.WK).sum(axis=-1)
        err = np.abs(k15 - h * (y * _quad.WG).sum(axis=-1))
        est = vals.copy()
        np.add.at(est, ids, k15)
        floor = _quad._ABS_FLOOR + 1e-13 * np.abs(est)[ids]
        done = err <= np.maximum(_quad._REL_TOL * np.abs(k15), floor)
        if rnd == _quad._MAX_ROUNDS - 1:
            done[:] = True
        np.add.at(vals, ids[done], k15[done])
        np.add.at(errs, ids[done], err[done])
        if done.all():
            break
        a, b, ids = a[~done], b[~done], ids[~done]
        mid = 0.5 * (a + b)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        ids = np.concatenate([ids, ids])
    return vals, errs


def region_side_linear_quad(payoff: Payoff, params: MarketParams, c: float,
                            side: int) -> float:
    """Psi_side(c) of a linear-loss region payoff (QuantoDomestic,
    Outperformance) by scipy.integrate.quad, over the engine's regions and
    truncation.

    On a region the outer integrand is phi(o) F(o) E[e^(tau s); lo(o) <= s
    <= cap(o) | o], with lo(o) = (L - a_o o) / a_s and L = ln c - BT, and
    the inner mass is the closed form e^(tau m + tau^2 s^2 / 2) times a
    normal probability shifted by tau s^2.  Where the region has a cap(o) =
    alpha o + beta, the mass has a kink at o* = (L - beta a_s) / (a_o +
    alpha a_s), where lo meets cap; it is passed to quad as a breakpoint.
    Requires a_s > 0 and 0 < c < inf.
    """
    ctx = _make_ctx(payoff, params, TRUNC_SD)
    tilde = side == 2
    big_l = math.log(c) - _side_fields(ctx, tilde)[0] * ctx.cons.T
    total = 0.0
    for r in _REGIONS[payoff.kind](ctx, None, tilde):
        assert r.a_s > 0.0

        def f(o, r=r):
            lo = (big_l - r.a_o * o) / r.a_s
            hi = math.inf if r.cap is None else float(r.cap(o))
            if lo >= hi:
                return 0.0
            m = r.slope * o + r.tau * r.s_sd ** 2
            a, b = (lo - m) / r.s_sd, (hi - m) / r.s_sd
            prob = ndtr(b) - ndtr(a) if a < 0.0 else ndtr(-a) - ndtr(-b)
            tilt = math.exp(r.tau * r.slope * o + 0.5 * (r.tau * r.s_sd) ** 2)
            dens = math.exp(-0.5 * (o / r.o_sd) ** 2) / (
                r.o_sd * math.sqrt(2.0 * math.pi))
            return dens * float(r.f(np.array([o]))[0]) * tilt * float(prob)

        points = None
        if r.cap is not None:
            beta = float(r.cap(0.0))
            alpha = float(r.cap(1.0)) - beta
            kink = (big_l - beta * r.a_s) / (r.a_o + alpha * r.a_s)
            points = [kink] if r.lo < kink < r.hi else None
        total += integrate.quad(f, r.lo, r.hi, points=points, epsabs=1e-14,
                                epsrel=1e-12, limit=400)[0]
    return total


def _line_law(params: MarketParams, a):
    """(v, m, u): Y = a . W ~ N(0, v) for W ~ N(0, QT), and W | Y = y is
    m y + u xi, xi ~ N(0, 1), its covariance taken apart by eigh."""
    cov = params.wiener_cov
    s = cov @ a
    v = float(a @ s)
    cond = cov - np.outer(s, s) / v
    vals, vecs = np.linalg.eigh(cond)
    return v, s / v, vecs[:, -1] * math.sqrt(max(vals[-1], 0.0))


def _line_payoff(payoff: Payoff, params: MarketParams, tilde: bool):
    """(v, g, breaks) of the y-integrand phi_v(y) g(y) of a linear side,
    g(y) = E[H | Y = y] on the side's measure, Y = A1 W1 + A2 W2: on the
    line of fixed y, ln S_i = e_i + f_i xi, and g is a sum of lognormal
    masses over the interval of xi where H > 0, whose ends are found by
    brentq between sign changes on a grid of xi."""
    cons = payoff_constants(payoff, params)
    v, mvec, u = _line_law(params, np.array([cons.a1, cons.a2]))
    mu = (params.r, params.r) if tilde else params.alpha
    base = [math.log(params.s0[i]) + (mu[i] - 0.5 * params.sigma[i] ** 2)
            * params.T for i in (0, 1)]
    f1, f2 = params.sigma[0] * u[0], params.sigma[1] * u[1]
    k = payoff.strike

    def terms(y):
        e1 = base[0] + params.sigma[0] * mvec[0] * y
        e2 = base[1] + params.sigma[1] * mvec[1] * y
        # (coefficient ln, slope in xi, sign) of each lognormal term of H,
        # the function whose positive set is {H > 0}, and the xi's where
        # that function turns (its pieces between them are monotone)
        if payoff.kind == DIGITAL:
            return ([(math.log(k), 0.0, 1.0)],
                    lambda x: e1 - e2 + (f1 - f2) * x, [])
        if payoff.kind == QUANTO_DOMESTIC:
            return ([(e1 + e2, f1 + f2, 1.0), (math.log(k) + e2, f2, -1.0)],
                    lambda x: e1 + f1 * x - math.log(k), [])
        if payoff.kind == QUANTO_FOREIGN:
            return ([(e1, f1, 1.0), (math.log(k) - e2, -f2, -1.0)],
                    lambda x: e1 + e2 + (f1 + f2) * x - math.log(k), [])
        # S1 - S2 - K turns where f1 S1 = f2 S2
        turns = ([(math.log(f2 / f1) + e2 - e1) / (f1 - f2)]
                 if f1 * f2 > 0.0 and f1 != f2 else [])
        return ([(e1, f1, 1.0), (e2, f2, -1.0), (math.log(k), 0.0, -1.0)],
                lambda x: math.exp(e1 + f1 * x) - math.exp(e2 + f2 * x) - k,
                turns)

    def interval(h, turns):
        """The interval where h > 0, from the signs at the ends of each
        monotone piece and brentq within the pieces that change sign."""
        ends = [-60.0, *turns, 60.0]
        roots = []
        for a, b in zip(ends, ends[1:]):
            if (h(a) > 0.0) != (h(b) > 0.0):
                roots.append(brentq(h, a, b, xtol=1e-300))
        lo = -math.inf if h(-60.0) > 0.0 else None
        hi = math.inf if h(60.0) > 0.0 else None
        if lo is None and roots:
            lo = roots.pop(0)
        if hi is None and roots:
            hi = roots.pop()
        return None if lo is None or hi is None else (lo, hi)

    def mass(a, b):  # P(a <= xi <= b), on the tail that keeps digits
        if a == -math.inf and b == math.inf:
            return 1.0
        if a + b > 0.0:
            return float(ndtr(-a) - ndtr(-b))
        return float(ndtr(b) - ndtr(a))

    def g(y):
        parts, h, turns = terms(y)
        ends = interval(h, turns)
        if ends is None:
            return 0.0
        lo, hi = ends
        return sum(sign * math.exp(ln + 0.5 * f * f) * mass(lo - f, hi - f)
                   for ln, f, sign in parts)

    # where the indicator's mean on the line crosses 0 (the centre of its
    # ramp in y): Digital, QuantoDomestic and QuantoForeign
    h0, h1 = terms(0.0)[1](0.0), terms(1.0)[1](0.0)
    breaks = ([h0 / (h0 - h1)] if payoff.kind != SPREAD and h1 != h0
              else [])
    return v, g, breaks


def line_side_quad(payoff: Payoff, params: MarketParams, loss: LossSpec,
                   c: float, side: int, breaks=()) -> float:
    """Psi_side(c) of a linear Digital, QuantoDomestic, QuantoForeign or
    Spread side, or a Digital power side, by scipy.integrate.quad over y of
    its y-integrand, with the lower limit, the y where the payoff's
    indicator flips on average (not for Spread) and breaks as breakpoints.

    A_c = {Y >= u}: u = ln c - BT, and for the Digital under power loss
    u = ln c - (p-1) ln K - BT, where on A_c (c Z~)^q = K^p e^(q (u - y))
    and (c Z~)^kap = K e^(kap (u - y)).  So with f = phi_v g,

        linear:  int_u^inf f
        Psi1:    (K^(p-1) / p) (int_-inf^u f + int_u^inf e^(q (u - y)) f)
        Psi2:    int_u^inf (1 - e^(kap (u - y))) f

    g takes the side's own measure: P on Psi1, P~ on Psi2.  The integral
    runs over the 45 sd either side of the mean of Y (further up for the
    QuantoDomestic's S1 S2 term, which tilts Y).  The eigh of the
    conditional covariance loses digits of the sd of ln(S1 / S2) on the
    line where A is nearly parallel to (sigma1, -sigma2), so the oracle
    is for markets away from that (the desk's)."""
    tilde = side == 2
    cons = payoff_constants(payoff, params)
    v, g, own = _line_payoff(payoff, params, tilde)
    breaks = [*breaks, *own]
    sd = math.sqrt(v)
    b = cons.b_cap_tilde if tilde else cons.b_cap
    u = math.log(c) - b * cons.T
    weight = None
    if loss.kind != LINEAR:
        p = loss.p
        u -= (p - 1.0) * math.log(payoff.strike)
        e = (1.0 if tilde else p) / (p - 1.0)
        weight = e
    lo, hi = -45.0 * sd, 45.0 * sd
    if payoff.kind == QUANTO_DOMESTIC:  # the S1 S2 term tilts Y by up to
        hi += 3.0 * v * sum(params.sigma) / sd  # a few sd at the desk

    def integral(f, a, b_):
        if b_ <= a:
            return 0.0
        pts = [x for x in breaks if a < x < b_]
        return integrate.quad(f, a, b_, points=pts or None, epsabs=0.0,
                              epsrel=1e-13, limit=400)[0]

    def dens(y):
        return math.exp(-0.5 * y * y / v) / math.sqrt(2.0 * math.pi * v) * g(y)

    if weight is None:
        return integral(dens, max(u, lo), hi)
    if tilde:
        return integral(lambda y: -math.expm1(weight * (u - y)) * dens(y),
                        max(u, lo), hi)
    scale = math.exp((loss.p - 1.0) * math.log(payoff.strike)) / loss.p
    return scale * (integral(dens, lo, min(u, hi))
                    + integral(lambda y: math.exp(weight * (u - y)) * dens(y),
                               max(u, lo), hi))


def psi1_by_parts(payoff: Payoff, params: MarketParams, p: float, c):
    """(Psi1, error bound) under power loss p at each c of a list, from the
    engine's Psi2 alone.

    c is the Lagrange multiplier of the capital constraint, so dPsi1 =
    -c dPsi2, and by parts, with Psi1(0) = 0 and c Psi2(c) -> 0 at both
    ends,

        Psi1(c) = int_0^c Psi2(s) ds - c Psi2(c),
        Psi1(inf) = int_0^inf Psi2(s) ds,

    the integral by scipy.integrate.quad_vec in u = ln s of (Psi2, err2)
    e^u, piece by piece between the sorted ln c's, so that a list costs
    one pass.  The bound is quad_vec's error estimates plus the integral of
    Psi2's own error, and c err2(c).  For c << 1 the two terms cancel to
    far fewer digits than either holds, which the bound shows."""
    loss = LossSpec(POWER, p)
    cs = np.atleast_1d(np.asarray(c, dtype=float))

    def f(u):
        s = math.exp(u) if u < 700.0 else math.inf  # Psi2 is 0 long before
        if s == math.inf:
            return np.zeros(2)
        (v,), (e,) = _psi_side(payoff, params, loss, [s], 2)
        return np.array([v, e]) * s

    order = np.argsort(cs)
    ends = [-math.inf, *np.log(cs[order])]
    if ends[-1] < math.inf:
        ends.append(math.inf)  # a finite last c still needs no tail
    head, err = np.zeros(cs.size), np.zeros(cs.size)
    at, at_err = 0.0, 0.0
    for k, (a, b) in enumerate(zip(ends, ends[1:])):
        if k == cs.size:
            break
        if a < b:
            (v, e), quad_err = integrate.quad_vec(
                f, a, b, epsabs=0.0, epsrel=1e-12, norm="max")
            at, at_err = at + v, at_err + e + quad_err
        head[order[k]], err[order[k]] = at, at_err
    finite = cs < math.inf
    v2, e2 = _psi_side(payoff, params, loss, cs[finite], 2)
    head[finite] -= cs[finite] * v2
    err[finite] += cs[finite] * e2
    return head, err


def spread_ln_power_moment(payoff: Payoff, params: MarketParams, p: float,
                           n: int = 400):
    """ln(E[H^p] / p) of the Spread under P, by the trapezoid rule in logs
    on an n x n grid in (W1, W2) over 15 sd either way of the peak of H^p
    times their density, found on a coarse grid first.  For a large p the
    integrand is a smooth bump far from H = 0, where the rule converges
    geometrically, and nothing overflows where E[H^p] passes the float
    range.  Not for a p near 1: there H = 0 cuts the bump."""
    (s10, s20), (sg1, sg2), k = params.s0, params.sigma, payoff.strike
    t, rho = params.T, params.rho
    m1, m2 = ((a - 0.5 * s * s) * t
              for a, s in zip(params.alpha, params.sigma))
    sd = math.sqrt(t)

    def ln_f(x, y):
        h = s10 * np.exp(m1 + sg1 * x) - s20 * np.exp(m2 + sg2 * y) - k
        with np.errstate(divide="ignore"):
            ln_h = np.log(np.maximum(h, 0.0))
        return (p * ln_h - 0.5 * (x * x - 2.0 * rho * x * y + y * y)
                / (t * (1.0 - rho * rho)))

    def grid(xc, yc, half, m):
        x = np.linspace(xc - half, xc + half, m)
        y = np.linspace(yc - half, yc + half, m)
        return x, y, ln_f(x[:, None], y[None, :])

    reach = (20.0 + p * sg1 * sd) * sd
    x, y, lf = grid(0.0, 0.0, reach, 401)
    i, j = np.unravel_index(np.argmax(lf), lf.shape)
    x, y, lf = grid(x[i], y[j], 15.0 * sd, n)
    top = lf.max()
    area = (x[1] - x[0]) * (y[1] - y[0])
    return (top + math.log(np.exp(lf - top).sum() * area)
            - math.log(2.0 * math.pi * t * math.sqrt(1.0 - rho * rho))
            - math.log(p))


def spread_power_psi1_quad(payoff: Payoff, params: MarketParams, p: float,
                           c: float):
    """(Psi1(c), quad error) of the Spread under power loss p, as
    (E[H^p 1_{Ac^c}] + c^q E[Z~^q 1_Ac]) / p by nested scipy.integrate.quad
    under P: W2 = y over 40 sd either way, W1 | y from the payoff root d(y)
    on, split at the region boundary x*(y), where H = (c Z~)^kap, found by
    brentq (H rises and Z~ falls in W1, since A1 > 0).  c = inf is
    E[H^p] / p."""
    cons = derive_constants(params, payoff.strike)
    (s10, s20), (sg1, sg2), k = params.s0, params.sigma, payoff.strike
    t, rho = params.T, params.rho
    m1, m2 = ((a - 0.5 * s * s) * t
              for a, s in zip(params.alpha, params.sigma))
    sd, csd = math.sqrt(t), math.sqrt(t * (1.0 - rho * rho))
    q, kap = p / (p - 1.0), 1.0 / (p - 1.0)
    lnc = math.log(c) if c < math.inf else math.inf

    def quad(f, a, b):
        # the shortfall piece over a sliver [d, x*] at a small c reaches
        # roundoff before 1e-11 of itself, far below the total
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            return integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-11,
                                  limit=400)[0]

    def inner(y):
        s2k = s20 * math.exp(m2 + sg2 * y) + k
        d, mc = (math.log(s2k / s10) - m1) / sg1, rho * y

        def dens(x):
            return math.exp(-0.5 * ((x - mc) / csd) ** 2) / (
                csd * math.sqrt(2.0 * math.pi))

        def h(x):  # S1 - S2 - K, without its cancellation near d
            return s2k * math.expm1(sg1 * (x - d))

        def ln_cz(x):
            return lnc - cons.a1 * x - cons.a2 * y - cons.b_cap * t

        top = max(d, mc + p * sg1 * csd * csd) + 40.0 * csd
        x_star = top
        if lnc < math.inf:
            def g(x):
                return math.log(max(h(x), 1e-300)) - kap * ln_cz(x)
            x_star, hi = d, d + 1.0  # at g(d) >= 0, A_c holds all H > 0
            while g(hi) < 0.0:
                hi = d + 2.0 * (hi - d)
            if g(d) < 0.0:
                x_star = brentq(g, d, hi, xtol=1e-15, rtol=1e-15)
        on = quad(lambda x: math.exp(q * ln_cz(x)) * dens(x), x_star,
                  max(x_star, mc - q * cons.a1 * csd * csd) + 40.0 * csd
                  ) if lnc < math.inf else 0.0
        return (quad(lambda x: h(x) ** p * dens(x), d, min(x_star, top))
                + on) / p

    v, e = integrate.quad(
        lambda y: inner(y) * math.exp(-0.5 * (y / sd) ** 2)
        / (sd * math.sqrt(2.0 * math.pi)), -40.0 * sd, 40.0 * sd,
        epsabs=0.0, epsrel=1e-11, limit=400)
    return v, e
