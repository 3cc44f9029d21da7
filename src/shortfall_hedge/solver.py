"""Minimal-shortfall risk Phi1 and cost reduction Phi2 via Psi inversion.

Both theorems reduce the hedging problem to a scalar equation in the
region parameter c:

    phi1(x):  solve Psi2(c) = e^{rT} x, then
              risk = Psi1(0) - Psi1(c)   (linear)
              risk = Psi1^p(c)           (power)
    phi2(v):  solve Psi1(c) = Psi1(0) - v (linear) / Psi1^p(c) = v (power),
              then cost = e^{-rT} Psi2(c)

Psi2 and linear Psi1 are nonincreasing in c, power Psi1 nondecreasing, so
each equation is solved by bracketed bisection on a sign predicate; where
the function is flat at the target level the returned c is the infimum of
the solution set (the predicate flips exactly at the left endpoint).

The solve functions take a grid of inputs and bisect all of its points in
lockstep: each step reads one Psi side once, at the distinct c's of the
points still running (the Psi sides take c-arrays), and every point runs
the same steps it would run alone.  phi1 and phi2 solve a grid of one
point; a curve solves its whole grid at once, on one thread.

Named payoffs evaluate Psi by quadrature; Custom payoffs, and power-loss
cases whose closed-form sign condition fails, fall back to the Monte Carlo
table (psi._McTable): one sample with a fixed (n, seed) per solve, so the
bisected function stays deterministic and pathwise monotone in c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import (AssumptionViolatedError, HeavyTailError,
                     InfeasibleInversionError, OutOfRangeError,
                     ShortfallHedgeError, ValidationError)
from .market import MarketParams
from .mc import McConfig
from .payoffs import CUSTOM, Payoff, payoff_constants
from .psi import (LINEAR, POWER, LossSpec, _make_ctx, _McTable, _psi_side,
                  _sign_guard_power)

_FALLBACK_MC = McConfig(n_paths=200_000, seed=1729, antithetic=True)
_EDGE_TOL = 1e-9

METHOD_QUAD = "quadrature"
METHOD_MC = "monte-carlo"


@dataclass(frozen=True)
class SolveConfig:
    """Root-finding budget for the Psi inversions."""

    abs_tol_target: float = 1e-9
    max_bracket_expansions: int = 200
    bisection_iters: int = 200

    def __post_init__(self):
        bad = []
        if not self.abs_tol_target > 0:
            bad.append(f"abs_tol_target: must be positive, got {self.abs_tol_target!r}")
        if self.max_bracket_expansions < 1:
            bad.append("max_bracket_expansions: must be >= 1")
        if self.bisection_iters < 1:
            bad.append("bisection_iters: must be >= 1")
        if bad:
            raise ValidationError(bad)


@dataclass(frozen=True)
class CurvePoint:
    input: float
    value: float
    c: float
    method: str = METHOD_QUAD
    err_estimate: float = 0.0
    error: Optional[str] = None


@dataclass(frozen=True)
class RiskCurve:
    loss: LossSpec
    kind: str
    points: tuple[CurvePoint, ...] = field(default_factory=tuple)


def _route_method(payoff: Payoff, params: MarketParams, loss: LossSpec) -> str:
    """Quadrature for named payoffs unless a power sign condition fails."""
    if payoff.kind == CUSTOM:
        return METHOD_MC
    if loss.kind == POWER:
        try:
            _sign_guard_power(payoff, _make_ctx(payoff, params, None, 10.0),
                              loss.p)
        except AssumptionViolatedError:
            return METHOD_MC
    return METHOD_QUAD


class _Evaluator:
    """One-sided Psi evaluation with a fixed route (quadrature or MC).

    On the MC route it owns one _McTable: one seeded sample for the whole
    solve, dropped with the evaluator.
    """

    def __init__(self, payoff: Payoff, params: MarketParams, loss: LossSpec,
                 mc: Optional[McConfig]):
        self.payoff = payoff
        self.params = params
        self.loss = loss
        self.constants = payoff_constants(payoff, params)
        self.method = _route_method(payoff, params, loss)
        if self.method == METHOD_MC:
            mc = mc or _FALLBACK_MC
            self._table = _McTable(payoff, params, loss, mc.n_paths, mc.seed,
                                   self.constants)

    def side(self, c, side: int):
        """(values, errs) of Psi_side at each c of an array."""
        if self.method == METHOD_QUAD:
            return _psi_side(self.payoff, self.params, self.loss, c, side,
                             self.constants)
        v, e = self._table.side(c, side)
        return np.maximum(v, 0.0), e


def _read(ev: _Evaluator, c, side: int):
    """(values, errs, failures) of Psi_side at each c, in one call over the
    distinct c's.  If that call raises, each distinct c is read alone, so
    that failures[i] is the ShortfallHedgeError of c[i] alone (else None)
    and the other c's keep their values."""
    cs = np.array(sorted(set(c)), dtype=float)
    pos = {ci: j for j, ci in enumerate(cs.tolist())}
    where = [pos[ci] for ci in c]
    failed = [None] * cs.size
    if not cs.size:
        return cs, cs, failed
    try:
        v, e = ev.side(cs, side)
    except ShortfallHedgeError:
        v, e = np.full(cs.size, math.nan), np.full(cs.size, math.nan)
        for j in range(cs.size):
            try:
                (v[j],), (e[j],) = ev.side(cs[j:j + 1], side)
            except ShortfallHedgeError as exc:
                failed[j] = exc
    return v[where], e[where], [failed[j] for j in where]


def _solved(out: list, points, cs: list) -> dict:
    """{point: c} of the solves that found their c; the others' errors are
    recorded on out."""
    found = {}
    for i, c in zip(points, cs):
        if isinstance(c, ShortfallHedgeError):
            out[i] = c
        else:
            found[i] = c
    return found


def _one(results: list):
    """The result of a one-point solve, or its error raised."""
    got = results[0]
    if isinstance(got, ShortfallHedgeError):
        raise got
    return got


@lru_cache(maxsize=256)
def _edges(payoff: Payoff, params: MarketParams, loss: LossSpec,
           mc: Optional[McConfig]):
    """(Psi1 edge, err, Psi2(0), err); the Psi1 edge is E[H] for linear loss
    and the ceiling E[l(H)] = Psi1^p(inf) for power loss."""
    ev = _Evaluator(payoff, params, loss, mc)
    c_edge = 0.0 if loss.kind == LINEAR else math.inf
    (p1,), (e1,) = ev.side([c_edge], 1)
    (p2,), (e2,) = ev.side([0.0], 2)
    return float(p1), float(e1), float(p2), float(e2)


@lru_cache(maxsize=256)
def price(payoff: Payoff, params: MarketParams,
          mc: Optional[McConfig] = None) -> float:
    """p(H) = e^{-rT} E~[H], computed once per (payoff, params, mc).

    Quadrature for named payoffs, with a numerical integrability check:
    widening the Gaussian truncation from 10 to 12 sd must move the value
    by less than 1e-6 relative, else the tail is declared too heavy.
    Custom payoffs price by Monte Carlo.
    """
    disc = math.exp(-params.r * params.T)
    if payoff.kind == CUSTOM:
        ev = _Evaluator(payoff, params, LossSpec(LINEAR), mc)
        return disc * float(ev.side([0.0], 2)[0][0])
    loss = LossSpec(LINEAR)
    v10 = float(_psi_side(payoff, params, loss, [0.0], 2, trunc_sd=10.0)[0][0])
    v12 = float(_psi_side(payoff, params, loss, [0.0], 2, trunc_sd=12.0)[0][0])
    if abs(v12 - v10) > 1e-6 * max(abs(v12), 1e-300):
        raise HeavyTailError(
            "truncated-tail contribution to E~[H] exceeds 1e-6 relative "
            f"({abs(v12 - v10):.3g} vs {v12:.6g}); payoff tail too heavy "
            "for the quadrature box")
    return disc * v10


_START, _BRACKET, _BISECT, _CHECK = range(4)


def _bisect(ev: _Evaluator, side: int, targets, increasing: bool,
            config: SolveConfig, scale: float) -> list:
    """Infimum c of {c : Psi_side(c) reaches target}, for each target.

    Every point runs the steps of a predicate bisection: the predicate at
    c = 0, doublings from hi = 1, midpoints until hi - lo <= 1e-13
    max(1, hi), and a check that Psi(hi) is the target within tolerance.
    The predicate is True strictly left of the answer: Psi > target for a
    nonincreasing side, Psi < target for a nondecreasing one.  The points
    step in lockstep, with one Psi read per step at the distinct c's of
    the points still running; a point that finishes drops out.  Returns
    per target its c, or the ShortfallHedgeError that ended its solve.
    """
    targets = [float(t) for t in targets]
    n = len(targets)
    out: list = [None] * n
    stage = [_START] * n
    lo, hi = [0.0] * n, [0.0] * n
    steps = [0] * n  # doublings while bracketing, then midpoints
    while True:
        run = [i for i in range(n) if out[i] is None]
        if not run:
            return out
        at = []
        for i in run:
            if stage[i] == _BISECT and (
                    steps[i] >= config.bisection_iters
                    or hi[i] - lo[i] <= 1e-13 * max(1.0, hi[i])):
                stage[i] = _CHECK
            at.append(0.5 * (lo[i] + hi[i]) if stage[i] == _BISECT else hi[i])
        vals, errs, failed = _read(ev, at, side)
        for j, i in enumerate(run):
            c, v, target = at[j], vals[j], targets[i]
            if failed[j] is not None:
                out[i] = failed[j]
            elif stage[i] == _CHECK:
                tol = max(config.abs_tol_target * max(1.0, scale),
                          8.0 * errs[j],
                          1e-7 * max(1.0, scale) if ev.method == METHOD_MC
                          else 0.0)
                if abs(v - target) <= tol:
                    out[i] = c
                else:
                    out[i] = InfeasibleInversionError(
                        f"Psi{side}({c:.12g}) = {v:.12g} cannot reach target "
                        f"{target:.12g} within tolerance {tol:.3g}: the Psi "
                        "function jumps across the target (degenerate or "
                        "discontinuous case)")
            else:
                left = v < target if increasing else v > target
                if stage[i] == _START:
                    if left:
                        stage[i], hi[i] = _BRACKET, 1.0
                    else:
                        out[i] = 0.0
                elif stage[i] == _BRACKET:
                    if not left:
                        stage[i], steps[i] = _BISECT, 0
                        continue
                    lo[i], hi[i] = c, 2.0 * c
                    steps[i] += 1
                    if steps[i] > config.max_bracket_expansions:
                        out[i] = InfeasibleInversionError(
                            f"could not bracket the Psi{side} inversion "
                            f"target {target!r} within "
                            f"{config.max_bracket_expansions} doublings")
                else:
                    steps[i] += 1
                    if left:
                        lo[i] = c
                    else:
                        hi[i] = c


def invert_psi2(payoff: Payoff, params: MarketParams, loss: LossSpec,
                target: float, config: Optional[SolveConfig] = None,
                mc: Optional[McConfig] = None) -> float:
    """Smallest c with Psi2(c) = target; Psi2 is nonincreasing in c."""
    config = config or SolveConfig()
    target = float(target)
    _p1, _e1, psi2_full, e2 = _edges(payoff, params, loss, mc)
    edge_tol = _EDGE_TOL * max(1.0, psi2_full) + 4.0 * e2
    if target > psi2_full + edge_tol:
        raise OutOfRangeError(
            f"target {target!r} exceeds Psi2(0) = {psi2_full!r}")
    if target < -edge_tol:
        raise OutOfRangeError(f"target {target!r} is negative")
    if target >= psi2_full:
        return 0.0
    ev = _Evaluator(payoff, params, loss, mc)
    return _one(_bisect(ev, 2, [max(target, 0.0)], increasing=False,
                        config=config, scale=psi2_full))


def invert_psi1(payoff: Payoff, params: MarketParams, loss: LossSpec,
                target: float, config: Optional[SolveConfig] = None,
                mc: Optional[McConfig] = None) -> float:
    """Smallest c with Psi1(c) = target.

    Linear Psi1 is nonincreasing (target descends from Psi1(0) = E[H]);
    power Psi1 is nondecreasing (target climbs from 0 to E[l(H)]).
    """
    config = config or SolveConfig()
    target = float(target)
    psi1_edge, e1, _p2, _e2 = _edges(payoff, params, loss, mc)
    edge_tol = _EDGE_TOL * max(1.0, psi1_edge) + 4.0 * e1
    if target > psi1_edge + edge_tol:
        raise OutOfRangeError(
            f"target {target!r} exceeds the Psi1 range edge {psi1_edge!r}")
    if target < -edge_tol:
        raise OutOfRangeError(f"target {target!r} is negative")
    ev = _Evaluator(payoff, params, loss, mc)
    if loss.kind == LINEAR:
        if target >= psi1_edge:
            return 0.0
        return _one(_bisect(ev, 1, [max(target, 0.0)], increasing=False,
                            config=config, scale=psi1_edge))
    if target <= 0.0:
        return 0.0
    return _one(_bisect(ev, 1, [min(target, psi1_edge)], increasing=True,
                        config=config, scale=psi1_edge))


def _phi1_impl(payoff: Payoff, params: MarketParams, loss: LossSpec, xs,
               config: Optional[SolveConfig], mc: Optional[McConfig]) -> list:
    """Per capital x of the grid xs: (risk, c, err, method, cost_err), or
    the ShortfallHedgeError that x's solve raised.

    cost_err is the standard error of the engine's discounted Psi2 at c,
    the capital the solution spends: read from the solve's sample on the
    MC route, 0 on the quadrature route and at the edges x = 0 and
    x >= p(H).  An error of a step every point shares goes to every point
    that reached it.
    """
    config = config or SolveConfig()
    out: list = [None] * len(xs)
    try:
        method = _route_method(payoff, params, loss)
        p_h = price(payoff, params, mc)
        todo = {}
        for i, x in enumerate(xs):
            x = float(x)
            if x < -_EDGE_TOL * max(1.0, p_h):
                out[i] = OutOfRangeError(
                    f"x: capital must be nonnegative, got {x!r}")
            elif max(x, 0.0) >= p_h:
                out[i] = (0.0, 0.0, 0.0, method, 0.0)
            else:
                todo[i] = max(x, 0.0)
        if todo:
            psi1_edge, e_edge, _p2, _e2 = _edges(payoff, params, loss, mc)
            for i in [i for i, x in todo.items() if x == 0.0]:
                out[i] = (psi1_edge, math.inf, e_edge, method, 0.0)
                del todo[i]
        if todo:
            ev = _Evaluator(payoff, params, loss, mc)
            growth = math.exp(params.r * params.T)
            solved = _solved(out, todo, _bisect(
                ev, 2, [growth * x for x in todo.values()], increasing=False,
                config=config, scale=growth * p_h))
            at = list(solved.values())
            cost_errs, bad2 = np.zeros(len(at)), [None] * len(at)
            if ev.method == METHOD_MC:
                _v2, cost_errs, bad2 = _read(ev, at, 2)
                cost_errs = cost_errs / growth
            v1, err1, bad1 = _read(ev, at, 1)
            for j, (i, c) in enumerate(solved.items()):
                if bad2[j] is not None or bad1[j] is not None:
                    out[i] = bad2[j] if bad2[j] is not None else bad1[j]
                elif loss.kind == LINEAR:
                    out[i] = (max(psi1_edge - float(v1[j]), 0.0), c,
                              e_edge + float(err1[j]), method,
                              float(cost_errs[j]))
                else:
                    out[i] = (float(v1[j]), c, float(err1[j]), method,
                              float(cost_errs[j]))
    except ShortfallHedgeError as exc:
        out = [exc if got is None else got for got in out]
    return out


def phi1(payoff: Payoff, params: MarketParams, loss: LossSpec, x: float,
         config: Optional[SolveConfig] = None,
         mc: Optional[McConfig] = None) -> tuple[float, float]:
    """(minimal shortfall risk at capital x, region parameter c).

    x >= p(H) affords a full hedge: risk 0 with c = 0 (A_c is everything).
    x = 0 hedges nothing: the full E[l(H)] with the empty-region sentinel
    c = inf.  The modified claim identified by c is H 1_{A_c} (linear) or
    (H - (c Z~_T)^{1/(p-1)})^+ (power).
    """
    risk, c = _one(_phi1_impl(payoff, params, loss, [x], config, mc))[:2]
    return risk, c


def _phi2_impl(payoff: Payoff, params: MarketParams, loss: LossSpec, vs,
               config: Optional[SolveConfig],
               mc: Optional[McConfig]) -> list:
    """Per risk bound v of the grid vs: (cost, c, err, method), or the
    ShortfallHedgeError that v's solve raised."""
    config = config or SolveConfig()
    out: list = [None] * len(vs)
    try:
        method = _route_method(payoff, params, loss)
        psi1_edge, _e1, psi2_full, e2 = _edges(payoff, params, loss, mc)
        disc = math.exp(-params.r * params.T)
        todo = {}
        for i, v in enumerate(vs):
            v = float(v)
            if v < -_EDGE_TOL * max(1.0, psi1_edge):
                out[i] = OutOfRangeError(
                    f"v: risk bound must be nonnegative, got {v!r}")
            elif max(v, 0.0) >= psi1_edge:
                out[i] = (0.0, math.inf, 0.0, method)
            elif max(v, 0.0) == 0.0:
                # only the v = 0 points need the price: its error is theirs
                try:
                    out[i] = (price(payoff, params, mc), 0.0, disc * e2,
                              method)
                except ShortfallHedgeError as exc:
                    out[i] = exc
            else:
                todo[i] = v
        if todo:
            ev = _Evaluator(payoff, params, loss, mc)
            targets = [psi1_edge - v if loss.kind == LINEAR else v
                       for v in todo.values()]
            solved = _solved(out, todo, _bisect(
                ev, 1, targets, increasing=(loss.kind == POWER),
                config=config, scale=psi1_edge))
            v2, err2, bad = _read(ev, list(solved.values()), 2)
            for j, (i, c) in enumerate(solved.items()):
                out[i] = bad[j] if bad[j] is not None else (
                    disc * float(v2[j]), c, disc * float(err2[j]), method)
    except ShortfallHedgeError as exc:
        out = [exc if got is None else got for got in out]
    return out


def phi2(payoff: Payoff, params: MarketParams, loss: LossSpec, v: float,
         config: Optional[SolveConfig] = None,
         mc: Optional[McConfig] = None) -> tuple[float, float]:
    """(cheapest capital whose minimal risk is at most v, parameter c).

    v = 0 requires the full price p(H) (c = 0); v at or above the risk
    ceiling (E[H] linear, E[l(H)] power) costs nothing, reported with the
    empty-region sentinel c = inf.
    """
    cost, c, _err, _method = _one(_phi2_impl(payoff, params, loss, [v],
                                             config, mc))
    return cost, c


def curve(payoff: Payoff, params: MarketParams, loss: LossSpec, kind: str,
          grid, config: Optional[SolveConfig] = None,
          mc: Optional[McConfig] = None) -> RiskCurve:
    """phi1/phi2 over a sorted grid, all points solved in lockstep; each
    point's value is that of its one-point solve.  Failures are recorded
    on the point (value and c become NaN) instead of aborting the curve."""
    if kind not in ("phi1", "phi2"):
        raise ValidationError([f"kind: must be 'phi1' or 'phi2', got {kind!r}"])
    grid = [float(g) for g in grid]
    if not grid:
        raise ValidationError(["grid: must contain at least one point"])
    if any(g < 0 for g in grid):
        raise ValidationError(["grid: all points must be nonnegative"])
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValidationError(["grid: points must be sorted ascending"])
    impl = _phi1_impl if kind == "phi1" else _phi2_impl
    points = []
    for g, got in zip(grid, impl(payoff, params, loss, grid, config, mc)):
        if isinstance(got, ShortfallHedgeError):
            points.append(CurvePoint(
                input=g, value=math.nan, c=math.nan,
                method=_route_method(payoff, params, loss),
                err_estimate=math.nan, error=str(got)))
        else:
            value, c, err, method = got[:4]
            points.append(CurvePoint(input=g, value=value, c=c, method=method,
                                     err_estimate=err))
    return RiskCurve(loss=loss, kind=kind, points=tuple(points))
