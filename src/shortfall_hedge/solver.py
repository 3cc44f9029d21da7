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

Each point's bisection is one generator, _predicate_bisection: plain code
that yields every c it reads, with its bracket, and is sent Psi(c) back.
The check at the end uses the value already read at the answer, so a solve
reads each c once.  The solve functions take a grid of inputs and drive
the points' generators in lockstep (_bisect), answering them from a memo
of the Psi values read so far.  A read takes the c's of the points still
running (the Psi sides take c-arrays) together with the c's of their next
steps, up to 15 // (points running) c's for each point (_path): the next
doublings while a point has no bracket; then, on the quadrature route, the
midpoints its bisection computes if its answer lies at the secant estimate
between the bracket ends, and on the Monte Carlo route, a step function on
which a chord predicts nothing, the next levels of its bisection tree.  A
single solve so makes 5-12 reads by quadrature and 13-14 by Monte Carlo
instead of about 47, and a curve reads only its current step while more
than 7 points run.  The read-ahead c's are the floats the bisection
computes and a Psi value does not depend on its batch, so the estimate
only chooses which c's are read: every point runs the same steps, with the
same values, as a plain bisection of it alone.  phi1 and phi2 solve a grid
of one point; a curve solves its whole grid at once, on one thread.

Named payoffs evaluate Psi by quadrature; Custom payoffs, and power-loss
cases whose closed-form sign condition fails, fall back to the Monte Carlo
table (psi._McTable): one sample with a fixed (n, seed) per solve, so the
bisected function stays deterministic and pathwise monotone in c.  Both
routes read ahead, except on Spread/power Psi1 by quadrature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (AssumptionViolatedError, HeavyTailError,
                     InfeasibleInversionError, OutOfRangeError,
                     ShortfallHedgeError, ValidationError)
from .market import MarketParams
from .mc import McConfig
from .payoffs import CUSTOM, Payoff
from .psi import (LINEAR, POWER, LossSpec, _is_one_c_side, _make_ctx,
                  _McTable, _psi_side, _sign_guard_power)

_FALLBACK_MC = McConfig(n_paths=200_000, seed=1729, antithetic=True)
_EDGE_TOL = 1e-9
# the most c's a read-ahead _bisect step asks for (see _path)
_READ_AHEAD_CS = 15

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
        if not 0 < self.abs_tol_target < math.inf:
            bad.append("abs_tol_target: must be positive and finite, got "
                       f"{self.abs_tol_target!r}")
        for name in ("max_bracket_expansions", "bisection_iters"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                bad.append(f"{name}: must be an integer, got {v!r}")
            elif v < 1:
                bad.append(f"{name}: must be >= 1, got {v!r}")
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
            _sign_guard_power(payoff, _make_ctx(payoff, params, 10.0),
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
        self.method = _route_method(payoff, params, loss)
        if self.method == METHOD_MC:
            mc = mc or _FALLBACK_MC
            self._table = _McTable(payoff, params, loss, mc.n_paths, mc.seed)

    def side(self, c, side: int):
        """(values, errs) of Psi_side at each c of an array."""
        if self.method == METHOD_QUAD:
            return _psi_side(self.payoff, self.params, self.loss, c, side)
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


def _one(results: list):
    """The result of a one-point solve, or its error raised."""
    got = results[0]
    if isinstance(got, ShortfallHedgeError):
        raise got
    return got


def _cached_on(key):
    """lru_cache keyed on key(*args): the arguments as far as they can move
    the value, so that equivalent calls share one entry."""
    def wrap(fn):
        cached = functools.lru_cache(maxsize=256)(fn)
        call = functools.wraps(fn)(lambda *a, **kw: cached(*key(*a, **kw)))
        call.cache_info = cached.cache_info
        return call
    return wrap


@_cached_on(lambda payoff, params, loss, mc: (
    payoff, params, loss,
    mc if _route_method(payoff, params, loss) == METHOD_MC else None))
def _edges(payoff: Payoff, params: MarketParams, loss: LossSpec,
           mc: Optional[McConfig]):
    """(Psi1 edge, err, Psi2(0), err); the Psi1 edge is E[H] for linear loss
    and the ceiling E[l(H)] = Psi1^p(inf) for power loss.  Cached per
    contract, and per mc only on the Monte Carlo route."""
    ev = _Evaluator(payoff, params, loss, mc)
    c_edge = 0.0 if loss.kind == LINEAR else math.inf
    (p1,), (e1,) = ev.side([c_edge], 1)
    (p2,), (e2,) = ev.side([0.0], 2)
    return float(p1), float(e1), float(p2), float(e2)


@_cached_on(lambda payoff, params, mc=None: (
    payoff, params, mc if payoff.kind == CUSTOM else None))
def price(payoff: Payoff, params: MarketParams,
          mc: Optional[McConfig] = None) -> float:
    """p(H) = e^{-rT} E~[H], computed once per contract, and per mc only
    for Custom payoffs.

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


def _closed(lo: float, hi: float) -> bool:
    """Whether the bracket [lo, hi] is narrow enough to stop bisecting:
    relative to hi, so that a root at c << 1 is found as closely as any."""
    return hi - lo <= 1e-13 * hi


def _predicate_bisection(side: int, target: float, increasing: bool,
                         config: SolveConfig, tol: float):
    """One point's solve: the infimum c of {c : Psi_side(c) reaches target}.

    A generator: it yields each c it reads with its bracket (lo, hi), None
    while no hi is known, is sent (Psi_side(c), err) and returns
    (c, Psi_side(c), err).  The predicate is True strictly left of the
    answer: Psi > target for a nonincreasing side, Psi < target for a
    nondecreasing one.  It runs the predicate at c = 0, doublings from
    hi = 1, midpoints until the bracket is _closed, and a check that the
    value already read at hi is the target within max(tol, 8 err).
    """
    def left(v):
        return v < target if increasing else v > target

    v, err = yield 0.0, None
    if not left(v):
        return 0.0, v, err
    lo, hi = 0.0, 1.0
    v, err = yield hi, None
    doublings = 0
    while left(v):
        doublings += 1
        if doublings > config.max_bracket_expansions:
            raise InfeasibleInversionError(
                f"could not bracket the Psi{side} inversion target "
                f"{target!r} within {config.max_bracket_expansions} doublings")
        lo, hi = hi, 2.0 * hi
        v, err = yield hi, None
    for _ in range(config.bisection_iters):
        if _closed(lo, hi):
            break
        mid = 0.5 * (lo + hi)
        v_mid, err_mid = yield mid, (lo, hi)
        if left(v_mid):
            lo = mid
        else:
            hi, v, err = mid, v_mid, err_mid
    tol = max(tol, 8.0 * err)
    if abs(v - target) <= tol:
        return hi, v, err
    raise InfeasibleInversionError(
        f"Psi{side}({hi:.12g}) = {v:.12g} cannot reach target "
        f"{target:.12g} within tolerance {tol:.3g}: the Psi function jumps "
        "across the target (degenerate or discontinuous case)")


def _secant(memo: dict, bracket, target: float) -> float:
    """The c where the chord between the bracket ends, both in the memo,
    meets target.  The predicate differs at the two ends, so their Psi
    values differ."""
    lo, hi = bracket
    v_lo, v_hi = float(memo[lo][0]), float(memo[hi][0])
    return lo + (target - v_lo) / (v_hi - v_lo) * (hi - lo)


def _path(c: float, bracket, root, n: int) -> list:
    """c and the c's that the next steps of its solve may read, n at most,
    computed as _predicate_bisection computes them.  While there is no
    bracket: c and the doublings after it, as many as a bisection tree of
    n c's has levels.  Below a bracket, down to closed brackets: the
    midpoints toward root if its answer lies there, else (root None) the
    levels of the bisection tree that fit in n c's."""
    depth = (n + 1).bit_length() - 1
    if bracket is None:
        cs = [c]
        for _ in range(depth - 1):
            cs.append(2.0 * cs[-1] if cs[-1] else 1.0)
        return cs
    cs, level = [], [bracket]
    for _ in range(depth if root is None else n):
        below = []
        for lo, hi in level:
            if not _closed(lo, hi):
                mid = 0.5 * (lo + hi)
                cs.append(mid)
                below += ([(lo, mid), (mid, hi)] if root is None
                          else [(mid, hi) if mid < root else (lo, mid)])
        level = below
    return cs


def _bisect(ev: _Evaluator, side: int, targets: dict, increasing: bool,
            config: SolveConfig, scale: float, out: list) -> dict:
    """{point: (c, Psi_side(c), err)} for the {point: target} solves that
    found their c; a solve that raised records its ShortfallHedgeError on
    out[point].

    The points' _predicate_bisection solves run in lockstep and are
    answered from a memo of the Psi_side values read so far.  A step whose
    c's are all in the memo reads nothing; otherwise one _read fills in the
    _path of every running solve, n = _READ_AHEAD_CS // n_live c's each (at
    least 1): toward the _secant estimate of its answer on the quadrature
    route, along its bisection tree on the Monte Carlo route.  A read-ahead
    c is one of the floats its solve would compute, and a Psi value does
    not depend on the other c's of its read, so every solve runs the steps
    and sees the values it would see alone, whatever the estimate; a c
    whose read failed raises only in a solve that reaches it.  On the Monte
    Carlo route a side's first finite c is 1.0 for every n, so its switch
    from masked means to prefix sums (see psi._McSide) comes at the same c.
    Spread/power Psi1 by quadrature, which runs its c's one after another,
    reads only the c of each step (n = 1).  At n = 1 the memo answers
    nothing: the solves run in lockstep from the same doublings, so a c
    that two solves read is read by both at the same step.
    """
    tol = max(config.abs_tol_target * max(1.0, scale),
              1e-7 * max(1.0, scale) if ev.method == METHOD_MC else 0.0)
    one_c = (ev.method == METHOD_QUAD
             and _is_one_c_side(ev.payoff, ev.loss, side))
    solves = {i: _predicate_bisection(side, float(t), increasing, config, tol)
              for i, t in targets.items()}
    at = {i: next(solve) for i, solve in solves.items()}
    memo, solved = {}, {}
    while at:
        if any(c not in memo for c, _bracket in at.values()):
            n = 1 if one_c else max(1, _READ_AHEAD_CS // len(at))
            cs = set()
            for i, (c, bracket) in at.items():
                root = (_secant(memo, bracket, targets[i])
                        if bracket and ev.method == METHOD_QUAD else None)
                cs.update(_path(c, bracket, root, n))
            cs = sorted(cs - memo.keys())
            memo.update(zip(cs, zip(*_read(ev, cs, side))))
        next_at = {}
        for i, (c, _bracket) in at.items():
            v, err, failed = memo[c]
            try:
                next_at[i] = (solves[i].send((v, err)) if failed is None
                              else solves[i].throw(failed))
            except StopIteration as done:
                solved[i] = done.value
            except ShortfallHedgeError as exc:
                out[i] = exc
        at = next_at
    return solved


def _phi1_impl(payoff: Payoff, params: MarketParams, loss: LossSpec, xs,
               config: Optional[SolveConfig], mc: Optional[McConfig]) -> list:
    """Per capital x of the grid xs: (risk, c, err, method, cost_err), or
    the ShortfallHedgeError that x's solve raised.

    cost_err is the standard error of the engine's discounted Psi2 at c,
    the capital the solution spends: the error of the solve's own read of
    Psi2 at c on the MC route, 0 on the quadrature route and at the edges
    x = 0 and x >= p(H).  An error of a step every point shares goes to
    every point that reached it.
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
            solved = _bisect(
                ev, 2, {i: growth * x for i, x in todo.items()},
                increasing=False, config=config, scale=growth * p_h, out=out)
            v1, err1, bad = _read(ev, [c for c, _v, _e in solved.values()], 1)
            for j, (i, (c, _v2, err2)) in enumerate(solved.items()):
                cost_err = (float(err2 / growth) if ev.method == METHOD_MC
                            else 0.0)
                if bad[j] is not None:
                    out[i] = bad[j]
                elif loss.kind == LINEAR:
                    out[i] = (max(psi1_edge - float(v1[j]), 0.0), c,
                              e_edge + float(err1[j]), method, cost_err)
                else:
                    out[i] = (float(v1[j]), c, float(err1[j]), method,
                              cost_err)
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
            targets = {i: psi1_edge - v if loss.kind == LINEAR else v
                       for i, v in todo.items()}
            solved = _bisect(ev, 1, targets, increasing=(loss.kind == POWER),
                             config=config, scale=psi1_edge, out=out)
            v2, err2, bad = _read(ev, [c for c, _v, _e in solved.values()], 2)
            for j, (i, (c, _v1, _e1)) in enumerate(solved.items()):
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
