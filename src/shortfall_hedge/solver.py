"""Minimal-shortfall risk Phi1 and cost reduction Phi2 via Psi inversion.

Both theorems reduce the hedging problem to a scalar equation in the
region parameter c:

    phi1(x):  solve Psi2(c) = e^{rT} x, then
              risk = Psi1(0) - Psi1(c)   (linear)
              risk = Psi1^p(c)           (power)
    phi2(v):  solve Psi1(c) = Psi1(0) - v (linear) / Psi1^p(c) = v (power),
              then cost = e^{-rT} Psi2(c)

Psi2 and linear Psi1 are nonincreasing in c, power Psi1 nondecreasing, so
each equation is solved on a sign predicate, in u = ln c: a walk from c = 1
finds a bracket, and Chandrupatla's (1997) derivative-free hybrid of
inverse quadratic interpolation and bisection closes it; where the function
is flat at the target level the returned c is the infimum of the solution
set (the predicate flips exactly at the left endpoint).  On the Monte Carlo
route Psi is a step function, on which an interpolant predicts nothing, and
every step bisects ln c.

Each point's solve is one generator, _predicate_bisection: plain code that
yields every c it reads and is sent Psi(c) back.  The check at the end uses
the value already read at the answer, so a solve reads each c once.  The
solve functions take a grid of inputs and drive the points' generators in
lockstep (_bisect), answering them from a memo of the Psi values read so
far.  With each c a solve also yields a function that lists the c's its
next steps compute without a new Psi value: the walk's next steps (both
ways, up to 2^+-7, while the direction is unknown), and once bracketed the
midpoint and the two clamped points of either new bracket, or on the Monte
Carlo route the levels of the bisection tree.  A read takes every running
point's c and the first 15 // (points running) - 1 of its listed c's (the
Psi sides take c-arrays).  A single solve so makes 5-10 reads of 37-59 c's
by quadrature and 12 by Monte Carlo, and a 21-point curve 12-23 reads
instead of about 50.  The read-ahead c's are floats the solve computes and
a Psi value does not depend on its batch, so read-ahead only chooses which
c's are read: every point runs the same steps, with the same values, as it
does alone.  phi1 and phi2 solve a grid of one point; a curve solves its
whole grid at once, on one thread.

Named payoffs evaluate Psi by quadrature; Custom payoffs, and power-loss
cases whose closed-form sign condition fails, fall back to the Monte Carlo
table (psi._McTable): one sample with a fixed (n, seed) per solve, so the
inverted function stays deterministic and pathwise monotone in c; a named
payoff's sample is _FALLBACK_MC.  Both routes read ahead, except on
Spread/power Psi1 by quadrature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import (AssumptionViolatedError, HeavyTailError,
                     InfeasibleInversionError, OutOfRangeError,
                     ShortfallHedgeError, ValidationError)
from .market import MarketParams
from .mc import McConfig
from .payoffs import CUSTOM, Payoff
from .psi import (LINEAR, POWER, LossSpec, _is_one_c_side, _make_ctx,
                  _McTable, _psi_side, _sign_guard_power)

_FALLBACK_MC = McConfig(n_paths=200_000, seed=1729)
_EDGE_TOL = 1e-9
# the most c's one solve asks a _bisect read for (see _ahead)
_READ_AHEAD_CS = 15
# the most steps that close a bracket, a guard against a hang: a bracket
# within the float range closes in far fewer
_MAX_STEPS = 200

METHOD_QUAD = "quadrature"
METHOD_MC = "monte-carlo"


class SolveConfig:
    """The fixed tolerance of the check that ends a Psi inversion (_bisect),
    a class only because the benchmark reads SolveConfig().abs_tol_target."""

    abs_tol_target = 1e-9


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
    solve, dropped with the evaluator: mc for a Custom payoff, else (or
    where mc is None) _FALLBACK_MC.
    """

    def __init__(self, payoff: Payoff, params: MarketParams, loss: LossSpec,
                 mc: Optional[McConfig]):
        self.payoff = payoff
        self.params = params
        self.loss = loss
        self.method = _route_method(payoff, params, loss)
        if self.method == METHOD_MC:
            mc = mc if payoff.kind == CUSTOM and mc else _FALLBACK_MC
            self._table = _McTable(payoff, params, loss, mc.n_paths, mc.seed)

    def side(self, c, side: int):
        """(values, errs) of Psi_side at each c of an array."""
        if self.method == METHOD_QUAD:
            return _psi_side(self.payoff, self.params, self.loss, c, side)
        v, e = self._table.side(c, side)
        return np.maximum(v, 0.0), e


def _read(ev: _Evaluator, c, side: int) -> dict:
    """{c: (Psi_side(c), err, failure)} over the distinct c's of c, read in
    their order in one call.  If that call raises, each c is read alone, so
    that a failure is the ShortfallHedgeError of that c alone (else None)
    and the other c's keep their values."""
    cs = list(dict.fromkeys(c))
    failed = [None] * len(cs)
    if not cs:
        return {}
    try:
        v, e = ev.side(np.array(cs, dtype=float), side)
    except ShortfallHedgeError:
        v, e = np.full(len(cs), math.nan), np.full(len(cs), math.nan)
        for j, cj in enumerate(cs):
            try:
                (v[j],), (e[j],) = ev.side(np.array([cj]), side)
            except ShortfallHedgeError as exc:
                failed[j] = exc
    return {cj: (float(v[j]), float(e[j]), failed[j])
            for j, cj in enumerate(cs)}


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
    payoff, params, loss, mc if payoff.kind == CUSTOM else None))
def _edges(payoff: Payoff, params: MarketParams, loss: LossSpec,
           mc: Optional[McConfig]):
    """(Psi1 edge, err, Psi2(0), err); the Psi1 edge is E[H] for linear loss
    and the ceiling E[l(H)] = Psi1^p(inf) for power loss.  Cached per
    contract, and per mc only for Custom payoffs."""
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
    Custom payoffs price by Monte Carlo: Psi2(0) of their linear _edges.
    """
    disc = math.exp(-params.r * params.T)
    loss = LossSpec(LINEAR)
    if payoff.kind == CUSTOM:
        return disc * _edges(payoff, params, loss, mc)[2]
    v10 = float(_psi_side(payoff, params, loss, [0.0], 2, trunc_sd=10.0)[0][0])
    v12 = float(_psi_side(payoff, params, loss, [0.0], 2, trunc_sd=12.0)[0][0])
    if abs(v12 - v10) > 1e-6 * max(abs(v12), 1e-300):
        raise HeavyTailError(
            "truncated-tail contribution to E~[H] exceeds 1e-6 relative "
            f"({abs(v12 - v10):.3g} vs {v12:.6g}); payoff tail too heavy "
            "for the quadrature box")
    return disc * v10


def _closed(lo: float, hi: float) -> bool:
    """Whether the bracket [lo, hi] is narrow enough to stop stepping:
    relative to hi, so that a root at c << 1 is found as closely as any."""
    return hi - lo <= 1e-13 * hi


def _walk(up: bool) -> list:
    """The 16 c's of the walk from c = 1, up or down: 2^(+-k) for
    k = 1..7, then steps in ln c that double each time (2^(+-9), 2^(+-13),
    2^(+-21), ...), up to the largest power of 2, 2^1023, or down to the
    smallest normal float, 2^-1022 (sys.float_info.min)."""
    top = 1023 if up else 1022
    cs, e, step = [], 0, 1
    while e < top:
        step *= 2 if len(cs) >= 7 else 1
        e = min(e + step, top)
        cs.append(math.ldexp(1.0, e if up else -e))
    return cs


def _tl(lo: float, hi: float) -> float:
    """Chandrupatla's clamp t_l: the fraction of [lo, hi] in ln c that is
    half the width at which _closed stops, so that a step that close to an
    end closes the bracket when the root lies between."""
    return min(0.5, 0.5e-13 / math.log(hi / lo))


def _at(lo: float, hi: float, s: float) -> float:
    """The c at fraction s of [lo, hi] in ln c, counted from the nearer end
    so that a step next to either end keeps its distance from it."""
    span = math.log(hi / lo)
    if s <= 0.5:
        return lo * math.exp(s * span)
    return hi * math.exp((s - 1.0) * span)


class _Point(NamedTuple):
    """A c a solve has read: Psi(c) = v with its err, and f = Psi - target
    signed to be negative exactly left of the answer."""

    c: float
    f: float
    v: float
    err: float


def _chandrupatla(a: _Point, b: _Point, third: Optional[_Point]) -> float:
    """Chandrupatla's (1997) step from the newest point a toward the other
    end b of the bracket, as a fraction t of [a, b] in ln c.

    third is the point that a displaced (None before the first step).
    Inverse quadratic interpolation through a, b and third where his
    (xi, Phi) test finds it monotone over the bracket, else t = 1/2; also
    t = 1/2 when f(a) = 0, so that a stretch of Psi flat at the target
    bisects to its left edge.
    """
    if third is None or a.f == 0.0:
        return 0.5
    (ca, fa), (cb, fb), (cc, fc) = a[:2], b[:2], third[:2]
    xi = math.log(ca / cb) / math.log(cc / cb)
    phi = (fa - fb) / (fc - fb)
    if not (phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi):
        return 0.5
    alpha = math.log(cc / ca) / math.log(cb / ca)
    return (fa / (fb - fa) * fc / (fb - fc)
            + alpha * fa / (fc - fa) * fb / (fc - fb))


def _ahead(lo: float, x: float, hi: float, interpolate: bool) -> list:
    """The c's that the step after a read at x in (lo, hi) computes without
    x's value, whichever side of the answer x lies on, _READ_AHEAD_CS - 1 at
    most: with interpolation, the two clamped points and the midpoint of
    each new bracket; without, the levels of the bisection tree below x."""
    cs, level = [], [(lo, x), (x, hi)]
    while level and len(cs) < _READ_AHEAD_CS - 1:
        below = []
        for a, b in level:
            if _closed(a, b):
                continue
            if interpolate:
                tl = _tl(a, b)
                cs += [_at(a, b, tl), _at(a, b, 1.0 - tl), _at(a, b, 0.5)]
            else:
                mid = _at(a, b, 0.5)
                cs.append(mid)
                below += [(a, mid), (mid, b)]
        level = below
    return cs[:_READ_AHEAD_CS - 1]


def _predicate_bisection(side: int, target: float, increasing: bool,
                         tol: float, interpolate: bool):
    """One point's solve: the infimum c of {c : Psi_side(c) reaches target}.

    A generator: it yields (c, ahead), the c it reads now and a function
    that lists the c's its next steps compute without a new Psi value, is
    sent (Psi_side(c), err) and returns (c, Psi_side(c), err).
    With f = Psi - target for a nondecreasing side and target - Psi for a
    nonincreasing one (_Point), the predicate "f < 0" is True exactly left
    of the answer.

    It reads c = 0, then walks from c = 1 (_walk) up while f < 0 or down
    while f >= 0, to the end of the float range at most; until then it
    reads ahead the walk's next steps, both ways while the direction is
    unknown.  A bracket found, it takes _MAX_STEPS steps at most until the
    bracket is _closed: Chandrupatla's (_chandrupatla) if interpolate, else
    bisection in ln c, each clamped to [t_l, 1 - t_l] of the bracket (_tl)
    and placed by _at.  The answer is the bracket's right end hi, and a
    check that the value already read there is the target within
    max(tol, 8 err).  A walk up that finds no bracket raises; a walk down
    that finds none checks its last c.
    """
    def point(c, v, err):
        return _Point(c, v - target if increasing else target - v, v, err)

    def checked(hi: _Point):
        within = max(tol, 8.0 * hi.err)
        if abs(hi.v - target) <= within:
            return hi.c, hi.v, hi.err
        raise InfeasibleInversionError(
            f"Psi{side}({hi.c:.12g}) = {hi.v:.12g} cannot reach target "
            f"{target:.12g} within tolerance {within:.3g}: the Psi function "
            "jumps across the target (degenerate or discontinuous case)")

    ups, downs = _walk(True), _walk(False)
    both = [c for pair in zip(ups, downs) for c in pair]
    v, err = yield 0.0, lambda: [1.0] + both
    if point(0.0, v, err).f >= 0.0:
        return 0.0, v, err
    last = point(1.0, *(yield 1.0, lambda: both))
    walk = ups if last.f < 0.0 else downs
    for k, c in enumerate(walk):
        # the next step: the walk's next c, or the bracket's midpoint
        a = point(c, *(yield c, lambda: walk[k + 1:k + 2] + [
            _at(min(c, last.c), max(c, last.c), 0.5)]))
        if (a.f < 0.0) != (last.f < 0.0):
            break
        last = a
    else:
        if walk is ups:
            raise InfeasibleInversionError(
                f"could not bracket the Psi{side} inversion target "
                f"{target!r} within {len(ups)} walk steps up to "
                f"c = {last.c!r}")
        return checked(last)
    b, third = last, None
    for _ in range(_MAX_STEPS):
        lo, hi = (a.c, b.c) if a.f < 0.0 else (b.c, a.c)
        if _closed(lo, hi):
            break
        t = _chandrupatla(a, b, third) if interpolate else 0.5
        tl = _tl(lo, hi)
        x = _at(lo, hi, min(1.0 - tl, max(tl, t if a.f < 0.0 else 1.0 - t)))
        new = point(x, *(yield x, functools.partial(_ahead, lo, x, hi,
                                                    interpolate)))
        if (new.f < 0.0) == (a.f < 0.0):
            third = a
        else:
            third, b = b, a
        a = new
    return checked(a if a.f >= 0.0 else b)


def _bisect(ev: _Evaluator, side: int, targets: dict, increasing: bool,
            scale: float, out: list) -> dict:
    """{point: (c, Psi_side(c), err)} for the {point: target} solves that
    found their c; a solve that raised records its ShortfallHedgeError on
    out[point].

    The points' _predicate_bisection solves run in lockstep and are
    answered from a memo of the Psi_side values read so far: Chandrupatla
    steps on the quadrature route, bisection in ln c on the Monte Carlo
    route, where Psi is a step function on which an interpolant predicts
    nothing.  A step whose c's are all in the memo reads nothing; otherwise
    one _read takes, from every running solve, its current c and the first
    n - 1 of the c's its next steps compute without a new value, n =
    _READ_AHEAD_CS // n_live (at least 1).  Those are the floats the
    solve computes, and a Psi value does not depend on the other c's of its
    read, so every solve runs the steps and sees the values it would see
    alone; a c whose read failed raises only in a solve that reaches it.
    A read takes its c's in the order the solves yield them, so on the
    Monte Carlo route a side's first finite c is 1.0 for every n, and its
    switch from masked means to prefix sums (see psi._McSide) comes at the
    same c.  Spread/power Psi1 by quadrature, which runs its c's one after
    another, reads only the c of each step (n = 1).  At n = 1 the memo
    answers nothing: the solves run in lockstep from the same walk, so a c
    that two solves read is read by both at the same step.
    """
    tol = max(SolveConfig.abs_tol_target * max(1.0, scale),
              1e-7 * max(1.0, scale) if ev.method == METHOD_MC else 0.0)
    one_c = (ev.method == METHOD_QUAD
             and _is_one_c_side(ev.payoff, ev.loss, side))
    solves = {i: _predicate_bisection(side, float(t), increasing, tol,
                                      ev.method == METHOD_QUAD)
              for i, t in targets.items()}
    at = {i: next(solve) for i, solve in solves.items()}
    memo, solved = {}, {}
    while at:
        if any(c not in memo for c, _next in at.values()):
            n = 1 if one_c else max(1, _READ_AHEAD_CS // len(at))
            cs = []
            for c, next_cs in at.values():
                cs += [c] + (next_cs()[:n - 1] if n > 1 else [])
            memo.update(_read(ev, [c for c in cs if c not in memo], side))
        next_at = {}
        for i, (c, _next) in at.items():
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
               mc: Optional[McConfig]) -> list:
    """Per capital x of the grid xs: (risk, c, err, method, cost_err), or
    the ShortfallHedgeError that x's solve raised.

    cost_err is the standard error of the engine's discounted Psi2 at c,
    the capital the solution spends: the error of the solve's own read of
    Psi2 at c on the MC route, 0 on the quadrature route and at the edges
    x = 0 and x >= p(H).  An error of a step every point shares goes to
    every point that reached it.
    """
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
                increasing=False, scale=growth * p_h, out=out)
            got = _read(ev, sorted(c for c, _v, _e in solved.values()), 1)
            for i, (c, _v2, err2) in solved.items():
                v1, err1, bad = got[c]
                cost_err = err2 / growth if ev.method == METHOD_MC else 0.0
                if bad is not None:
                    out[i] = bad
                elif loss.kind == LINEAR:
                    out[i] = (max(psi1_edge - v1, 0.0), c, e_edge + err1,
                              method, cost_err)
                else:
                    out[i] = (v1, c, err1, method, cost_err)
    except ShortfallHedgeError as exc:
        out = [exc if got is None else got for got in out]
    return out


def phi1(payoff: Payoff, params: MarketParams, loss: LossSpec, x: float, *,
         mc: Optional[McConfig] = None) -> tuple[float, float]:
    """(minimal shortfall risk at capital x, region parameter c).

    x >= p(H) affords a full hedge: risk 0 with c = 0 (A_c is everything).
    x = 0 hedges nothing: the full E[l(H)] with the empty-region sentinel
    c = inf.  The modified claim identified by c is H 1_{A_c} (linear) or
    (H - (c Z~_T)^{1/(p-1)})^+ (power).  mc is the sample of a Custom
    payoff only (see _Evaluator).
    """
    risk, c = _one(_phi1_impl(payoff, params, loss, [x], mc))[:2]
    return risk, c


def _phi2_impl(payoff: Payoff, params: MarketParams, loss: LossSpec, vs,
               mc: Optional[McConfig]) -> list:
    """Per risk bound v of the grid vs: (cost, c, err, method), or the
    ShortfallHedgeError that v's solve raised."""
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
                             scale=psi1_edge, out=out)
            got = _read(ev, sorted(c for c, _v, _e in solved.values()), 2)
            for i, (c, _v1, _e1) in solved.items():
                v2, err2, bad = got[c]
                out[i] = bad if bad is not None else (
                    disc * v2, c, disc * err2, method)
    except ShortfallHedgeError as exc:
        out = [exc if got is None else got for got in out]
    return out


def phi2(payoff: Payoff, params: MarketParams, loss: LossSpec, v: float, *,
         mc: Optional[McConfig] = None) -> tuple[float, float]:
    """(cheapest capital whose minimal risk is at most v, parameter c).

    v = 0 requires the full price p(H) (c = 0); v at or above the risk
    ceiling (E[H] linear, E[l(H)] power) costs nothing, reported with the
    empty-region sentinel c = inf.  mc is as in phi1.
    """
    cost, c, _err, _method = _one(_phi2_impl(payoff, params, loss, [v], mc))
    return cost, c


def curve(payoff: Payoff, params: MarketParams, loss: LossSpec, kind: str,
          grid, *, mc: Optional[McConfig] = None) -> RiskCurve:
    """phi1/phi2 over a sorted grid, all points solved in lockstep; each
    point's value is that of its one-point solve.  Failures are recorded
    on the point (value and c become NaN) instead of aborting the curve.
    mc is as in phi1."""
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
    for g, got in zip(grid, impl(payoff, params, loss, grid, mc)):
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
