"""Minimal-shortfall risk Phi1 and cost reduction Phi2 via Psi inversion.

Both theorems reduce the hedging problem to a scalar equation in the
region parameter c:

    phi1(x):  solve Psi2(c) = e^{rT} x, then
              risk = Psi1(0) - Psi1(c)   (linear)
              risk = Psi1^p(c)           (power)
    phi2(v):  solve Psi1(c) = Psi1(0) - v (linear) / Psi1^p(c) = v (power),
              then cost = e^{-rT} Psi2(c)

Psi2 and linear Psi1 are nonincreasing in c, power Psi1 nondecreasing, so
each equation is solved on a sign predicate: the answer is the least c
where Psi reaches the target, and a check that the value read there is
the target within max(tol, 8 err) ends the solve (_checked).

One routine solves every side (_invert, by _Evaluator.invert): a first c
and a bracket (lo, hi] of it, then, by quadrature, Newton's method in ln c
on exact reads, each with its slope dPsi/d ln c, until a step is at most
1e-13, the answer being the c read last (psi._newton).  The targets of a
grid step in lockstep, one read of all running c's a step, and each sees
the values it would see alone.  Where Psi is flat at the target level the
steps have no slope and halve the bracket, and so does a read of the
target itself where one float of it spans more than 1e-13 in ln c, so the
returned c is the infimum of the solution set within 1e-13 also where Psi
only rounds to the target over a stretch.

The sides that read held tables (psi._table_sides: every linear side but
the Outperformance's, both Digital power sides and Spread/power Psi1) find
the first c on them: a search over the knots of the side's held
interpolant and Newton's method on it (psi._SideTable.guess).  A warm
solve so reads the inverted side once or twice.

The other sides (QuantoDomestic/power, QuantoForeign/power,
Outperformance under both losses, Spread/power Psi2) search a fixed
lattice of c's (_lattice, _bracket): c = 0, the answer if it meets the
target, then c = 1 and a walk in ln c from there (_walk), up while reads
miss or down while they meet, to the end of the float range at most, then
the grid of the walk's bracket (_grid, its 15 midpoints of four levels) in
ascending order.  The bracket's hi is the least lattice c whose read meets
the target, its lo the lattice c just below; a walk up that meets nothing
answers c = inf, which _invert refuses, and a walk down that misses nothing
its floor, 2^-1022.  The bracket's ends, with their slopes, give the first
c, a cubic Hermite in (ln Psi, ln c) (psi._hermite, the formula that
starts psi._SideTable.guess).

The points of a grid search in rounds: each names the next lattice c it
needs, and one read takes them all, each with the rest of its block
(_BLOCKS, data built once from _UPS, _DOWNS and _grid): c = 0 and 1 with
the walk's first 13 steps both ways, the walk's later steps two at a time,
the grid of each walk bracket.  A lone solve's first read so takes the walk
up to 2^7 and down to 2^-6, and a later one the whole grid of its bracket.
A Psi value does not depend on its batch, so the blocks only choose which
c's are read together, and a read that fails raises only in a point whose
search reaches its c.  phi1 and phi2 solve a grid of one point; a curve
solves its whole grid at once, on one thread.

Named payoffs evaluate Psi by quadrature; Custom payoffs, and power-loss
cases whose closed-form sign condition fails, fall back to the Monte Carlo
table (psi._McTable): one sample with a fixed (n, seed), so the inverted
function stays deterministic and pathwise monotone in c; a named payoff's
sample is _FALLBACK_MC.  The table is psi._mc_table's, held from solve to
solve until another contract's table or a simulation replaces it, so a
contract's phi1, phi2 and verify_risk draw and sort one sample.  There Psi
is a step function of the sorted keys, closed form in c between two keys,
and the table inverts every target of a grid exactly, in one call
(_invert, psi._McTable.invert): the least float c whose read meets the
target.  A solve so makes two table reads, the inversion and the other
side at the answer, and its check takes a tolerance of 1e-7 max(1, scale):
a target that a step of the table jumps raises InfeasibleInversionError.

For its lattice the solver holds, per contract, the Psi values of each
side at the 515 c's of _HELD_CS, the blocks' c's, with their slopes, as
they are read (_held, an lru_cache of 256 contracts as _edges is), and a
read integrates only the c's it lacks.  _HELD_CS is the lattice: 0, inf,
1, the walk's 32 powers of 2, and the grid of 15 midpoints in each of the
32 walk brackets.  A Psi value does not depend on its batch, so a held
value is the one a new read would give.  A contract's later searches so
read nothing, and a warm solve reads only its Newton steps' c's, 2-4 from
the Hermite start, and the other side at the answer, which needs no
slope: 3-5 reads of one c each.
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
from .market import MarketParams, _real
from .mc import McConfig, _check_mc
from .payoffs import CUSTOM, Payoff
from .psi import (LINEAR, POWER, LossSpec, _check_contract, _hermite,
                  _make_ctx, _mc_table, _newton, _on_table, _psi_side,
                  _side_table, _sign_guard_power, _table_sides)

_FALLBACK_MC = McConfig(n_paths=200_000, seed=1729)
_EDGE_TOL = 1e-9
# the levels of midpoints in ln c that make a walk bracket's grid: its
# 1 + 2 + 4 + 8 c's are one block of _BLOCKS
_GRID_LEVELS = 4
# the most Newton steps that close a bracket, a guard against a hang: a
# bracket within the float range closes in far fewer
_MAX_STEPS = 200

METHOD_QUAD = "quadrature"
METHOD_MC = "monte-carlo"


class SolveConfig:
    """The fixed tolerance of the check that ends a Psi inversion (_invert,
    _checked), a class only because the benchmark reads
    SolveConfig().abs_tol_target."""

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

    On the MC route it reads psi._mc_table's table, one seeded sample that
    the engine holds after the solve for the next call on the same
    contract: mc for a Custom payoff, else (or where mc is None)
    _FALLBACK_MC.  invert inverts that table, and by quadrature every
    side: on its own tables or on the lattice of held c's.
    """

    def __init__(self, payoff: Payoff, params: MarketParams, loss: LossSpec,
                 mc: Optional[McConfig]):
        self.payoff = payoff
        self.params = params
        self.loss = loss
        self.method = _route_method(payoff, params, loss)
        if self.method == METHOD_MC:
            mc = mc if payoff.kind == CUSTOM and mc else _FALLBACK_MC
            self._table = _mc_table(payoff, params, loss, mc.n_paths, mc.seed)

    def side(self, c, side: int, slope: bool = False):
        """(values, errs) of Psi_side at each c of an array, and with slope
        (by quadrature) dPsi/d ln c too; by quadrature only the c's that
        _held lacks, or holds with no slope where one is asked, are
        integrated."""
        if self.method == METHOD_MC:
            v, e = self._table.side(c, side)
            return np.maximum(v, 0.0), e
        held = _held(self.payoff, self.params, self.loss)[side - 1]
        cs = [float(ci) for ci in np.ravel(c)]
        new = [ci for ci in dict.fromkeys(cs)
               if ci not in held or slope and math.isnan(held[ci][2])]
        got = {}
        if new:
            rows = _psi_side(self.payoff, self.params, self.loss, new, side,
                             slope=slope)
            if not slope:
                rows += (np.full(len(new), math.nan),)
            got = dict(zip(new, zip(*(x.tolist() for x in rows))))
            held.update((ci, got[ci]) for ci in new if ci in _HELD_CS)
        rows = np.array([got[ci] if ci in got else held[ci] for ci in cs],
                        dtype=float).reshape(-1, 3).T
        return tuple(rows) if slope else tuple(rows[:2])

    def invert(self, targets, side: int):
        """(c, Psi_side(c), err) at the answer to each target of a list, c
        inf where no float c meets it.

        The Monte Carlo table inverts itself exactly (psi._McTable.invert):
        the least float c that meets the target.  By quadrature a side of
        psi._table_sides (psi._SideTable) finds each target on the model of
        its held node values, knots and all, a target that c = 0 meets
        answering c = 0 with the read there that the table holds; any other
        side finds it on the lattice (_lattice), whose answers at c = 0, at
        the walk's floor and at inf carry their own reads.  From the first
        c in its bracket psi._newton then steps on exact reads, _psi_side
        with the slope dPsi/d ln c that each read returns, until a step in
        ln c is 1e-13 at most."""
        if self.method == METHOD_MC:
            return self._table.invert(targets, side)
        t = np.asarray(targets, dtype=float)
        p = self.loss.p if self.loss.kind == POWER else None
        increasing = side == 1 and p is not None
        if side in _table_sides(self.payoff.kind, p):
            table = _side_table(self.payoff, self.params, self.loss, side)
            at0 = table.v0 >= t if increasing else table.v0 <= t
            c, lo, hi = table.guess(t)
            got = np.array([np.where(at0, 0.0, c), np.full(t.size, table.v0),
                            np.full(t.size, table.e0)])
            run = ~at0 & (c < math.inf)
        else:
            got, lo, hi = _lattice(self, side, t, increasing)
            run = lo < hi
        if run.any():
            got[:, run] = _newton(
                lambda cs: _psi_side(self.payoff, self.params, self.loss, cs,
                                     side, slope=True),
                t[run], increasing, got[0, run], lo[run], hi[run],
                _MAX_STEPS)[:3]
        return tuple(got)


def _split(call, keys, width: int) -> dict:
    """{key: row + (failure,)} over the distinct keys, the rows of the
    arrays that one call(keys) returns, and failure None.  If that call
    raises, each half of the keys is taken in the same way, so that a
    failure is the ShortfallHedgeError of its key taken alone, with a row
    of width NaNs, and the other keys keep their rows: a row does not
    depend on the keys taken with it."""
    keys = list(dict.fromkeys(keys))
    if not keys:
        return {}
    try:
        cols = call(keys)
    except ShortfallHedgeError as exc:
        if len(keys) == 1:
            return {keys[0]: (math.nan,) * width + (exc,)}
        half = len(keys) // 2
        return {**_split(call, keys[:half], width),
                **_split(call, keys[half:], width)}
    return {key: row + (None,)
            for key, row in zip(keys, zip(*(col.tolist() for col in cols)))}


def _read(ev: _Evaluator, c, side: int, slope: bool = False) -> dict:
    """{c: (Psi_side(c), err, failure)} over the distinct c's of c, or with
    slope {c: (Psi_side(c), err, dPsi/d ln c, failure)}, read in one call
    and split on a failure (_split)."""
    return _split(lambda cs: ev.side(np.array(cs, dtype=float), side, slope),
                  c, 3 if slope else 2)


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


def _mc_key(payoff: Payoff, params: MarketParams, mc) -> Optional[McConfig]:
    """mc as far as it moves a value: itself for a Custom payoff, else
    None; ValidationError unless payoff is a Payoff, params a MarketParams
    and mc None or an McConfig, before a cache key hashes them."""
    _check_contract(payoff=payoff, params=params)
    _check_mc(mc)
    return mc if payoff.kind == CUSTOM else None


@_cached_on(lambda payoff, params, loss, mc: (
    payoff, params, loss, _mc_key(payoff, params, mc)))
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
    payoff, params, _mc_key(payoff, params, mc)))
def price(payoff: Payoff, params: MarketParams,
          mc: Optional[McConfig] = None) -> float:
    """p(H) = e^{-rT} E~[H], computed once per contract, and per mc only
    for Custom payoffs.

    E~[H] is Psi2(0) of linear loss, read as _edges reads it
    (_Evaluator.side): held by quadrature for named payoffs, from the Monte
    Carlo table for Custom ones.  A payoff priced on a box (the
    Outperformance's regions) must also move by less than 1e-6 relative
    when its Gaussian truncation widens from 10 to 12 sd, else its tail is
    declared too heavy; a tail table (psi._on_table) takes no box.
    """
    loss = LossSpec(LINEAR)
    v10 = float(_Evaluator(payoff, params, loss, mc).side([0.0], 2)[0][0])
    if payoff.kind != CUSTOM and not _on_table(payoff.kind, None):
        v12 = float(_psi_side(payoff, params, loss, [0.0], 2,
                              trunc_sd=12.0)[0][0])
        if abs(v12 - v10) > 1e-6 * max(abs(v12), 1e-300):
            raise HeavyTailError(
                "truncated-tail contribution to E~[H] exceeds 1e-6 relative "
                f"({abs(v12 - v10):.3g} vs {v12:.6g}); payoff tail too heavy "
                "for the quadrature box")
    return math.exp(-params.r * params.T) * v10


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


def _mid(lo: float, hi: float) -> float:
    """The midpoint of [lo, hi] in ln c."""
    return lo * math.exp(0.5 * math.log(hi / lo))


@functools.lru_cache(maxsize=None)
def _grid(lo: float, hi: float, levels: int) -> tuple:
    """The 2^levels - 1 midpoints in ln c of the bracket [lo, hi] to levels
    levels, in ascending order: the grid of its lower half, its midpoint
    (_mid), the grid of its upper half.  Held: only the 32 walk brackets
    and their parts are asked for."""
    if levels == 0:
        return ()
    mid = _mid(lo, hi)
    return (_grid(lo, mid, levels - 1) + (mid,)
            + _grid(mid, hi, levels - 1))


def _blocks() -> dict:
    """{c: its block}, the c's that a quadrature read takes together.

    The blocks partition the c's that every solve reads before its Newton
    steps, and they hold the size of a grid at most, 2^_GRID_LEVELS - 1 =
    15 c's.  The first is c = 0, 1 and the walk's first steps alternately
    up and down (2^1 .. 2^7 and 2^-1 .. 2^-6).  Then each walk's later
    steps go two at a time, each of the 32 brackets between consecutive
    walk c's has its grid (_grid) as one block, and the edges' c = inf is
    alone.
    """
    both = [c for pair in zip(_UPS, _DOWNS) for c in pair]
    first = ([0.0, 1.0] + both)[:2 ** _GRID_LEVELS - 1]
    blocks = [first, [math.inf]]
    for walk in (_UPS, _DOWNS):
        rest = [c for c in walk if c not in first]
        blocks += [rest[i:i + 2] for i in range(0, len(rest), 2)]
    ups, downs = [1.0] + _UPS, [1.0] + _DOWNS
    for lo, hi in list(zip(ups, ups[1:])) + list(zip(downs[1:], downs)):
        blocks.append(_grid(lo, hi, _GRID_LEVELS))
    return {c: tuple(block) for block in blocks for c in block}


# the walk's c's up and down from c = 1, which every lattice search reads
_UPS, _DOWNS = _walk(True), _walk(False)
_BLOCKS = _blocks()
# the c's whose quadrature values each contract holds (_held)
_HELD_CS = frozenset(_BLOCKS)


@functools.lru_cache(maxsize=256)
def _held(payoff: Payoff, params: MarketParams, loss: LossSpec):
    """({c: (Psi1, err, slope)}, {c: (Psi2, err, slope)}): the quadrature
    values of the contract at the c's of _HELD_CS read so far, with their
    slopes dPsi/d ln c (NaN where a read took none), filled by
    _Evaluator.side.  Threads that read a c at once both integrate it and
    store the same bits."""
    return {}, {}


def _checked(side: int, target: float, tol: float, c: float, v: float,
             err: float):
    """(c, v, err), if Psi_side(c) = v is the target within max(tol, 8 err),
    else InfeasibleInversionError: the check that ends a solve."""
    within = max(tol, 8.0 * err)
    if abs(v - target) <= within:
        return c, v, err
    raise InfeasibleInversionError(
        f"Psi{side}({c:.12g}) = {v:.12g} cannot reach target "
        f"{target:.12g} within tolerance {within:.3g}: the Psi function "
        "jumps across the target (degenerate or discontinuous case)")


def _bracket(memo: dict, target: float, increasing: bool) -> tuple:
    """(lo, hi) for target on the lattice, from memo {c: (Psi_side(c), err,
    slope, failure)}: hi the least lattice c whose read meets target (at
    least it if increasing, at most it otherwise), lo the lattice c just
    below it, or lo None where hi is c = 0, the walk's floor 2^-1022 or
    inf, where no c up to 2^1023 meets it.

    The search reads c = 0, c = 1, the walk from there (_walk) up while
    reads miss or down while they meet, then the grid (_grid) of the walk's
    bracket in ascending order.  A c that memo lacks raises KeyError(c),
    and a c whose read failed raises its failure."""
    def meets(c: float) -> bool:
        v, _err, _slope, failed = memo[c]
        if failed is not None:
            raise failed
        return v >= target if increasing else v <= target

    if meets(0.0):
        return None, 0.0
    up, last = not meets(1.0), 1.0
    for c in _UPS if up else _DOWNS:
        if meets(c) == up:
            break
        last = c
    else:
        return None, math.inf if up else last
    lo, hi = sorted((last, c))
    for c in _grid(lo, hi, _GRID_LEVELS):
        if meets(c):
            return lo, c
        lo = c
    return lo, hi


def _lattice(ev: _Evaluator, side: int, t, increasing: bool) -> tuple:
    """(got, lo, hi) per target of the array t by quadrature: the bracket
    (lo, hi] of _bracket, got[0] its first c for psi._newton (psi._hermite
    through its ends' reads and slopes); or lo NaN and got (c, Psi_side(c),
    err) at an answer that _bracket gives alone.

    The targets search in rounds from a memo of the reads so far: each
    round one _read takes the c that each unfinished search needs next
    with the rest of its block of _BLOCKS, less the memo's c's."""
    memo, ends = {}, [None] * t.size
    while None in ends:
        need = []
        for i, end in enumerate(ends):
            if end is None:
                try:
                    ends[i] = _bracket(memo, float(t[i]), increasing)
                except KeyError as unread:
                    need.append(unread.args[0])
        cs = [b for c in need for b in _BLOCKS.get(c, (c,))]
        memo.update(_read(ev, [c for c in cs if c not in memo], side,
                          slope=True))
    lo, hi = np.array([(math.nan if a is None else a, b)
                       for a, b in ends]).T
    (v_lo, _e, s_lo), (v_hi, e_hi, s_hi) = (
        np.array([memo.get(c, (math.nan,) * 3)[:3] for c in x]).T
        for x in (lo, hi))
    got = np.array([hi, v_hi, e_hi])
    run = lo < hi
    got[0, run] = _hermite(t[run], lo[run], hi[run], v_lo[run], v_hi[run],
                           s_lo[run], s_hi[run])
    return got, lo, hi


def _invert(ev: _Evaluator, side: int, targets: dict, scale: float,
            out: list) -> dict:
    """{point: (c, Psi_side(c), err)} for the {point: target} solves that
    found their c; a solve that raised records its ShortfallHedgeError on
    out[point].

    Every target is inverted at once (_Evaluator.invert), and _checked
    ends each solve but one answered at c = 0, at a tolerance of
    max(1, scale) times SolveConfig's by quadrature, 1e-7 on the Monte
    Carlo route, where Psi_side is a step function of the table's sorted
    keys; an answer at c = inf, where no float c meets the target, raises.
    A failing inversion is split as _split splits it, so that only the
    targets whose own solve fails record its error."""
    tol = (1e-7 if ev.method == METHOD_MC
           else SolveConfig.abs_tol_target) * max(1.0, scale)
    got = _split(lambda ts: ev.invert(ts, side), targets.values(), 3)
    solved = {}
    for i, target in targets.items():
        c, v, err, failed = got[target]
        try:
            if failed is not None:
                raise failed
            if c == math.inf:
                raise InfeasibleInversionError(
                    f"could not bracket the Psi{side} inversion target "
                    f"{target!r}: no float c reaches it")
            v = max(v, 0.0)  # as _Evaluator.side reads it
            solved[i] = _checked(side, target, tol, c, v, err) if c else (
                c, v, err)
        except ShortfallHedgeError as exc:
            out[i] = exc
    return solved


def _phi1_impl(payoff: Payoff, params: MarketParams, loss: LossSpec, xs,
               mc: Optional[McConfig]) -> list:
    """Per capital x of the grid xs: (risk, c, err, method, cost_err), or
    the ShortfallHedgeError that x's solve raised.

    cost_err is the standard error of the engine's discounted Psi2 at c,
    the capital the solution spends: the error of the solve's own read of
    Psi2 at c on the MC route, 0 on the quadrature route and at the edges
    x = 0 and x >= p(H).  An error of a step every point shares goes to
    every point that reached it; a payoff, params or loss of the wrong type
    raises ValidationError.
    """
    _check_contract(payoff=payoff, params=params, loss=loss)
    out: list = [ValidationError([f"x: must be a real number, got {x!r}"])
                 if math.isnan(_real(x)) else None for x in xs]
    if all(out):
        return out
    try:
        method = _route_method(payoff, params, loss)
        p_h = price(payoff, params, mc)
        todo = {}
        for i, x in [(i, float(x)) for i, x in enumerate(xs) if not out[i]]:
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
            solved = _invert(ev, 2, {i: growth * x for i, x in todo.items()},
                             growth * p_h, out)
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
    _check_contract(payoff=payoff, params=params, loss=loss)
    out: list = [ValidationError([f"v: must be a real number, got {v!r}"])
                 if math.isnan(_real(v)) else None for v in vs]
    if all(out):
        return out
    try:
        method = _route_method(payoff, params, loss)
        psi1_edge, _e1, psi2_full, e2 = _edges(payoff, params, loss, mc)
        disc = math.exp(-params.r * params.T)
        todo = {}
        for i, v in [(i, float(v)) for i, v in enumerate(vs) if not out[i]]:
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
            solved = _invert(ev, 1, targets, psi1_edge, out)
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
    _check_mc(mc)
    try:
        grid = [_real(g) for g in grid]
    except TypeError:
        raise ValidationError(
            [f"grid: must be a sequence of reals, got {grid!r}"]) from None
    if not grid:
        raise ValidationError(["grid: must contain at least one point"])
    if not all(g >= 0 for g in grid):
        raise ValidationError(["grid: all points must be nonnegative reals"])
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
