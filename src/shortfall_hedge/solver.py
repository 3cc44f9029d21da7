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

By quadrature the sides that read held tables (psi._table_sides: every
linear side but the Outperformance's, both Digital power sides and
Spread/power Psi1) invert on them (_Evaluator.invert, by _invert): a
search over the knots of the side's held interpolant and Newton's method
on it give a first c (psi._SideTable.guess), and Newton's method in ln c
on exact reads, each with its slope dPsi/d ln c, ends at the c read last
once a step is at most 1e-13 (psi._newton).  A warm solve so reads the
inverted side once or twice, and a curve steps all its targets in
lockstep, one read per step.

The other sides (QuantoDomestic/power, QuantoForeign/power,
Outperformance under both losses, Spread/power Psi2) are bracketed by a
walk (_bisect) in u = ln c: a walk from c = 1 finds a bracket and
_GRID_LEVELS = 4 bisection steps narrow it to 1/16, every read with its
slope.  Each point's walk is one generator, _predicate_bisection: plain
code that yields every c it reads, is sent Psi(c) back and returns the
bracket.  The solve functions take a grid of inputs and drive the points'
generators in lockstep (_bisect), answering them from a memo of the Psi
values read so far.  Each bracket's ends then give a first c, a cubic
Hermite in (ln Psi, ln c) through them (psi._hermite, the formula that
starts psi._SideTable.guess), and one lockstep psi._newton closes every
bracketed point on exact reads with their slopes, as on a table side.
Where Psi is flat at the target level the steps have no slope and halve
the bracket, and so does a read of the target itself where one float of
it spans more than 1e-13 in ln c, so the returned c is the infimum of the
solution set within 1e-13 also where Psi only rounds to the target over a
stretch.

A walk's read takes each running c that the memo lacks with the rest of
its block (_BLOCKS, data built once from _UPS, _DOWNS and _grid): the c's
that a walk reads fall into fixed blocks of 15 c's at most -- c = 0 and 1
with the walk's first 13 steps both ways, the walk's later steps two at a
time, the grid of each walk bracket.  A lone solve's first read so takes
the walk up to 2^7 and down to 2^-6, and its first bisection step the
whole grid of its bracket.  A Psi value does not depend on its batch, so
the blocks only choose which c's are read together: every point runs the
same steps, with the same values, as it does alone.  phi1 and phi2 solve
a grid of one point; a curve solves its whole grid at once, on one thread.

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

For its walks the solver holds, per contract, the Psi values of each side
at the 515 c's of _HELD_CS, the blocks' c's, with their slopes, as they
are read (_held, an lru_cache of 256 contracts as _edges is), and a read
integrates only the c's it lacks.  _HELD_CS is every c that a walk reads:
0, inf, 1, the walk's 32 powers of 2, and the grid of 15 midpoints that
the four bisection steps can read in each of the 32 walk brackets.  A Psi
value does not depend on its batch, so a held value is the one a new read
would give.  A contract's later walks so read nothing, and a warm solve
reads only its Newton steps' c's, 2-4 from the Hermite start, and the
other side at the answer, which needs no slope: 3-5 reads of one c each.
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
from .market import MarketParams, _real
from .mc import McConfig, _check_mc
from .payoffs import CUSTOM, Payoff
from .psi import (LINEAR, POWER, LossSpec, _hermite, _make_ctx, _mc_table,
                  _newton, _on_table, _psi_side, _side_table,
                  _sign_guard_power, _table_sides)

_FALLBACK_MC = McConfig(n_paths=200_000, seed=1729)
_EDGE_TOL = 1e-9
# the bisection steps that narrow every bracket of the walk: their 1 + 2 +
# 4 + 8 c's, a bracket's grid, are one block of _BLOCKS
_GRID_LEVELS = 4
# the most Newton steps that close a bracket, a guard against a hang: a
# bracket within the float range closes in far fewer
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

    On the MC route it reads psi._mc_table's table, one seeded sample that
    the engine holds after the solve for the next call on the same
    contract: mc for a Custom payoff, else (or where mc is None)
    _FALLBACK_MC.  invert inverts that table, and by quadrature each side
    of psi._table_sides on its own tables; _bisect solves the others.
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

    def inverts(self, side: int) -> bool:
        """Whether invert solves side: the Monte Carlo table's both, by
        quadrature the sides that read held tables."""
        p = self.loss.p if self.loss.kind == POWER else None
        return (self.method == METHOD_MC
                or side in _table_sides(self.payoff.kind, p))

    def invert(self, targets, side: int):
        """(c, Psi_side(c), err) at the answer to each target of a list, c
        inf where no float c meets it.

        The Monte Carlo table inverts itself exactly (psi._McTable.invert):
        the least float c that meets the target.  A quadrature table side
        (psi._SideTable) finds each target on the model of its held node
        values, knots and all, and psi._newton then steps on exact reads,
        _psi_side with the slope dPsi/d ln c that each read returns, until
        a step in ln c is 1e-13 at most.  A target that c = 0 meets answers
        c = 0, with the read there that the table holds."""
        if self.method == METHOD_MC:
            return self._table.invert(targets, side)
        t = np.asarray(targets, dtype=float)
        table = _side_table(self.payoff, self.params, self.loss, side)
        at0 = table.v0 >= t if table.increasing else table.v0 <= t
        c, lo, hi = table.guess(t)
        got = np.array([np.where(at0, 0.0, c), np.full(t.size, table.v0),
                        np.full(t.size, table.e0)])
        run = ~at0 & (c < math.inf)
        if run.any():
            got[:, run] = _newton(
                lambda cs: _psi_side(self.payoff, self.params, self.loss, cs,
                                     side, slope=True),
                t[run], table.increasing, c[run], lo[run], hi[run],
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


def _mc_key(payoff: Payoff, mc) -> Optional[McConfig]:
    """mc as far as it moves a value: itself for a Custom payoff, else
    None; ValidationError unless it is None or an McConfig."""
    _check_mc(mc)
    return mc if payoff.kind == CUSTOM else None


@_cached_on(lambda payoff, params, loss, mc: (
    payoff, params, loss, _mc_key(payoff, mc)))
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
    payoff, params, _mc_key(payoff, mc)))
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


def _grid(lo: float, hi: float, levels: int) -> list:
    """The 2^levels - 1 midpoints in ln c that levels bisection steps from
    the bracket [lo, hi] can read, each built by _mid as a step builds it."""
    if levels == 0:
        return []
    mid = _mid(lo, hi)
    return ([mid] + _grid(lo, mid, levels - 1)
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


# the walk's c's up and down from c = 1, read by every _predicate_bisection
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


class _Point(NamedTuple):
    """A c a solve has read: Psi(c) = v with its err and its slope
    dPsi/d ln c."""

    c: float
    v: float
    err: float
    slope: float


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


def _predicate_bisection(side: int, target: float, increasing: bool):
    """One point's bracket of the infimum c of {c : Psi_side(c) meets
    target}, at least it on a nondecreasing side, at most it otherwise.

    A generator: it yields each c it reads, is sent (Psi_side(c), err,
    slope) and returns the bracket's ends (lo, hi) as _Points, lo missing
    the target and hi meeting it, or (None, the answer's _Point).  It reads
    c = 0, the answer if it meets the target, then walks from c = 1
    (_walk) up while a read misses or down while it meets, to the end of
    the float range at most; a walk up that finds no bracket raises, and a
    walk down that finds none answers its last c.  The bracket found,
    _GRID_LEVELS bisection steps in ln c narrow it to 1/16, on c's (_grid)
    that are the same for every target in the walk's bracket.
    """
    def meets(p: _Point) -> bool:
        return p.v >= target if increasing else p.v <= target

    at0 = _Point(0.0, *(yield 0.0))
    if meets(at0):
        return None, at0
    last = _Point(1.0, *(yield 1.0))
    walk = _DOWNS if meets(last) else _UPS
    for c in walk:
        a = _Point(c, *(yield c))
        if meets(a) != meets(last):
            break
        last = a
    else:
        if walk is _UPS:
            raise InfeasibleInversionError(
                f"could not bracket the Psi{side} inversion target "
                f"{target!r} within {len(_UPS)} walk steps up to "
                f"c = {last.c!r}")
        return None, last
    lo, hi = (last, a) if meets(a) else (a, last)
    for _ in range(_GRID_LEVELS):
        c = _mid(lo.c, hi.c)
        new = _Point(c, *(yield c))
        lo, hi = (lo, new) if meets(new) else (new, hi)
    return lo, hi


def _bisect(ev: _Evaluator, side: int, targets: dict, scale: float,
            out: list) -> dict:
    """{point: (c, Psi_side(c), err)} for the {point: target} solves that
    found their c, by quadrature; a solve that raised records its
    ShortfallHedgeError on out[point].

    The points' _predicate_bisection walks run in lockstep and are answered
    from a memo of the Psi_side values read so far, each with its slope.
    A step whose c's are all in the memo reads nothing; otherwise one _read
    takes every running c that the memo lacks with the rest of its block
    of _BLOCKS, less the memo's c's.  A Psi value does not depend on the
    other c's of its read, so every walk runs the steps and sees the values
    it would see alone; a c whose read failed raises only in a walk that
    reaches it.

    Each bracket's ends, with their slopes, then give a first c
    (psi._hermite), and one lockstep psi._newton steps every bracketed
    point on exact reads, each with its slope, until a step in ln c is
    1e-13 at most, the answer being the c read last, or until the bracket
    closes on the least c of a stretch that reads the target.  A failing
    Newton read is split as _split splits it, so that only the points
    whose own steps fail record its error.  _checked ends every solve but
    one answered at c = 0.
    """
    tol = SolveConfig.abs_tol_target * max(1.0, scale)
    increasing = side == 1 and ev.loss.kind == POWER
    solves = {i: _predicate_bisection(side, float(t), increasing)
              for i, t in targets.items()}
    at = {i: next(solve) for i, solve in solves.items()}
    memo, ends = {}, {}
    while at:
        cs = [b for c in at.values() if c not in memo
              for b in _BLOCKS.get(c, (c,))]
        memo.update(_read(ev, [c for c in cs if c not in memo], side,
                          slope=True))
        next_at = {}
        for i, c in at.items():
            *got, failed = memo[c]
            try:
                next_at[i] = (solves[i].send(tuple(got)) if failed is None
                              else solves[i].throw(failed))
            except StopIteration as done:
                ends[i] = done.value
            except ShortfallHedgeError as exc:
                out[i] = exc
        at = next_at
    row = {i: r for r, i in enumerate(
        i for i, (lo, _hi) in ends.items() if lo is not None)}
    t = np.array([targets[i] for i in row], dtype=float)
    lo, hi = (_Point(*np.array([ends[i][end] for i in row], dtype=float)
                     .reshape(-1, 4).T) for end in (0, 1))
    start = _hermite(t, lo.c, hi.c, lo.v, hi.v, lo.slope, hi.slope)

    def newton(points):
        r = np.array([row[i] for i in points])
        return _newton(
            lambda cs: _psi_side(ev.payoff, ev.params, ev.loss, cs, side,
                                 slope=True),
            t[r], increasing, start[r], lo.c[r], hi.c[r], _MAX_STEPS)[:3]

    got = _split(newton, row, 3)
    solved = {}
    for i, (_lo, answer) in ends.items():
        c, v, err, failed = got[i] if i in row else (*answer[:3], None)
        try:
            if failed is not None:
                raise failed
            solved[i] = _checked(side, targets[i], tol, c, v, err) if c else (
                c, v, err)
        except ShortfallHedgeError as exc:
            out[i] = exc
    return solved


def _invert(ev: _Evaluator, side: int, targets: dict, scale: float,
            out: list) -> dict:
    """_bisect's result where the side is a table (_Evaluator.inverts):
    the table inverts every target at once (_Evaluator.invert), and
    _checked ends each solve at a tolerance of max(1, scale) times
    SolveConfig's by quadrature, 1e-7 on the Monte Carlo route, where
    Psi_side is a step function of the table's sorted keys.  A failing
    inversion is split as _split splits it, so that only the targets whose
    own solve fails record its error."""
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
    every point that reached it.
    """
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
            solve = _invert if ev.inverts(2) else _bisect
            solved = solve(ev, 2, {i: growth * x for i, x in todo.items()},
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
            solve = _invert if ev.inverts(1) else _bisect
            solved = solve(ev, 1, targets, psi1_edge, out)
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
