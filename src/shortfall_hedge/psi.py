"""Auxiliary shortfall functions Psi1(c), Psi2(c) per payoff and loss.

Linear loss uses the success set A_c = {Z~^-1 >= c}; power loss l(x)=x^p/p
uses A_c = {c Z~ <= H^(p-1)}.  Definitions:

    linear:  Psi1(c) = E[H 1_Ac]                Psi2(c) = E~[H 1_Ac]
    power:   Psi1(c) = (1/p) E[H^p 1_{Ac^c}]
                       + (1/p) E[(c Z~)^(p/(p-1)) 1_Ac]
             Psi2(c) = E~[(H - (c Z~)^(1/(p-1))) 1_Ac]

Each side integrates one of three payoff shapes:

- Tail tables (_TailTable): every linear side but the Outperformance's,
  and the Digital under power loss.  A_c = {Y >= u} is a half-plane in
  Y = A1 W1 + A2 W2 ~ N(0, v), u = ln c - BT (less (p-1) ln K for the
  Digital under power loss, whose A_c lies in {H = K}).  On the line
  Y = y, ln S1 and ln S2 are affine in one standard normal xi, so g(y) =
  E[H | Y = y] is closed-form tilted interval masses, and each side is a
  tail in y of one c-independent integrand phi_v(y) e^(-gamma y) g(y),
  held as panels with suffix and prefix sums: a read at c is a suffix sum
  plus one K15 partial panel.  _table_side states the formulas.  The
  panels keep their node values, so that the side is also a piecewise
  polynomial in u, its model (_SideTable), and a read can return
  dPsi/d ln c from it (_psi_side's slope): the solver inverts these sides,
  and Spread/power Psi1, on their tables.
- Product-form regions (_region_side): H = F(o) e^(tau s) on {s <= cap(o)}
  for a Gaussian outer o and inner s | o, so A_c is a half-line in s and
  each term is F times a closed-form tilted interval mass.  QuantoDomestic
  under power loss is one region, Outperformance two (S1 >= S2 and
  S2 >= S1) under either loss, and QuantoForeign under power loss one
  region in the (U, Z) coordinates of _qf_uz.  _region_side states the
  formula; an Outperformance region under power loss is split at its
  corner per c (_Corner).
- Spread/power: Psi2 integrates over y = W~2 the tilted masses of W~1
  beyond x*(y), a root found by Newton's method; one is the c-weighted
  term W(c) = c^kap E~[Z~^kap 1_Ac].  As c is the multiplier of the
  capital constraint, dPsi1 = -c dPsi2, and Psi1(c) = kap int_0^c W(s)
  ds reads a held _TailTable of W in ln c (_w_table).

Under power loss each c-weighted term, (c Z~)^q or (c Z~)^kap on A_c, is
a weight c^e e^(-e (BT + a o)) times a tilted mass, either of which may
leave the float range while their product is bounded: the weight enters
tilted_interval_mass as its log, log_scale, never formed on its own.

_psi_side is the one quadrature entry point, and it takes an array of c:
a region side or Spread/power Psi2 integrates one interval per c in one
integrate_batch call, its integrand indexing ln c by interval id, and a
table side reads each c from its held table.  Every integrand is
elementwise and each interval and read is summed on its own, so a value
does not depend on the other c's of the call.  psi_linear and psi_power
call it at one c, once per side.

Monte Carlo twins of both functions (psi_mc, and _McTable for arrays of
c, which also inverts each side exactly for the solver) sample W_T under
P and W~_T under P~ directly and work for every payoff, including Custom
and the parameter regions where a closed-form sign condition fails.
psi_mc and the solver take their table from _mc_table, which holds the
last one built until a call on another (payoff, params, loss, n, seed) or
a simulation (mc.estimate) empties it: one sample serves a contract's
phi1, phi2 and verify_risk, and at most one table is alive at a time.
"""

from __future__ import annotations

import bisect
import functools
import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import chebyshev
from scipy.special import expit, log_ndtr, ndtr

from . import _quad as quad
from ._quad import NODES, WG, WK, integrate_batch
from .errors import (AssumptionViolatedError, HeavyTailError, NanGuardError,
                     UnsupportedClosedFormError, ValidationError)
from .gaussian import sample, tilted_interval_mass
from .market import (UNDER_P, UNDER_PTILDE, MarketParams,
                     MeasureConstants, _real, wiener_law)
from .payoffs import (CUSTOM, DIGITAL, OUTPERFORMANCE, QUANTO_DOMESTIC,
                      QUANTO_FOREIGN, SPREAD, Payoff, evaluate,
                      payoff_constants)

LINEAR = "linear"
POWER = "power"

_SIGN_TOL = 1e-14
# Gaussian integrals are truncated at +/-TRUNC_SD marginal standard
# deviations (truncated mass < 1e-23, the documented error floor)
TRUNC_SD = 10.0
_LN_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class LossSpec:
    """Loss function: linear l(x) = x, or power l(x) = x^p / p with p > 1."""

    kind: str
    p: Optional[float] = None

    def __post_init__(self):
        if self.kind not in (LINEAR, POWER):
            raise ValidationError(
                [f"loss.kind: must be '{LINEAR}' or '{POWER}', got {self.kind!r}"])
        if self.kind == POWER:
            if not 1 < _real(self.p) < math.inf:
                raise ValidationError(
                    [f"loss.p: power loss requires finite p > 1, got {self.p!r}"])
            object.__setattr__(self, "p", float(self.p))
        elif self.p is not None:
            raise ValidationError(["loss.p: only valid for power loss"])

    def loss(self, x):
        x = np.asarray(x, dtype=float)
        return x if self.kind == LINEAR else x ** self.p / self.p


@dataclass(frozen=True)
class PsiPair:
    """One evaluation of (Psi1, Psi2) at c, with its error estimate."""

    psi1: float
    psi2: float
    c: float
    method: str
    err_estimate: float


def _lnc(c: float) -> float:
    if c == 0.0:
        return -math.inf
    if math.isinf(c):
        return math.inf
    return math.log(c)


def _each(fn, c) -> np.ndarray:
    """fn at each c, in Python floats: the same bits as a one-c call."""
    return np.array([fn(float(ci)) for ci in c], dtype=float)


def _integrate(f, lo: float, hi: float, live):
    """integrate_batch of f over [lo, hi] once per c; 0 where not live."""
    return integrate_batch(f, np.full(live.size, lo), np.where(live, hi, lo))


@dataclass(frozen=True)
class _Ctx:
    """Scalars shared by every closed-form Psi integral of one contract."""

    params: MarketParams
    cons: MeasureConstants
    k: float
    sd: float        # marginal sd of W_T
    cap: float       # truncation half-width in W coordinates
    rho: float
    cond_sd: float   # sd of W1 | W2 (and W2 | W1)
    m1p: float       # (alpha1 - sigma1^2/2) T
    m2p: float
    m1q: float       # (r - sigma1^2/2) T
    m2q: float
    trunc_sd: float


def _make_ctx(payoff: Payoff, params: MarketParams, trunc_sd: float) -> _Ctx:
    cons = payoff_constants(payoff, params)
    sg1, sg2 = params.sigma
    t = params.T
    sd = math.sqrt(t)
    return _Ctx(
        params=params, cons=cons, k=payoff.strike,
        sd=sd, cap=trunc_sd * sd, rho=params.rho,
        cond_sd=sd * math.sqrt(max(1.0 - params.rho ** 2, 0.0)),
        m1p=(params.alpha[0] - 0.5 * sg1 ** 2) * t,
        m2p=(params.alpha[1] - 0.5 * sg2 ** 2) * t,
        m1q=(params.r - 0.5 * sg1 ** 2) * t,
        m2q=(params.r - 0.5 * sg2 ** 2) * t,
        trunc_sd=trunc_sd)


def _phi(x, sd):
    return np.exp(-0.5 * (x / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))


def _side_fields(ctx: _Ctx, tilde: bool):
    """(B_side, m1, m2, threshold suffix) for the P or P~ representation."""
    if tilde:
        return ctx.cons.b_cap_tilde, ctx.m1q, ctx.m2q, "_tilde"
    return ctx.cons.b_cap, ctx.m1p, ctx.m2p, ""


def _half_line(a: float, rest, big_l):
    """(lo, hi) of {v : a v + rest >= L}, elementwise over rest and L.

    |a| <= _SIGN_TOL counts as a = 0: then the set is everything or nothing.
    """
    if a > _SIGN_TOL:
        return (big_l - rest) / a, np.inf
    if a < -_SIGN_TOL:
        return -np.inf, (big_l - rest) / a
    return np.where(rest >= big_l, -np.inf, np.inf), np.inf


# ---------------------------------------------------------------------------
# the tail table: linear loss on Digital, QuantoDomestic, QuantoForeign and
# Spread, and Digital under power loss.  A_c = {Y >= u} is a half-plane in
# Y = A1 W1 + A2 W2, so each side is a tail integral in y of one
# c-independent integrand, held per contract and read at any u
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Line:
    """W = k y + u xi on the line Y = y, with xi ~ N(0, 1) independent of Y
    ~ N(0, v), so that ln S_i = c_i + d_i y + b_i xi; v_a is the variance
    of A1 W1 + A2 W2.  Where A = 0, Z~ is constant and the line runs along
    W2 instead (step: A_c is everything or nothing).  b_x = b1 - b2, the
    sd of ln(S1 / S2) on the line, is formed as one sum, since it cancels
    where A is nearly parallel to (sigma1, -sigma2)."""

    v: float
    v_a: float
    c: tuple
    d: tuple
    b: tuple
    b_x: float
    step: bool


def _line(ctx: _Ctx, tilde: bool) -> _Line:
    _bs, m1, m2, _suf = _side_fields(ctx, tilde)
    a1, a2 = ctx.cons.a1, ctx.cons.a2
    t, rho = ctx.cons.T, ctx.rho
    v_a = t * (a1 * a1 + 2.0 * rho * a1 * a2 + a2 * a2)
    step = not v_a > 1e-300
    if step:
        a1, a2 = 0.0, 1.0
    v = t * (a1 * a1 + 2.0 * rho * a1 * a2 + a2 * a2)
    # E[W | Y] = Q T A y / v; the conditional covariance is rank one,
    # det(QT) / v (-A2, A1)(-A2, A1)^T
    k = (t * (a1 + rho * a2) / v, t * (rho * a1 + a2) / v)
    u = math.sqrt(t * t * (1.0 - rho * rho) / v)
    sg, s0 = ctx.params.sigma, ctx.params.s0
    return _Line(v=v, v_a=0.0 if step else v_a,
                 c=(math.log(s0[0]) + m1, math.log(s0[1]) + m2),
                 d=(sg[0] * k[0], sg[1] * k[1]),
                 b=(-sg[0] * u * a2, sg[1] * u * a1),
                 b_x=-u * (sg[0] * a2 + sg[1] * a1), step=step)


def _crossing(c: float, d: float, b: float):
    """Breakpoints of the table where the payoff's indicator, c + d y + b xi
    >= 0, flips on the line: its probability Phi((c + d y) / |b|) is a ramp
    in y around y* = -c / d, r = |b / d| wide, a step where b is 0.  So y*
    and y* +- r, 4r and 8r, if d is not 0."""
    if abs(d) <= _SIGN_TOL:
        return []
    y, r = -c / d, abs(b / d)
    return [y + f * r for f in (-8.0, -4.0, -1.0, 0.0, 1.0, 4.0, 8.0)]


def _mass(b, lo, hi, ls):
    """E[e^(b xi) 1{lo <= xi <= hi}] e^ls for xi ~ N(0, 1)."""
    return tilted_interval_mass(b, 0.0, 1.0, lo, hi, ls)


def _terms(*terms):
    """(sum, sum of sizes) of g's signed terms: a g of terms that cancel
    (a call far out of the money) is off by rounding of their sizes."""
    return sum(terms), sum(np.abs(t) for t in terms)


def _digital_g(line: _Line, ctx: _Ctx, suf: str):
    """K P(S1 >= S2 | y): xi on one side of where ln S1 = ln S2.  Each
    payoff's g takes its indicator at y = 0 from the thresholds of the
    side's measure, suffix suf, each formed from one log of a ratio."""
    (d1, d2), b_x, k = line.d, line.b_x, ctx.k
    x0 = -ctx.cons.thresholds["b" + suf]

    def g(y, ls):
        lo, hi = _half_line(b_x, x0 + (d1 - d2) * y, 0.0)
        on = _mass(0.0, lo, hi, ls + math.log(k))
        return on, on

    return g, (0.0,), _crossing(x0, d1 - d2, b_x)


def _qd_g(line: _Line, ctx: _Ctx, suf: str):
    """E[S2 (S1 - K)^+ | y]."""
    (c1, c2), (d1, d2), (b1, b2) = line.c, line.d, line.b
    ln_k = math.log(ctx.k)
    x0 = -ctx.cons.thresholds["a1" + suf] * ctx.params.sigma[0]

    def g(y, ls):
        a1, a2 = c1 + d1 * y, c2 + d2 * y
        lo, hi = _half_line(b1, x0 + d1 * y, 0.0)
        return _terms(_mass(b1 + b2, lo, hi, ls + a1 + a2),
                      -_mass(b2, lo, hi, ls + a2 + ln_k))

    return g, (d1 + d2, d2), _crossing(x0, d1, b1)


def _qf_g(line: _Line, ctx: _Ctx, suf: str):
    """E[(S1 - K / S2)^+ | y]."""
    (c1, c2), (d1, d2), (b1, b2) = line.c, line.d, line.b
    ln_k, x0 = math.log(ctx.k), -ctx.cons.thresholds["d" + suf]

    def g(y, ls):
        a1, a2 = c1 + d1 * y, c2 + d2 * y
        lo, hi = _half_line(b1 + b2, x0 + (d1 + d2) * y, 0.0)
        return _terms(_mass(b1, lo, hi, ls + a1),
                      -_mass(-b2, lo, hi, ls + ln_k - a2))

    return g, (d1, -d2), _crossing(x0, d1 + d2, b1 + b2)


def _spread_g(line: _Line, ctx: _Ctx, _suf: str):
    """E[(S1 - S2 - K)^+ | y].  The set {S1 - S2 >= K} is where the convex
    h(xi) = ln(S2 + K) - ln S1 is <= 0: one interval, inside the interval
    where both of its affine lower bounds, ln S2 - ln S1 and ln K - ln S1,
    are <= 0.  Newton's method from each finite end of that interval
    descends to the root on that side.  Where b1 / b2 is in (0, 1), h has
    a minimum, and the set is empty at the y's where it is positive: it
    appears or vanishes at the one y where that minimum is 0."""
    (c1, c2), (d1, d2), (b1, b2) = line.c, line.d, line.b
    ln_k = math.log(ctx.k)
    ratio = b1 / b2 if b2 != 0.0 else 0.0
    has_min = 0.0 < ratio < 1.0
    breaks = []
    if has_min:
        # at the minimum S2 = K ratio / (1 - ratio): h = ln(K / (1 - ratio))
        # - c1 - d1 y - ratio (ln(K ratio / (1 - ratio)) - c2 - d2 y)
        ln_s2 = ln_k + math.log(ratio) - math.log1p(-ratio)
        h0 = ln_k - math.log1p(-ratio) - c1 - ratio * (ln_s2 - c2)
        if abs(ratio * d2 - d1) > _SIGN_TOL:
            breaks = [-h0 / (ratio * d2 - d1)]

    def h(xi, a1, a2):
        return np.logaddexp(a2 + b2 * xi, ln_k) - a1 - b1 * xi

    def root(x, a1, a2):
        # a row stops on its own, once h is at rounding level or a step no
        # longer moves it, so its root does not depend on the other rows
        rows = np.arange(x.size)
        for _ in range(60):  # monotone from outside; the cap is a guard
            xr, a1r, a2r = x[rows], a1[rows], a2[rows]
            hx = h(xr, a1r, a2r)
            x_next = xr - hx / (b2 * expit(a2r + b2 * xr - ln_k) - b1)
            live = ((hx > 8.9e-16 * (np.abs(a1r) + np.abs(b1 * xr) + ln_k
                                     + np.abs(a2r + b2 * xr) + 1.0))
                    & (x_next != xr) & np.isfinite(x_next))
            rows = rows[live]
            x[rows] = x_next[live]
            if not rows.size:
                break
        return x

    def g(y, ls):
        a1, a2 = c1 + d1 * y, c2 + d2 * y
        lo1, hi1 = _half_line(b1 - b2, a1 - a2, 0.0)
        lo2, hi2 = _half_line(b1, a1, ln_k)
        lo, hi = np.maximum(lo1, lo2), np.minimum(hi1, hi2)
        empty = lo >= hi
        if has_min:
            xi_min = (ln_s2 - a2) / b2
            empty |= h(xi_min, a1, a2) > 0.0
        fin_lo, fin_hi = ~empty & np.isfinite(lo), ~empty & np.isfinite(hi)
        lo, hi = np.where(empty, 0.0, lo), np.where(empty, 0.0, hi)
        lo[fin_lo] = root(lo[fin_lo], a1[fin_lo], a2[fin_lo])
        hi[fin_hi] = root(hi[fin_hi], a1[fin_hi], a2[fin_hi])
        return _terms(_mass(b1, lo, hi, ls + a1), -_mass(b2, lo, hi, ls + a2),
                      -_mass(0.0, lo, hi, ls + ln_k))

    return g, (d1, d2, 0.0), breaks


_LINE_PAYOFFS = {DIGITAL: _digital_g, QUANTO_DOMESTIC: _qd_g,
                 QUANTO_FOREIGN: _qf_g, SPREAD: _spread_g}
# the table spans the y's within _TAIL_SD sd of Y's mean and of the means
# of the payoff's exponential terms, beyond which phi_v underflows
_TAIL_SD = 38.5
_PANEL_SD = 2.0
_PANEL_FALL = 5.0
_TABLE_PANELS_MAX = 4096
# rounding of a panel's value, per unit of its value and of the ratio of
# its abscissae to its width (_panels)
_ROUND = 8.0 * np.finfo(float).eps


def _panels(g, mu: float, v: float, a, b):
    """(ln scale, K15, |K15 - G7|, rounding, node values) of the integral
    of phi_v(y - mu) g(y) over each panel [a, b] that does not straddle mu,
    the value being e^(ln scale) K15 and the integrand at the 15 nodes
    e^(ln scale) times the node values.  The scale is phi_v at the panel's
    end nearer mu, where the Gaussian is largest, and g(y, log_scale)
    takes the rest of the Gaussian as its log_scale, so that no panel
    underflows however far from mu it lies.

    g returns its value and the sum of the sizes of its terms.  The
    rounding bound covers those terms, and the abscissae, each rounded to
    eps |y|, which moves a value by its own size per eps |y| / (b - a) at
    most where g has a ramp as narrow as the panel (a Digital whose
    S1 / S2 is nearly fixed by Y).  The error of the panel is |K15 - G7|
    plus the rounding bound."""
    h = 0.5 * (b - a)
    y = (a + h)[:, None] + h[:, None] * NODES
    near = np.where(a >= mu, a, b)
    ln_scale = -0.5 * (near - mu) ** 2 / v - 0.5 * math.log(2.0 * math.pi * v)
    rest = (0.5 / v) * ((near - mu)[:, None] ** 2 - (y - mu) ** 2)
    vals, sizes = (x.reshape(-1, 15) for x in g(y.ravel(), rest.ravel()))
    k15 = h * (vals * WK).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ulps = np.where(h > 0.0, 1.0 + (np.abs(a) + np.abs(b)) / (2.0 * h),
                        0.0)
    return (ln_scale, k15, np.abs(k15 - h * (vals * WG).sum(axis=-1)),
            _ROUND * (ulps * np.abs(k15) + h * (sizes * WK).sum(axis=-1)),
            vals)


def _layout(lo: float, hi: float, mu: float, sd: float):
    """Panel edges over [lo, hi], mu among them: _PANEL_SD sd apart near
    mu, and further out each panel spans a step of _PANEL_FALL in the
    exponent of the Gaussian, where G7 and K15 agree to about 1e-9 on an
    exponential; at most _TABLE_PANELS_MAX panels, else evenly spaced."""
    bend = _PANEL_FALL / _PANEL_SD  # where the two rules meet, in sd

    def away(z0, z1):  # distances from mu, in sd, over [z0, z1], z0 >= 0
        if z1 <= z0:
            return np.empty(0)
        flat = np.arange(z0, min(z1, bend), _PANEL_SD)
        start = max(z0, bend)
        n = max(0, math.ceil((z1 * z1 - start * start) / (2.0 * _PANEL_FALL)))
        if flat.size + n > _TABLE_PANELS_MAX:
            return None
        steep = np.sqrt(start * start + 2.0 * _PANEL_FALL * np.arange(n))
        return np.concatenate([flat, steep[steep >= start], [z1]])

    z_lo, z_hi = (lo - mu) / sd, (hi - mu) / sd
    right, left = away(max(z_lo, 0.0), z_hi), away(max(-z_hi, 0.0), -z_lo)
    if right is None or left is None or right.size + left.size > (
            _TABLE_PANELS_MAX + 1):
        return np.linspace(lo, hi, _TABLE_PANELS_MAX + 1)
    edges = np.unique(np.concatenate([mu - sd * left, mu + sd * right]))
    return edges[(edges >= lo) & (edges <= hi)]


# the Chebyshev coefficients (columns) of the degree-14 Lagrange
# polynomials (rows) of the 15 K15 nodes, and of their antiderivatives that
# are 0 at 1: a panel's interpolant through its node values, and its
# partial integrals, read as sums over the nodes at T_k(t) = cos(k acos t).
# Built from their roots, with no LAPACK call (whose first call costs the
# process 0.5 MB)
_LAGRANGE = np.array([
    chebyshev.chebfromroots(np.delete(NODES, j))
    / np.prod(NODES[j] - np.delete(NODES, j)) for j in range(15)])
_LAGRANGE_INT = chebyshev.chebint(_LAGRANGE.T, lbnd=1.0).T
# where Y is constant, a table's two knots: either side of its jump at u = 0,
# closer together than the 1e-13 in ln c that ends an inversion
_STEP_KNOT = 2.0 ** -45


class _TailTable:
    """The integral of one c-independent integrand over a line, held as
    panels, so that its tail beyond any u (or its head below u) is a suffix
    (prefix) sum of whole panels plus one K15 partial panel.

    panels(a, b) gives (ln scale, K15, |K15 - G7|, error floor, node
    values) of the integral over each panel [a, b], the value being
    e^(ln scale) K15 and the integrand at the 15 nodes e^(ln scale) times
    the node values: _panels for a tail table in Y, _w_table's for the W
    table.  Panels start on edges and split in two until each one's G7/K15
    difference is within rel_tol of its value, its error floor or 1e-13 of
    the tail it starts (max_rounds rounds and _TABLE_PANELS_MAX panels at
    most); a panel's error is its difference plus its floor.  A sum of
    panels is a mantissa times e^(the largest ln scale in it): nothing
    underflows in a tail, however far the integrand's peak is from the
    values read.  Each accepted panel keeps its node values, so that the
    table is also a piecewise polynomial in u, read at no integration
    (read's "model")."""

    def __init__(self, panels, edges, ln_const: float, rel_tol: float,
                 max_rounds: int, step: bool = False):
        self.panels, self.ln_const, self.step = panels, ln_const, step
        a, b = edges[:-1], edges[1:]
        done = []
        for rnd in range(max_rounds):
            ln_s, k15, diff, rounding, vals = panels(a, b)
            if not np.isfinite(k15).all():
                raise HeavyTailError(
                    "a payoff term overflows on the tail table, too heavy a "
                    "tail for the quadrature")
            # a panel far below the tail it starts (where g falls faster
            # than the Gaussian) needs only a share of that tail
            fin = [*done, (a, ln_s, k15)]
            pa, pls, pk = (np.concatenate([x[i] for x in fin])
                           for i in (0, -2, -1))
            order = np.argsort(pa, kind="stable")
            with np.errstate(divide="ignore"):
                ln_pk = (pls + np.log(np.abs(pk)))[order]
            tail = np.empty(pa.size)
            tail[order] = np.logaddexp.accumulate(ln_pk[::-1])[::-1]
            with np.errstate(over="ignore"):
                floor = 1e-13 * np.exp(tail[pa.size - a.size:] - ln_s)
            ok = ((diff <= np.maximum(rel_tol * np.abs(k15),
                                      np.maximum(rounding, floor)))
                  | (rnd == max_rounds - 1)
                  | (2 * a.size > _TABLE_PANELS_MAX))
            done.append(tuple(x[ok] for x in (a, b, diff + rounding, vals,
                                              ln_s, k15)))
            if ok.all():
                break
            a, b = a[~ok], b[~ok]
            mid = 0.5 * (a + b)
            a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        a, b, err, vals, ln_s, k15 = (np.concatenate(x) for x in zip(*done))
        order = np.argsort(a, kind="stable")
        self.a, self.b = a[order], b[order]
        self.vals, self.ln_s = vals[order], ln_s[order]
        k15, err = k15[order], err[order]
        # suffix and prefix sums: (largest ln scale, mantissa, err mantissa)
        self.up = self._sums(self.ln_s, k15, err)
        self.down = tuple(x[::-1] for x in self._sums(
            self.ln_s[::-1], k15[::-1], err[::-1]))

    @staticmethod
    def _sums(ln_s, k15, err):
        """Sums of panels j..n-1 for j = 0..n, each as mantissas over e^top,
        top the largest ln scale among them rounded up to a multiple of 64:
        no sum leaves the float range, and the few runs of one top are
        each one cumulative sum."""
        n = ln_s.size
        top = np.full(n + 1, -np.inf)
        top[:-1] = 64.0 * np.ceil(
            np.maximum.accumulate(ln_s[::-1])[::-1] / 64.0)
        here = np.exp(ln_s - top[:-1])
        m, e = np.zeros(n + 1), np.zeros(n + 1)
        ends = [*np.flatnonzero(np.diff(top[:-1])) + 1, n]
        for j0, j1 in zip([0, *ends[:-1]][::-1], ends[::-1]):
            carry = math.exp(top[j1] - top[j0])
            for out, x in ((m, k15), (e, err)):
                out[j0:j1] = (np.cumsum((x[j0:j1] * here[j0:j1])[::-1])[::-1]
                              + out[j1] * carry)
        return top, m, e

    def knots(self):
        """The u's where a read changes panel: the panel edges, or, where Y
        is constant, either side of the jump at u = 0."""
        if self.step:
            return np.array([-_STEP_KNOT, _STEP_KNOT])
        return np.append(self.a, self.b[-1])

    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def read(self, u, ln_w, upper: bool = True, how: Optional[str] = None):
        """(values, errs) of e^ln_w times the integral over y >= u (upper)
        or y < u, at each u of an array (ln_w per u or one for all): the
        sum of the whole panels beyond u and one K15 panel from u to the
        end of its own.

        how "slope" adds a third array, the derivative in u: the integrand
        at u, negated on an upper read, read from the degree-14 interpolant
        of the held node values of u's panel.  how "model" also reads the
        partial panel from that interpolant, as its integral, with no err:
        the table as a piecewise polynomial in u.  Each row is a sum over
        the 15 nodes, whatever the other rows."""
        u = np.asarray(u, dtype=float)
        if self.step:  # Y is constant: A_c is everything or nothing
            u = np.where(u <= 0.0, -np.inf, np.inf)
        ln_w = np.broadcast_to(np.asarray(ln_w, dtype=float) + self.ln_const,
                               u.shape)
        n = self.a.size
        j = np.searchsorted(self.a, u, side="right") - 1
        inside = (j >= 0) & (u < self.b[np.maximum(j, 0)])
        if upper:  # panels j+1.. (all at j = -1, none past the end)
            top, m, e = self.up
            first = j + 1
        else:  # panels ..j-1, or none below the table, all past it
            top, m, e = self.down
            first = np.where(inside, j, np.where(j < 0, 0, n))
        val, err = self._scaled(top[first], m[first], e[first], ln_w)
        slope = np.zeros(u.shape)
        if inside.any():
            r = np.flatnonzero(inside)
            jr, ur, zero = j[r], u[r], np.zeros(r.size)
            if how is not None:
                h = 0.5 * (self.b[jr] - self.a[jr])
                t = np.clip((ur - self.a[jr]) / h - 1.0, -1.0, 1.0)
                cheb = np.cos(np.arccos(t)[:, None] * np.arange(16))
                vals = self.vals[jr]
                at_u, ante = ((vals * (cheb[:, None, :lag.shape[1]] * lag)
                               .sum(axis=-1)).sum(axis=-1)
                              for lag in (_LAGRANGE, _LAGRANGE_INT))
                ps = self._scaled(self.ln_s[jr], at_u, zero, ln_w[r])[0]
                slope[r] = -ps if upper else ps
            if how == "model":
                part = -ante if upper else ante + (vals * WK).sum(axis=-1)
                pv, pe = self._scaled(self.ln_s[jr], h * part, zero, ln_w[r])
            else:
                ln_s, k15, diff, rounding, _vals = self.panels(
                    ur if upper else self.a[jr], self.b[jr] if upper else ur)
                pv, pe = self._scaled(ln_s, k15, diff + rounding, ln_w[r])
            val[r] += pv
            err[r] += pe
        return (val, err) if how is None else (val, err, slope)

    @staticmethod
    def _scaled(ln_s, m, e, ln_w):
        """e^(ln_w + ln_s) m and likewise e, taken in logs; 0 where m is
        (read's errstate takes the logs of 0)."""
        ln = ln_w + ln_s
        val = np.where(m != 0.0, np.exp(ln + np.log(np.abs(m))), 0.0)
        err = np.where(e != 0.0, np.exp(ln + np.log(e)), 0.0)
        return np.copysign(val, m), err


@functools.lru_cache(maxsize=256)
def _tail_table(payoff: Payoff, params: MarketParams, tilde: bool,
                gamma: float, rel_tol: float,
                max_rounds: int) -> _TailTable:
    """The _TailTable of one side of a contract, held as _edges is: the
    integral of phi_v(y) e^(-gamma y) g(y) = e^(gamma^2 v / 2) phi_v(y +
    gamma v) g(y), with g(y) = E[H | Y = y] on the side's measure, tabled
    around mu = -gamma v with the constant as ln_const.  The accept rule
    (rel_tol, max_rounds) is part of the key, so that a run under another
    rule builds and holds its own tables."""
    ctx = _make_ctx(payoff, params, TRUNC_SD)
    line = _line(ctx, tilde)
    g, growth, breaks = _LINE_PAYOFFS[payoff.kind](
        line, ctx, _side_fields(ctx, tilde)[3])
    # phi_v(y) e^(d y) peaks at d v: span every term's peak
    sd = math.sqrt(line.v)
    lo = min(0.0, *(d * line.v for d in growth)) - _TAIL_SD * sd
    hi = max(0.0, *(d * line.v for d in growth)) + _TAIL_SD * sd
    mu = -gamma * line.v_a
    edges = np.unique(np.concatenate([
        _layout(lo, hi, mu, sd), [x for x in [mu, *breaks] if lo < x < hi]]))
    return _TailTable(functools.partial(_panels, g, mu, line.v), edges,
                      0.5 * gamma * gamma * line.v_a, rel_tol, max_rounds,
                      line.step)


def _table_side(payoff: Payoff, ctx: _Ctx, c, p: Optional[float],
                tilde: bool, how: Optional[str] = None):
    """One side at each c from the tail tables; p None is linear loss;
    how as _TailTable.read takes it, the derivative in ln c.

    A_c = {Y >= u}, u = ln c - BT under linear loss and, for the Digital
    under power loss, u = ln c - (p-1) ln K - BT (A_c lies in {H = K}).
    With T_g(u) the integral over y >= u of phi_v(y) e^(-g y) E[H | y] and
    e = q = p/(p-1) on Psi1 and kap = 1/(p-1) on Psi2,

        linear:  T_0(u)
        Psi1:    (K^(p-1) / p) (E[H] - T_0(u))
                 + (c^q e^(-qBT) / (p K)) T_q(u)
        Psi2:    T_0(u) - (c^kap e^(-kap BT) / K) T_kap(u)

    where E[H] - T_0(u) is read as the head below u.  Every weight enters
    as its log, and the c-weighted term's derivative is e times it plus
    the weight times that of T_e."""
    t = ctx.cons.T
    bs = _side_fields(ctx, tilde)[0]
    lnc = _each(_lnc, c)
    tables = _side_tables(payoff, ctx, p, tilde)
    if p is None:
        return tables[0].read(lnc - bs * t, 0.0, how=how)
    plain, tilted = tables
    ln_k = math.log(payoff.strike)
    u = lnc - (p - 1.0) * ln_k - bs * t
    e = (1.0 if tilde else p) / (p - 1.0)
    # ln of c^e e^(-e BT) / K, over p on Psi1 (divided in logs: the product
    # may pass the float range where its quotient does not)
    ln_w = e * (lnc - bs * t) - ln_k - (0.0 if tilde else math.log(p))
    # at c = inf the tilted tail is empty, and its weight inf is not read
    tv, te, *ts = tilted.read(u, np.where(u < math.inf, ln_w, 0.0), how=how)
    if tilde:
        on, on_err, *s = plain.read(u, 0.0, how=how)
        got = on - tv, on_err + te
        return got if how is None else (*got, s[0] - (e * tv + ts[0]))
    off, off_err, *s = plain.read(u, (p - 1.0) * ln_k - math.log(p),
                                  upper=False, how=how)
    got = off + tv, off_err + te
    return got if how is None else (*got, s[0] + e * tv + ts[0])


def _side_tables(payoff: Payoff, ctx: _Ctx, p: Optional[float],
                 tilde: bool) -> tuple:
    """The tail tables of one side under the accept rule of this call: T_0,
    and T_e under power loss."""
    def table(gamma):
        return _tail_table(payoff, ctx.params, tilde, gamma, quad._REL_TOL,
                           quad._MAX_ROUNDS)
    if p is None:
        return (table(0.0),)
    return table(0.0), table((1.0 if tilde else p) / (p - 1.0))


# ---------------------------------------------------------------------------
# power loss, at each c of an array: Psi1 sides see 0 < c <= inf, Psi2
# sides 0 < c < inf (_psi_side settles the other c's, and checks the sign
# condition first).  Each c-weighted term passes the log of its weight to
# tilted_interval_mass; at c = inf its interval is empty and the term 0.
# ---------------------------------------------------------------------------

def _spread_xstar(ctx: _Ctx, lnc, p: float, y, tilde: bool):
    """(x*(y), d(y), S2(y) + K) per row: x* is the unique crossing of
    c^k Z~^k = S1(x) - S2(y) - K above the payoff root d(y).

    lnc = ln c, per row or one for all.  Newton's method in
    w = ln(S1(x) - S2(y) - K), where the crossing is the root of

        h(w) = k (ln c - A2 y - B T) - k A1 x(w) - w,
        x(w) = d(y) + ln(1 + e^w / (S2(y) + K)) / sigma1,

    concave and decreasing, with slope in [-1 - k A1 / sigma1, -1].  From
    w0 = k (ln c - A2 y - B T) - k A1 d(y), right of the root, the iterates
    descend to it monotonically.  A row stops on its own, once |h| is at
    rounding level or a step no longer descends, so its x* does not
    depend on the other rows.  c = 0 gives d(y); c = inf gives +inf.
    """
    bs, m1, m2, _suf = _side_fields(ctx, tilde)
    sg1, sg2 = ctx.params.sigma
    y = np.asarray(y, dtype=float)
    s2k = ctx.params.s0[1] * np.exp(m2 + sg2 * y) + ctx.k
    d_y = (np.log(s2k / ctx.params.s0[0]) - m1) / sg1
    lnc = np.broadcast_to(np.asarray(lnc, dtype=float), d_y.shape)
    x_star = np.where(lnc == -np.inf, d_y, np.inf)
    rows = np.flatnonzero(np.isfinite(lnc))
    ka1 = ctx.cons.a1 / (p - 1.0)
    base = (lnc[rows] - ctx.cons.a2 * y[rows] - bs * ctx.cons.T) / (p - 1.0)
    d_r, ln_s = d_y[rows], np.log(s2k[rows])
    w = base - ka1 * d_r
    for _ in range(50):  # 3-6 steps a row; the cap is a guard
        x = d_r + np.logaddexp(0.0, w - ln_s) / sg1
        x_star[rows] = x
        h = base - ka1 * x - w
        w_next = w + h / (1.0 + ka1 * expit(w - ln_s) / sg1)
        # |h| within 4 eps of the size of its terms, or no descent
        live = ((np.abs(h) > 8.9e-16 * (np.abs(base) + ka1 * np.abs(x)
                                        + np.abs(w) + 1.0)) & (w_next < w))
        if not live.any():
            break
        rows, base, d_r, ln_s = rows[live], base[live], d_r[live], ln_s[live]
        w = w_next[live]
    return x_star, d_y, s2k


def _spread_w(ctx: _Ctx, p: float):
    """w(y, lnc, ln_w): (x*(y), S2(y) + K, t), t Spread/power Psi2's y-term
    (less phi) of W(c) = c^kap E~[Z~^kap 1_Ac], its weight at ln_w."""
    a1, a2 = ctx.cons.a1, ctx.cons.a2
    kap = 1.0 / (p - 1.0)
    bt = ctx.cons.b_cap_tilde * ctx.cons.T

    def w(y, lnc, ln_w):
        x_star, _d_y, s2k = _spread_xstar(ctx, lnc, p, y, True)
        return x_star, s2k, tilted_interval_mass(
            -kap * a1, ctx.rho * y, ctx.cond_sd, x_star, np.inf,
            kap * (ln_w - bt - a2 * y))

    return w


@functools.lru_cache(maxsize=256)
def _w_table(payoff: Payoff, params: MarketParams, p: float, rel_tol: float,
             max_rounds: int):
    """Spread/power Psi1 of a contract, held and keyed as _tail_table's
    tables are: (read, knots), read(ln c, how) the (values, errs) at
    0 < c <= inf, how as _TailTable.read takes it, and knots the ln c's
    where a read changes panel.  dPsi1/dc = kap W(c), so Psi1 is the head
    in u = ln c of G(u) = kap E e^(q u) m(u), E = E~[Z~^kap] and m(u) =
    P^kap(A_c), held over [u_lo, u_hi] as a _TailTable in v = -u, whose
    interpolant gives the derivative in u, G(u).

    Under P^kap, W~ ~ N(-kap T Q A, T Q).  A_c lies in the half-planes
    {L.W~ >= t} {V >= u}, V = (p-1) ln S1 + A.W~ + B~T (the key's bound,
    as H <= S1), {S1 >= K} and {S1 >= S2}; take the one of largest z = (t
    - E L.W~) / sd(L.W~) > 0, if any.  As 1{L.W~ >= t} <= e^(lam (L.W~ -
    t)), lam = z / sd(L.W~), the mass of A_c beyond TRUNC_SD sd of the
    mean of y = W~2 under the tilt e^(lam L.W~) is at most 2
    Phi(-TRUNC_SD) n, n = e^(-z^2 / 2).  So m is integrate_batch over that
    box in y, over n, and the bound joins its error.  With V ~ N(mu, s^2):

    - above u_hi = u_c + TRUNC_SD s, u_c = mu + q s^2, Psi1(inf) - Psi1 <=
      (E/p) E^kap[e^(q V); V >= u] <= (E/p) e^(q mu + q^2 s^2 / 2)
      Phi(-TRUNC_SD), which joins the error;
    - below u <= u_lo, the head, (E/p)(e^(q u) m(u) + E^kap[e^(q key);
      key < u]), lies between (E/p) e^(q u) m(u_lo) and the smaller of
      (E/p) e^(q u) M, M = m(-inf) = P^kap(H > 0), and, as key <= V, (E/p)
      (2 e^(q u) P(V >= u) + e^(q mu + q^2 s^2 / 2) P(V < u - q s^2)): its
      midpoint is read, its half-width joins the error.  M - m(u) falls as
      c^kap (H has a density at 0+), so u_lo = u_c - TRUNC_SD s - ln(1 /
      rel_tol) / kap puts it near rel_tol M where ln H is near ln S1; where
      it lies far below, u_lo moves s, 2s, 4s, ... further down while that
      half-width passes rel_tol of the head there and shrinks.  That
      midpoint is closed form in u, and so is its derivative.

    Below mu, G grows at most as e^(q u), and above it falls as a Gaussian
    of sd s about u_c: panels start _PANEL_FALL / q apart below mu and on
    _layout's edges above.  Where kap A.W~ over a box rounds off beyond 10
    rel_tol (p near 1 and a large A T), the refinement would chase the
    rounding (18 s and 1 GB at 1.5e-6 on the desk): HeavyTailError."""
    ctx = _make_ctx(payoff, params, TRUNC_SD)
    cons, t, rho = ctx.cons, ctx.cons.T, ctx.rho
    a = np.array([cons.a1, cons.a2])
    kap, q = 1.0 / (p - 1.0), p / (p - 1.0)
    tq = t * np.array([[1.0, rho], [rho, 1.0]])
    mean = -kap * (tq @ a)
    ln_s1 = math.log(params.s0[0]) + ctx.m1q
    # the half-planes {L.W~ >= t0 (+ u for V)}: V, S1 >= K, S1 >= S2
    big_l = np.array([[(p - 1.0) * params.sigma[0] + a[0], a[1]],
                      [params.sigma[0], 0.0],
                      [params.sigma[0], -params.sigma[1]]])
    t0 = np.array([-(p - 1.0) * ln_s1 - cons.b_cap_tilde * t,
                   math.log(payoff.strike) - ln_s1,
                   math.log(params.s0[1]) + ctx.m2q - ln_s1])
    cov = big_l @ tq
    sd_l, m_l = np.sqrt((cov * big_l).sum(axis=1)), big_l @ mean
    mu, s = m_l[0] - t0[0], sd_l[0]
    u_c = mu + q * s * s
    u_hi = u_c + TRUNC_SD * s
    u_lo = u_c - TRUNC_SD * s - math.log(1.0 / rel_tol) / kap
    ln_e = -kap * cons.b_cap_tilde * t + 0.5 * kap * kap * (a @ tq @ a)
    ln_ep = ln_e - math.log(p)
    ln_phi = math.log(ctx.sd * math.sqrt(2.0 * math.pi))
    w = _spread_w(ctx, p)
    # W values per integrate_batch call: 64 keep a round's temporaries in
    # the cache (desk-quad set-up 0.32 s, against 0.45 s at 25 a call),
    # where one call per round raised the desk's peak RSS by 8 MB and a
    # p = 100 build's from 65 MB to 194 MB
    call = 64

    def m_of(lnc):  # (ln n, m / n, err / n) at each ln c, M at -inf
        thr = np.tile(t0, (lnc.size, 1))
        thr[:, 0] += lnc
        z = np.maximum((thr - m_l) / sd_l, 0.0)
        j = z.argmax(axis=1)
        z = z[np.arange(lnc.size), j]
        centre = mean + (z / sd_l[j])[:, None] * cov[j]
        size = kap * (np.where(np.isfinite(lnc), np.abs(lnc), 0.0)
                      + (np.abs(centre) + ctx.cap) @ np.abs(a))
        if (np.finfo(float).eps * size > 10.0 * rel_tol).any():
            raise HeavyTailError(
                f"Spread/power Psi1 at p = {p!r}: the tilt by Z~^(1/(p-1)) "
                "carries W~ where its exponent rounds off beyond the "
                "quadrature's tolerance")
        ln_n = -0.5 * z * z
        lw = -(ln_e + ln_n) / kap  # e^(kap lw) E m = m / n
        y0 = centre[:, 1]

        def part(i):
            lc, lwi = lnc[i:i + call], lw[i:i + call]
            return integrate_batch(lambda y, ids: w(
                y, lc[ids], lwi[ids] - (0.5 * y * y / t + ln_phi) / kap)[2],
                y0[i:i + call] - ctx.cap, y0[i:i + call] + ctx.cap)
        m, e = map(np.concatenate, zip(*map(part, range(0, lnc.size, call))))
        return ln_n, m, e + 2.0 * ndtr(-TRUNC_SD)

    ln_ev = q * (mu + 0.5 * q * s * s)  # ln E^kap[e^(q V)]
    ln_rest = ln_ep + ln_ev + log_ndtr(-TRUNC_SD)

    def bounds(u):  # the head's bounds below u <= u_lo, and their logs
        lower = np.exp(ln_ep + q * u + ln_lo)
        x1 = math.log(2.0) + q * u + log_ndtr((mu - u) / s)
        x2 = ln_ev + log_ndtr((u - u_c) / s)
        by_v = ln_ep + np.logaddexp(x1, x2)
        by_hi = ln_ep + q * u + ln_hi
        upper = np.maximum(np.exp(np.minimum(by_hi, by_v)), lower)
        return lower, upper, (by_hi, by_v, x1, x2)

    def head(u):  # (midpoint, half-width) of the head below u <= u_lo
        lower, upper, _logs = bounds(u)
        return 0.5 * (lower + upper), 0.5 * (upper - lower)

    def head_slope(u):  # d/du of head's midpoint, u < u_lo
        lower, upper, (by_hi, by_v, x1, x2) = bounds(u)
        # d ln Phi(z) / dz = phi(z) / Phi(z), in logs
        z1, z2 = (mu - u) / s, (u - u_c) / s
        mills1, mills2 = (np.exp(-0.5 * z * z - 0.5 * math.log(2.0 * math.pi)
                                 - log_ndtr(z)) for z in (z1, z2))
        by_v_slope = (np.exp(ln_ep + x1) * (q - mills1 / s)
                      + np.exp(ln_ep + x2) * mills2 / s)
        upper_slope = np.where(upper == lower, q * lower,
                               np.where(by_hi <= by_v, q * upper, by_v_slope))
        return 0.5 * (q * lower + upper_slope)

    step, width = s, math.inf
    while True:
        (ln_hi, ln_lo), m, e = m_of(np.array([-math.inf, u_lo]))
        with np.errstate(divide="ignore"):
            ln_hi += math.log(m[0] + e[0])
            ln_lo += np.log(max(m[1] - e[1], 0.0))
        mid, half = head(u_lo)
        if not rel_tol * mid < half < width * mid:
            break
        u_lo, step, width = u_lo - step, 2.0 * step, half / mid

    def panels(a, b):  # in v = -u, each node's value over its n
        h = 0.5 * (b - a)
        u = -((a + h)[:, None] + h[:, None] * NODES)
        ln_n, m, e = (x.reshape(-1, 15) for x in m_of(u.ravel()))
        ln_g = q * u + ln_n
        top = ln_g.max(axis=1)
        scale = np.exp(ln_g - top[:, None])
        k15 = h * (m * scale * WK).sum(axis=-1)
        return (top, k15, np.abs(k15 - h * (m * scale * WG).sum(axis=-1)),
                h * (e * scale * WK).sum(axis=-1) + _ROUND * np.abs(k15),
                m * scale)

    mid, width = max(u_lo, mu), _PANEL_FALL / q
    edges = np.unique(np.concatenate([
        [u_lo], mid - width * np.arange(math.ceil((mid - u_lo) / width) - 1,
                                        0, -1), _layout(mid, u_hi, u_c, s)]))
    table = _TailTable(panels, -edges[::-1], math.log(kap) + ln_e, rel_tol,
                       max_rounds)

    def read(lnc, how=None):
        val, err, *t_s = table.read(-lnc, 0.0, how=how)
        h_val, h_err = head(np.minimum(lnc, u_lo))
        got = val + h_val, err + h_err + np.where(lnc > u_hi,
                                                  np.exp(ln_rest), 0.0)
        if how is None:
            return got
        below = lnc < u_lo
        slope = -t_s[0]
        if below.any():
            slope[below] += head_slope(lnc[below])
        return (*got, slope)

    return read, -table.knots()[::-1]


def _spread_power_psi2(ctx: _Ctx, c, p: float):
    sg1, s10 = ctx.params.sigma[0], ctx.params.s0[0]
    rho, sd, cond_sd = ctx.rho, ctx.sd, ctx.cond_sd
    lnc = _each(_lnc, c)
    m1 = _side_fields(ctx, True)[1]
    w = _spread_w(ctx, p)

    def f(y, ids):
        x_star, s2k, t3 = w(y, lnc[ids], lnc[ids])
        m_c = rho * y
        t1 = s10 * np.exp(m1) * tilted_interval_mass(sg1, m_c, cond_sd,
                                                     x_star, np.inf)
        t2 = s2k * tilted_interval_mass(0.0, m_c, cond_sd, x_star, np.inf)
        return _phi(y, sd) * (t1 - t2 - t3)

    return _integrate(f, -ctx.cap, ctx.cap, np.full(c.size, True))


# ---------------------------------------------------------------------------
# product-form regions, either loss: QuantoDomestic, Outperformance, and
# QuantoForeign under power loss.  _sign_guard_power checks, before any
# read, the sign condition that keeps the power denominator positive.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Region:
    """H = F(o) e^(tau s) on {s <= cap(o)}, where the outer o ~ N(0, o_sd^2)
    runs over [lo, hi], the inner s | o ~ N(slope o, s_sd^2), and Z~ =
    e^(-a_o o - a_s s - BT).  f and cap map an array of o to F(o) and to
    cap(o); cap None is no cap.  corner, where given, is the _Corner of
    the power A_c's inner limit v(o) and cap(o), where the power integrand
    kinks."""

    lo: float
    hi: float
    o_sd: float
    slope: float
    s_sd: float
    a_o: float
    a_s: float
    tau: float
    f: Callable
    cap: Optional[Callable] = None
    corner: Optional["_Corner"] = None


def _region_side(ctx: _Ctx, c, region: _Region, p: Optional[float],
                 tilde: bool):
    """One side over one region at each c; p None is linear loss.

    With TIM(g; lo, hi) = E[e^(g s) 1{lo <= s <= hi} | o] (the inner
    tilted_interval_mass), a row is

        linear:  F TIM(tau) over A_c = {a_s s + a_o o >= ln c - BT}, s <= cap
        power:   A_c = {s >= v},  v = (ln c - a_o o - BT - (p-1) ln F)
                                      / ((p-1) tau + a_s)
           Psi1: (F^p TIM(p tau; -inf, min(v, cap))
                  + c^q e^(-qBT) e^(-q a_o o) TIM(-q a_s; v, cap)) / p
           Psi2: F TIM(tau; v, cap)
                  - c^kap e^(-kap BT) e^(-kap a_o o) TIM(-kap a_s; v, cap)

    The weight of the c-weighted term, c^e e^(-e (a_o o + BT)), enters its
    TIM as the log_scale e (ln c - a_o o - BT).
    """
    r = region
    bs, t = _side_fields(ctx, tilde)[0], ctx.cons.T
    bt = bs * t
    if p is None:
        big_l = _each(_lnc, c) - bt

        def f(o, ids):
            big_f = r.f(o)
            lo_s, hi_s = _half_line(r.a_s, r.a_o * o, big_l[ids])
            if r.cap is not None:
                hi_s = np.minimum(hi_s, r.cap(o))
            mass = tilted_interval_mass(r.tau, r.slope * o, r.s_sd, lo_s, hi_s)
            return _phi(o, r.o_sd) * big_f * mass

        return _integrate(f, r.lo, r.hi, big_l < math.inf)

    e_c = 1.0 / (p - 1.0) if tilde else p / (p - 1.0)
    lnc = _each(_lnc, c)
    den = (p - 1.0) * r.tau + r.a_s

    def f(o, ids):
        big_f = r.f(o)
        ln_cz = lnc[ids] - r.a_o * o - bt
        with np.errstate(divide="ignore"):
            v = (ln_cz - (p - 1.0) * np.log(big_f)) / den
        cap = np.inf if r.cap is None else r.cap(o)
        m_s = r.slope * o
        t2 = tilted_interval_mass(-e_c * r.a_s, m_s, r.s_sd, v, cap,
                                  e_c * ln_cz)
        if tilde:
            t1 = big_f * tilted_interval_mass(r.tau, m_s, r.s_sd, v, cap)
            return _phi(o, r.o_sd) * (t1 - t2)
        hi = v if r.cap is None else np.minimum(v, cap)
        t1 = big_f ** p * tilted_interval_mass(p * r.tau, m_s, r.s_sd,
                                               -np.inf, hi)
        return _phi(o, r.o_sd) * (t1 + t2) / p

    if r.corner is None:
        return _integrate(f, r.lo, r.hi, np.full(c.size, True))
    # per c, [lo, o*] in o and [o*, hi] in w = ln F, two intervals of one
    # call (_Corner)
    n = c.size
    o_mid, w_mid = r.corner.at(lnc - bt, p)

    def parts(x, ids):
        out = np.empty(x.size)
        left = ids < n
        out[left] = f(x[left], ids[left])
        o, do_dw = r.corner.o(x[~left])
        out[~left] = f(o, ids[~left] - n) * do_dw
        return out

    v, e = integrate_batch(parts, np.concatenate([np.full(n, r.lo), w_mid]),
                           np.concatenate([o_mid, np.full(n, r.corner.w_hi)]))
    return v[:n] + v[n:], e[:n] + e[n:]


def _qd_regions(ctx: _Ctx, p: Optional[float], tilde: bool):
    """QuantoDomestic, s2 e^(m2 + sigma2 W2) (S1 - K)^+: o = W1, s = W2,
    tau = sigma2; the power denominator is (p-1)(A2/(p-1) + sigma2)."""
    _bs, m1, m2, suf = _side_fields(ctx, tilde)
    sg1, sg2 = ctx.params.sigma
    s10, s20 = ctx.params.s0
    # e^m2 past the float range is inf, and the integrand not finite
    coef, k = s20 * (math.exp(m2) if m2 < _LN_MAX else math.inf), ctx.k
    return (_Region(
        lo=max(ctx.cons.thresholds["a1" + suf], -ctx.cap), hi=ctx.cap,
        o_sd=ctx.sd, slope=ctx.rho, s_sd=ctx.cond_sd,
        a_o=ctx.cons.a1, a_s=ctx.cons.a2, tau=sg2,
        f=lambda x: coef * np.maximum(s10 * np.exp(m1 + sg1 * x) - k, 0.0)),)


def _qf_uz(ctx: _Ctx, p: float):
    """(U, Z) coordinates for the quanto-foreign power regions.

    U = (A1/(p-1)) W1 + (A2/(p-1) - sigma2) W2, Z = sigma1 W1 + sigma2 W2.
    Returns the conditional data of U | Z and the Y-recovery coefficients.
    """
    a1, a2 = ctx.cons.a1, ctx.cons.a2
    sg1, sg2 = ctx.params.sigma
    kap = 1.0 / (p - 1.0)
    m = np.array([[kap * a1, kap * a2 - sg2], [sg1, sg2]])
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    scale = max(abs(m[0, 0]), abs(m[0, 1]), _SIGN_TOL) * max(sg1, sg2)
    if abs(det) <= 1e-12 * scale:
        raise AssumptionViolatedError(
            "quanto-foreign power loss requires the (U, Z) transform "
            "U = (A1/(p-1))W1 + (A2/(p-1) - sigma2)W2, Z = sigma1 W1 + sigma2 W2 "
            "to be nonsingular; use the Monte Carlo route")
    cov = m @ ctx.params.wiener_cov @ m.T
    inv = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det
    g_u = a1 * inv[0, 0] + a2 * inv[1, 0]
    g_z = a1 * inv[0, 1] + a2 * inv[1, 1]
    sd_z = math.sqrt(cov[1, 1])
    coef_uz = cov[0, 1] / cov[1, 1]
    sd_u_z = math.sqrt(max(cov[0, 0] - coef_uz * cov[0, 1], 0.0))
    return inv, g_u, g_z, sd_z, coef_uz, sd_u_z


def _qf_regions(ctx: _Ctx, p: float, tilde: bool):
    """QuantoForeign under power loss, (S1 S2 - K)^+ / S2, in the (U, Z)
    coordinates of _qf_uz: o = Z, s = U.  With W2 = k21 U + k22 Z, F carries
    the Z part of 1/S2 and tau = -sigma2 k21; the power denominator
    (p-1) tau + g_u is p - 1."""
    inv, g_u, g_z, sd_z, coef_uz, sd_u_z = _qf_uz(ctx, p)
    _bs, m1, m2, suf = _side_fields(ctx, tilde)
    s10, s20 = ctx.params.s0
    sg2, k = ctx.params.sigma[1], ctx.k
    k21, k22 = inv[1, 0], inv[1, 1]
    per_s2 = 1.0 / (s20 * math.exp(m2)) if m2 < _LN_MAX else 0.0

    def big_f(z):
        n_z = np.maximum(s10 * s20 * np.exp(m1 + m2 + z) - k, 0.0)
        return n_z * np.exp(-sg2 * k22 * z) * per_s2

    return (_Region(
        lo=max(ctx.cons.thresholds["d" + suf], -ctx.trunc_sd * sd_z),
        hi=ctx.trunc_sd * sd_z, o_sd=sd_z, slope=coef_uz, s_sd=sd_u_z,
        a_o=g_z, a_s=g_u, tau=-sg2 * k21, f=big_f),)


def _outp_regions(ctx: _Ctx, p: Optional[float], tilde: bool):
    """Outperformance, (max(S1, S2) - K)^+: the region S1 >= S2 (o = W1,
    s = W2) and the region S2 >= S1 (o = W2, s = W1), each with tau = 0,
    so the power denominator is A2 or A1, and each with its corner."""
    _bs, m1, m2, suf = _side_fields(ctx, tilde)
    thr = ctx.cons.thresholds
    thr_b, k = thr["b" + suf], ctx.k
    a1, a2 = ctx.cons.a1, ctx.cons.a2
    sg1, sg2 = ctx.params.sigma
    s10, s20 = ctx.params.s0
    common = dict(hi=ctx.cap, o_sd=ctx.sd, slope=ctx.rho, s_sd=ctx.cond_sd,
                  tau=0.0)
    lo1, lo2 = max(thr["a1" + suf], -ctx.cap), max(thr["a2" + suf], -ctx.cap)
    return (
        _Region(lo=lo1, a_o=a1, a_s=a2,
                f=lambda x: np.maximum(s10 * np.exp(m1 + sg1 * x) - k, 0.0),
                cap=lambda x: (sg1 * x - thr_b) / sg2,
                corner=_Corner(math.log(s10) + m1, sg1, k, a1, a2, sg1 / sg2,
                               -thr_b / sg2, lo1, ctx.cap),
                **common),
        _Region(lo=lo2, a_o=a2, a_s=a1,
                f=lambda y: np.maximum(s20 * np.exp(m2 + sg2 * y) - k, 0.0),
                cap=lambda y: (sg2 * y + thr_b) / sg1,
                corner=_Corner(math.log(s20) + m2, sg2, k, a2, a1, sg2 / sg1,
                               thr_b / sg1, lo2, ctx.cap),
                **common))


class _Corner:
    """An Outperformance region's corner, where v(o) = (big_l - a_o o -
    (p-1) ln F(o)) / a_s, the inner limit of the power A_c at big_l = ln c
    - BT, meets cap(o) = cap_slope o + cap_0, F(o) = e^(ln_sm + sg o) - K.

    g = v - cap is strictly decreasing (a_o, a_s > 0 by the sign guard).
    Right of the corner v < cap, and v has F's root, where ln F = -inf, on
    its left: a scale of the corner's distance from the root, which
    _region_side leaves behind by integrating that part in w = ln F, o(w)
    = (ln(e^w + K) - ln_sm) / sg."""

    def __init__(self, ln_sm: float, sg: float, k: float, a_o: float,
                 a_s: float, cap_slope: float, cap_0: float, lo: float,
                 hi: float):
        self.ln_sm, self.sg, self.ln_k = ln_sm, sg, math.log(k)
        self.a_o, self.a_s, self.cap_slope, self.cap_0 = (a_o, a_s,
                                                          cap_slope, cap_0)
        self.lo, self.hi = lo, hi
        with np.errstate(divide="ignore"):  # F = 0 at the payoff root
            self.w_lo, self.w_hi = np.log(np.maximum(
                np.exp(ln_sm + sg * np.array([lo, hi])) - k, 0.0))

    def o(self, w):
        """(o(w), do/dw) at each w."""
        return ((np.logaddexp(w, self.ln_k) - self.ln_sm) / self.sg,
                expit(w - self.ln_k) / self.sg)

    def at(self, big_l, p: float):
        """(o*, w* = ln F(o*)) per big_l: o* = lo where g(lo) <= 0 and hi
        where g(hi) >= 0.  Between, Newton's method in w, where g is
        concave (o(w) is convex) and decreasing, so that from the right of
        the root the iterates descend to it.  They start at ln F(hi) or, if
        less, the root of g with o(w) replaced by the larger of its
        asymptotes, (ln K - ln_sm) / sg and (w - ln_sm) / sg, both below
        o(w), so that g <= 0 there.  A row takes its last step once a step
        is 1e-9 at most, which leaves its root 1e-17 off; o* is a break
        between two intervals, which any o near the corner serves.  Rows
        stop on their own, so that o* does not depend on the other rows."""
        slope_o = self.a_o / self.a_s + self.cap_slope

        def g(bl, o, w):
            return ((bl - self.a_o * o - (p - 1.0) * w) / self.a_s
                    - self.cap_slope * o - self.cap_0)

        g_lo, g_hi = (g(big_l, o, w) for o, w in ((self.lo, self.w_lo),
                                                  (self.hi, self.w_hi)))
        w_star = np.where(g_lo <= 0.0, self.w_lo, self.w_hi)
        o_star = np.where(g_lo <= 0.0, self.lo, self.hi)
        newton = rows = np.flatnonzero((g_lo > 0.0) & (g_hi < 0.0))
        bl = big_l[rows]
        flat = (bl / self.a_s - self.cap_0 - slope_o * (
            self.ln_k - self.ln_sm) / self.sg) * self.a_s / (p - 1.0)
        rise = ((bl / self.a_s - self.cap_0 + slope_o * self.ln_sm / self.sg)
                / ((p - 1.0) / self.a_s + slope_o / self.sg))
        w = np.minimum(self.w_hi, np.where(flat <= self.ln_k, flat, rise))
        for _ in range(50):  # a few steps a row; the cap is a guard
            o, do_dw = self.o(w)
            step = g(bl, o, w) / (slope_o * do_dw + (p - 1.0) / self.a_s)
            w = w + step
            w_star[rows] = w
            live = np.abs(step) > 1e-9
            if not live.any():
                break
            rows, bl, w = rows[live], bl[live], w[live]
        o_star[newton] = self.o(w_star[newton])[0]
        return np.clip(o_star, self.lo, self.hi), w_star


_REGIONS = {
    QUANTO_DOMESTIC: _qd_regions,
    QUANTO_FOREIGN: _qf_regions,
    OUTPERFORMANCE: _outp_regions,
}


def _on_table(kind: str, p: Optional[float]) -> bool:
    """Whether a named payoff's sides read the tail tables under loss p
    (None linear): the Digital's, and every other linear side but the
    Outperformance's.  A table spans its own _TAIL_SD sd and takes no
    trunc_sd."""
    return kind == DIGITAL or (p is None and kind != OUTPERFORMANCE)


def _closed_side(ctx: _Ctx, payoff: Payoff, c, p: Optional[float],
                 tilde: bool, how: Optional[str] = None):
    """(values, errs) of one side at each c, by the payoff's shape; p None
    is linear loss.  _on_table's sides read the tail tables, Spread/power
    Psi2 runs its own kernel and Psi1 reads its W table, and every other
    side is a sum over product-form regions.  how, as _TailTable.read
    takes it, is for the sides of _table_sides only."""
    kind = payoff.kind
    if _on_table(kind, p):
        return _table_side(payoff, ctx, c, p, tilde, how)
    if kind == SPREAD:
        if tilde:
            return _spread_power_psi2(ctx, c, p)
        return _w_table(payoff, ctx.params, p, quad._REL_TOL,
                        quad._MAX_ROUNDS)[0](_each(_lnc, c), how)
    # one region is its own value; two regions add, v1 + v2
    v, e = np.sum([_region_side(ctx, c, r, p, tilde)
                   for r in _REGIONS[kind](ctx, p, tilde)], axis=0)
    return v, e


def _table_sides(kind: str, p: Optional[float]) -> tuple:
    """The sides that a named payoff reads from held tables under loss p
    (None linear): _on_table's both, and Spread/power Psi1 (_w_table)."""
    if _on_table(kind, p):
        return 1, 2
    return (1,) if kind == SPREAD and p is not None else ()


@np.errstate(all="ignore")
def _newton(read, t, increasing: bool, c, lo, hi, steps: int,
            tol: float = 1e-13):
    """(c, value, err, next c) per target of t at the end of a safeguarded
    Newton solve in ln c of a monotone side, nondecreasing if increasing:
    read(c) gives (values, errs, d value / d ln c) at an array of c.

    Each row reads its c, which lies in its bracket (lo, hi], and a read
    that meets the target (at least t if increasing, at most t otherwise)
    becomes hi, one that misses lo.  The step is Newton's on ln value,
    ln(t / v) v / slope (exact on an exponential), or (t - v) / slope at
    v = 0; a step of at most tol ends the row at the c just read, with the
    c that the step reaches as its next c.  A step that leaves the bracket,
    or is not finite, halves the bracket in ln c instead, or ends the row
    where an end is 0 or inf.  A bracket that hi - lo <= 1e-13 hi closes
    ends the row at hi, if it was read.  A row that ends on no small step
    has its c as its next.  The rows run in lockstep, one read of all
    running c's a step, steps at most, so that each row sees the values
    it would see alone."""
    t = np.asarray(t, dtype=float)
    c, lo, hi = (np.array(x, dtype=float) for x in (c, lo, hi))
    last = np.full((4, t.size), np.nan)  # the row's c, v, err, next c
    met = np.full((3, t.size), np.nan)  # its last read that met t
    live = np.arange(t.size)
    for _ in range(steps):
        if not live.size:
            break
        cl, tl = c[live], t[live]
        v, e, slope = read(cl)
        last[:, live] = cl, v, e, cl
        ok = v >= tl if increasing else v <= tl
        met[:, live[ok]] = cl[ok], v[ok], e[ok]
        hi[live[ok]], lo[live[~ok]] = cl[ok], cl[~ok]
        l, h = lo[live], hi[live]
        du = np.where(v > 0.0, np.log(tl / v) * v, tl - v) / slope
        step = cl * np.exp(du)
        mid = np.exp(0.5 * (np.log(l) + np.log(h)))
        inside = (step > l) & (step < h)
        small = np.abs(du) <= tol
        closed = h - l <= 1e-13 * h
        c[live] = np.where(inside, step, mid)
        last[3, live[small]] = step[small]
        ends = closed & ~np.isnan(met[0, live])
        last[:3, live[ends]] = met[:, live[ends]]
        last[3, live[ends]] = met[0, live[ends]]
        live = live[~(closed | small | ~(inside | (l > 0.0) & (h < math.inf)))]
    return last


class _SideTable:
    """One side of _table_sides as a function of c, and the model of it
    that its tables' held node values give at no integration (read's
    "model"): a piecewise polynomial in u between the knots, the ln c's
    where one of its tables changes panel.

    knots holds those c's, with the smallest normal float and the largest
    float at the ends, at the model's values there and slope its slopes;
    (v0, e0) is the side's read at c = 0.  guess(t) searches the knots for the bracket (lo, hi]
    whose model values hold each target, and solves the model there
    (_newton): a c to read first, and the bracket, for an inversion on
    exact reads.  Below the first knot of a table it reads its whole tail
    (or none of its head), so a side is closed form in c there; where Y is
    constant a table's two knots straddle its jump, a bracket that is
    already closed."""

    def __init__(self, payoff: Payoff, params: MarketParams, loss: LossSpec,
                 side: int):
        self.ctx = _make_ctx(payoff, params, TRUNC_SD)
        self.payoff, self.tilde = payoff, side == 2
        self.p = None if loss.kind == LINEAR else loss.p
        self.increasing = side == 1 and self.p is not None
        if _on_table(payoff.kind, self.p):
            shift = _side_fields(self.ctx, self.tilde)[0] * self.ctx.cons.T
            if self.p is not None:
                shift += (self.p - 1.0) * math.log(payoff.strike)
            lnc = shift + np.concatenate([
                table.knots() for table in _side_tables(
                    payoff, self.ctx, self.p, self.tilde)])
        else:
            lnc = _w_table(payoff, params, self.p, quad._REL_TOL,
                           quad._MAX_ROUNDS)[1]
        tiny, huge = np.finfo(float).tiny, np.finfo(float).max
        with np.errstate(over="ignore", under="ignore"):
            cs = np.exp(np.unique(lnc))
        self.knots = np.concatenate([[tiny], cs[(cs > tiny) & (cs < huge)],
                                     [huge]])
        # 64 knots a read keep the interpolant's temporaries small (600
        # knots at once raised a desk run's peak RSS by 1.1 MB)
        self.at, _e, self.slope = map(np.concatenate, zip(*(
            self.model(self.knots[i:i + 64])
            for i in range(0, self.knots.size, 64))))
        (self.v0,), (self.e0,) = _psi_side(payoff, params, loss, [0.0], side)

    @np.errstate(all="ignore")
    def model(self, c):
        """(values, 0, slopes) of the model at each c of an array."""
        return _closed_side(self.ctx, self.payoff, c, self.p, self.tilde,
                            "model")

    @np.errstate(all="ignore")
    def guess(self, t):
        """(c, lo, hi) per target of t: the model's solution in the bracket
        (lo, hi] of knots whose model values hold it, the first knot that
        meets the target its hi; c = inf where no knot meets it."""
        t = np.asarray(t, dtype=float)
        key = self.at if self.increasing else -self.at
        k = np.searchsorted(key, t if self.increasing else -t)
        found = k < self.knots.size
        k = np.minimum(k, self.knots.size - 1)
        hi = self.knots[k]
        lo = np.where(k > 0, self.knots[k - 1], 0.0)
        # the start: ln c as a cubic in ln value through the bracket's ends,
        # with their slopes (Hermite), where it falls inside the bracket
        v0, v1 = self.at[k - 1], self.at[k]
        y0 = np.log(v0)
        w = np.log(v1) - y0
        s = (np.log(t) - y0) / w
        start = np.exp(
            (2.0 * s + 1.0) * (s - 1.0) ** 2 * np.log(lo)
            + s * s * (3.0 - 2.0 * s) * np.log(hi)
            + s * w * ((s - 1.0) ** 2 * v0 / self.slope[k - 1]
                       + s * (s - 1.0) * v1 / self.slope[k]))
        start = np.where((start > lo) & (start <= hi), start, hi)
        c = np.full(t.size, math.inf)
        # the model's last step, of 1e-7 at most, leaves it 1e-14 off
        c[found] = _newton(self.model, t[found], self.increasing,
                           start[found], lo[found], hi[found], 100, 1e-7)[3]
        return c, lo, hi


@functools.lru_cache(maxsize=256)
def _held_side_table(payoff: Payoff, params: MarketParams, loss: LossSpec,
                     side: int, rel_tol: float,
                     max_rounds: int) -> _SideTable:
    return _SideTable(payoff, params, loss, side)


def _side_table(payoff: Payoff, params: MarketParams, loss: LossSpec,
                side: int) -> _SideTable:
    """The _SideTable of one side of a contract, held as its tables are,
    under the accept rule of this call."""
    return _held_side_table(payoff, params, loss, side, quad._REL_TOL,
                            quad._MAX_ROUNDS)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def _validate_c(c) -> float:
    f = _real(c)
    if not f >= 0:
        raise ValidationError([f"c: must be a nonnegative real, got {c!r}"])
    return f


def _sign_guard_power(payoff: Payoff, ctx: _Ctx, p: float):
    """Raise the payoff's sign-condition error regardless of the c branch.
    Each condition keeps a region's power denominator positive, or, for
    the spread, makes its region boundary a single crossing."""
    a1, a2 = ctx.cons.a1, ctx.cons.a2
    if payoff.kind == QUANTO_DOMESTIC:
        beta = a2 / (p - 1.0) + ctx.params.sigma[1]
        if beta <= 0:
            raise AssumptionViolatedError(
                "quanto-domestic power loss requires A2/(p-1) + sigma2 > 0 "
                f"(got {beta:.6g}); use the Monte Carlo route")
    elif payoff.kind == QUANTO_FOREIGN:
        _qf_uz(ctx, p)
    elif payoff.kind == OUTPERFORMANCE:
        if a1 <= _SIGN_TOL or a2 <= _SIGN_TOL:
            raise AssumptionViolatedError(
                "outperformance power loss requires A1 > 0 and A2 > 0 "
                f"(got A1={a1:.6g}, A2={a2:.6g}); use the Monte Carlo route")
    elif payoff.kind == SPREAD and a1 <= _SIGN_TOL:
        raise AssumptionViolatedError(
            "spread power loss requires A1 > 0 (the region boundary in x is "
            f"then a single crossing; got A1={a1:.6g}); "
            "use the Monte Carlo route")


@np.errstate(over="ignore", invalid="ignore")
def _psi_side(payoff: Payoff, params: MarketParams, loss: LossSpec, c,
              side: int, trunc_sd: float = TRUNC_SD, slope: bool = False):
    """(values, errs) of Psi1 (side=1) or Psi2 (side=2) by quadrature, as
    arrays over the 1-d array of c; slope adds dPsi/d ln c at each c, on
    the sides of _table_sides only, read with the values.

    The one closed-form Psi entry point: the solver reads one side at all
    the c's of a step, and psi_linear / psi_power call it at one c, once
    per side.  A value does not depend on the other c's of the call.
    trunc_sd bounds the boxes of the region sides and Spread/power Psi2;
    the tables (_on_table's and Spread/power Psi1's) take none.  A term
    that overflows (K^p at a large p, say) raises HeavyTailError: here if
    it reaches the value, else from integrate_batch as a non-finite
    integrand, and never as a RuntimeWarning.
    """
    c = np.array([_validate_c(ci) for ci in np.ravel(c)])
    if payoff.kind == CUSTOM:
        raise UnsupportedClosedFormError(
            "custom payoffs have no closed-form Psi; use psi_mc")
    ctx = _make_ctx(payoff, params, trunc_sd)
    how = "slope" if slope else None
    if loss.kind == LINEAR:
        v, e, *s = _closed_side(ctx, payoff, c, None, side == 2, how)
        bad = ~(np.isfinite(v) & np.isfinite(e))
        if bad.any():
            raise HeavyTailError(
                f"Psi{side} at c = {_fmt_c(c[bad])}: a payoff term overflows")
        return (np.maximum(v, 0.0), e, *s)
    _sign_guard_power(payoff, ctx, loss.p)
    v, e, s = np.zeros(c.size), np.zeros(c.size), np.zeros(c.size)
    at0 = c == 0.0
    if side == 2 and at0.any():
        v[at0], e[at0] = _closed_side(ctx, payoff, c[at0], None, True)
    # Psi1(0) = 0 and Psi2(inf) = 0: A_0 is everything, A_inf empty
    rest = ~at0 if side == 1 else ~at0 & (c < math.inf)
    if rest.any():
        got = _closed_side(ctx, payoff, c[rest], loss.p, side == 2, how)
        v[rest], e[rest] = got[:2]
        if slope:
            s[rest] = got[2]
        bad = ~(np.isfinite(v) & np.isfinite(e))
        if bad.any():
            raise HeavyTailError(
                f"Psi{side} at p = {loss.p!r}, c = {_fmt_c(c[bad])}: a "
                "power-loss term overflows")
    return (np.maximum(v, 0.0), e) + ((s,) if slope else ())


def _fmt_c(c) -> str:
    return ", ".join(repr(float(ci)) for ci in c)


def _psi_pair(payoff: Payoff, params: MarketParams, loss: LossSpec,
              c) -> PsiPair:
    c = _validate_c(c)
    v1, e1 = _psi_side(payoff, params, loss, [c], 1)
    v2, e2 = _psi_side(payoff, params, loss, [c], 2)
    return PsiPair(psi1=float(v1[0]), psi2=float(v2[0]), c=c,
                   method="quadrature", err_estimate=float(e1[0] + e2[0]))


def psi_linear(payoff: Payoff, params: MarketParams,
               c: float = 0.0) -> PsiPair:
    """(Psi1(c), Psi2(c)) for linear loss by closed-form quadrature."""
    return _psi_pair(payoff, params, LossSpec(LINEAR), c)


def psi_power(payoff: Payoff, params: MarketParams, c: float = 0.0,
              p: float = 2.0) -> PsiPair:
    """(Psi1^p(c), Psi2^p(c)) for power loss by closed-form quadrature.

    p must be finite and above 1 (ValidationError otherwise).
    Payoff-specific sign conditions are checked first; a violation raises
    AssumptionViolatedError naming the condition (psi_mc remains available).
    """
    return _psi_pair(payoff, params, LossSpec(POWER, p), c)


def _prefix(x: np.ndarray) -> np.ndarray:
    """Sums of x[:k] for k = 0..len(x)."""
    out = np.zeros(x.size + 1)
    np.cumsum(x, out=out[1:])
    return out


def _suffix(x: np.ndarray) -> np.ndarray:
    """Sums of x[k:] for k = 0..len(x)."""
    out = np.zeros(x.size + 1)
    np.cumsum(x[::-1], out=out[-2::-1])
    return out


# the (key, _McTable) that _mc_table holds, or None; _MC_LOCK guards it and
# every table's lazy sort, and is reentrant because a Custom payoff's
# function runs under it
_mc_held = None
_MC_LOCK = threading.RLock()


def _nan_guard(vals: np.ndarray, w: np.ndarray, offset: int = 0) -> np.ndarray:
    """vals, unless a path's value is not finite: then NanGuardError with
    that path's index (plus offset) and coordinates w[i]."""
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        i = int(bad[0])
        raise NanGuardError(offset + i, float(w[i, 0]), float(w[i, 1]))
    return vals


class _McSide:
    """Per-path terms of one Psi side; a path is in A_c iff ln c <= key.

    It holds only the paths with H > 0: the others add +0.0 to every sum,
    and the means and the standard errors still divide by n, the full path
    count.  Its first finite c sorts the paths once by descending key,
    keeps prefix (and, for the power shortfall term, suffix) sums of each
    term and of its square, and drops the per-path arrays; every finite c
    is read from those sums at k = #{key >= ln c}, found by binary search.
    c = 0 and c = inf, where the c-weighted Z~ terms vanish, read the totals
    of the H terms, taken when the side is built: the same bits in every
    read, before the sort or after it.  The sort runs under _MC_LOCK, so
    that threads sharing the table sort it once.

    kind "linear":  H 1_Ac
         "power1":  (H^p 1_{Ac^c} + (c Z~)^q 1_Ac) / p,   q = p/(p-1)
         "power2":  (H - (c Z~)^kap) 1_Ac,                 kap = 1/(p-1)

    On each interval of ln c between consecutive sorted keys A_c holds the
    same k paths, and n Psi is closed form in c (_sums_at): S[k] (linear),
    (OFF[k] + c^q ON[k]) / p (power1) or HS[k] - c^kap US[k] (power2),
    from the prefix sums S, ON, HS, US and the suffix sums OFF.  A target
    is so inverted exactly, by a search over the keys (invert).
    """

    def __init__(self, kind: str, side: int, n: int, p: Optional[float], key,
                 h, zt=None):
        self.kind = kind
        self.side = side
        self.n = n
        self.p = p
        self.key = key
        self.h = h      # H^p on the power1 side, H otherwise
        self.zt = zt    # Z~ (power only)
        with np.errstate(over="ignore"):  # value() reports an inf sum
            self.totals = (np.sum(h), np.sum(h * h))
        self.neg_key = None  # -key ascending, once sorted
        self.sums = ()
        # the power of c in the c-weighted term: q (power1), kap (power2)
        self.c_power = (None if p is None else
                        p / (p - 1.0) if kind == "power1" else 1.0 / (p - 1.0))

    @np.errstate(all="ignore")
    def value(self, c):
        """(means, standard errors) of the side's terms at each c of an
        array.  A weight c^q or c^kap past the float range, as on the
        quadrature route, or a value that is not finite raises
        HeavyTailError."""
        c = np.asarray(c, dtype=float)
        s, s2 = self._from_totals(c)
        finite = (c > 0.0) & (c < math.inf)
        if finite.any():
            cf = c[finite]
            k = np.searchsorted(self._sorted(), -_each(_lnc, cf), side="right")
            try:
                # c^q or c^kap in Python floats, only where A_c holds a path
                w = (None if self.c_power is None else
                     _each(lambda ci: ci ** self.c_power,
                           np.where(k > 0, cf, 0.0)))
            except OverflowError:
                raise HeavyTailError(
                    f"Monte Carlo Psi{self.side} at c = {_fmt_c(c)}: a "
                    "power-loss weight overflows") from None
            s[finite], s2[finite] = self._sums_at(k, w)
        v, e = self._stats(s, s2)
        bad = ~np.isfinite(v)
        if bad.any():
            raise HeavyTailError(f"Monte Carlo Psi{self.side} at c = "
                                 f"{_fmt_c(c[bad])}: the sum over the paths "
                                 "overflows")
        return v, e

    @np.errstate(all="ignore")
    def invert(self, targets):
        """(c, means, standard errors) at the least c whose read (value)
        meets each target of an array: a mean at least the target on the
        rising power1 side, at most it on the others.  c is 0 where c = 0
        meets the target, else the least positive float that does, or inf
        where no float does.

        A binary search over the sorted keys, reading the closed form with
        c at each key it tries, finds the k paths of A_c at the answer; the
        closed form solved for c with those k paths is a first guess.  Steps
        in float bits from it, of 1, 2, 4, ... ulps until a read changes
        sides and then halving, settle on the least float whose own read
        meets the target: the answer and its value are a read's bits.
        """
        t = np.asarray(targets, dtype=float)
        n, p, cp = self.n, self.p, self.c_power

        def meets(v, t):  # NaN, as inf * 0 past the float range, meets
            if self.kind == "power1":
                return ~np.less(v, t)
            return ~np.greater(v, t)

        def missed_at(j, t):  # the read with c at the j-th key, path j in A_c
            w = None if cp is None else np.exp(cp * -neg_key[j])
            return not meets(self._sums_at(j + 1, w)[0] / n, t)

        neg_key = self._sorted()
        m = neg_key.size
        guess = np.ones(t.size)
        if m:
            # k: the count of keys, descending, at whose c the read meets t
            k = np.array([bisect.bisect(range(m), False,
                                        key=lambda j: missed_at(j, ti))
                          for ti in t.tolist()], dtype=np.int64)
            # the interval of ln c with those k paths in A_c starts here
            bottom = -neg_key[np.minimum(k, m - 1)]
            if self.kind == "linear":  # a constant read: its least c
                ln_c = bottom
            elif self.kind == "power1":
                off, _off2, on, _on2 = self.sums
                ln_c = (np.log(p * n * t - off[k]) - np.log(on[k])) / cp
            else:
                hs, _h2, _hu, us, _u2 = self.sums
                ln_c = (np.log(hs[k] - n * t) - np.log(us[k])) / cp
            ln_c = np.clip(ln_c, bottom, -neg_key[np.maximum(k - 1, 0)])
            guess = np.exp(np.where(np.isnan(ln_c), bottom, ln_c))
        # the least float meeting t lies in (lo, hi], in float bits; the
        # largest float, not yet read, stands in for a c that meets it
        at0 = meets(self.value(np.zeros(t.size))[0], t)
        lo = np.zeros(t.size, dtype=np.int64)
        hi = np.where(at0, 1, np.float64(np.finfo(float).max).view(np.int64))
        x = np.clip(guess.view(np.int64), lo + 1, hi - 1)
        step = np.ones(t.size, dtype=np.int64)
        live = hi - lo > 1
        while live.any():
            met = np.zeros(t.size, dtype=bool)
            met[live] = meets(self.value(x[live].view(float))[0], t[live])
            lo, hi = np.where(live & ~met, x, lo), np.where(live & met, x, hi)
            gap = np.minimum(step, (hi - lo) // 2)
            x = np.where(met, hi - gap, lo + gap)
            step = 2 * np.minimum(step, 1 << 61)
            live = hi - lo > 1
        c = np.where(at0, 0.0, hi.view(float))
        v, err = self.value(c)
        return np.where(meets(v, t), c, math.inf), v, err

    def _from_totals(self, c):
        # the H terms count on A_c, all paths at c = 0 and none at c = inf,
        # and the power1 shortfall term H^p off A_c
        full = (c == 0.0) != (self.kind == "power1")
        s = np.where(full, self.totals[0], 0.0)
        s2 = np.where(full, self.totals[1], 0.0)
        if self.kind == "power1":
            s, s2 = s / self.p, s2 / (self.p * self.p)
        return s, s2

    def _sort(self):
        # unsorted arrays are dropped as soon as they are gathered, and the
        # sums are built one at a time, to keep the peak footprint small
        order = np.argsort(self.key)[::-1]
        self.neg_key = np.negative(self.key[order])
        h = self.h[order]
        z = self.zt[order] if self.zt is not None else None
        self.key = self.h = self.zt = order = None
        if self.kind == "linear":
            self.sums = (_prefix(h), _prefix(h * h))
            return
        z **= self.c_power
        if self.kind == "power1":
            # off-A_c terms as a suffix sum: total - prefix loses digits
            self.sums = (_suffix(h), _suffix(h * h),
                         _prefix(z), _prefix(z * z))
        else:
            self.sums = (_prefix(h), _prefix(h * h), _prefix(h * z),
                         _prefix(z), _prefix(z * z))

    def _sorted(self):
        """The ascending -key, the side sorted first if it is not yet."""
        with _MC_LOCK:
            if self.neg_key is None:
                self._sort()
        return self.neg_key

    def _sums_at(self, k, w):
        """(sums of the terms, sums of their squares) with the first k
        sorted paths in A_c and c-weights w, c^q or c^kap (None if
        linear)."""
        p = self.p
        if self.kind == "linear":
            return self.sums[0][k], self.sums[1][k]
        if self.kind == "power1":
            off, off2, on, on2 = self.sums
            return (off[k] / p + w * on[k] / p,
                    off2[k] / (p * p) + w * w * on2[k] / (p * p))
        hs, h2, hu, us, u2 = self.sums
        return (np.where(k > 0, hs[k] - w * us[k], 0.0),
                np.where(k > 0, h2[k] - 2.0 * w * hu[k] + w * w * u2[k], 0.0))

    def _stats(self, s, s2):
        """(means, standard errors) from the sums of the terms and of their
        squares over the n paths."""
        n = self.n
        var = np.maximum(s2 - s * s / n, 0.0) / (n - 1)
        return s / n, np.sqrt(var) / math.sqrt(n)


class _McTable:
    """Psi1 and Psi2 of one contract from one seeded Monte Carlo sample.

    sample(law, 2n, seed) is drawn once: rows [:n] are W_T under P and give
    Psi1, rows [n:] are W~_T under P~ and give Psi2.  Each side keeps the
    terms and the key of its paths with H > 0, a1 w1 + a2 w2 + bT = -ln Z~
    for linear loss and (p-1) ln H - ln Z~ for power loss, so A_c is the
    superlevel set {key >= ln c} and Psi is monotone in c pathwise.  Each
    side sorts itself at its first finite c (see _McSide).  A path whose
    loss term is not finite raises NanGuardError with its coordinates.
    """

    def __init__(self, payoff: Payoff, params: MarketParams, loss: LossSpec,
                 n: int, seed: int):
        cons = payoff_constants(payoff, params)
        draws = sample(wiener_law(params), 2 * n, seed)
        self.sides = {
            1: self._side(payoff, params, loss, cons, draws[:n], UNDER_P, 0),
            2: self._side(payoff, params, loss, cons, draws[n:],
                          UNDER_PTILDE, n)}

    @staticmethod
    def _side(payoff, params, loss, cons, w, under, offset) -> _McSide:
        t = cons.T
        drift = params.alpha if under == UNDER_P else (params.r, params.r)
        s1 = params.s0[0] * np.exp((drift[0] - 0.5 * params.sigma[0] ** 2) * t
                                   + params.sigma[0] * w[:, 0])
        s2 = params.s0[1] * np.exp((drift[1] - 0.5 * params.sigma[1] ** 2) * t
                                   + params.sigma[1] * w[:, 1])
        h = np.asarray(evaluate(payoff, s1, s2), dtype=float)
        del s1, s2
        b = cons.b_cap if under == UNDER_P else cons.b_cap_tilde
        # ln Z~ = -a1 w1 - a2 w2 - bT, evaluated in place in that order
        ln_z = -cons.a1 * w[:, 0]
        ln_z -= cons.a2 * w[:, 1]
        ln_z -= b * t
        n = w.shape[0]
        side = 1 if under == UNDER_P else 2
        terms = h
        if loss.kind == POWER and under == UNDER_P:
            with np.errstate(over="ignore"):  # _nan_guard reports the overflow
                terms = h ** loss.p  # the shortfall loss term, p * l(H)
        _nan_guard(terms, w, offset)
        # every path is guarded, but only those with H > 0 add to a sum;
        # gathered by index, which is faster than by a boolean mask
        keep = np.flatnonzero(h > 0)
        terms, ln_z = terms.take(keep), ln_z.take(keep)
        if loss.kind == LINEAR:
            return _McSide("linear", side, n, None,
                           np.negative(ln_z, out=ln_z), terms)
        key = np.log(h.take(keep))
        key *= loss.p - 1.0
        key -= ln_z
        with np.errstate(over="ignore"):  # value() reports an inf sum
            zt = np.exp(ln_z, out=ln_z)
        return _McSide(f"power{side}", side, n, loss.p, key, terms, zt)

    def side(self, c, side: int):
        """(Psi_side, standard errors) at each validated c of an array
        (_McSide.value)."""
        return self.sides[side].value(c)

    def invert(self, targets, side: int):
        """(c, Psi_side, standard errors) at the least c whose Psi_side
        meets each target of an array (_McSide.invert)."""
        return self.sides[side].invert(targets)


def _mc_table(payoff: Payoff, params: MarketParams, loss: LossSpec, n: int,
              seed: int) -> _McTable:
    """The _McTable of (payoff, params, loss, n, seed), held until a call
    with another key or a simulation (_drop_mc_table).

    A call with the held key returns the held table.  Any other key first
    empties the slot and then builds and holds its own table, so that at
    most one table is alive at a time: a phi1, phi2 and verify_risk of one
    contract read one sample, sorted once.
    """
    global _mc_held
    key = (payoff, params, loss, n, seed)
    with _MC_LOCK:
        if _mc_held is not None and _mc_held[0] == key:
            return _mc_held[1]
        _mc_held = None
        table = _McTable(payoff, params, loss, n, seed)
        _mc_held = key, table
        return table


def _drop_mc_table():
    """Empty the slot of _mc_table, before a simulation draws its sample."""
    global _mc_held
    with _MC_LOCK:
        _mc_held = None


def psi_mc(payoff: Payoff, params: MarketParams, loss: LossSpec, c: float,
           n: int, seed: int) -> PsiPair:
    """Unbiased Monte Carlo estimate of (Psi1, Psi2) at c.

    Works for every payoff (including Custom) and for parameter regions
    where a closed-form sign condition fails; Psi2 samples W~_T under the
    martingale measure directly.  (n, seed) obey McConfig's rules.
    """
    from .mc import McConfig  # mc imports this module

    c = _validate_c(c)
    mc = McConfig(n, seed)
    table = _mc_table(payoff, params, loss, mc.n_paths, mc.seed)
    (psi1,), (se1,) = table.side([c], 1)
    (psi2,), (se2,) = table.side([c], 2)
    return PsiPair(psi1=float(psi1), psi2=float(psi2), c=c,
                   method="monte-carlo", err_estimate=float(max(se1, se2)))
