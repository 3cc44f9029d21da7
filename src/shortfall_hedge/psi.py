"""Auxiliary shortfall functions Psi1(c), Psi2(c) per payoff and loss.

Linear loss uses the success set A_c = {Z~^-1 >= c}; power loss l(x)=x^p/p
uses A_c = {c Z~ <= H^(p-1)}.  Definitions:

    linear:  Psi1(c) = E[H 1_Ac]                Psi2(c) = E~[H 1_Ac]
    power:   Psi1(c) = (1/p) E[H^p 1_{Ac^c}]
                       + (1/p) E[(c Z~)^(p/(p-1)) 1_Ac]
             Psi2(c) = E~[(H - (c Z~)^(1/(p-1))) 1_Ac]

Each side integrates one of four payoff shapes:

- Digital (_digital_side): orthants of X = sigma1 W1 - sigma2 W2 and
  Y = A1 W1 + A2 W2.  Three terms, on = P(X >= thr, Y >= u), off =
  P(X >= thr, Y < u) and tilt = E[e^(-e Y); X >= thr, Y >= u], give every
  side.  Where GaussianLaw takes their covariance, on is in closed form by
  Owen's T (gaussian.rect_upper_prob, err_estimate a 4 eps rounding bound)
  and tilt is one outer integral.  Where it refuses, Y = lam X up to a
  small conditional sd: each term is a tilted interval mass of X, and the
  error adds the mass of the band where the sign of Y - u is unknown.
- Product-form regions (_region_side): H = F(o) e^(tau s) on {s <= cap(o)}
  for a Gaussian outer o and inner s | o, so A_c is a half-line in s and
  each term is F times a closed-form tilted interval mass.  QuantoDomestic
  is one region, Outperformance two (S1 >= S2 and S2 >= S1), and
  QuantoForeign under power loss one region in the (U, Z) coordinates of
  _qf_uz.  _region_side states the formula.
- The S1-call side (_s1_call_side): H = (S1 - K(y))^+ with K(y) = K/S2
  for QuantoForeign and S2 + K for Spread, under linear loss.
- Spread/power: the inner shortfall (S1 - S2 - K)^p has no tilt form.  It
  runs on a fixed K15 rule in t, x = d(y) + t^4 (which removes the
  algebraic edge at the payoff root d(y)), with 4 W / (3 sd) panels for a
  row's width W and the conditional sd, clipped to 4..24, each row's
  count its own.  Its upper limit, the region boundary x*(y), is a root
  found by Newton's method in w = ln(S1 - S2 - K).

Under power loss each c-weighted term, (c Z~)^q or (c Z~)^kap on A_c, is
a weight c^e e^(-e (BT + a o)) times a tilted mass, either of which may
leave the float range while their product is bounded: the weight enters
tilted_interval_mass as its log, log_scale, never formed on its own.

_psi_side is the one quadrature entry point, and it takes an array of c:
every side integrates one interval per c in one integrate_batch call, its
integrand indexing ln c by interval id (the digital's orthants take the
c's in one rect_upper_prob call).  Every integrand is elementwise and
integrate_batch sums each interval on its own, so a value does not depend
on the other c's of the call.  psi_linear and psi_power call it at one c,
once per side.

Monte Carlo twins of both functions (psi_mc, and _McTable for arrays of
c) sample W_T under P and W~_T under P~ directly and work for every
payoff, including Custom and the parameter regions where a closed-form
sign condition fails.  psi_mc and the solver take their table from
_mc_table, which holds the last one built until a call on another
(payoff, params, loss, n, seed) or a simulation (mc.estimate) empties it:
one sample serves a contract's phi1, phi2 and verify_risk, and at most one
table is alive at a time.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import expit, ndtr

from ._quad import integrate_batch, integrate_rows
from .errors import (AssumptionViolatedError, DegenerateLawError,
                     HeavyTailError, NanGuardError, UnsupportedClosedFormError,
                     ValidationError)
from .gaussian import (RECT_ERR, GaussianLaw, rect_upper_prob, sample,
                       tilted_interval_mass)
from .market import (UNDER_P, UNDER_PTILDE, MarketParams,
                     MeasureConstants, wiener_law)
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
_INNER_PANELS_MIN = 4
_INNER_PANELS_MAX = 24


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
            if self.p is None or not (self.p > 1 and math.isfinite(self.p)):
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
# Digital, either loss: orthants of X = sigma1 W1 - sigma2 W2, whose event
# X >= thr is S1 >= S2, and Y = A1 W1 + A2 W2 = -ln Z~ - BT
# ---------------------------------------------------------------------------

def _digital_side(ctx: _Ctx, c, p: Optional[float], tilde: bool):
    """One Digital side at each c; p None is linear loss.

    A_c = {Y >= u}, u = ln c - (p-1) ln K - BT (ln c - BT under linear
    loss).  With e = q = p/(p-1) on Psi1 and kap = 1/(p-1) on Psi2,

        on = P(X >= thr, Y >= u),   off = P(X >= thr, Y < u),
        tilt = E[e^(-e Y); X >= thr, Y >= u]

    give    linear:  K on
            Psi1:    (K^p / p) off + (c^q e^(-qBT) / p) tilt
            Psi2:    K on - c^kap e^(-kap BT) tilt.

    Where GaussianLaw takes the (X, Y) covariance, on is rect_upper_prob
    and tilt one outer integral of the tilted mass of Y | X.  Where it
    refuses, Y = lam X up to a conditional sd s_yx (lam = 0 where A = 0),
    every term is a tilted_interval_mass over an interval of X, and the
    error adds the mass of the band |lam X - u| <= 8 s_yx.  K^p is a float
    that may overflow to inf, which _psi_side reports.
    """
    bs, _m1, _m2, suf = _side_fields(ctx, tilde)
    k, t = ctx.k, ctx.cons.T
    thr = ctx.cons.thresholds["b" + suf]
    sg1, sg2 = ctx.params.sigma
    m = np.array([[sg1, -sg2], [ctx.cons.a1, ctx.cons.a2]])
    cov = m @ ctx.params.wiener_cov @ m.T
    sd_x, lam = math.sqrt(cov[0, 0]), cov[0, 1] / cov[0, 0]
    ln_k = 0.0 if p is None else (p - 1.0) * math.log(k)
    lnc = _each(_lnc, c)
    u = lnc - ln_k - bs * t
    e = 0.0 if p is None else (1.0 if tilde else p) / (p - 1.0)
    # ln of the weight of tilt, c^e e^(-e BT), over p on Psi1
    ln_w = None if p is None else (
        e * (lnc - bs * t) - (0.0 if tilde else math.log(p)))
    try:
        law = GaussianLaw(2, np.zeros(2), cov)
    except DegenerateLawError:
        GaussianLaw(1, np.zeros(1), cov[:1, :1])  # X itself must be a law
        # s_yx^2 = det(cov) / var X: the form of the other branch cancels,
        # and rounds an s_yx below about 1e-8 to 0
        s_yx = (abs(sg1 * ctx.cons.a2 + sg2 * ctx.cons.a1) * ctx.sd
                * ctx.cond_sd / sd_x)
        band = 8.0 * s_yx
        if lam == 0.0:  # Y is 0 up to s_yx: A_c is all of X >= thr or none
            cut = np.where(u <= 0.0, -np.inf, np.inf)
            b_lo, b_hi = np.where(np.abs(u) < band, -np.inf, np.inf), np.inf
        else:
            cut = u / lam
            b_lo, b_hi = np.sort([(u - band) / lam, (u + band) / lam], axis=0)
        mid = np.maximum(thr, cut)
        on_x, off_x = ((mid, np.inf), (thr, mid)) if lam >= 0.0 else \
            ((thr, mid), (mid, np.inf))
        band_x = (np.maximum(thr, b_lo), b_hi)

        def mass(g, x_range, log_scale=0.0):
            return tilted_interval_mass(g, 0.0, sd_x, *x_range, log_scale)

        on, off = mass(0.0, on_x), mass(0.0, off_x)
        err_on = RECT_ERR + mass(0.0, band_x)
        if p is not None:
            # off the band, E[e^(-e Y) | X] = e^(-e lam X + (e s_yx)^2 / 2)
            ln_g = ln_w + 0.5 * (e * s_yx) ** 2
            tilt = mass(-e * lam, on_x, ln_g)
            err_tilt = mass(-e * lam, band_x, ln_g)
    else:
        on = rect_upper_prob(law, (thr, u))
        off = float(ndtr(-thr / sd_x)) - on
        err_on = np.full(c.size, RECT_ERR)
        if p is not None:
            s_yx = math.sqrt(max(cov[1, 1] - lam * cov[0, 1], 0.0))

            def f(x, ids):
                return _phi(x, sd_x) * tilted_interval_mass(
                    -e, lam * x, s_yx, u[ids], np.inf, ln_w[ids])

            tilt, err_tilt = _integrate(f, max(thr, -ctx.trunc_sd * sd_x),
                                        ctx.trunc_sd * sd_x, c < math.inf)
    if p is None:
        return k * on, k * err_on
    if tilde:
        return k * on - tilt, k * err_on + err_tilt
    kp = np.float64(k) ** p / p
    return kp * off + tilt, kp * err_on + err_tilt


# ---------------------------------------------------------------------------
# linear loss, one side (tilde=False -> Psi1 under P, tilde=True -> Psi2),
# at each c of an array; c = inf gives an empty interval (A_c is empty)
# ---------------------------------------------------------------------------

def _s1_call_side(ctx: _Ctx, c, tilde: bool, strike_of):
    """H = (S1 - K(y))^+ under linear loss: outer y = W2, inner W1 | y.

    strike_of(ctx, m2, y) is the strike K(y) per row, for the S2 drift m2.
    """
    bs, m1, m2, _suf = _side_fields(ctx, tilde)
    big_l = _each(_lnc, c) - bs * ctx.cons.T
    a1, a2 = ctx.cons.a1, ctx.cons.a2
    sg1, s10 = ctx.params.sigma[0], ctx.params.s0[0]
    rho, sd, cond_sd = ctx.rho, ctx.sd, ctx.cond_sd

    def f(y, ids):
        k_y = strike_of(ctx, m2, y)
        lo_x, hi_x = _half_line(a1, a2 * y, big_l[ids])
        lo_x = np.maximum(lo_x, (np.log(k_y / s10) - m1) / sg1)
        m_c = rho * y
        t1 = s10 * np.exp(m1) * tilted_interval_mass(sg1, m_c, cond_sd, lo_x, hi_x)
        t2 = k_y * tilted_interval_mass(0.0, m_c, cond_sd, lo_x, hi_x)
        return _phi(y, sd) * (t1 - t2)

    return _integrate(f, -ctx.cap, ctx.cap, big_l < math.inf)


def _qf_strike(ctx: _Ctx, m2: float, y):
    """K / S2(y): QuantoForeign is (S1 - K/S2)^+."""
    return (ctx.k / ctx.params.s0[1]) * np.exp(-m2 - ctx.params.sigma[1] * y)


def _spread_strike(ctx: _Ctx, m2: float, y):
    """S2(y) + K: Spread is (S1 - S2 - K)^+."""
    return ctx.params.s0[1] * np.exp(m2 + ctx.params.sigma[1] * y) + ctx.k


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


def _spread_power_psi1(ctx: _Ctx, c, p: float):
    a1, a2 = ctx.cons.a1, ctx.cons.a2
    sg1, s10 = ctx.params.sigma[0], ctx.params.s0[0]
    rho, sd, cond_sd = ctx.rho, ctx.sd, ctx.cond_sd
    q = p / (p - 1.0)
    lnc = _each(_lnc, c)
    bt = ctx.cons.b_cap * ctx.cons.T

    def f(y, ids):
        x_star, d_y, s2k = _spread_xstar(ctx, lnc[ids], p, y, False)
        m_c = rho * y

        def inner(tt, rows):  # (S1 - S2 - K)^p under W1 | y, x = d(y) + t^4
            x = d_y[rows, None] + tt ** 4
            gap = np.maximum(s10 * np.exp(ctx.m1p + sg1 * x)
                             - s2k[rows, None], 0.0)
            return (gap ** p * _phi(x - m_c[rows, None], cond_sd)
                    * 4.0 * tt ** 3)

        # inner cap: beyond the tilt-shifted conditional tail the p-th power
        # of the gap carries negligible mass
        hi_inner = np.minimum(x_star,
                              np.maximum(d_y, m_c + p * sg1 * cond_sd ** 2
                                         + (ctx.trunc_sd + 2.0) * cond_sd))
        t_hi = np.maximum(hi_inner - d_y, 0.0) ** 0.25
        n_panels = np.clip(np.ceil(4.0 * t_hi ** 4 / (3.0 * cond_sd)),
                           _INNER_PANELS_MIN, _INNER_PANELS_MAX).astype(int)
        t1 = integrate_rows(inner, np.zeros_like(t_hi), t_hi, n_panels)
        # (c Z~)^q on A_c: weight c^q e^(-q (BT + A2 y)), mass over x >= x*
        t2 = tilted_interval_mass(-q * a1, m_c, cond_sd, x_star, np.inf,
                                  q * (lnc[ids] - bt - a2 * y))
        return _phi(y, sd) * (t1 + t2) / p

    return _integrate(f, -ctx.cap, ctx.cap, np.full(c.size, True))


def _spread_power_psi2(ctx: _Ctx, c, p: float):
    a1, a2 = ctx.cons.a1, ctx.cons.a2
    sg1, s10 = ctx.params.sigma[0], ctx.params.s0[0]
    rho, sd, cond_sd, t = ctx.rho, ctx.sd, ctx.cond_sd, ctx.cons.T
    kap = 1.0 / (p - 1.0)
    lnc = _each(_lnc, c)
    bs, m1, _m2, _suf = _side_fields(ctx, True)
    bt = bs * t

    def f(y, ids):
        x_star, _d_y, s2k = _spread_xstar(ctx, lnc[ids], p, y, True)
        m_c = rho * y
        t1 = s10 * np.exp(m1) * tilted_interval_mass(sg1, m_c, cond_sd,
                                                     x_star, np.inf)
        t2 = s2k * tilted_interval_mass(0.0, m_c, cond_sd, x_star, np.inf)
        # (c Z~)^kap on A_c: weight c^kap e^(-kap (BT + A2 y))
        t3 = tilted_interval_mass(-kap * a1, m_c, cond_sd, x_star, np.inf,
                                  kap * (lnc[ids] - bt - a2 * y))
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
    cap(o); cap None is no cap."""

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

    return _integrate(f, r.lo, r.hi, np.full(c.size, True))


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
    so the power denominator is A2 or A1."""
    _bs, m1, m2, suf = _side_fields(ctx, tilde)
    thr = ctx.cons.thresholds
    thr_b, k = thr["b" + suf], ctx.k
    a1, a2 = ctx.cons.a1, ctx.cons.a2
    sg1, sg2 = ctx.params.sigma
    s10, s20 = ctx.params.s0
    common = dict(hi=ctx.cap, o_sd=ctx.sd, slope=ctx.rho, s_sd=ctx.cond_sd,
                  tau=0.0)
    return (
        _Region(lo=max(thr["a1" + suf], -ctx.cap), a_o=a1, a_s=a2,
                f=lambda x: np.maximum(s10 * np.exp(m1 + sg1 * x) - k, 0.0),
                cap=lambda x: (sg1 * x - thr_b) / sg2, **common),
        _Region(lo=max(thr["a2" + suf], -ctx.cap), a_o=a2, a_s=a1,
                f=lambda y: np.maximum(s20 * np.exp(m2 + sg2 * y) - k, 0.0),
                cap=lambda y: (sg2 * y + thr_b) / sg1, **common))


_REGIONS = {
    QUANTO_DOMESTIC: _qd_regions,
    QUANTO_FOREIGN: _qf_regions,
    OUTPERFORMANCE: _outp_regions,
}
_S1_CALL_STRIKES = {QUANTO_FOREIGN: _qf_strike, SPREAD: _spread_strike}


def _closed_side(ctx: _Ctx, kind: str, c, p: Optional[float], tilde: bool):
    """(values, errs) of one side at each c, by the payoff's shape; p None
    is linear loss.  Digital is orthants, QuantoForeign/linear and
    Spread/linear the S1-call side, Spread/power its own kernels, and every
    other side a sum over product-form regions."""
    if kind == DIGITAL:
        return _digital_side(ctx, c, p, tilde)
    if kind == SPREAD and p is not None:
        return (_spread_power_psi2 if tilde else _spread_power_psi1)(ctx, c, p)
    if p is None and kind in _S1_CALL_STRIKES:
        return _s1_call_side(ctx, c, tilde, _S1_CALL_STRIKES[kind])
    # one region is its own value; two regions add, v1 + v2
    v, e = np.sum([_region_side(ctx, c, r, p, tilde)
                   for r in _REGIONS[kind](ctx, p, tilde)], axis=0)
    return v, e


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def _validate_c(c) -> float:
    c = float(c)
    if math.isnan(c) or c < 0:
        raise ValidationError([f"c: must be a nonnegative real, got {c!r}"])
    return c


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
              side: int, trunc_sd: float = TRUNC_SD):
    """(values, errs) of Psi1 (side=1) or Psi2 (side=2) by quadrature, as
    arrays over the 1-d array of c.

    The one closed-form Psi entry point: the solver reads one side at all
    the c's of a step, and psi_linear / psi_power call it at one c, once
    per side.  A value does not depend on the other c's of the call.  A
    term that overflows (K^p at a large p, say) raises HeavyTailError: here
    if it reaches the value, else from integrate_batch as a non-finite
    integrand, and never as a RuntimeWarning.
    """
    c = np.array([_validate_c(ci) for ci in np.ravel(c)])
    if payoff.kind == CUSTOM:
        raise UnsupportedClosedFormError(
            "custom payoffs have no closed-form Psi; use psi_mc")
    ctx = _make_ctx(payoff, params, trunc_sd)
    if loss.kind == LINEAR:
        v, e = _closed_side(ctx, payoff.kind, c, None, side == 2)
        return np.maximum(v, 0.0), e
    _sign_guard_power(payoff, ctx, loss.p)
    v, e = np.zeros(c.size), np.zeros(c.size)
    at0 = c == 0.0
    if side == 2 and at0.any():
        v[at0], e[at0] = _closed_side(ctx, payoff.kind, c[at0], None, True)
    # Psi1(0) = 0 and Psi2(inf) = 0: A_0 is everything, A_inf empty
    rest = ~at0 if side == 1 else ~at0 & (c < math.inf)
    if rest.any():
        v[rest], e[rest] = _closed_side(ctx, payoff.kind, c[rest], loss.p,
                                        side == 2)
        bad = ~(np.isfinite(v) & np.isfinite(e))
        if bad.any():
            raise HeavyTailError(
                f"Psi{side} at p = {loss.p!r}, c = {_fmt_c(c[bad])}: a "
                "power-loss term overflows")
    return np.maximum(v, 0.0), e


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
    """

    def __init__(self, kind: str, n: int, p: Optional[float], key, h, zt=None):
        self.kind = kind
        self.n = n
        self.p = p
        self.key = key
        self.h = h      # H^p on the power1 side, H otherwise
        self.zt = zt    # Z~ (power only)
        with np.errstate(over="ignore"):  # side() reports an inf sum
            self.totals = (np.sum(h), np.sum(h * h))
        self.neg_key = None  # -key ascending, once sorted
        self.sums = ()

    def value(self, c, lnc):
        """(means, standard errors) of the side's terms at each c."""
        s, s2 = self._from_totals(c)
        finite = (c > 0.0) & (c < math.inf)
        if finite.any():
            with _MC_LOCK:
                if self.neg_key is None:
                    self._sort()
            s[finite], s2[finite] = self._from_sums(c[finite], lnc[finite])
        return self._stats(s, s2)

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
        elif self.kind == "power1":
            z **= self.p / (self.p - 1.0)
            # off-A_c terms as a suffix sum: total - prefix loses digits
            self.sums = (_suffix(h), _suffix(h * h),
                         _prefix(z), _prefix(z * z))
        else:
            z **= 1.0 / (self.p - 1.0)
            self.sums = (_prefix(h), _prefix(h * h), _prefix(h * z),
                         _prefix(z), _prefix(z * z))

    def _from_sums(self, c, lnc):
        k = np.searchsorted(self.neg_key, -lnc, side="right")
        p = self.p
        if self.kind == "linear":
            s, s2 = self.sums[0][k], self.sums[1][k]
        elif self.kind == "power1":
            off, off2, on, on2 = self.sums
            # c^q in Python floats, and only where A_c holds a path
            cq = _each(lambda ci: ci ** (p / (p - 1.0)), np.where(k > 0, c, 0.0))
            s = off[k] / p + cq * on[k] / p
            s2 = off2[k] / (p * p) + cq * cq * on2[k] / (p * p)
        else:
            hs, h2, hu, us, u2 = self.sums
            ck = _each(lambda ci: ci ** (1.0 / (p - 1.0)), np.where(k > 0, c, 0.0))
            s = np.where(k > 0, hs[k] - ck * us[k], 0.0)
            s2 = np.where(k > 0, h2[k] - 2.0 * ck * hu[k] + ck * ck * u2[k], 0.0)
        return s, s2

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
            return _McSide("linear", n, None, np.negative(ln_z, out=ln_z),
                           terms)
        key = np.log(h.take(keep))
        key *= loss.p - 1.0
        key -= ln_z
        with np.errstate(over="ignore"):  # side() reports an inf sum
            zt = np.exp(ln_z, out=ln_z)
        return _McSide("power1" if under == UNDER_P else "power2", n, loss.p,
                       key, terms, zt)

    @np.errstate(all="ignore")
    def side(self, c, side: int):
        """(Psi_side, standard errors) at each validated c of an array.  A
        weight c^q or c^kap past the float range, as on the quadrature
        route, or a value that is not finite raises HeavyTailError."""
        c = np.asarray(c, dtype=float)
        try:
            v, e = self.sides[side].value(c, _each(_lnc, c))
        except OverflowError:
            raise HeavyTailError(
                f"Monte Carlo Psi{side} at c = {_fmt_c(c)}: a power-loss "
                "weight overflows") from None
        bad = ~np.isfinite(v)
        if bad.any():
            raise HeavyTailError(f"Monte Carlo Psi{side} at c = {_fmt_c(c[bad])}"
                                 ": the sum over the paths overflows")
        return v, e


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
