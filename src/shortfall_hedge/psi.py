"""Auxiliary shortfall functions Psi1(c), Psi2(c) per payoff and loss.

Linear loss uses the success set A_c = {Z~^-1 >= c}; power loss l(x)=x^p/p
uses A_c = {c Z~ <= H^(p-1)}.  Definitions:

    linear:  Psi1(c) = E[H 1_Ac]                Psi2(c) = E~[H 1_Ac]
    power:   Psi1(c) = (1/p) E[H^p 1_{Ac^c}]
                       + (1/p) E[(c Z~)^(p/(p-1)) 1_Ac]
             Psi2(c) = E~[(H - (c Z~)^(1/(p-1))) 1_Ac]

The digital's indicator terms are bivariate normal orthant probabilities,
in closed form by Owen's T (gaussian.rect_upper_prob, err_estimate a 4 eps
rounding bound).  Every other expectation reduces to an outer 1-d adaptive
integral whose inner integral is the closed form E[e^(gamma Y) 1{lo<=Y<=hi}]
for a conditional normal Y, except the spread/power shortfall term, whose
inner integrand (S1 - S2 - K)^p has no tilt representation and is
integrated numerically after the substitution x = d(y) + t^4 that removes
the algebraic edge.

_psi_side is the one quadrature entry point, and it takes an array of c:
every side integrates one interval per c in one integrate_batch call, its
integrand indexing the per-c constants by interval id.  Per-c constants
(ln c, c^q) are taken in Python floats, and integrate_batch sums each
interval on its own, so a value does not depend on the other c's of the
call.  psi_linear and psi_power call it at one c, once per side.

Monte Carlo twins of both functions (psi_mc) sample W_T under P and W~_T
under P~ directly and work for every payoff, including Custom and the
parameter regions where a closed-form sign condition fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtr

from ._quad import integrate_batch, integrate_rows
from .errors import (AssumptionViolatedError, HeavyTailError, NanGuardError,
                     UnsupportedClosedFormError, ValidationError)
from .gaussian import (RECT_ERR, GaussianLaw, rect_upper_prob, sample,
                       tilted_interval_mass)
from .market import UNDER_P, UNDER_PTILDE, MarketParams, MeasureConstants
from .payoffs import (CUSTOM, DIGITAL, OUTPERFORMANCE, QUANTO_DOMESTIC,
                      QUANTO_FOREIGN, SPREAD, Payoff, evaluate,
                      payoff_constants)

LINEAR = "linear"
POWER = "power"

_SIGN_TOL = 1e-14
# Gaussian integrals are truncated at +/-TRUNC_SD marginal standard
# deviations (truncated mass < 1e-23, the documented error floor)
TRUNC_SD = 10.0
_INNER_PANELS_MIN = 16
_INNER_PANELS_MAX = 96
# abscissae per inner-integral chunk: 16384 doubles (128 KiB) per temporary
# stay in the heap and the L2 cache; a temporary of all rows (up to
# 120 x 96 x 15, 1.4 MB) is mapped and unmapped again on every call
_INNER_CHUNK_POINTS = 16384


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


def _c_weight(c, q: float, b: float, t: float) -> np.ndarray:
    """c^q e^(-q b t) at each c, 0 at c = inf, in Python floats."""
    return _each(lambda ci: 0.0 if math.isinf(ci)
                 else ci ** q * math.exp(-q * b * t), c)


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


def _norm_sf(x) -> float:
    return float(ndtr(-np.asarray(x, dtype=float)))


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


def _digital_xy(ctx: _Ctx):
    """Joint data of X = s1.W1 - s2.W2 and Y = A1.W1 + A2.W2 (zero mean)."""
    sg1, sg2 = ctx.params.sigma
    a1, a2 = ctx.cons.a1, ctx.cons.a2
    m = np.array([[sg1, -sg2], [a1, a2]])
    cov = m @ ctx.params.wiener_cov @ m.T
    return cov


# ---------------------------------------------------------------------------
# linear loss, one side (tilde=False -> Psi1 under P, tilde=True -> Psi2),
# at each c of an array; c = inf gives an empty interval (A_c is empty)
# ---------------------------------------------------------------------------

def _digital_linear_one(ctx: _Ctx, c: float, tilde: bool):
    bs, _m1, _m2, suf = _side_fields(ctx, tilde)
    thr_b = ctx.cons.thresholds["b" + suf]
    big_l = _lnc(c) - bs * ctx.cons.T
    a1, a2 = ctx.cons.a1, ctx.cons.a2
    sg1, sg2 = ctx.params.sigma
    cov = _digital_xy(ctx)
    sd_x = math.sqrt(cov[0, 0])
    amax = max(abs(a1), abs(a2))
    if amax <= _SIGN_TOL:
        val = ctx.k * _norm_sf(thr_b / sd_x) if c <= 1.0 else 0.0
        return val, 0.0
    det = sg1 * a2 + sg2 * a1
    if abs(det) <= _SIGN_TOL * max(sg1, sg2) * amax:
        lam = a1 / sg1
        if lam > 0:
            lo = max(thr_b, big_l / lam)
            return ctx.k * _norm_sf(lo / sd_x), 0.0
        hi = big_l / lam
        mass = max(0.0, float(ndtr(hi / sd_x) - ndtr(thr_b / sd_x)))
        return ctx.k * mass, 0.0
    law = GaussianLaw(2, np.zeros(2), cov)
    return ctx.k * rect_upper_prob(law, (thr_b, big_l)), ctx.k * RECT_ERR


def _digital_linear_side(ctx: _Ctx, c, tilde: bool):
    # closed form, no quadrature: one c at a time
    return _each(lambda ci: _digital_linear_one(ctx, ci, tilde), c).T


def _qd_linear_side(ctx: _Ctx, c, tilde: bool):
    bs, m1, m2, suf = _side_fields(ctx, tilde)
    thr_a1 = ctx.cons.thresholds["a1" + suf]
    big_l = _each(_lnc, c) - bs * ctx.cons.T
    a1, a2 = ctx.cons.a1, ctx.cons.a2
    sg1, sg2 = ctx.params.sigma
    s10, s20 = ctx.params.s0
    rho, sd, cond_sd, k = ctx.rho, ctx.sd, ctx.cond_sd, ctx.k

    def f(x, ids):
        g = np.maximum(s10 * np.exp(m1 + sg1 * x) - k, 0.0)
        lo_y, hi_y = _half_line(a2, a1 * x, big_l[ids])
        mass = tilted_interval_mass(sg2, rho * x, cond_sd, lo_y, hi_y)
        return _phi(x, sd) * g * s20 * np.exp(m2) * mass

    return _integrate(f, max(thr_a1, -ctx.cap), ctx.cap, big_l < math.inf)


def _qf_linear_side(ctx: _Ctx, c, tilde: bool):
    bs, m1, m2, suf = _side_fields(ctx, tilde)
    thr_d = ctx.cons.thresholds["d" + suf]
    big_l = _each(_lnc, c) - bs * ctx.cons.T
    a1, a2 = ctx.cons.a1, ctx.cons.a2
    sg1, sg2 = ctx.params.sigma
    s10, s20 = ctx.params.s0
    rho, sd, cond_sd, k = ctx.rho, ctx.sd, ctx.cond_sd, ctx.k

    def f(y, ids):
        lo_x, hi_x = _half_line(a1, a2 * y, big_l[ids])
        lo_x = np.maximum(lo_x, (thr_d - sg2 * y) / sg1)
        m_c = rho * y
        t1 = s10 * np.exp(m1) * tilted_interval_mass(sg1, m_c, cond_sd, lo_x, hi_x)
        t2 = (k / s20) * np.exp(-m2 - sg2 * y) * tilted_interval_mass(
            0.0, m_c, cond_sd, lo_x, hi_x)
        return _phi(y, sd) * (t1 - t2)

    return _integrate(f, -ctx.cap, ctx.cap, big_l < math.inf)


def _outp_linear_side(ctx: _Ctx, c, tilde: bool):
    bs, m1, m2, suf = _side_fields(ctx, tilde)
    thr = ctx.cons.thresholds
    thr_a1, thr_a2, thr_b = thr["a1" + suf], thr["a2" + suf], thr["b" + suf]
    big_l = _each(_lnc, c) - bs * ctx.cons.T
    a1, a2 = ctx.cons.a1, ctx.cons.a2
    sg1, sg2 = ctx.params.sigma
    s10, s20 = ctx.params.s0
    rho, sd, cond_sd, k = ctx.rho, ctx.sd, ctx.cond_sd, ctx.k
    live = big_l < math.inf

    def f_r1(x, ids):
        g = np.maximum(s10 * np.exp(m1 + sg1 * x) - k, 0.0)
        lo_y, hi_y = _half_line(a2, a1 * x, big_l[ids])
        hi_y = np.minimum(hi_y, (sg1 * x - thr_b) / sg2)
        mass = tilted_interval_mass(0.0, rho * x, cond_sd, lo_y, hi_y)
        return _phi(x, sd) * g * mass

    def f_r2(y, ids):
        g = np.maximum(s20 * np.exp(m2 + sg2 * y) - k, 0.0)
        lo_x, hi_x = _half_line(a1, a2 * y, big_l[ids])
        hi_x = np.minimum(hi_x, (sg2 * y + thr_b) / sg1)
        mass = tilted_interval_mass(0.0, rho * y, cond_sd, lo_x, hi_x)
        return _phi(y, sd) * g * mass

    v1, e1 = _integrate(f_r1, max(thr_a1, -ctx.cap), ctx.cap, live)
    v2, e2 = _integrate(f_r2, max(thr_a2, -ctx.cap), ctx.cap, live)
    return v1 + v2, e1 + e2


def _spread_linear_side(ctx: _Ctx, c, tilde: bool):
    bs, m1, m2, _suf = _side_fields(ctx, tilde)
    big_l = _each(_lnc, c) - bs * ctx.cons.T
    a1, a2 = ctx.cons.a1, ctx.cons.a2
    sg1, sg2 = ctx.params.sigma
    s10, s20 = ctx.params.s0
    rho, sd, cond_sd, k = ctx.rho, ctx.sd, ctx.cond_sd, ctx.k

    def f(y, ids):
        s2v = s20 * np.exp(m2 + sg2 * y)
        lo_x, hi_x = _half_line(a1, a2 * y, big_l[ids])
        lo_x = np.maximum(lo_x, (np.log((s2v + k) / s10) - m1) / sg1)
        m_c = rho * y
        t1 = s10 * np.exp(m1) * tilted_interval_mass(sg1, m_c, cond_sd, lo_x, hi_x)
        t2 = (s2v + k) * tilted_interval_mass(0.0, m_c, cond_sd, lo_x, hi_x)
        return _phi(y, sd) * (t1 - t2)

    return _integrate(f, -ctx.cap, ctx.cap, big_l < math.inf)


_LINEAR_SIDES = {
    DIGITAL: _digital_linear_side,
    QUANTO_DOMESTIC: _qd_linear_side,
    QUANTO_FOREIGN: _qf_linear_side,
    OUTPERFORMANCE: _outp_linear_side,
    SPREAD: _spread_linear_side,
}


# ---------------------------------------------------------------------------
# power loss, at each c of an array: Psi1 sides see 0 < c <= inf, Psi2
# sides 0 < c < inf (_psi_side settles the other c's).  A term weighted by
# coef2 is skipped, by mask, where coef2 is 0: at c = inf it is 0 * inf.
# ---------------------------------------------------------------------------

def _digital_power_psi1(ctx: _Ctx, c, p: float):
    a1, a2 = ctx.cons.a1, ctx.cons.a2
    sg1, sg2 = ctx.params.sigma
    k, t = ctx.k, ctx.cons.T
    b_cap = ctx.cons.b_cap
    thr_b = ctx.cons.thresholds["b"]
    q = p / (p - 1.0)
    cov = _digital_xy(ctx)
    sd_x = math.sqrt(cov[0, 0])
    p_b = _norm_sf(thr_b / sd_x)
    amax = max(abs(a1), abs(a2))
    if amax <= _SIGN_TOL:
        scaled = _each(lambda ci: k ** p if ci > k ** (p - 1.0) else ci ** q, c)
        return (scaled / p) * p_b, np.zeros(c.size)
    u_c = _each(_lnc, c) - (p - 1.0) * math.log(k) - b_cap * t
    w = _c_weight(c, q, b_cap, t) / p
    det = sg1 * a2 + sg2 * a1
    if abs(det) <= _SIGN_TOL * max(sg1, sg2) * amax:
        lam = a1 / sg1
        cut = np.maximum(thr_b, u_c / lam)
        if lam > 0:
            a_lo, a_hi, c_lo, c_hi = cut, np.inf, thr_b, cut
        else:
            a_lo, a_hi, c_lo, c_hi = thr_b, u_c / lam, cut, np.inf
        term1 = (k ** p / p) * tilted_interval_mass(0.0, 0.0, sd_x, c_lo, c_hi)
        term2 = w * tilted_interval_mass(-q * lam, 0.0, sd_x, a_lo, a_hi)
        return term1 + term2, np.zeros(c.size)
    law = GaussianLaw(2, np.zeros(2), cov)
    val = (k ** p / p) * (p_b - _each(
        lambda u: rect_upper_prob(law, (thr_b, u)), u_c))
    err = np.full(c.size, (k ** p / p) * RECT_ERR)
    coef = cov[0, 1] / cov[0, 0]
    s_yx = math.sqrt(max(cov[1, 1] - coef * cov[0, 1], 0.0))

    def f(x, ids):
        return _phi(x, sd_x) * tilted_interval_mass(
            -q, coef * x, s_yx, u_c[ids], np.inf)

    vals, errs = _integrate(f, max(thr_b, -ctx.trunc_sd * sd_x),
                            ctx.trunc_sd * sd_x, c < math.inf)
    return val + w * vals, err + w * errs


def _digital_power_psi2(ctx: _Ctx, c, p: float):
    a1, a2 = ctx.cons.a1, ctx.cons.a2
    sg1, sg2 = ctx.params.sigma
    k, t = ctx.k, ctx.cons.T
    b_tilde = ctx.cons.b_cap_tilde
    thr_b = ctx.cons.thresholds["b_tilde"]
    kap = 1.0 / (p - 1.0)
    cov = _digital_xy(ctx)
    sd_x = math.sqrt(cov[0, 0])
    amax = max(abs(a1), abs(a2))
    if amax <= _SIGN_TOL:
        p_b = _norm_sf(thr_b / sd_x)
        return _each(lambda ci: max(k - ci ** kap, 0.0) * p_b, c), \
            np.zeros(c.size)
    u_c = _each(_lnc, c) - (p - 1.0) * math.log(k) - b_tilde * t
    w = _c_weight(c, kap, b_tilde, t)
    det = sg1 * a2 + sg2 * a1
    if abs(det) <= _SIGN_TOL * max(sg1, sg2) * amax:
        lam = a1 / sg1
        if lam > 0:
            a_lo, a_hi = np.maximum(thr_b, u_c / lam), np.inf
        else:
            a_lo, a_hi = thr_b, u_c / lam
        val = k * tilted_interval_mass(0.0, 0.0, sd_x, a_lo, a_hi)
        val = val - w * tilted_interval_mass(-kap * lam, 0.0, sd_x, a_lo, a_hi)
        return val, np.zeros(c.size)
    law = GaussianLaw(2, np.zeros(2), cov)
    pj = _each(lambda u: rect_upper_prob(law, (thr_b, u)), u_c)
    coef = cov[0, 1] / cov[0, 0]
    s_yx = math.sqrt(max(cov[1, 1] - coef * cov[0, 1], 0.0))

    def f(x, ids):
        return _phi(x, sd_x) * tilted_interval_mass(-kap, coef * x, s_yx,
                                                    u_c[ids], np.inf)

    vals, errs = _integrate(f, max(thr_b, -ctx.trunc_sd * sd_x),
                            ctx.trunc_sd * sd_x, c < math.inf)
    return k * pj - w * vals, k * RECT_ERR + w * errs


def _qd_beta(ctx: _Ctx, p: float) -> float:
    return ctx.cons.a2 / (p - 1.0) + ctx.params.sigma[1]


def _check_qd_power(ctx: _Ctx, p: float):
    beta = _qd_beta(ctx, p)
    if beta <= 0:
        raise AssumptionViolatedError(
            "quanto-domestic power loss requires A2/(p-1) + sigma2 > 0 "
            f"(got {beta:.6g}); use the Monte Carlo route")
    return beta


def _qd_power_boundary(ctx: _Ctx, lnc, p: float, tilde: bool, x):
    """Row boundary w(x) at ln c = lnc (elementwise with x): the success
    region is {y >= w(x)}."""
    bs, m1, m2, _suf = _side_fields(ctx, tilde)
    kap = 1.0 / (p - 1.0)
    beta = _qd_beta(ctx, p)
    s10, s20 = ctx.params.s0
    sg1 = ctx.params.sigma[0]
    a1, t = ctx.cons.a1, ctx.cons.T
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = s10 * np.exp(m1 + sg1 * x) - ctx.k
        ln_g = np.where(g > 0, np.log(np.maximum(g, 1e-300)), -np.inf)
        num = (ln_g + math.log(s20) + m2 - kap * lnc
               + kap * a1 * x + kap * bs * t)
    return -num / beta


def _qd_power_psi1(ctx: _Ctx, c, p: float):
    _check_qd_power(ctx, p)
    thr_a1 = ctx.cons.thresholds["a1"]
    a1, a2 = ctx.cons.a1, ctx.cons.a2
    sg1, sg2 = ctx.params.sigma
    s10, s20 = ctx.params.s0
    rho, sd, cond_sd, k, t = ctx.rho, ctx.sd, ctx.cond_sd, ctx.k, ctx.cons.T
    q = p / (p - 1.0)
    b_cap = ctx.cons.b_cap
    c_p = (s20 * math.exp(ctx.m2p)) ** p
    lnc = _each(_lnc, c)
    coef2 = _c_weight(c, q, b_cap, t)

    def f(x, ids):
        w = _qd_power_boundary(ctx, lnc[ids], p, False, x)
        g = np.maximum(s10 * np.exp(ctx.m1p + sg1 * x) - k, 0.0)
        t1 = c_p * g ** p * tilted_interval_mass(p * sg2, rho * x, cond_sd,
                                                 -np.inf, w)
        c2 = coef2[ids]
        out = np.where(c2 != 0.0, t1 + c2 * np.exp(-q * a1 * x)
                       * tilted_interval_mass(-q * a2, rho * x, cond_sd, w,
                                              np.inf), t1)
        return _phi(x, sd) * out / p

    return _integrate(f, max(thr_a1, -ctx.cap), ctx.cap,
                      np.full(c.size, True))


def _qd_power_psi2(ctx: _Ctx, c, p: float):
    _check_qd_power(ctx, p)
    thr_a1 = ctx.cons.thresholds["a1_tilde"]
    a1, a2 = ctx.cons.a1, ctx.cons.a2
    sg1, sg2 = ctx.params.sigma
    s10, s20 = ctx.params.s0
    rho, sd, cond_sd, k, t = ctx.rho, ctx.sd, ctx.cond_sd, ctx.k, ctx.cons.T
    kap = 1.0 / (p - 1.0)
    b_tilde = ctx.cons.b_cap_tilde
    lnc = _each(_lnc, c)
    coef = _c_weight(c, kap, b_tilde, t)

    def f(x, ids):
        w = _qd_power_boundary(ctx, lnc[ids], p, True, x)
        g = np.maximum(s10 * np.exp(ctx.m1q + sg1 * x) - k, 0.0)
        t1 = s20 * math.exp(ctx.m2q) * g * tilted_interval_mass(
            sg2, rho * x, cond_sd, w, np.inf)
        t2 = coef[ids] * np.exp(-kap * a1 * x) * tilted_interval_mass(
            -kap * a2, rho * x, cond_sd, w, np.inf)
        return _phi(x, sd) * (t1 - t2)

    return _integrate(f, max(thr_a1, -ctx.cap), ctx.cap,
                      np.full(c.size, True))


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


def _qf_power_psi1(ctx: _Ctx, c, p: float):
    inv, g_u, g_z, sd_z, coef_uz, sd_u_z = _qf_uz(ctx, p)
    s10, s20 = ctx.params.s0
    sg2 = ctx.params.sigma[1]
    k, t = ctx.k, ctx.cons.T
    thr_d = ctx.cons.thresholds["d"]
    kap, q = 1.0 / (p - 1.0), p / (p - 1.0)
    b_cap = ctx.cons.b_cap
    k21, k22 = inv[1, 0], inv[1, 1]
    ln_d = kap * _each(_lnc, c) + math.log(s20) + ctx.m2p - kap * b_cap * t
    c1 = s20 ** (-p) * math.exp(-p * ctx.m2p) / p
    coef2 = _c_weight(c, q, b_cap, t) / p

    def f(z, ids):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            n_z = s10 * s20 * np.exp(ctx.m1p + ctx.m2p + z) - k
            n_z = np.maximum(n_z, 0.0)
            v = np.where(n_z > 0, ln_d[ids] - np.log(np.maximum(n_z, 1e-300)),
                         np.inf)
        m_u = coef_uz * z
        t1 = c1 * n_z ** p * np.exp(-p * sg2 * k22 * z) * tilted_interval_mass(
            -p * sg2 * k21, m_u, sd_u_z, -np.inf, v)
        c2 = coef2[ids]
        out = np.where(c2 != 0.0, t1 + c2 * np.exp(-q * g_z * z)
                       * tilted_interval_mass(-q * g_u, m_u, sd_u_z, v,
                                              np.inf), t1)
        return _phi(z, sd_z) * out

    return _integrate(f, max(thr_d, -ctx.trunc_sd * sd_z),
                      ctx.trunc_sd * sd_z, np.full(c.size, True))


def _qf_power_psi2(ctx: _Ctx, c, p: float):
    inv, g_u, g_z, sd_z, coef_uz, sd_u_z = _qf_uz(ctx, p)
    s10, s20 = ctx.params.s0
    sg2 = ctx.params.sigma[1]
    k, t = ctx.k, ctx.cons.T
    thr_d = ctx.cons.thresholds["d_tilde"]
    kap = 1.0 / (p - 1.0)
    b_tilde = ctx.cons.b_cap_tilde
    k21, k22 = inv[1, 0], inv[1, 1]
    ln_d = kap * _each(_lnc, c) + math.log(s20) + ctx.m2q - kap * b_tilde * t
    c1 = 1.0 / (s20 * math.exp(ctx.m2q))
    coef2 = _c_weight(c, kap, b_tilde, t)

    def f(z, ids):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            n_z = s10 * s20 * np.exp(ctx.m1q + ctx.m2q + z) - k
            n_z = np.maximum(n_z, 0.0)
            v = np.where(n_z > 0, ln_d[ids] - np.log(np.maximum(n_z, 1e-300)),
                         np.inf)
        m_u = coef_uz * z
        t1 = c1 * n_z * np.exp(-sg2 * k22 * z) * tilted_interval_mass(
            -sg2 * k21, m_u, sd_u_z, v, np.inf)
        t2 = coef2[ids] * np.exp(-kap * g_z * z) * tilted_interval_mass(
            -kap * g_u, m_u, sd_u_z, v, np.inf)
        return _phi(z, sd_z) * (t1 - t2)

    return _integrate(f, max(thr_d, -ctx.trunc_sd * sd_z),
                      ctx.trunc_sd * sd_z, np.full(c.size, True))


def _check_outp_power(ctx: _Ctx):
    a1, a2 = ctx.cons.a1, ctx.cons.a2
    if a1 <= _SIGN_TOL or a2 <= _SIGN_TOL:
        raise AssumptionViolatedError(
            "outperformance power loss requires A1 > 0 and A2 > 0 "
            f"(got A1={a1:.6g}, A2={a2:.6g}); use the Monte Carlo route")


def _outp_power_side(ctx: _Ctx, c, p: float, tilde: bool):
    """Either Psi1^p (tilde=False) or Psi2^p (tilde=True)."""
    _check_outp_power(ctx)
    bs, m1, m2, suf = _side_fields(ctx, tilde)
    thr = ctx.cons.thresholds
    thr_a1, thr_a2, thr_b = thr["a1" + suf], thr["a2" + suf], thr["b" + suf]
    a1, a2 = ctx.cons.a1, ctx.cons.a2
    sg1, sg2 = ctx.params.sigma
    s10, s20 = ctx.params.s0
    rho, sd, cond_sd, k, t = ctx.rho, ctx.sd, ctx.cond_sd, ctx.k, ctx.cons.T
    kap, q = 1.0 / (p - 1.0), p / (p - 1.0)
    lnc = _each(_lnc, c)
    coef2 = _c_weight(c, kap, bs, t) if tilde else _c_weight(c, q, bs, t)

    def region(outer, ids, own_a, other_a, own_sg, other_sg, s0_own, m_own,
               thr_cap):
        g = np.maximum(s0_own * np.exp(m_own + own_sg * outer) - k, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ln_g = np.where(g > 0, np.log(np.maximum(g, 1e-300)), -np.inf)
            v = (lnc[ids] - (p - 1.0) * ln_g - own_a * outer - bs * t) / other_a
        cap = (own_sg * outer - thr_cap) / other_sg
        m_c = rho * outer
        c2 = coef2[ids]
        if tilde:
            t1 = g * tilted_interval_mass(0.0, m_c, cond_sd, v, cap)
            t2 = c2 * np.exp(-kap * own_a * outer) * tilted_interval_mass(
                -kap * other_a, m_c, cond_sd, v, cap)
            return _phi(outer, sd) * (t1 - t2)
        t1 = g ** p * tilted_interval_mass(0.0, m_c, cond_sd, -np.inf,
                                           np.minimum(v, cap))
        out = np.where(c2 != 0.0, t1 + c2 * np.exp(-q * own_a * outer)
                       * tilted_interval_mass(-q * other_a, m_c, cond_sd, v,
                                              cap), t1)
        return _phi(outer, sd) * out / p

    def f_r1(x, ids):
        return region(x, ids, a1, a2, sg1, sg2, s10, m1, thr_b)

    def f_r2(y, ids):
        # region 2 constraint is sigma1 x - sigma2 y < b, i.e. x < (sigma2 y + b)/sigma1
        return region(y, ids, a2, a1, sg2, sg1, s20, m2, -thr_b)

    live = np.full(c.size, True)
    v1, e1 = _integrate(f_r1, max(thr_a1, -ctx.cap), ctx.cap, live)
    v2, e2 = _integrate(f_r2, max(thr_a2, -ctx.cap), ctx.cap, live)
    return v1 + v2, e1 + e2


def _check_spread_power(ctx: _Ctx):
    if ctx.cons.a1 <= _SIGN_TOL:
        raise AssumptionViolatedError(
            "spread power loss requires A1 > 0 (the region boundary in x is "
            f"then a single crossing; got A1={ctx.cons.a1:.6g}); "
            "use the Monte Carlo route")


def _spread_d_of_y(ctx: _Ctx, y, tilde: bool):
    _bs, m1, m2, _suf = _side_fields(ctx, tilde)
    s10, s20 = ctx.params.s0
    sg1, sg2 = ctx.params.sigma
    s2v = s20 * np.exp(m2 + sg2 * np.asarray(y, dtype=float))
    return (np.log((s2v + ctx.k) / s10) - m1) / sg1, s2v


def _spread_xstar(ctx: _Ctx, lnc, p: float, y, tilde: bool):
    """Unique crossing x*(y) of c^k Z~^k = S1(x) - S2(y) - K, above d(y).

    lnc = ln c, per row or one for all.  Vectorized bisection to 1e-12
    absolute in x, row by row.  c = 0 gives d(y); c = inf gives +inf.
    """
    _check_spread_power(ctx)
    bs, m1, _m2, _suf = _side_fields(ctx, tilde)
    y = np.asarray(y, dtype=float)
    d_y, s2v = _spread_d_of_y(ctx, y, tilde)
    lnc = np.broadcast_to(np.asarray(lnc, dtype=float), d_y.shape)
    x_star = np.where(lnc == -np.inf, d_y, np.inf)
    rows = np.isfinite(lnc)
    if not rows.any():
        return x_star, d_y
    kap = 1.0 / (p - 1.0)
    a1, a2, t = ctx.cons.a1, ctx.cons.a2, ctx.cons.T
    s10 = ctx.params.s0[0]
    sg1 = ctx.params.sigma[0]
    lnc_r, y_r, d_r, s2v_r = lnc[rows], y[rows], d_y[rows], s2v[rows]

    def h(x):
        # decreasing in x: left side is the kappa-log of c Z~, right side
        # the log payoff; h > 0 means x is left of the crossing
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            lhs = kap * (lnc_r - a1 * x - a2 * y_r - bs * t)
            gap = s10 * np.exp(m1 + sg1 * x) - s2v_r - ctx.k
            rhs = np.where(gap > 0, np.log(np.maximum(gap, 1e-300)), -np.inf)
        return lhs - rhs

    lo = d_r.copy()
    width = np.full_like(d_r, 1.0)
    hi = d_r + width
    for _ in range(80):
        mask = h(hi) > 0
        if not mask.any():
            break
        width = np.where(mask, width * 2.0, width)
        hi = np.where(mask, d_r + width, hi)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        above = h(mid) > 0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    x_star[rows] = 0.5 * (lo + hi)
    return x_star, d_y


def _spread_shortfall_rows(ctx: _Ctx, p: float, d_y, s2k, m_c, t_hi):
    """Inner integral of (S1 - S2 - K)^p over [d(y), d(y) + t_hi^4] under
    the conditional law of W1, row-wise after x = d(y) + t^4.  The panel
    count follows the widest of the given rows."""
    s10 = ctx.params.s0[0]
    sg1 = ctx.params.sigma[0]
    cond_sd = ctx.cond_sd
    n_panels = int(np.clip(
        math.ceil(4.0 * float(np.max(t_hi, initial=0.0)) ** 4
                  / (0.75 * cond_sd)),
        _INNER_PANELS_MIN, _INNER_PANELS_MAX))

    # rows in chunks: a row's value does not depend on the other rows
    step = max(1, _INNER_CHUNK_POINTS // (15 * n_panels))
    out = np.empty_like(t_hi)
    for i in range(0, t_hi.size, step):
        r = slice(i, i + step)
        d_r, s_r, m_r = d_y[r], s2k[r], m_c[r]

        def inner(tt):
            x = d_r[:, None, None] + tt ** 4
            gap = np.maximum(s10 * np.exp(ctx.m1p + sg1 * x)
                             - s_r[:, None, None], 0.0)
            return (gap ** p * _phi(x - m_r[:, None, None], cond_sd)
                    * 4.0 * tt ** 3)

        out[r] = integrate_rows(inner, np.zeros_like(t_hi[r]), t_hi[r],
                                n_panels)
    return out


def _spread_power_psi1(ctx: _Ctx, c, p: float):
    _check_spread_power(ctx)
    a1, a2 = ctx.cons.a1, ctx.cons.a2
    sg1, sg2 = ctx.params.sigma
    rho, sd, cond_sd, k, t = ctx.rho, ctx.sd, ctx.cond_sd, ctx.k, ctx.cons.T
    q = p / (p - 1.0)
    b_cap = ctx.cons.b_cap
    lnc = _each(_lnc, c)
    coef2 = _c_weight(c, q, b_cap, t)

    def f(y, ids):
        x_star, d_y = _spread_xstar(ctx, lnc[ids], p, y, False)
        m_c = rho * y
        # inner cap: beyond the tilt-shifted conditional tail the p-th power
        # of the gap carries negligible mass
        hi_inner = np.minimum(x_star,
                              np.maximum(d_y, m_c + p * sg1 * cond_sd ** 2
                                         + (ctx.trunc_sd + 2.0) * cond_sd))
        t_hi = np.maximum(hi_inner - d_y, 0.0) ** 0.25
        s2k = np.exp(ctx.m2p + sg2 * y) * ctx.params.s0[1] + k
        # one c at a time, so that each c's panel count and temporaries are
        # those of a one-c call
        t1 = np.empty_like(y)
        for i in np.unique(ids):
            r = ids == i
            t1[r] = _spread_shortfall_rows(ctx, p, d_y[r], s2k[r], m_c[r],
                                           t_hi[r])
        out = t1 / p
        c2 = coef2[ids]
        out = np.where(c2 != 0.0, out + (c2 / p) * np.exp(-q * a2 * y)
                       * tilted_interval_mass(-q * a1, m_c, cond_sd, x_star,
                                              np.inf), out)
        return _phi(y, sd) * out

    return _integrate(f, -ctx.cap, ctx.cap, np.full(c.size, True))


def _spread_power_psi2(ctx: _Ctx, c, p: float):
    _check_spread_power(ctx)
    a1, a2 = ctx.cons.a1, ctx.cons.a2
    sg1 = ctx.params.sigma[0]
    s10 = ctx.params.s0[0]
    rho, sd, cond_sd, k, t = ctx.rho, ctx.sd, ctx.cond_sd, ctx.k, ctx.cons.T
    kap = 1.0 / (p - 1.0)
    b_tilde = ctx.cons.b_cap_tilde
    lnc = _each(_lnc, c)
    coef2 = _c_weight(c, kap, b_tilde, t)
    _bs, m1, _m2, _suf = _side_fields(ctx, True)

    def f(y, ids):
        x_star, _d_y = _spread_xstar(ctx, lnc[ids], p, y, True)
        _dd, s2v = _spread_d_of_y(ctx, y, True)
        m_c = rho * y
        t1 = s10 * np.exp(m1) * tilted_interval_mass(sg1, m_c, cond_sd,
                                                     x_star, np.inf)
        t2 = (s2v + k) * tilted_interval_mass(0.0, m_c, cond_sd, x_star, np.inf)
        t3 = coef2[ids] * np.exp(-kap * a2 * y) * tilted_interval_mass(
            -kap * a1, m_c, cond_sd, x_star, np.inf)
        return _phi(y, sd) * (t1 - t2 - t3)

    return _integrate(f, -ctx.cap, ctx.cap, np.full(c.size, True))


_POWER_PSI1 = {
    DIGITAL: _digital_power_psi1,
    QUANTO_DOMESTIC: _qd_power_psi1,
    QUANTO_FOREIGN: _qf_power_psi1,
    OUTPERFORMANCE: lambda ctx, c, p: _outp_power_side(ctx, c, p, False),
    SPREAD: _spread_power_psi1,
}
_POWER_PSI2 = {
    DIGITAL: _digital_power_psi2,
    QUANTO_DOMESTIC: _qd_power_psi2,
    QUANTO_FOREIGN: _qf_power_psi2,
    OUTPERFORMANCE: lambda ctx, c, p: _outp_power_side(ctx, c, p, True),
    SPREAD: _spread_power_psi2,
}


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def _validate_c(c) -> float:
    c = float(c)
    if math.isnan(c) or c < 0:
        raise ValidationError([f"c: must be a nonnegative real, got {c!r}"])
    return c


def _sign_guard_power(payoff: Payoff, ctx: _Ctx, p: float):
    """Raise the payoff's sign-condition error regardless of the c branch."""
    if payoff.kind == QUANTO_DOMESTIC:
        _check_qd_power(ctx, p)
    elif payoff.kind == QUANTO_FOREIGN:
        _qf_uz(ctx, p)
    elif payoff.kind == OUTPERFORMANCE:
        _check_outp_power(ctx)
    elif payoff.kind == SPREAD:
        _check_spread_power(ctx)


def _psi_side(payoff: Payoff, params: MarketParams, loss: LossSpec, c,
              side: int, trunc_sd: float = TRUNC_SD):
    """(values, errs) of Psi1 (side=1) or Psi2 (side=2) by quadrature, as
    arrays over the 1-d array of c.

    The one closed-form Psi entry point: the solver reads one side at all
    the c's of a step, and psi_linear / psi_power call it at one c, once
    per side.  A value does not depend on the other c's of the call.  A
    power term that overflows (K^p at a large p, say) raises
    HeavyTailError.
    """
    c = np.array([_validate_c(ci) for ci in np.ravel(c)])
    if payoff.kind == CUSTOM:
        raise UnsupportedClosedFormError(
            "custom payoffs have no closed-form Psi; use psi_mc")
    ctx = _make_ctx(payoff, params, trunc_sd)
    if loss.kind == LINEAR:
        v, e = _LINEAR_SIDES[payoff.kind](ctx, c, side == 2)
        return np.maximum(v, 0.0), e
    _sign_guard_power(payoff, ctx, loss.p)
    v, e = np.zeros(c.size), np.zeros(c.size)
    at0 = c == 0.0
    if side == 2 and at0.any():
        v[at0], e[at0] = _LINEAR_SIDES[payoff.kind](ctx, c[at0], True)
    # Psi1(0) = 0 and Psi2(inf) = 0: A_0 is everything, A_inf empty
    rest = ~at0 if side == 1 else ~at0 & (c < math.inf)
    if rest.any():
        table = _POWER_PSI1 if side == 1 else _POWER_PSI2
        try:
            # an overflowing term is reported below, or by integrate_batch
            # as a non-finite integrand, not as a RuntimeWarning
            with np.errstate(over="ignore", invalid="ignore"):
                v[rest], e[rest] = table[payoff.kind](ctx, c[rest], loss.p)
        except OverflowError:
            raise HeavyTailError(
                f"Psi{side} at p = {loss.p:g}, c = {_fmt_c(c[rest])}: a "
                "power-loss term overflows") from None
        bad = ~(np.isfinite(v) & np.isfinite(e))
        if bad.any():
            raise HeavyTailError(
                f"Psi{side} at p = {loss.p:g}, c = {_fmt_c(c[bad])}: a "
                "power-loss term overflows")
    return np.maximum(v, 0.0), e


def _fmt_c(c) -> str:
    return ", ".join(f"{ci:g}" for ci in c)


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

    Until the side is asked for a second finite c, a value is a masked mean
    over the unsorted paths.  The second finite c sorts the paths once by
    descending key, keeps prefix (and, for the power shortfall term, suffix)
    sums of each term and of its square, and drops the per-path arrays;
    every later value is read at k = #{key >= ln c}, found by binary search.

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
        self.neg_key = None  # -key ascending, once sorted
        self.sums = ()
        self._finite_seen = 0

    def value(self, c, lnc):
        """(means, standard errors) of the side's terms at each c, taken in
        order: the c's before the sort are masked means, one at a time."""
        v, e = np.empty(c.size), np.empty(c.size)
        for i in range(c.size):
            if self.neg_key is None and 0.0 < c[i] < math.inf:
                self._finite_seen += 1
                if self._finite_seen > 1:
                    self._sort()
            if self.neg_key is not None:
                v[i:], e[i:] = self._from_sums(c[i:], lnc[i:])
                break
            v[i], e[i] = self._masked(c[i], lnc[i])
        return v, e

    def _masked(self, c, lnc):
        ind = lnc <= self.key
        finite = 0.0 < c < math.inf
        if self.kind == "linear":
            x = self.h * ind
        elif self.kind == "power1":
            p = self.p
            x = np.where(ind, 0.0, self.h) / p
            hedged = np.zeros_like(x)
            if finite:
                hedged[ind] = (c * self.zt[ind]) ** (p / (p - 1.0)) / p
            x = x + hedged
        else:
            x = np.zeros_like(self.h)
            if c == 0.0:
                x = self.h * ind
            elif finite:
                kap = 1.0 / (self.p - 1.0)
                x[ind] = self.h[ind] - (c * self.zt[ind]) ** kap
        return (float(np.mean(x)),
                float(np.std(x, ddof=1) / math.sqrt(self.n)))

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
        n, p = self.n, self.p
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
        var = np.maximum(s2 - s * s / n, 0.0) / (n - 1)
        return s / n, np.sqrt(var) / math.sqrt(n)


class _McTable:
    """Psi1 and Psi2 of one contract from one seeded Monte Carlo sample.

    sample(law, 2n, seed) is drawn once: rows [:n] are W_T under P and give
    Psi1, rows [n:] are W~_T under P~ and give Psi2.  Each path keeps its
    terms and its key, a1 w1 + a2 w2 + bT = -ln Z~ for linear loss and
    (p-1) ln H - ln Z~ (-inf where H = 0) for power loss, so A_c is the
    superlevel set {key >= ln c} and Psi is monotone in c pathwise.  Each
    side sorts itself lazily (see _McSide).  A path whose loss term is not
    finite raises NanGuardError with its coordinates.
    """

    def __init__(self, payoff: Payoff, params: MarketParams, loss: LossSpec,
                 n: int, seed: int):
        if n < 10 ** 4:
            raise ValidationError(
                [f"n: Monte Carlo oracle use requires n >= 1e4, got {n}"])
        cons = payoff_constants(payoff, params)
        law = GaussianLaw(2, np.zeros(2), params.wiener_cov)
        draws = sample(law, 2 * n, seed)
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
        if loss.kind == LINEAR:
            _nan_guard(h, w, offset)
            return _McSide("linear", n, None, np.negative(ln_z, out=ln_z), h)
        p = loss.p
        with np.errstate(divide="ignore"):
            key = np.where(h > 0, np.log(np.maximum(h, 1e-300)), -np.inf)
        key *= p - 1.0
        key -= ln_z
        if under == UNDER_P:
            with np.errstate(over="ignore"):  # _nan_guard reports the overflow
                h = h ** p  # the shortfall loss term, p * l(H)
        _nan_guard(h, w, offset)
        return _McSide("power1" if under == UNDER_P else "power2", n, p, key,
                       h, np.exp(ln_z, out=ln_z))

    def side(self, c, side: int):
        """(Psi_side(c), standard error) at a validated c, or arrays of both
        at each c of an array, read in its order."""
        cs = np.atleast_1d(np.asarray(c, dtype=float))
        v, e = self.sides[side].value(cs, _each(_lnc, cs))
        if np.ndim(c) == 0:
            return float(v[0]), float(e[0])
        return v, e


def psi_mc(payoff: Payoff, params: MarketParams, loss: LossSpec, c: float,
           n: int, seed: int) -> PsiPair:
    """Unbiased Monte Carlo estimate of (Psi1, Psi2) at c.

    Works for every payoff (including Custom) and for parameter regions
    where a closed-form sign condition fails; Psi2 samples W~_T under the
    martingale measure directly.
    """
    c = _validate_c(c)
    table = _McTable(payoff, params, loss, n, seed)
    psi1, se1 = table.side(c, 1)
    psi2, se2 = table.side(c, 2)
    return PsiPair(psi1=psi1, psi2=psi2, c=c, method="monte-carlo",
                   err_estimate=max(se1, se2))
