"""Two-asset correlated Black-Scholes market and its measure change.

Holds the model parameters, derives the martingale-measure density
constants A1, A2, B, B-tilde and the log-space thresholds used by the
closed-form Psi integrals, and evaluates terminal prices and the
Radon-Nikodym density pathwise.

Coordinates: under P the terminal Wiener pair W_T is N2(0, QT) with
Q = [[1, rho], [rho, 1]]; under the martingale measure the shifted pair
W~_T = W_T + theta*T is N2(0, QT), where theta_i = (alpha_i - r)/sigma_i.
The density is Z~_T = exp(-A1 W1 - A2 W2 - B T) in P coordinates and
exp(-A1 W~1 - A2 W~2 - B~ T) in P~ coordinates.

Convention: ln 0 = -inf, so a zero strike pushes its thresholds to -inf
and the corresponding indicators degenerate accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import InvalidCorrelationError, ValidationError
from .gaussian import GaussianLaw

UNDER_P = "P"
UNDER_PTILDE = "Ptilde"
_MEASURES = (UNDER_P, UNDER_PTILDE)

_RHO_CAP = 0.9999  # beyond this the 2x2 inverse of Q is numerically useless


def _real(v) -> float:
    """float(v), or NaN (which every real check refuses) if float(v) raises."""
    try:
        return float(v)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _check_measure(under: str) -> str:
    if under not in _MEASURES:
        raise ValidationError([f"under: must be one of {_MEASURES}, got {under!r}"])
    return under


@dataclass(frozen=True)
class MarketParams:
    """Initial prices, drifts, volatilities, correlation, rate, maturity."""

    s0: tuple[float, float]
    alpha: tuple[float, float]
    sigma: tuple[float, float]
    rho: float
    r: float
    T: float

    def __post_init__(self):
        shape = []
        for name in ("s0", "alpha", "sigma"):
            pair = getattr(self, name)
            try:
                two = tuple(pair)
            except TypeError:
                two = ()
            if len(two) != 2:
                shape.append(
                    f"{name}: must be a pair of two numbers, got {pair!r}")
                continue
            object.__setattr__(self, name, (_real(two[0]), _real(two[1])))
        if shape:
            raise ValidationError(shape)
        for name in ("rho", "r", "T"):
            object.__setattr__(self, name, _real(getattr(self, name)))
        bad = []
        for i in (0, 1):
            if not (self.s0[i] > 0 and math.isfinite(self.s0[i])):
                bad.append(f"s0[{i}]: must be a positive finite real, got {self.s0[i]!r}")
            if not (self.sigma[i] > 0 and math.isfinite(self.sigma[i])):
                bad.append(f"sigma[{i}]: must be a positive finite real, got {self.sigma[i]!r}")
            if not math.isfinite(self.alpha[i]):
                bad.append(f"alpha[{i}]: must be finite, got {self.alpha[i]!r}")
        if not (abs(self.rho) <= _RHO_CAP):
            bad.append(f"rho: must satisfy |rho| <= {_RHO_CAP} (Q positive definite), got {self.rho!r}")
        if not math.isfinite(self.r):
            bad.append(f"r: must be finite, got {self.r!r}")
        if not (self.T > 0 and math.isfinite(self.T)):
            bad.append(f"T: must be a positive finite real, got {self.T!r}")
        if bad:
            if any(v.startswith("rho") for v in bad) and len(bad) == 1:
                raise InvalidCorrelationError(bad)
            raise ValidationError(bad)

    @property
    def theta(self) -> tuple[float, float]:
        """Market prices of risk theta_i = (alpha_i - r) / sigma_i."""
        return ((self.alpha[0] - self.r) / self.sigma[0],
                (self.alpha[1] - self.r) / self.sigma[1])

    @property
    def wiener_cov(self) -> np.ndarray:
        t, rho = self.T, self.rho
        return np.array([[t, rho * t], [rho * t, t]])


@dataclass(frozen=True)
class MeasureConstants:
    """Density constants and log-space thresholds for one (params, strike).

    a1/a2 are the density exponents A1, A2; b_cap is B and b_cap_tilde is
    B~ = B - A1 theta1 - A2 theta2.  thresholds maps the payoff-region
    constant names (a1, a1_tilde, a2, a2_tilde, b, b_tilde, d, d_tilde) to
    their values for the given strike.
    """

    a1: float
    a2: float
    b_cap: float
    b_cap_tilde: float
    thresholds: Mapping[str, float]
    theta: tuple[float, float]
    T: float


def _ln(v: float) -> float:
    return math.log(v) if v > 0 else -math.inf


@lru_cache(maxsize=512)
def derive_constants(params: MarketParams, strike: float) -> MeasureConstants:
    """Compute every density and threshold constant from its closed form.

    B is the quadratic form (1/2) theta^T Q^{-1} theta, evaluated with the
    explicit 2x2 inverse of Q; no matrix square root is taken.
    """
    rho = params.rho
    if not abs(rho) <= _RHO_CAP:
        raise InvalidCorrelationError(
            [f"rho: must satisfy |rho| <= {_RHO_CAP}, got {rho!r}"])
    strike = float(strike)
    if strike < 0 or not math.isfinite(strike):
        raise ValidationError([f"strike: must be a nonnegative real, got {strike!r}"])
    th1, th2 = params.theta
    one_minus = 1.0 - rho * rho
    a1 = (th1 - rho * th2) / one_minus
    a2 = (th2 - rho * th1) / one_minus
    # theta^T Q^{-1} theta with Q^{-1} = [[1, -rho], [-rho, 1]] / (1 - rho^2)
    b_cap = 0.5 * (th1 * th1 - 2.0 * rho * th1 * th2 + th2 * th2) / one_minus
    b_cap_tilde = b_cap - a1 * th1 - a2 * th2

    s10, s20 = params.s0
    al1, al2 = params.alpha
    sg1, sg2 = params.sigma
    r, t = params.r, params.T
    k = strike
    thresholds = {
        "a1": (_ln(k / s10) - (al1 - 0.5 * sg1 ** 2) * t) / sg1,
        "a1_tilde": (_ln(k / s10) - (r - 0.5 * sg1 ** 2) * t) / sg1,
        "a2": (_ln(k / s20) - (al2 - 0.5 * sg2 ** 2) * t) / sg2,
        "a2_tilde": (_ln(k / s20) - (r - 0.5 * sg2 ** 2) * t) / sg2,
        "b": math.log(s20 / s10) + (al2 - al1 - 0.5 * (sg2 ** 2 - sg1 ** 2)) * t,
        "b_tilde": math.log(s20 / s10) - 0.5 * (sg2 ** 2 - sg1 ** 2) * t,
        "d": (_ln(k / (s10 * s20)) - (al1 + al2 - 0.5 * (sg1 ** 2 + sg2 ** 2)) * t),
        "d_tilde": (_ln(k / (s10 * s20)) - (2.0 * r - 0.5 * (sg1 ** 2 + sg2 ** 2)) * t),
    }
    return MeasureConstants(a1=a1, a2=a2, b_cap=b_cap, b_cap_tilde=b_cap_tilde,
                            thresholds=MappingProxyType(thresholds),
                            theta=(th1, th2), T=t)


def radon_nikodym(constants: MeasureConstants, w1, w2, under: str = UNDER_P):
    """Z~_T at the given Wiener coordinates of the stated measure."""
    _check_measure(under)
    b = constants.b_cap if under == UNDER_P else constants.b_cap_tilde
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    out = np.exp(-constants.a1 * w1 - constants.a2 * w2 - b * constants.T)
    return float(out) if out.ndim == 0 else out


def terminal_price(params: MarketParams, asset: int, w, under: str = UNDER_P):
    """S^asset_T at Wiener coordinate w: s0 exp((mu - sigma^2/2)T + sigma w).

    mu is the drift alpha_asset under P and r under the martingale measure.
    """
    _check_measure(under)
    if asset not in (1, 2):
        raise ValidationError([f"asset: must be 1 or 2, got {asset!r}"])
    i = asset - 1
    mu = params.alpha[i] if under == UNDER_P else params.r
    sg = params.sigma[i]
    w = np.asarray(w, dtype=float)
    out = params.s0[i] * np.exp((mu - 0.5 * sg * sg) * params.T + sg * w)
    return float(out) if out.ndim == 0 else out


def wiener_law(params: MarketParams) -> GaussianLaw:
    """Law of the terminal Wiener pair in its own coordinates: N2(0, QT),
    under either measure."""
    return GaussianLaw(2, np.zeros(2), params.wiener_cov)
