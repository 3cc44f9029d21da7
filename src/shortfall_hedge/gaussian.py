"""Bivariate normal algebra for the Psi integrals.

The law type, closed-form upper-orthant probabilities, closed-form
exponentially tilted interval masses, and seeded sampling of correlated
normals.  All operations are pure functions on immutable values and are
safe to call concurrently.  Nothing here integrates numerically: orthant
probabilities use Owen's T function and carry only rounding error
(RECT_ERR).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, owens_t

from .errors import DegenerateLawError

_PIVOT_THRESHOLD = 1e-12
_SYM_TOL = 1e-12
# absolute rounding bound of one rect_upper_prob value
RECT_ERR = 4.0 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class GaussianLaw:
    """An N_d(mean, cov) law with a positive definite covariance."""

    dim: int
    mean: np.ndarray
    cov: np.ndarray
    _chol: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        mean = np.atleast_1d(np.array(self.mean, dtype=float))
        cov = np.atleast_2d(np.array(self.cov, dtype=float))
        if self.dim < 1 or mean.shape != (self.dim,) or cov.shape != (self.dim, self.dim):
            raise DegenerateLawError(
                f"shape mismatch: dim={self.dim}, mean {mean.shape}, cov {cov.shape}")
        if not np.all(np.abs(cov - cov.T) <= _SYM_TOL):
            raise DegenerateLawError("covariance is not symmetric to 1e-12")
        cov = 0.5 * (cov + cov.T)
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise DegenerateLawError("covariance is not positive definite") from None
        if np.any(np.diag(chol) ** 2 <= _PIVOT_THRESHOLD):
            raise DegenerateLawError(
                "covariance has a Cholesky pivot at or below 1e-12")
        mean.setflags(write=False)
        cov.setflags(write=False)
        chol.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_chol", chol)

    @property
    def marginal_sd(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov))


def rect_upper_prob(law: GaussianLaw, lower) -> float:
    """P(X1 >= lower[0], X2 >= lower[1]) for a bivariate law, in closed form.

    Either bound may be +/-inf.  With the standardised bounds h, k and the
    correlation rho, Owen's (1956) T function gives

        P = (Phi(-h) + Phi(-k)) / 2 - T(h, a_h) - T(k, a_k) - beta,
        a_h = (k/h - rho) / sqrt(1 - rho^2),  a_k = (h/k - rho) / sqrt(1 - rho^2),

    with beta = 1/2 when h and k lie on opposite sides of 0, else 0.  The
    signs are read from h and k themselves, never from h*k, which underflows;
    a zero bound counts as positive, so a_h = +/-inf with the sign of k at
    h = 0 (k/h would let -0.0 flip it), and h = k = 0 is the quadrant
    1/4 + asin(rho) / (2 pi).  The absolute rounding error is within RECT_ERR.
    """
    if law.dim != 2:
        raise DegenerateLawError("rect_upper_prob requires a bivariate law")
    l1, l2 = (float(v) for v in lower)
    m1, m2 = (float(v) for v in law.mean)
    s1, s2 = (float(v) for v in law.marginal_sd)
    if l1 == -math.inf and l2 == -math.inf:
        return 1.0
    if l1 == -math.inf:
        return float(ndtr((m2 - l2) / s2))
    if l2 == -math.inf:
        return float(ndtr((m1 - l1) / s1))
    if l1 == math.inf or l2 == math.inf:
        return 0.0
    h = (l1 - m1) / s1
    k = (l2 - m2) / s2
    rho = float(law.cov[0, 1]) / (s1 * s2)
    if h == 0.0 and k == 0.0:
        return 0.25 + math.asin(rho) / (2.0 * math.pi)
    root = math.sqrt((1.0 - rho) * (1.0 + rho))
    a_h = math.copysign(math.inf, k) if h == 0.0 else (k / h - rho) / root
    a_k = math.copysign(math.inf, h) if k == 0.0 else (h / k - rho) / root
    beta = 0.5 if (h >= 0.0) != (k >= 0.0) else 0.0
    prob = (0.5 * (ndtr(-h) + ndtr(-k)) - owens_t(h, a_h) - owens_t(k, a_k)
            - beta)
    return float(np.clip(prob, 0.0, 1.0))


def sample(law: GaussianLaw, n: int, seed: int) -> np.ndarray:
    """n deterministic draws via the Cholesky factor and a Philox stream."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.Generator(np.random.Philox(seed))
    z = rng.standard_normal((n, law.dim))
    return law.mean + z @ law._chol.T


def tilted_interval_mass(gamma, m, s, lo, hi):
    """E[e^(gamma Y) 1{lo <= Y <= hi}] for Y ~ N(m, s^2), vectorized.

    Closed form: e^(gamma m + gamma^2 s^2 / 2) * (Phi(beta) - Phi(alpha))
    with alpha = (lo - m)/s - gamma s, beta = (hi - m)/s - gamma s.  Bounds
    may be +/-inf; empty intervals give 0.  The Phi difference is taken on
    whichever tail avoids cancellation.
    """
    gamma = np.asarray(gamma, dtype=float)
    m = np.asarray(m, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        alpha = (lo - m) / s - gamma * s
        beta = (hi - m) / s - gamma * s
        # at infinite bounds the shifted argument keeps the same sign
        alpha = np.where(np.isneginf(lo), -np.inf, alpha)
        beta = np.where(np.isposinf(hi), np.inf, beta)
        upper_tail = (np.where(np.isinf(alpha), 0.0, alpha)
                      + np.where(np.isinf(beta), 0.0, beta)) > 0
        diff = np.where(upper_tail,
                        ndtr(-np.minimum(alpha, beta)) - ndtr(-np.maximum(alpha, beta)),
                        ndtr(np.maximum(alpha, beta)) - ndtr(np.minimum(alpha, beta)))
        diff = np.where(beta <= alpha, 0.0, diff)
        factor = np.exp(gamma * m + 0.5 * (gamma * s) ** 2)
        out = np.where(diff <= 0.0, 0.0, factor * diff)
        out = np.where(hi <= lo, 0.0, out)
    return out
