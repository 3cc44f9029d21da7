"""Bivariate normal algebra for the Psi integrals.

The law type, closed-form exponentially tilted interval masses, and
seeded sampling of correlated normals.  All operations are pure functions
on immutable values and are safe to call concurrently.  Nothing here
integrates numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfcx, log_ndtr, ndtr

from .errors import DegenerateLawError, ValidationError

_PIVOT_THRESHOLD = 1e-12
_SYM_TOL = 1e-12


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


def sample(law: GaussianLaw, n: int, seed: int) -> np.ndarray:
    """n deterministic draws via the Cholesky factor and a Philox stream."""
    if n < 1:
        raise ValidationError([f"n: must be >= 1, got {n!r}"])
    rng = np.random.Generator(np.random.Philox(seed))
    z = rng.standard_normal((n, law.dim))
    w = z @ law._chol.T
    w += law.mean
    return w


def tilted_interval_mass(gamma, m, s, lo, hi, log_scale=0.0):
    """w E[e^(gamma Y) 1{lo <= Y <= hi}] for Y ~ N(m, s^2) and a weight
    w = e^log_scale, vectorized.

    Closed form: e^(log_scale + gamma m + gamma^2 s^2 / 2) (Phi(beta) -
    Phi(alpha)), alpha = (lo - m)/s - gamma s, beta = (hi - m)/s - gamma s.
    Bounds may be +/-inf; empty intervals give 0.  The Phi difference is
    taken on whichever tail avoids cancellation.  Rows whose exponent
    passes 600 take the product in logs, so a weight and a tilt that leave
    the float range on their own give their finite product.  For the kept
    tail's arguments b < t < 0 there, t from the bound e, the exponent and
    ln Phi(t), which cancel at a large gamma s, are not formed apart: the
    product is e^(log_scale + gamma e - z^2 / 2) erfcx(-t / sqrt 2) / 2,
    z = (e - m) / s, times 1 - Phi(b) / Phi(t) by erfcx likewise.
    """
    gamma = np.asarray(gamma, dtype=float)
    m = np.asarray(m, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        # gamma and m are finite, so an infinite bound keeps its sign
        gs = gamma * s
        alpha = (lo - m) / s - gs
        beta = (hi - m) / s - gs
        upper_tail = (np.where(np.isinf(alpha), 0.0, alpha)
                      + np.where(np.isinf(beta), 0.0, beta)) > 0
        # Phi(top) - Phi(bottom) on the kept tail; beta <= alpha (which
        # hi <= lo implies) is an empty interval
        top = np.where(upper_tail, -alpha, beta)
        bottom = np.where(upper_tail, -beta, alpha)
        diff = ndtr(top) - ndtr(bottom)
        ex = gamma * m + 0.5 * gs ** 2 + log_scale
        empty = beta <= alpha
        out = np.where((diff <= 0.0) | empty, 0.0, np.exp(ex) * diff)
        big = ex > 600.0
        if big.any():
            g, ls, ex, m, e, w, t, b, none = (
                np.broadcast_to(v, out.shape)[big] for v in (
                    gamma, log_scale, ex, m, np.where(upper_tail, lo, hi),
                    (hi - lo) / s, top, bottom, empty))
            r = math.sqrt(0.5)
            # ln(e^ex Phi(t)) and ln(Phi(b) / Phi(t))
            head, gap = np.where(t < 0.0, (
                ls + g * e - 0.5 * ((e - m) / s) ** 2
                + np.log(0.5 * erfcx(-r * t)),
                np.log(erfcx(-r * b) / erfcx(-r * t)) + 0.5 * w * (b + t)),
                (ex + log_ndtr(t), log_ndtr(b) - log_ndtr(t)))
            out[big] = np.where(none, 0.0,
                                np.exp(head + np.log(-np.expm1(gap))))
    return out
