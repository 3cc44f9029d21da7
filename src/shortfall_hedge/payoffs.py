"""Contract types: five named two-asset payoffs plus a custom hook.

Pathwise evaluation H(S1_T, S2_T) and per-payoff structural data (the
strict-monotonicity conditions the Psi inversion relies on).  A Digital tie
S1 = S2 pays the full amount K (the indicator uses >=).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import PayoffContractError, ValidationError
from .market import MarketParams, MeasureConstants, derive_constants

DIGITAL = "Digital"
QUANTO_DOMESTIC = "QuantoDomestic"
QUANTO_FOREIGN = "QuantoForeign"
OUTPERFORMANCE = "Outperformance"
SPREAD = "Spread"
CUSTOM = "Custom"
KINDS = (DIGITAL, QUANTO_DOMESTIC, QUANTO_FOREIGN, OUTPERFORMANCE, SPREAD, CUSTOM)

_PARALLEL_TOL = 1e-12


@dataclass(frozen=True)
class Payoff:
    """A contract of one of the named kinds, or a Custom pure map.

    strike must be positive for the named kinds and is unused for Custom;
    custom_eval maps (s1, s2) arrays to nonnegative finite values.
    """

    kind: str
    strike: float = 0.0
    custom_eval: Optional[Callable] = None

    def __post_init__(self):
        bad = []
        if self.kind not in KINDS:
            bad.append(f"payoff.kind: must be one of {KINDS}, got {self.kind!r}")
        elif self.kind == CUSTOM:
            if self.custom_eval is None:
                bad.append("payoff.custom_eval: required for Custom payoffs")
        else:
            if not (isinstance(self.strike, (int, float)) and self.strike > 0
                    and np.isfinite(self.strike)):
                bad.append(f"payoff.strike: must be a positive real, got {self.strike!r}")
        if bad:
            raise ValidationError(bad)
        object.__setattr__(self, "strike", float(self.strike))


@dataclass(frozen=True)
class UniquenessReport:
    """Whether strict monotonicity of Psi1/Psi2 in c is guaranteed."""

    psi1_strictly_monotone: bool
    psi2_strictly_monotone: bool
    reason: str


def payoff_constants(payoff: Payoff, params: MarketParams) -> MeasureConstants:
    """The measure constants at the payoff's strike (1.0 for Custom, whose
    strike is unused)."""
    return derive_constants(
        params, payoff.strike if payoff.kind != CUSTOM else 1.0)


def evaluate(payoff: Payoff, s1, s2):
    """Exact payoff value H(s1, s2); inputs may be scalars or arrays."""
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    k = payoff.strike
    if payoff.kind == DIGITAL:
        out = np.where(s1 >= s2, k, 0.0)
    elif payoff.kind == QUANTO_DOMESTIC:
        out = s2 * np.maximum(s1 - k, 0.0)
    elif payoff.kind == QUANTO_FOREIGN:
        out = np.maximum(s1 - k / s2, 0.0)
    elif payoff.kind == OUTPERFORMANCE:
        out = np.maximum(np.maximum(s1, s2) - k, 0.0)
    elif payoff.kind == SPREAD:
        out = np.maximum(s1 - s2 - k, 0.0)
    else:
        out = np.asarray(payoff.custom_eval(s1, s2), dtype=float)
        if out.shape != np.broadcast_shapes(s1.shape, s2.shape):
            raise PayoffContractError(
                f"custom payoff returned shape {out.shape}, expected "
                f"{np.broadcast_shapes(s1.shape, s2.shape)}")
        if not np.all(np.isfinite(out)):
            raise PayoffContractError("custom payoff returned a non-finite value")
        if np.any(out < 0):
            i = int(np.argmax(np.atleast_1d(out < 0)))
            raise PayoffContractError(
                f"custom payoff returned a negative value at sample {i}")
    return float(out) if out.ndim == 0 else out


def _direction_vector(kind: str, params: MarketParams):
    sg1, sg2 = params.sigma
    return {
        DIGITAL: (sg1, -sg2),
        QUANTO_DOMESTIC: (sg1, 0.0),
        QUANTO_FOREIGN: (sg1, sg2),
    }.get(kind)


def uniqueness_check(payoff: Payoff, params: MarketParams) -> UniquenessReport:
    """Report whether strict monotonicity of Psi1, Psi2 in c is guaranteed.

    The guarantee exists when the payoff's direction vector is not parallel
    to (A1, A2); it is known for Digital, QuantoDomestic and QuantoForeign.
    A vanishing (A1, A2) counts as parallel (the measure change degenerates
    and Psi becomes a step function).  For the remaining kinds no condition
    is known and the solver falls back to left-endpoint selection.
    """
    vec = _direction_vector(payoff.kind, params)
    if vec is None:
        return UniquenessReport(
            False, False,
            "strict monotonicity not established for this payoff kind; "
            "inversion uses left-endpoint selection")
    strike = payoff.strike if payoff.strike > 0 else 1.0
    cons = derive_constants(params, strike)
    a = (cons.a1, cons.a2)
    scale = max(abs(a[0]), abs(a[1]))
    if scale <= _PARALLEL_TOL:
        return UniquenessReport(
            False, False,
            "(A1, A2) = (0, 0): the measure change is degenerate and Psi is "
            "a step function in c")
    cross = vec[0] * a[1] - vec[1] * a[0]
    norm = max(abs(vec[0]), abs(vec[1])) * scale
    if abs(cross) <= _PARALLEL_TOL * norm:
        return UniquenessReport(
            False, False,
            f"direction vector {vec} is parallel to (A1, A2) = {a}; strict "
            "monotonicity is not guaranteed")
    return UniquenessReport(
        True, True,
        f"direction vector {vec} is not parallel to (A1, A2) = {a}")
