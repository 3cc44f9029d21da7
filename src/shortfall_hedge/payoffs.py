"""Contract types: five named two-asset payoffs plus a custom hook.

Pathwise evaluation H(S1_T, S2_T) and the measure constants at a payoff's
strike.  A Digital tie S1 = S2 pays the full amount K (the indicator uses
>=).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import PayoffContractError, ShortfallHedgeError, ValidationError
from .market import MarketParams, MeasureConstants, _real, derive_constants

DIGITAL = "Digital"
QUANTO_DOMESTIC = "QuantoDomestic"
QUANTO_FOREIGN = "QuantoForeign"
OUTPERFORMANCE = "Outperformance"
SPREAD = "Spread"
CUSTOM = "Custom"
KINDS = (DIGITAL, QUANTO_DOMESTIC, QUANTO_FOREIGN, OUTPERFORMANCE, SPREAD, CUSTOM)


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
            elif not callable(self.custom_eval):
                bad.append("payoff.custom_eval: must be callable, got "
                           f"{self.custom_eval!r}")
        elif not (isinstance(self.strike, (int, float))
                  and 0 < _real(self.strike) < np.inf):
            bad.append(f"payoff.strike: must be a positive real, got {self.strike!r}")
        if bad:
            raise ValidationError(bad)
        object.__setattr__(self, "strike", _real(self.strike))


def payoff_constants(payoff: Payoff, params: MarketParams) -> MeasureConstants:
    """The measure constants at the payoff's strike (1.0 for Custom, whose
    strike is unused)."""
    return derive_constants(
        params, payoff.strike if payoff.kind != CUSTOM else 1.0)


def _called(fn, what: str, shape: tuple, *args) -> np.ndarray:
    """fn(*args), a user's function, as a float array of the given shape.
    A call that raises, or returns anything else, raises
    PayoffContractError naming what, chained to its cause; an engine error
    raised inside fn passes as it is."""
    try:
        out = np.asarray(fn(*args), dtype=float)
    except ShortfallHedgeError:
        raise
    except Exception as exc:
        raise PayoffContractError(
            f"{what} raised {type(exc).__name__}: {exc}") from exc
    if out.shape != shape:
        raise PayoffContractError(
            f"{what} returned shape {out.shape}, expected {shape}")
    return out


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
        out = _called(payoff.custom_eval, "custom payoff",
                      np.broadcast_shapes(s1.shape, s2.shape), s1, s2)
        if not np.all(np.isfinite(out)):
            raise PayoffContractError("custom payoff returned a non-finite value")
        if np.any(out < 0):
            i = int(np.argmax(np.atleast_1d(out < 0)))
            raise PayoffContractError(
                f"custom payoff returned a negative value at sample {i}")
    return float(out) if out.ndim == 0 else out
