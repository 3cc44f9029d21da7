"""Typed error hierarchy for the shortfall hedging engine.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps each to a distinct exit code.
"""

from __future__ import annotations


class ShortfallHedgeError(Exception):
    """Base class for all engine errors."""


class ValidationError(ShortfallHedgeError):
    """One or more input fields violate a documented invariant.

    Collects every violation so callers can report them all at once
    instead of failing on the first.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("invalid input: " + "; ".join(self.violations))


class InvalidCorrelationError(ValidationError):
    """Correlation outside the open interval where Q is positive definite."""


class DegenerateLawError(ShortfallHedgeError):
    """Covariance matrix is not positive definite (Cholesky pivot <= 1e-12)."""


class PayoffContractError(ShortfallHedgeError):
    """A custom payoff hook returned a negative or non-finite value."""


class UnsupportedClosedFormError(ShortfallHedgeError):
    """No closed-form Psi route exists for this payoff; use the MC estimator."""


class AssumptionViolatedError(ShortfallHedgeError):
    """A sign condition required by a closed-form region fails.

    The `condition` attribute names the violated inequality so callers can
    report it and fall back to Monte Carlo.
    """

    def __init__(self, condition: str):
        self.condition = condition
        super().__init__(f"closed-form assumption violated: {condition}")


class OutOfRangeError(ShortfallHedgeError):
    """Inversion target lies outside the attainable range of the Psi function."""


class InfeasibleInversionError(ShortfallHedgeError):
    """Psi jumps across the target (step function); no c attains it."""


class HeavyTailError(ShortfallHedgeError):
    """The payoff's tail is too heavy for the closed-form quadrature.

    Raised when the truncated-tail contribution to the price exceeds the
    integrability bound, or when a power-loss term overflows to a
    non-finite value (a quadrature integrand, or a constant such as K^p).
    """


class NanGuardError(ShortfallHedgeError):
    """A Monte Carlo integrand produced a non-finite sample."""

    def __init__(self, index: int, w1: float, w2: float):
        self.index = index
        self.w = (w1, w2)
        super().__init__(
            f"non-finite integrand sample at path {index}: w=({w1!r}, {w2!r})"
        )
