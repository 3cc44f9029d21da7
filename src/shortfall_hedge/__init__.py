"""Quantile hedging for two-asset options under shortfall-risk criteria.

Computes the minimal expected shortfall achievable with a given initial
capital (phi1) and the cheapest capital achieving a given risk bound
(phi2) in a correlated two-asset Black-Scholes market, for linear and
power loss functions, by closed-form conditional quadrature with Monte
Carlo cross-checks.
"""

from .errors import (AssumptionViolatedError, DegenerateLawError,
                     HeavyTailError, InfeasibleInversionError,
                     InvalidCorrelationError, NanGuardError, OutOfRangeError,
                     PayoffContractError, ShortfallHedgeError,
                     UnsupportedClosedFormError, ValidationError)
from .gaussian import GaussianLaw, rect_upper_prob, sample
from .market import (UNDER_P, UNDER_PTILDE, MarketParams, MeasureConstants,
                     derive_constants, radon_nikodym, terminal_price,
                     wiener_law)
from .mc import (DiscreteState, McConfig, VerifyReport, brute_force_np,
                 discretize, estimate, verify_risk)
from .payoffs import (CUSTOM, DIGITAL, KINDS, OUTPERFORMANCE,
                      QUANTO_DOMESTIC, QUANTO_FOREIGN, SPREAD, Payoff,
                      UniquenessReport, evaluate, uniqueness_check)
from .psi import LINEAR, POWER, LossSpec, PsiPair, psi_linear, psi_mc, psi_power
from .solver import (CurvePoint, RiskCurve, SolveConfig, curve, phi1, phi2,
                     price)

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolatedError", "DegenerateLawError", "HeavyTailError",
    "InfeasibleInversionError", "InvalidCorrelationError", "NanGuardError",
    "OutOfRangeError", "PayoffContractError", "ShortfallHedgeError",
    "UnsupportedClosedFormError", "ValidationError",
    "GaussianLaw", "rect_upper_prob", "sample",
    "UNDER_P", "UNDER_PTILDE", "MarketParams", "MeasureConstants",
    "derive_constants", "radon_nikodym", "terminal_price", "wiener_law",
    "DiscreteState", "McConfig", "VerifyReport", "brute_force_np",
    "discretize", "estimate", "verify_risk",
    "CUSTOM", "DIGITAL", "KINDS", "OUTPERFORMANCE", "QUANTO_DOMESTIC",
    "QUANTO_FOREIGN", "SPREAD", "Payoff", "UniquenessReport", "evaluate",
    "uniqueness_check",
    "LINEAR", "POWER", "LossSpec", "PsiPair", "psi_linear", "psi_mc",
    "psi_power",
    "CurvePoint", "RiskCurve", "SolveConfig", "curve", "phi1", "phi2",
    "price",
    "__version__",
]
