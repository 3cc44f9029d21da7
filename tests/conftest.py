"""Shared desk-scale fixtures for the test suite."""

from __future__ import annotations

import pytest

from shortfall_hedge import solver
from shortfall_hedge.market import MarketParams
from shortfall_hedge.payoffs import (DIGITAL, OUTPERFORMANCE, Payoff,
                                     QUANTO_DOMESTIC, QUANTO_FOREIGN, SPREAD)


def desk_params(rho: float = -0.5, **overrides) -> MarketParams:
    base = dict(s0=(100.0, 95.0), alpha=(0.08, 0.05), sigma=(0.2, 0.3),
                rho=rho, r=0.02, T=1.0)
    base.update(overrides)
    return MarketParams(**base)


# strikes sized so each payoff is comfortably in play at the desk params
DESK_PAYOFFS = (
    Payoff(DIGITAL, strike=10.0),
    Payoff(QUANTO_DOMESTIC, strike=100.0),
    Payoff(QUANTO_FOREIGN, strike=9500.0),
    Payoff(OUTPERFORMANCE, strike=100.0),
    Payoff(SPREAD, strike=5.0),
)


@pytest.fixture
def fresh_held():
    """The solver's held quadrature values (solver._held), cleared before
    and after the test; yields the function that clears them.

    Every test that replaces solver._psi_side takes it: its solves then
    see every read they make, and no value of a stand-in stays held for a
    later test to read."""
    solver._held.cache_clear()
    yield solver._held.cache_clear
    solver._held.cache_clear()
