"""The package's public surface."""

from __future__ import annotations

import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shortfall_hedge
from conftest import desk_params
from shortfall_hedge import (DIGITAL, LINEAR, POWER, SPREAD, LossSpec,
                             McConfig, Payoff, ValidationError, curve,
                             gaussian, phi1, phi2, psi, psi_linear, psi_mc,
                             psi_power, solver, verify_risk)


def test_every_exported_name_resolves():
    missing = [n for n in shortfall_hedge.__all__
               if not hasattr(shortfall_hedge, n)]
    assert missing == []
    assert len(set(shortfall_hedge.__all__)) == len(shortfall_hedge.__all__)


def test_test_oracles_are_not_exported():
    # the discretized Neyman-Pearson solver and the monotonicity report
    # check the engine from tests/oracles.py; the engine never calls them
    for name in ("DiscreteState", "brute_force_np", "discretize",
                 "UniquenessReport", "uniqueness_check"):
        assert name not in shortfall_hedge.__all__
        assert not hasattr(shortfall_hedge, name)


def test_the_orthant_probability_is_gone():
    # no Psi side reads a bivariate orthant since the Digital reads its
    # tail table in Y = A1 W1 + A2 W2: the Owen's-T orthant and its error
    # bound left with their last caller
    for name in ("rect_upper_prob", "RECT_ERR"):
        assert name not in shortfall_hedge.__all__
        assert not hasattr(shortfall_hedge, name)
        assert not hasattr(gaussian, name)
    assert not hasattr(gaussian.GaussianLaw, "marginal_sd")


# numbers that have no float value: NaN, and ints past the float range
_NOT_REAL = st.one_of(
    st.sampled_from([math.nan, -math.nan, np.float64("nan")]),
    st.integers(min_value=2 ** 1024, max_value=10 ** 400),
    st.integers(min_value=-(10 ** 400), max_value=-(2 ** 1024)))


def _entry_points(bad):
    """(field, call) per public entry point that takes a number: each call
    passes bad in the field that its error must name."""
    # a contract no other test prices, so that a Psi read would not be
    # served from a cache
    params = desk_params(rho=0.4321)
    digital = Payoff(DIGITAL, 10.0)
    lin = LossSpec(LINEAR)
    calls = [
        ("x", lambda: phi1(digital, params, lin, bad)),
        ("v", lambda: phi2(digital, params, LossSpec(POWER, 2.0), bad)),
        ("x", lambda: verify_risk(digital, params, lin, bad,
                                  McConfig(10_000, 1))),
        ("grid", lambda: curve(digital, params, lin, "phi1", [0.0, bad])),
        ("grid", lambda: curve(digital, params, lin, "phi2", [bad])),
        ("c", lambda: psi_linear(digital, params, bad)),
        ("c", lambda: psi_power(digital, params, bad)),
        ("c", lambda: psi_mc(digital, params, lin, bad, 10_000, 1)),
        ("loss.p", lambda: LossSpec(POWER, bad)),
        ("loss.p", lambda: psi_power(digital, params, 1.0, p=bad)),
        ("payoff.strike", lambda: Payoff(SPREAD, bad)),
    ]
    for name in ("s0", "alpha", "sigma"):
        for i in (0, 1):
            pair = list(getattr(params, name))
            pair[i] = bad
            calls.append((f"{name}[{i}]", lambda kw={name: tuple(pair)}:
                          replace(params, **kw)))
    for name in ("rho", "r", "T"):
        calls.append((name, lambda kw={name: bad}: replace(params, **kw)))
    return calls


@settings(max_examples=12, deadline=None, derandomize=True)
@given(bad=_NOT_REAL)
@example(bad=math.nan)
@example(bad=10 ** 400)
def test_numbers_that_are_not_reals_raise_a_typed_error(bad):
    # NaN once walked a solve down to c = 2^-1022 and then raised
    # InfeasibleInversionError ("cannot reach target nan"), a NaN grid point
    # passed curve's checks, and an int past the float range escaped as a
    # raw OverflowError (TypeError for a strike).  Each entry point names
    # the field, and x and v are refused before any Psi read
    def no_read(*args, **kwargs):
        raise AssertionError("a Psi read before the input was checked")

    with mock.patch.object(solver, "_psi_side", no_read), \
            mock.patch.object(solver, "_mc_table", no_read), \
            mock.patch.object(psi, "_psi_side", no_read), \
            mock.patch.object(psi, "_mc_table", no_read):
        for field, call in _entry_points(bad):
            with pytest.raises(ValidationError,
                               match=rf"(?<![\w.]){re.escape(field)}: "):
                call()


def test_infinite_capital_and_risk_bound_keep_their_edges():
    # x = inf affords the full hedge and v = inf costs nothing: reals, not
    # refused as NaN is
    params = desk_params()
    digital = Payoff(DIGITAL, 10.0)
    for loss in (LossSpec(LINEAR), LossSpec(POWER, 2.0)):
        assert phi1(digital, params, loss, math.inf) == (0.0, 0.0)
        assert phi2(digital, params, loss, math.inf) == (0.0, math.inf)
