"""Payoff evaluation, contract enforcement, uniqueness reports."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import desk_params
from oracles import uniqueness_check
from shortfall_hedge.errors import PayoffContractError, ValidationError
from shortfall_hedge.payoffs import (CUSTOM, DIGITAL, OUTPERFORMANCE, Payoff,
                                     QUANTO_DOMESTIC, QUANTO_FOREIGN, SPREAD,
                                     evaluate)


def test_named_payoff_values():
    assert evaluate(Payoff(DIGITAL, 5.0), 110.0, 100.0) == 5.0
    assert evaluate(Payoff(DIGITAL, 5.0), 100.0, 100.0) == 5.0  # tie pays
    assert evaluate(Payoff(DIGITAL, 5.0), 99.0, 100.0) == 0.0
    assert evaluate(Payoff(SPREAD, 10.0), 120.0, 100.0) == 10.0
    assert evaluate(Payoff(SPREAD, 10.0), 109.0, 100.0) == 0.0
    assert evaluate(Payoff(QUANTO_FOREIGN, 50.0), 2.0, 100.0) == 1.5
    assert evaluate(Payoff(QUANTO_DOMESTIC, 100.0), 103.0, 95.0) == 95.0 * 3.0
    assert evaluate(Payoff(OUTPERFORMANCE, 100.0), 90.0, 104.0) == 4.0


def test_vectorized_evaluation():
    s1 = np.array([90.0, 110.0, 130.0])
    out = evaluate(Payoff(SPREAD, 5.0), s1, 100.0)
    assert np.array_equal(out, [0.0, 5.0, 25.0])


def test_outperformance_dominates_single_asset_calls():
    rng = np.random.default_rng(0)
    s1 = rng.uniform(1.0, 200.0, size=500)
    s2 = rng.uniform(1.0, 200.0, size=500)
    k = 80.0
    outp = evaluate(Payoff(OUTPERFORMANCE, k), s1, s2)
    assert np.all(outp >= np.maximum(s1 - k, 0.0))
    assert np.all(outp >= np.maximum(s2 - k, 0.0))


def test_spread_in_the_money_implies_digital_on():
    rng = np.random.default_rng(1)
    s1 = rng.uniform(1.0, 200.0, size=500)
    s2 = rng.uniform(1.0, 200.0, size=500)
    spread = evaluate(Payoff(SPREAD, 3.0), s1, s2)
    assert np.all((spread <= 0) | (s1 >= s2))


def test_custom_contract_enforced():
    neg = Payoff(CUSTOM, custom_eval=lambda s1, s2: s1 - s2)
    with pytest.raises(PayoffContractError):
        evaluate(neg, np.array([90.0]), np.array([100.0]))
    nonfinite = Payoff(CUSTOM, custom_eval=lambda s1, s2: np.full_like(s1, np.inf))
    with pytest.raises(PayoffContractError):
        evaluate(nonfinite, np.array([100.0]), np.array([100.0]))
    ok = Payoff(CUSTOM, custom_eval=lambda s1, s2: np.maximum(s1 - s2, 0.0))
    assert evaluate(ok, 105.0, 100.0) == 5.0


def test_custom_eval_must_be_callable():
    with pytest.raises(ValidationError, match="custom_eval: must be callable"):
        Payoff(CUSTOM, custom_eval=3)


@pytest.mark.parametrize("fn, cause", (
    (lambda s1, s2: 1 / 0, ZeroDivisionError),
    (lambda s1, s2: np.full(s1.shape, "a"), ValueError),
), ids=("raises", "strings"))
def test_custom_eval_failures_are_contract_errors(fn, cause):
    # a custom payoff that raises, or returns what is not a float array,
    # breaks its contract: PayoffContractError (exit 6), chained to the
    # cause, not the raw error
    with pytest.raises(PayoffContractError, match="custom payoff raised") \
            as info:
        evaluate(Payoff(CUSTOM, custom_eval=fn), np.array([100.0, 90.0]),
                 np.array([95.0, 95.0]))
    assert isinstance(info.value.__cause__, cause)


def test_payoff_validation():
    with pytest.raises(ValidationError):
        Payoff("Binary", 5.0)
    with pytest.raises(ValidationError):
        Payoff(DIGITAL, 0.0)
    with pytest.raises(ValidationError):
        Payoff(CUSTOM)  # needs the callable


def test_uniqueness_reports_nonparallel_cases():
    # rho=0, sigma=(0.2,0.2), alpha-r=(0.06,0.03): (0.2,-0.2) vs A=(0.3,0.15)
    params = desk_params(rho=0.0, sigma=(0.2, 0.2), alpha=(0.08, 0.05))
    rep = uniqueness_check(Payoff(DIGITAL, 10.0), params)
    assert rep.psi1_strictly_monotone and rep.psi2_strictly_monotone


def test_uniqueness_parallel_and_degenerate_cases():
    # quanto domestic direction (sigma1, 0) is parallel to (A1, 0)
    params = desk_params(rho=0.0, alpha=(0.08, 0.02), r=0.02)  # theta2 = 0
    rep = uniqueness_check(Payoff(QUANTO_DOMESTIC, 100.0), params)
    assert not rep.psi1_strictly_monotone
    assert "parallel" in rep.reason
    # alpha = r on both assets degenerates the measure change entirely
    flat = desk_params(alpha=(0.02, 0.02), r=0.02)
    rep = uniqueness_check(Payoff(DIGITAL, 10.0), flat)
    assert not rep.psi1_strictly_monotone

    # digital with (sigma1, -sigma2) parallel to (A1, A2)
    par = desk_params(rho=0.0, sigma=(0.2, 0.3), alpha=(0.06, -0.07), r=0.02)
    rep = uniqueness_check(Payoff(DIGITAL, 10.0), par)
    assert not rep.psi1_strictly_monotone


def test_uniqueness_not_established_kinds():
    params = desk_params()
    for kind in (OUTPERFORMANCE, SPREAD):
        rep = uniqueness_check(Payoff(kind, 10.0), params)
        assert not rep.psi1_strictly_monotone
        assert "not established" in rep.reason
