"""The sort-once Monte Carlo Psi table and the MC route built on it."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import desk_params
from shortfall_hedge import psi
from shortfall_hedge.errors import HeavyTailError, NanGuardError
from shortfall_hedge.mc import McConfig
from shortfall_hedge.payoffs import CUSTOM, QUANTO_DOMESTIC, SPREAD, Payoff
from shortfall_hedge.psi import LINEAR, POWER, LossSpec, _lnc, _McTable, psi_mc
from shortfall_hedge.solver import phi1, phi2, price

PARAMS = desk_params()
LOSSES = (LossSpec(LINEAR), LossSpec(POWER, 2.0))


def _basket():
    return Payoff(CUSTOM, custom_eval=lambda s1, s2:
                  np.maximum(0.5 * (s1 + s2) - 95.0, 0.0))


def _close(a: float, b: float) -> bool:
    """1e-12 relative, or 1e-9 absolute for values below 1e-9: where A_c
    holds a few paths on its boundary, the prefix sums of H^2, H u and u^2
    cancel to rounding in the power Psi2 standard error."""
    if abs(a) < 1e-9:
        return abs(a - b) <= 1e-9
    return abs(a - b) <= 1e-12 * abs(a)


def _at(table: _McTable, c: float, side: int) -> tuple:
    """(Psi_side(c), standard error) from a one-c array read."""
    (v,), (e,) = table.side([c], side)
    return float(v), float(e)


def _near_keys(neg_key: np.ndarray) -> list:
    """c at a spread of sorted keys: exp(key) and two ulps either side, so
    that ln c meets, undershoots and overshoots the key."""
    finite = neg_key[np.isfinite(neg_key)]
    out = []
    for i in np.linspace(0, finite.size - 1, 9).astype(int):
        c = math.exp(-float(finite[i]))
        below = np.nextafter(c, 0.0)
        above = np.nextafter(c, math.inf)
        out += [float(np.nextafter(below, 0.0)), float(below), c,
                float(above), float(np.nextafter(above, math.inf))]
    return out


@pytest.mark.parametrize("loss", LOSSES, ids=lambda l: l.kind)
def test_sorted_table_matches_masked_means(loss):
    payoff = _basket()
    masked = _McTable(payoff, PARAMS, loss, 10_000, 5)
    table = _McTable(payoff, PARAMS, loss, 10_000, 5)
    for side in (1, 2):
        table.sides[side]._sort()
        neg_key = table.sides[side].neg_key
        cs = [0.0, math.inf] + _near_keys(neg_key)
        # some c land exactly on a key: ln c <= key must hold there
        assert np.isin([-_lnc(c) for c in cs], neg_key).any()
        for c in cs:
            want = masked.sides[side]._masked(c, _lnc(c))
            got = _at(table, c, side)
            assert _close(want[0], got[0]), (side, c, want, got)
            assert _close(want[1], got[1]), (side, c, want, got)


def test_table_sorts_each_side_at_its_second_finite_c():
    table = _McTable(_basket(), PARAMS, LossSpec(POWER, 2.0), 10_000, 3)
    first = _at(table, 1.5, 2)
    _at(table, 0.0, 2)
    _at(table, math.inf, 2)
    assert table.sides[2].neg_key is None  # the edges need no sort
    assert _at(table, 1.5, 2) == pytest.approx(first, rel=1e-12)
    assert table.sides[2].neg_key is not None and table.sides[2].h is None
    assert table.sides[1].neg_key is None  # the other side stays unsorted


@pytest.mark.parametrize("loss", LOSSES, ids=lambda l: l.kind)
def test_one_sample_per_solve(loss, monkeypatch):
    payoff = _basket()
    mc = McConfig(20_000, seed=3)
    x = 0.5 * price(payoff, PARAMS, mc)
    risk, _ = phi1(payoff, PARAMS, loss, x, mc=mc)  # fills price and edges
    calls = []
    real = psi.sample

    def counting(law, n, seed):
        calls.append(n)
        return real(law, n, seed)

    monkeypatch.setattr(psi, "sample", counting)
    phi1(payoff, PARAMS, loss, x, mc=mc)
    assert calls == [40_000]
    phi2(payoff, PARAMS, loss, risk, mc=mc)
    assert calls == [40_000, 40_000]


@pytest.mark.parametrize("payoff, params, loss", (
    (_basket(), PARAMS, LOSSES[0]),
    (_basket(), PARAMS, LOSSES[1]),
    # A1 < 0: the spread's power sign condition fails
    (Payoff(SPREAD, 5.0), desk_params(alpha=(-0.04, 0.05)), LOSSES[1]),
), ids=("basket-linear", "basket-power", "spread-power"))
def test_mc_solve_reads_ahead(payoff, params, loss, monkeypatch):
    # the Monte Carlo table is a step function, where a chord between the
    # bracket ends predicts nothing, so the route reads 4 levels of the
    # bisection tree ahead: at most 14 table reads of at most 15 c's
    mc = McConfig(20_000, seed=3)
    x = 0.5 * price(payoff, params, mc)
    risk, _ = phi1(payoff, params, loss, x, mc=mc)  # fills price and edges
    reads = []
    real = _McTable.side

    def counting(table, c, side):
        reads.append(len(c))
        return real(table, c, side)

    monkeypatch.setattr(_McTable, "side", counting)
    for solve, arg in ((phi1, x), (phi2, risk)):
        reads.clear()
        solve(payoff, params, loss, arg, mc=mc)
        assert 2 < len(reads) <= 14
        assert max(reads) <= 15


@pytest.mark.filterwarnings("ignore:overflow encountered")  # se of p(H)
def test_non_finite_loss_term_raises_nan_guard():
    huge = Payoff(CUSTOM, custom_eval=lambda s1, s2: np.full_like(s1, 1e200))
    mc = McConfig(10_000, seed=1)
    loss = LossSpec(POWER, 2.0)
    p_h = price(huge, PARAMS, mc)  # linear terms stay finite
    assert math.isfinite(p_h)
    for solve in (lambda: phi1(huge, PARAMS, loss, 0.0, mc=mc),
                  lambda: phi1(huge, PARAMS, loss, 0.5 * p_h, mc=mc),
                  lambda: phi2(huge, PARAMS, loss, 1.0, mc=mc),
                  lambda: psi_mc(huge, PARAMS, loss, 1.0, 10_000, 1)):
        with pytest.raises(NanGuardError) as info:
            solve()
        assert info.value.index == 0
        assert all(math.isfinite(w) for w in info.value.w)


def test_power_weight_past_the_float_range_raises_heavy_tail(recwarn):
    # at alpha1 = 5.4 the phi2 root lies near c = 4e155, where the weight
    # c^q of the prefix sums overflows a float: HeavyTailError naming the
    # side and c, as on the quadrature route, not a raw OverflowError
    params = desk_params(alpha=(5.4, 0.05), rho=0.0)
    loss = LossSpec(POWER, 2.0)
    custom = Payoff(CUSTOM, custom_eval=lambda s1, s2:
                    (s1 >= s2).astype(float))
    mc = McConfig(20_000, seed=1)
    top = phi1(custom, params, loss, 0.0, mc=mc)[0]
    with pytest.raises(HeavyTailError, match=r"Monte Carlo Psi1 at c = "
                       r"4\.29\d*e\+155: a power-loss weight overflows"):
        phi2(custom, params, loss, 0.5 * top, mc=mc)
    quanto = Payoff(QUANTO_DOMESTIC, strike=100.0)
    top = phi1(quanto, params, loss, 0.0)[0]
    with pytest.raises(HeavyTailError, match=r"power-loss term overflows"):
        phi2(quanto, params, loss, 0.5 * top)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_overflowing_psi_sum_raises_heavy_tail(recwarn):
    # each path's H^2 is finite, their sum over the paths is not: a Psi
    # value that is not finite is a HeavyTailError naming side and c, with
    # no RuntimeWarning on the way
    huge = Payoff(CUSTOM, custom_eval=lambda s1, s2:
                  1e151 * np.maximum(s1 - 100.0, 0.0))
    mc = McConfig(20_000, seed=1)
    loss = LossSpec(POWER, 2.0)
    for solve in (lambda: phi1(huge, PARAMS, loss, 0.0, mc=mc),
                  lambda: phi2(huge, PARAMS, loss, 1e300, mc=mc)):
        with pytest.raises(HeavyTailError, match=r"Psi1 at c = inf"):
            solve()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
