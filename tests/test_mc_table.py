"""The sort-once Monte Carlo Psi table and the MC route built on it."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import desk_params
from oracles import mc_masked_means
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
    out = []
    for i in np.linspace(0, neg_key.size - 1, 9).astype(int):
        c = math.exp(-float(neg_key[i]))
        below = np.nextafter(c, 0.0)
        above = np.nextafter(c, math.inf)
        out += [float(np.nextafter(below, 0.0)), float(below), c,
                float(above), float(np.nextafter(above, math.inf))]
    return out


@pytest.mark.parametrize("loss", LOSSES, ids=lambda l: l.kind)
def test_sorted_table_matches_masked_means(loss):
    # every read, from the totals of an unsorted side or from the prefix
    # sums of a sorted one, is the masked mean over the full sample
    payoff = _basket()
    masked = mc_masked_means(payoff, PARAMS, loss, 10_000, 5)
    for side in (1, 2):
        edges = _McTable(payoff, PARAMS, loss, 10_000, 5)
        got = [_at(edges, c, side) for c in (0.0, math.inf)]
        assert edges.sides[side].neg_key is None
        table = _McTable(payoff, PARAMS, loss, 10_000, 5)
        table.sides[side]._sort()
        neg_key = table.sides[side].neg_key
        cs = [0.0, math.inf] + _near_keys(neg_key)
        # some c land exactly on a key: ln c <= key must hold there
        assert np.isin([-_lnc(c) for c in cs], neg_key).any()
        got += [_at(table, c, side) for c in cs]
        for c, (v, e) in zip([0.0, math.inf] + cs, got):
            want = masked(side, c)
            assert _close(want[0], v), (side, c, want, (v, e))
            assert _close(want[1], e), (side, c, want, (v, e))


def test_table_sorts_each_side_at_its_first_finite_c():
    table = _McTable(_basket(), PARAMS, LossSpec(POWER, 2.0), 10_000, 3)
    for side in table.sides.values():
        # the paths with H = 0 leave the table; the means still divide by n
        assert side.n == 10_000 and 0 < side.key.size < side.n
        assert (side.h > 0).all() and np.isfinite(side.key).all()
    edges = [v for c in (0.0, math.inf) for side in (1, 2)
             for v in _at(table, c, side)]
    assert table.sides[1].neg_key is None  # the edges need no sort
    assert table.sides[2].neg_key is None
    first = _at(table, 1.5, 2)
    assert table.sides[2].neg_key is not None and table.sides[2].h is None
    assert table.sides[1].neg_key is None  # the other side stays unsorted
    assert _at(table, 1.5, 2) == first
    again = [v for c in (0.0, math.inf) for side in (1, 2)
             for v in _at(table, c, side)]
    assert again == pytest.approx(edges, rel=1e-12)


def _count_sorts(monkeypatch) -> list:
    """The _McSide objects that _sort is called on, one entry per call."""
    sorted_sides = []
    real = psi._McSide._sort

    def counting(side):
        sorted_sides.append(side)
        return real(side)

    monkeypatch.setattr(psi._McSide, "_sort", counting)
    return sorted_sides


@pytest.mark.parametrize("loss", LOSSES, ids=lambda l: l.kind)
def test_each_side_sorts_at_most_once(loss, monkeypatch):
    sorts = _count_sorts(monkeypatch)
    payoff = _basket()  # a new contract: the edge cache misses
    mc = McConfig(20_000, seed=4)
    x = 0.5 * price(payoff, PARAMS, mc)
    phi1(payoff, PARAMS, loss, 0.0, mc=mc)  # the edges alone
    assert sorts == []
    # a solve reads both sides at finite c: each sorts once
    risk, _ = phi1(payoff, PARAMS, loss, x, mc=mc)
    assert len(sorts) == 2 and sorts[0] is not sorts[1]
    sorts.clear()
    phi2(payoff, PARAMS, loss, risk, mc=mc)
    assert len(sorts) == 2 and sorts[0] is not sorts[1]
    sorts.clear()
    psi_mc(payoff, PARAMS, loss, 1.0, 20_000, 4)
    assert len(sorts) == 2 and sorts[0] is not sorts[1]


@pytest.mark.parametrize("loss", LOSSES, ids=lambda l: l.kind)
def test_round_trip_reads_psi1_on_one_step(loss):
    # phi1's Psi1 read at c1 and phi2's bisection read Psi1 from the same
    # prefix sums, so phi2(phi1(x)) settles on the step of c1: the same
    # count of P-paths in A_c
    payoff = _basket()
    off_step = []
    for seed in range(1, 13):
        mc = McConfig(20_000, seed=seed)
        p_h = price(payoff, PARAMS, mc)
        table = _McTable(payoff, PARAMS, loss, 20_000, seed)
        table.sides[1]._sort()
        for frac in (0.37, 0.8):
            risk, c1 = phi1(payoff, PARAMS, loss, frac * p_h, mc=mc)
            _cost, c2 = phi2(payoff, PARAMS, loss, risk, mc=mc)
            v = table.side([c1, c2], 1)[0]
            if v[0] != v[1]:
                off_step.append((seed, frac, c1, c2))
    assert off_step == []


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
