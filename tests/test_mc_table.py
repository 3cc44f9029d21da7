"""The sort-once Monte Carlo Psi table and the MC route built on it."""

from __future__ import annotations

import functools
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import desk_params
from oracles import mc_bisect, mc_masked_means
from shortfall_hedge import mc as mc_module
from shortfall_hedge import psi
from shortfall_hedge.errors import (HeavyTailError, InfeasibleInversionError,
                                    NanGuardError)
from shortfall_hedge.mc import McConfig, verify_risk
from shortfall_hedge.payoffs import CUSTOM, QUANTO_DOMESTIC, SPREAD, Payoff
from shortfall_hedge.psi import LINEAR, POWER, LossSpec, _lnc, _McTable, psi_mc
from shortfall_hedge.solver import curve, phi1, phi2, price

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
    assert again == edges  # the edges read the totals, sorted or not


@pytest.mark.parametrize("loss", LOSSES, ids=lambda l: l.kind)
def test_edge_reads_keep_their_bits_after_a_sort(loss):
    # c = 0 and c = inf read the totals taken when the table was built: on
    # the held table a psi_mc at the edges gives the same bits before and
    # after a phi1 has sorted both sides, alone or in a read with finite c
    payoff = _basket()
    mc = McConfig(20_000, seed=8)
    x = 0.5 * price(payoff, PARAMS, mc)
    edges = [psi_mc(payoff, PARAMS, loss, c, 20_000, 8) for c in (0.0, math.inf)]
    table = psi._mc_table(payoff, PARAMS, loss, 20_000, 8)
    assert all(side.neg_key is None for side in table.sides.values())
    phi1(payoff, PARAMS, loss, x, mc=mc)
    assert psi._mc_table(payoff, PARAMS, loss, 20_000, 8) is table
    assert all(side.neg_key is not None for side in table.sides.values())
    again = [psi_mc(payoff, PARAMS, loss, c, 20_000, 8) for c in (0.0, math.inf)]
    assert [(p.psi1.hex(), p.psi2.hex(), p.err_estimate.hex()) for p in again] \
        == [(p.psi1.hex(), p.psi2.hex(), p.err_estimate.hex()) for p in edges]
    for side in (1, 2):
        mixed = table.side([0.0, 1.5, math.inf], side)
        alone = table.side([0.0, math.inf], side)
        assert list(mixed[0][[0, 2]]) == list(alone[0])
        assert list(mixed[1][[0, 2]]) == list(alone[1])


def test_threads_share_the_held_table():
    # 4 threads, more than the cores, solve on one fresh table with a short
    # switch interval: one builds it, one sorts each side, and every thread
    # gets the serial result's bits
    payoff = _basket()
    mc = McConfig(50_000, seed=9)
    x = 0.5 * price(payoff, PARAMS, mc)
    loss = LOSSES[1]
    serial = phi1(payoff, PARAMS, loss, x, mc=mc)
    start = threading.Barrier(4, timeout=60)

    def solve(_):
        start.wait()
        return phi1(payoff, PARAMS, loss, x, mc=mc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(3):
                psi._drop_mc_table()
                futures = [pool.submit(solve, i) for i in range(4)]
                assert [f.result(timeout=60) for f in futures] == [serial] * 4
    finally:
        sys.setswitchinterval(interval)


def test_held_table_never_doubles_the_peak(monkeypatch):
    # a table is built only after the slot is emptied, and a simulation
    # empties it before it draws, so that no two samples' arrays are alive:
    # verify_risk after a phi1 on the held table peaks no higher than the
    # build of that table
    payoff = _basket()
    loss = LOSSES[1]
    mc = McConfig(100_000, seed=2)
    x = 0.5 * price(payoff, PARAMS, mc)
    psi._drop_mc_table()
    tracemalloc.start()
    try:
        phi1(payoff, PARAMS, loss, x, mc=mc)  # builds and holds the table
        held, build = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        verify_risk(payoff, PARAMS, loss, x, mc)
        _, verify = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < held < build and verify <= build
    # every sample is drawn on an empty slot: a table's of another key, a
    # solve's on another contract, and a simulation's
    held_at_draw = []
    for module in (psi, mc_module):
        real = module.sample

        def recording(law, n, seed, real=real):
            held_at_draw.append(psi._mc_held)
            return real(law, n, seed)

        monkeypatch.setattr(module, "sample", recording)
    phi1(payoff, PARAMS, loss, x, mc=mc)  # after a simulation: 1 draw
    psi_mc(payoff, PARAMS, loss, 1.0, 100_000, 3)  # 1
    phi1(payoff, PARAMS, loss, x, mc=mc)  # 1
    phi1(_basket(), PARAMS, loss, 0.0, mc=mc)  # price and edges: 2
    phi1(payoff, PARAMS, loss, x, mc=mc)  # 1
    verify_risk(payoff, PARAMS, loss, x, mc)  # one simulation draw: 1
    assert held_at_draw == [None] * 7


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
    # each side of a table sorts once, and the engine holds the table from
    # call to call: a later solve or psi_mc on the same key sorts nothing
    sorts = _count_sorts(monkeypatch)
    payoff = _basket()  # a new contract: the edge cache misses
    mc = McConfig(20_000, seed=4)
    x = 0.5 * price(payoff, PARAMS, mc)
    phi1(payoff, PARAMS, loss, 0.0, mc=mc)  # the edges alone
    assert sorts == []
    # a solve reads both sides at finite c: each sorts once
    risk, _ = phi1(payoff, PARAMS, loss, x, mc=mc)
    assert len(sorts) == 2 and sorts[0] is not sorts[1]
    sorted_sides = list(sorts)
    sorts.clear()
    phi2(payoff, PARAMS, loss, risk, mc=mc)
    psi_mc(payoff, PARAMS, loss, 1.0, 20_000, 4)
    phi1(payoff, PARAMS, loss, x, mc=mc)
    assert sorts == []
    # another seed is another table, whose sides sort once each
    psi_mc(payoff, PARAMS, loss, 1.0, 20_000, 5)
    psi_mc(payoff, PARAMS, loss, 2.0, 20_000, 5)
    assert len(sorts) == 2 and sorts[0] is not sorts[1]
    assert not [side for side in sorts if side in sorted_sides]


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


def _count_samples(monkeypatch) -> list:
    """The row counts of the samples the Monte Carlo tables draw."""
    calls = []
    real = psi.sample

    def counting(law, n, seed):
        calls.append(n)
        return real(law, n, seed)

    monkeypatch.setattr(psi, "sample", counting)
    return calls


@pytest.mark.parametrize("loss", LOSSES, ids=lambda l: l.kind)
def test_one_sample_per_solve(loss, monkeypatch):
    # at most one sample per solve, and none where the engine holds the
    # contract's table: only a solve after another key's table draws again
    payoff = _basket()
    mc = McConfig(20_000, seed=3)
    x = 0.5 * price(payoff, PARAMS, mc)
    risk, _ = phi1(payoff, PARAMS, loss, x, mc=mc)  # fills price and edges
    calls = _count_samples(monkeypatch)
    phi1(payoff, PARAMS, loss, x, mc=mc)
    phi2(payoff, PARAMS, loss, risk, mc=mc)
    assert calls == []
    psi_mc(payoff, PARAMS, loss, 1.0, 20_000, 4)  # another seed
    assert calls == [40_000]
    phi2(payoff, PARAMS, loss, risk, mc=mc)
    phi1(payoff, PARAMS, loss, x, mc=mc)
    assert calls == [40_000, 40_000]


@pytest.mark.parametrize("loss", LOSSES, ids=lambda l: l.kind)
def test_visit_draws_one_sample(loss, monkeypatch):
    # price, phi1, phi2 and verify_risk's engine solve of one contract draw
    # one sample per table key (a Custom price reads the linear table) and
    # sort each side once; a solve on another contract in between, or the
    # simulation of verify_risk, empties the slot and the next solve draws
    sorts = _count_sorts(monkeypatch)
    calls = _count_samples(monkeypatch)
    payoff, other = _basket(), _basket()
    mc = McConfig(20_000, seed=6)
    x = 0.5 * price(payoff, PARAMS, mc)
    risk, _ = phi1(payoff, PARAMS, loss, x, mc=mc)
    phi2(payoff, PARAMS, loss, risk, mc=mc)
    verify_risk(payoff, PARAMS, loss, x, mc)
    keys = 1 if loss.kind == LINEAR else 2
    assert calls == [40_000] * keys
    assert len(sorts) == 2 and sorts[0] is not sorts[1]
    phi1(other, PARAMS, loss, 0.5 * price(other, PARAMS, mc), mc=mc)
    calls.clear()
    phi2(payoff, PARAMS, loss, risk, mc=mc)
    assert calls == [40_000]
    verify_risk(payoff, PARAMS, loss, x, mc)  # its simulation empties the slot
    phi2(payoff, PARAMS, loss, risk, mc=mc)
    assert calls == [40_000, 40_000]


@pytest.mark.parametrize("payoff, params, loss", (
    (_basket(), PARAMS, LOSSES[0]),
    (_basket(), PARAMS, LOSSES[1]),
    # A1 < 0: the spread's power sign condition fails
    (Payoff(SPREAD, 5.0), desk_params(alpha=(-0.04, 0.05)), LOSSES[1]),
), ids=("basket-linear", "basket-power", "spread-power"))
def test_mc_solve_makes_at_most_two_table_reads(payoff, params, loss,
                                                monkeypatch):
    # the table inverts the target exactly, in one call, and the solve
    # reads the other side at the answer: two table calls of one c each
    mc = McConfig(20_000, seed=3)
    x = 0.5 * price(payoff, params, mc)
    risk, _ = phi1(payoff, params, loss, x, mc=mc)  # fills price and edges
    reads = []
    for name in ("side", "invert"):
        real = getattr(_McTable, name)

        def counting(table, c, side, real=real, name=name):
            reads.append((name, len(c)))
            return real(table, c, side)

        monkeypatch.setattr(_McTable, name, counting)
    for solve, arg in ((phi1, x), (phi2, risk)):
        reads.clear()
        solve(payoff, params, loss, arg, mc=mc)
        assert reads == [("invert", 1), ("side", 1)]


# Custom payoffs whose tables the inversion property below draws from: a
# basket call, a Digital whose H is one value, and a put on S1 in S2 units
_CUSTOM_EVALS = (
    lambda s1, s2: np.maximum(0.5 * (s1 + s2) - 95.0, 0.0),
    lambda s1, s2: (s1 >= s2).astype(float),
    lambda s1, s2: np.maximum(100.0 - s1, 0.0) * s2 / 95.0,
)


@functools.lru_cache(maxsize=None)
def _custom_table(k: int, power: bool, seed: int) -> _McTable:
    return _McTable(Payoff(CUSTOM, custom_eval=_CUSTOM_EVALS[k]), PARAMS,
                    LOSSES[power], 10_000, seed)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(k=st.integers(0, len(_CUSTOM_EVALS) - 1), power=st.booleans(),
       side=st.sampled_from((1, 2)), seed=st.integers(1, 3),
       u=st.floats(0.01, 0.99))
def test_inversion_is_the_least_c_of_the_bisection_bracket(k, power, side,
                                                           seed, u):
    # the table's inversion returns the least float c whose read meets the
    # target: c lies in the final bracket of the bisection that the solver
    # ran before (mc_bisect), a read at c (1 - 1e-12) misses the target,
    # and the value at c is the bisection's, to the bit for linear loss
    # and within 1e-12 relative for power loss
    table = _custom_table(k, power, seed)
    rising = power and side == 1
    top = float(table.side([math.inf if rising else 0.0], side)[0][0])
    target = u * top
    (c,), (v,), _err = table.invert([target], side)
    lo, hi, v_hi = mc_bisect(table, side, target, rising)
    assert lo < c <= hi
    below = float(table.side([c * (1.0 - 1e-12)], side)[0][0])
    assert below < target if rising else below > target
    if power:
        assert abs(v - v_hi) <= 1e-12 * abs(v_hi)
    else:
        assert v == v_hi


@pytest.mark.parametrize("kind", ("phi1", "phi2"))
def test_a_step_across_the_target_is_infeasible(kind):
    # at alpha = r, Z~ = 1 and every linear key is 0: Psi steps at c = 1
    # from its c = 0 value to 0, and the least c whose read meets an
    # interior target, just above 1, misses it by more than
    # max(1e-7 max(1, scale), 8 se): the check that ends every solve raises
    params = desk_params(alpha=(0.02, 0.02), r=0.02)
    basket = _basket()
    mc = McConfig(20_000, seed=1)
    loss = LOSSES[0]
    top = (price(basket, params, mc) if kind == "phi1"
           else psi_mc(basket, params, loss, 0.0, 20_000, 1).psi1)
    solve = phi1 if kind == "phi1" else phi2
    side = 2 if kind == "phi1" else 1
    with pytest.raises(InfeasibleInversionError,
                       match=rf"^Psi{side}\(1\) = 0 cannot reach target .* "
                       "jumps across the target"):
        solve(basket, params, loss, 0.5 * top, mc=mc)
    # a curve records the error on each interior point
    rc = curve(basket, params, loss, kind, [0.0, 0.25 * top, 0.5 * top],
               mc=mc)
    assert rc.points[0].error is None
    assert all("jumps across the target" in pt.error for pt in rc.points[1:])


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
    # at alpha1 = 5.4 the phi2 root lies past c = 1e154, where the weight
    # c^q of the prefix sums overflows a float: HeavyTailError naming the
    # side and the c that the inversion reads there, not a raw
    # OverflowError.  The quadrature route takes its weights in logs and
    # solves there
    params = desk_params(alpha=(5.4, 0.05), rho=0.0)
    loss = LossSpec(POWER, 2.0)
    custom = Payoff(CUSTOM, custom_eval=lambda s1, s2:
                    (s1 >= s2).astype(float))
    mc = McConfig(20_000, seed=1)
    top = phi1(custom, params, loss, 0.0, mc=mc)[0]
    with pytest.raises(HeavyTailError, match=r"Monte Carlo Psi1 at c = "
                       r"(\S+): a power-loss weight overflows") as info:
        phi2(custom, params, loss, 0.5 * top, mc=mc)
    c = float(str(info.value).split(" = ")[1].split(":")[0])
    assert 1e154 < c < math.inf
    with pytest.raises(OverflowError):
        c ** 2.0  # the weight c^q, q = p / (p - 1) = 2
    quanto = Payoff(QUANTO_DOMESTIC, strike=100.0)
    top = phi1(quanto, params, loss, 0.0)[0]
    _cost, c = phi2(quanto, params, loss, 0.5 * top)
    assert 1e154 < c < math.inf
    # the round trip: Psi1 at the returned c is the risk bound, within the
    # check that ends the solve
    got = psi.psi_power(quanto, params, c, 2.0)
    assert abs(got.psi1 - 0.5 * top) <= max(1e-9 * top, 8.0 * got.err_estimate)
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
