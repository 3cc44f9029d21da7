"""Adaptive Gauss-Kronrod panels: exactness, honesty of error estimates."""

from __future__ import annotations

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shortfall_hedge._quad as quad_mod
from shortfall_hedge._quad import integrate_batch
from shortfall_hedge.errors import HeavyTailError

from oracles import integrate_batch_one_level


def test_polynomial_exactness():
    # a 7-point Gauss / 15-point Kronrod pair is exact through degree 13
    vals, errs = integrate_batch(lambda x, ids: x ** 9 + 3.0 * x ** 2,
                                 np.array([0.0]), np.array([2.0]))
    truth = 2.0 ** 10 / 10.0 + 2.0 ** 3
    assert abs(vals[0] - truth) <= 1e-12 * truth
    assert errs[0] <= 1e-9 * truth


def test_gaussian_tail():
    vals, _ = integrate_batch(lambda x, ids: np.exp(-0.5 * x * x),
                              np.array([1.0]), np.array([40.0]))
    truth = math.sqrt(math.pi / 2.0) * math.erfc(1.0 / math.sqrt(2.0))
    assert abs(vals[0] - truth) <= 1e-12


def test_batch_rows_are_independent():
    # row id selects the integrand; results must not bleed across rows
    def f(x, ids):
        return np.where(ids == 0, np.sin(x), np.exp(-x))

    lo = np.array([0.0, 0.0])
    hi = np.array([math.pi, 5.0])
    vals, _ = integrate_batch(f, lo, hi)
    assert abs(vals[0] - 2.0) <= 1e-12
    assert abs(vals[1] - (1.0 - math.exp(-5.0))) <= 1e-12


def test_empty_and_degenerate_intervals():
    vals, errs = integrate_batch(lambda x, ids: np.ones_like(x),
                                 np.array([1.0, 2.0]), np.array([1.0, -1.0]))
    assert vals[0] == 0.0 and vals[1] == 0.0
    assert errs[0] == 0.0 and errs[1] == 0.0


def test_error_estimate_honest_on_oscillation():
    vals, errs = integrate_batch(lambda x, ids: np.sin(40.0 * x),
                                 np.array([0.0]), np.array([1.0]))
    truth = (1.0 - math.cos(40.0)) / 40.0
    assert abs(vals[0] - truth) <= max(errs[0], 1e-12)


def test_integrate_batch_reads_its_rule_at_each_call(monkeypatch):
    # a tight reference run sets the module constants for a while: one
    # panel and one round take 15 points and accept the oscillating panel
    points = []

    def f(x, ids):
        points.append(x.size)
        return np.sin(40.0 * x)

    monkeypatch.setattr(quad_mod, "_INITIAL_PANELS", 1)
    monkeypatch.setattr(quad_mod, "_MAX_ROUNDS", 1)
    _vals, errs = integrate_batch(f, np.array([0.0]), np.array([1.0]))
    assert points == [15]
    assert errs[0] > 1e-3  # accepted on the cap, and its error says so
    monkeypatch.undo()
    points.clear()
    integrate_batch(f, np.array([0.0]), np.array([1.0]))
    # 8 panels and rounds to spare again: the first call evaluates the 8
    # panels and, ahead of the second round, their 16 children
    assert points[0] == (8 + 16) * 15


def _bumps(freq, decay):
    """An integrand with per-interval constants, indexed by interval id."""
    def f(x, ids):
        return np.exp(-decay[ids] * x * x) * (1.5 + np.sin(freq[ids] * x))
    return f


_INTERVAL = st.tuples(st.floats(-5, 5), st.floats(-1, 8), st.floats(0, 60),
                      st.floats(0.01, 4))


@settings(max_examples=60, deadline=None)
@given(st.lists(_INTERVAL, min_size=1, max_size=9))
def test_integrate_batch_is_invariant_to_the_batch(intervals):
    # each interval's value and error are the same bits alone or in a batch,
    # whatever the others need in refinement (empty intervals included)
    lo, width, freq, decay = (np.array(v) for v in zip(*intervals))
    hi = lo + width
    vals, errs = integrate_batch(_bumps(freq, decay), lo, hi)
    for i in range(lo.size):
        one = slice(i, i + 1)
        v1, e1 = integrate_batch(_bumps(freq[one], decay[one]), lo[one],
                                 hi[one])
        assert vals[i] == v1[0] and errs[i] == e1[0], i


@contextlib.contextmanager
def _rule(**constants):
    """The module's rule constants set for a while (a Hypothesis test
    cannot take the function-scoped monkeypatch)."""
    saved = {k: getattr(quad_mod, k) for k in constants}
    for k, v in constants.items():
        setattr(quad_mod, k, v)
    try:
        yield
    finally:
        for k, v in saved.items():
            setattr(quad_mod, k, v)


@settings(max_examples=80, deadline=None)
@given(st.lists(_INTERVAL, min_size=1, max_size=14),
       st.integers(1, 8), st.integers(1, 40))
def test_read_ahead_matches_one_level_per_call(intervals, panels, rounds):
    # the read-ahead replays the one-round-per-call loop on its rows: the
    # same values and errors, bit for bit, with empty intervals, calls
    # whose budget leaves no room for children, and rounds cut by the cap
    lo, width, freq, decay = (np.array(v) for v in zip(*intervals))
    hi = lo + width * (np.arange(lo.size) % 4 != 3)  # every 4th is empty
    calls, rounds_seen = [], []

    def counted(sizes):
        def f(x, ids):
            sizes.append(x.size)
            return _bumps(freq, decay)(x, ids)
        return f

    with _rule(_INITIAL_PANELS=panels, _MAX_ROUNDS=rounds):
        vals, errs = integrate_batch(counted(calls), lo, hi)
        want_vals, want_errs = integrate_batch_one_level(
            counted(rounds_seen), lo, hi)
    assert np.array_equal(vals, want_vals)
    assert np.array_equal(errs, want_errs)
    # a call passes the budget only where one round alone does
    assert len(calls) <= len(rounds_seen)
    assert max(calls, default=0) <= max([quad_mod._CALL_POINTS]
                                        + rounds_seen)


def _with_infs(f, at, seen):
    """f, but inf at each abscissa of at; seen records those evaluated."""
    def g(x, ids):
        y = f(x, ids)
        hit = np.isin(x, at)
        seen.extend(x[hit].tolist())
        return np.where(hit, np.inf, y)
    return g


def test_inf_on_an_unread_child_raises_nothing():
    # 8 panels of a linear integrand all converge in the first round; the
    # call also evaluated their children, one of which holds an inf at its
    # centre, a point the refinement never reaches: no error, no warning
    seen = []
    centre = 0.5 * (0.0 + 0.0625)  # the left child of the first panel
    f = _with_infs(lambda x, ids: 1.0 + x, [centre], seen)
    vals, errs = integrate_batch(f, [0.0], [1.0])
    assert seen == [centre]
    want = integrate_batch_one_level(lambda x, ids: 1.0 + x, [0.0], [1.0])
    assert vals[0] == want[0][0] == 1.5 and errs[0] == want[1][0]


def test_inf_on_a_refined_panel_raises_the_loops_error():
    # the kink at 0.3 refines the third panel, [0.25, 0.375], whose right
    # child holds an inf; the left child of the first panel, evaluated
    # earlier in the same call but never needed, holds one too
    unread, needed = 0.03125, 0.34375
    kink = lambda x, ids: np.abs(x - 0.3)  # noqa: E731
    with pytest.raises(HeavyTailError) as got:
        integrate_batch(_with_infs(kink, [unread, needed], []), [0.0], [1.0])
    with pytest.raises(HeavyTailError) as want:
        integrate_batch_one_level(_with_infs(kink, [unread, needed], []),
                                  [0.0], [1.0])
    assert str(got.value) == str(want.value)
    assert "inf at x = 0.34375" in str(got.value)


@settings(max_examples=40, deadline=None)
@given(st.lists(_INTERVAL, min_size=1, max_size=9), st.integers(1, 40))
def test_a_slope_row_moves_no_value_bit(intervals, rounds):
    # a second integrand row is summed on the panels the first row accepts:
    # the values and errors are the bits of the one-row call, and the third
    # array is the one-level loop's, with rounds cut by the cap too
    lo, width, freq, decay = (np.array(v) for v in zip(*intervals))
    hi = lo + width * (np.arange(lo.size) % 4 != 3)  # every 4th is empty
    f = _bumps(freq, decay)

    def rows(x, ids):
        return f(x, ids), np.cos(freq[ids] * x)

    with _rule(_MAX_ROUNDS=rounds):
        vals, errs = integrate_batch(f, lo, hi)
        got = integrate_batch(rows, lo, hi, slope=True)
        want = integrate_batch_one_level(rows, lo, hi, slope=True)
    assert np.array_equal(vals, got[0]) and np.array_equal(errs, got[1])
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_a_slope_row_integrates_its_own_integrand():
    # the row cos x over [0, t] on the panels that sin x accepts: sin t
    t = np.array([0.5, 2.0, 7.0, 30.0, 0.0])
    vals, _errs, slopes = integrate_batch(
        lambda x, ids: (np.sin(x), np.cos(x)), np.zeros(t.size), t,
        slope=True)
    assert np.abs(vals - (1.0 - np.cos(t))).max() <= 1e-12
    assert np.abs(slopes - np.sin(t)).max() <= 1e-12
