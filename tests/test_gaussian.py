"""Gaussian laws, orthant probabilities, exponential tilts, sampling."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from oracles import tilted_interval_mass_four_ndtr
from shortfall_hedge._quad import integrate_batch
from shortfall_hedge.errors import DegenerateLawError, ValidationError
from shortfall_hedge.gaussian import (GaussianLaw, rect_upper_prob, sample,
                                      tilted_interval_mass)


def _std_bvn(rho: float) -> GaussianLaw:
    return GaussianLaw(2, [0.0, 0.0], [[1.0, rho], [rho, 1.0]])


def test_quadrant_probability_closed_form():
    # P(X >= 0, Y >= 0) = 1/4 + asin(rho) / (2 pi)
    for rho in (-0.8, -0.3, 0.0, 0.45, 0.7):
        got = rect_upper_prob(_std_bvn(rho), [0.0, 0.0])
        want = 0.25 + math.asin(rho) / (2.0 * math.pi)
        assert abs(got - want) <= 1e-12


def test_rect_independent_case_factorizes():
    law = GaussianLaw(2, [1.0, -2.0], [[4.0, 0.0], [0.0, 9.0]])
    got = rect_upper_prob(law, [2.0, 1.0])
    phi = lambda z: 0.5 * math.erfc(z / math.sqrt(2.0))
    want = phi((2.0 - 1.0) / 2.0) * phi((1.0 + 2.0) / 3.0)
    assert abs(got - want) <= 1e-12


def test_rect_infinite_thresholds():
    law = _std_bvn(0.25)
    assert abs(rect_upper_prob(law, [-np.inf, -np.inf]) - 1.0) <= 1e-12
    assert rect_upper_prob(law, [np.inf, 0.0]) == 0.0
    one_sided = rect_upper_prob(law, [-np.inf, 0.7])
    assert abs(one_sided - 0.5 * math.erfc(0.7 / math.sqrt(2.0))) <= 1e-12


def test_tilted_interval_mass_vs_quadrature():
    gamma, m, s, lo, hi = 1.3, -0.4, 1.7, -1.0, 2.5

    def integrand(y, ids):
        z = (y - m) / s
        return np.exp(gamma * y) * np.exp(-0.5 * z * z) / (s * math.sqrt(2 * math.pi))

    want, _ = integrate_batch(integrand, np.array([lo]), np.array([hi]))
    got = tilted_interval_mass(gamma, m, s, lo, hi)
    assert abs(float(got) - want[0]) <= 1e-10 * want[0]


def test_tilted_interval_mass_equals_its_four_ndtr_form_bitwise():
    # two ndtr calls on the arguments of the kept tail, not four: the same
    # bits, also at infinite bounds and on empty and reversed intervals
    rng = np.random.default_rng(7)
    n = 200_000
    gamma = rng.normal(0.0, 3.0, n)
    m = rng.normal(0.0, 2.0, n)
    lo = rng.normal(0.0, 4.0, n)
    hi = lo + rng.normal(0.5, 2.0, n)
    lo[::7], hi[::11] = -np.inf, np.inf
    lo[::13], hi[::17] = np.inf, -np.inf
    hi[::19] = lo[::19]
    for s in (0.05, 0.7, 2.5):
        got = tilted_interval_mass(gamma, m, s, lo, hi)
        want = tilted_interval_mass_four_ndtr(gamma, m, s, lo, hi)
        assert got.tobytes() == want.tobytes()


def test_tilted_interval_mass_overflow_is_zero_not_nan():
    # a huge tilt factor against an empty far-left interval must cancel to 0
    out = tilted_interval_mass(50.0, 0.0, 1.0, -40.0, -41.0)
    assert float(out) == 0.0
    out2 = tilted_interval_mass(60.0, 0.0, 1.0, -50.0, -49.9)
    assert np.isfinite(float(out2))


def test_tilted_interval_mass_in_logs_matches_mpmath():
    # rows whose factor e^(log_scale + gamma m + gamma^2 s^2 / 2) passes
    # e^600 while Phi(beta) - Phi(alpha) underflows to 0 in floats: the
    # product, taken in logs, against 40-digit mpmath.  Its exponent rounds
    # to about eps times the size of its terms, log_scale and gamma times a
    # bound; with gamma s ~ 6e4 the sum of the exponent and ln Phi, each
    # ~ 2e9, would keep no more than 6 digits
    mpmath = pytest.importorskip("mpmath")
    rows = np.array([  # gamma, m, s, lo, hi, log_scale
        [40.0, 0.0, 1.0, -np.inf, 0.1, 0.0],
        [-40.0, 0.0, 1.0, -0.1, np.inf, 0.0],       # the upper tail
        [40.0, 0.3, 1.0, -2.0, 0.4, 0.0],
        [-2.0, 1.0, 0.6, 40.0, 40.01, 2000.0],      # a narrow interval
        [30.0, 0.0, 1.5, -np.inf, 0.0, -300.0],
        [0.0, 0.0, 1.0, 39.0, np.inf, 700.0],
        [-0.5, 0.2, 0.8, 38.5, 39.0, 1000.0],
        [3.0, 0.0, 1.0, -1.0, 1.0, 650.0],          # Phi(t) near 1
        [-123456.7, 0.13, 0.47, 1.9, np.inf, 234567.0],
        [-123456.7, 0.13, 0.47, 1.9, 1.9000001, 234567.0],
        [2.5e4, -0.3, 0.8, -np.inf, -1.1, 27500.0],
        [-0.5, 0.2, 0.8, 39.0, 38.5, np.inf],       # empty: 0, not nan
    ])
    got = tilted_interval_mass(*rows.T[:5], log_scale=rows[:, 5])
    with mpmath.workdps(40):
        for row, g in zip(rows, got):
            gamma, m, s, lo, hi, log_scale = (mpmath.mpf(v) for v in row)
            alpha = (lo - m) / s - gamma * s
            beta = (hi - m) / s - gamma * s
            diff = (mpmath.ncdf(-alpha) - mpmath.ncdf(-beta)
                    if alpha + beta > 0 else
                    mpmath.ncdf(beta) - mpmath.ncdf(alpha))
            want = (0 if hi <= lo else mpmath.exp(
                log_scale + gamma * m + (gamma * s) ** 2 / 2) * diff)
            size = abs(row[5]) + abs(row[0]) * np.abs(row[3:5]).min()
            tol = 1e-15 * max(1e3, size if np.isfinite(size) else 0.0)
            assert abs(g - want) <= tol * abs(want), (row, g, want)
    # the same rows one at a time: a row does not depend on its batch
    assert [float(tilted_interval_mass(*r[:5], log_scale=r[5]))
            for r in rows] == got.tolist()


@settings(max_examples=100, deadline=None)
@given(gamma=st.floats(-3, 3), m=st.floats(-2, 2), s=st.floats(0.2, 3),
       a=st.floats(-4, 4), width1=st.floats(0, 3), width2=st.floats(0, 3))
def test_tilted_mass_additive_over_adjacent_intervals(gamma, m, s, a, width1,
                                                      width2):
    b, c = a + width1, a + width1 + width2
    whole = float(tilted_interval_mass(gamma, m, s, a, c))
    split = float(tilted_interval_mass(gamma, m, s, a, b)) + \
        float(tilted_interval_mass(gamma, m, s, b, c))
    assert abs(whole - split) <= 1e-12 * max(1.0, whole)


@settings(max_examples=100, deadline=None)
@given(rho=st.floats(-0.95, 0.95), l1=st.floats(-3, 3), l2=st.floats(-3, 3),
       bump=st.floats(0, 2))
def test_rect_monotone_in_thresholds(rho, l1, l2, bump):
    law = _std_bvn(rho)
    base = rect_upper_prob(law, [l1, l2])
    shrunk = rect_upper_prob(law, [l1 + bump, l2])
    assert shrunk <= base + 1e-12


def test_rect_array_bounds_match_scalar_calls_bit_for_bit():
    # infinite, signed-zero and subnormal bounds, h = k = 0 and opposite
    # signs, each element against its own scalar call
    bounds = [-np.inf, np.inf, 0.0, -0.0, 5e-324, -2.2e-311, 0.4, -1.3, 6.0]
    l1, l2 = (a.ravel() for a in np.meshgrid(bounds, bounds, indexing="ij"))
    for rho in (-0.95, 0.0, 0.7):
        for law in (_std_bvn(rho),
                    GaussianLaw(2, [0.4, -1.3], [[4.0, 2.0 * rho],
                                                  [2.0 * rho, 1.0]])):
            got = rect_upper_prob(law, (l1, l2))
            assert got.shape == l1.shape
            want = [rect_upper_prob(law, (a, b)) for a, b in zip(l1, l2)]
            assert all(type(w) is float for w in want)
            assert [float(g).hex() for g in got] == [w.hex() for w in want]
    # one bound may be an array and the other a scalar
    law = _std_bvn(0.7)
    assert np.array_equal(rect_upper_prob(law, (0.4, l2)),
                          rect_upper_prob(law, (np.full(l2.size, 0.4), l2)))


def _rect_by_quadrature(law: GaussianLaw, lower):
    """(P(X1 >= l1, X2 >= l2), error) by outer adaptive quadrature of the
    conditional tail of X1 given X2 over +/-10 sd: an independent route."""
    l1, l2 = lower
    m1, m2 = law.mean
    s2 = math.sqrt(law.cov[1, 1])
    coef = law.cov[0, 1] / law.cov[1, 1]
    cond_sd = math.sqrt(law.cov[0, 0] - coef * law.cov[0, 1])
    lo, hi = max(l2, m2 - 10.0 * s2), m2 + 10.0 * s2
    if hi <= lo:
        return 0.0, 0.0

    def integrand(x2, _ids):
        dens = np.exp(-0.5 * ((x2 - m2) / s2) ** 2) / (s2 * math.sqrt(2 * math.pi))
        return dens * ndtr((m1 + coef * (x2 - m2) - l1) / cond_sd)

    vals, errs = integrate_batch(integrand, [lo], [hi])
    return float(vals[0]), float(errs[0])


@settings(max_examples=300, deadline=None)
@given(rho=st.floats(-0.95, 0.95), m1=st.floats(-2, 2), m2=st.floats(-2, 2),
       s1=st.floats(0.3, 3), s2=st.floats(0.3, 3), l1=st.floats(-8, 8),
       l2=st.floats(-8, 8))
# h*k underflows to 0 here; the signs of h and k still decide the formula
@example(rho=0.0, m1=0.0, m2=0.0, s1=1.0, s2=1.0, l1=2.9e-136, l2=2e-267)
@example(rho=0.0, m1=0.0, m2=0.0, s1=1.0, s2=1.0, l1=-2.9e-136, l2=2e-267)
# (k - rho h)/h at subnormal h loses rho h; k/h - rho keeps it
@example(rho=0.5, m1=0.0, m2=0.0, s1=1.0, s2=1.0, l1=5e-324, l2=0.0)
def test_rect_matches_conditional_quadrature(rho, m1, m2, s1, s2, l1, l2):
    cov = [[s1 * s1, rho * s1 * s2], [rho * s1 * s2, s2 * s2]]
    law = GaussianLaw(2, [m1, m2], cov)
    want, err = _rect_by_quadrature(law, (l1, l2))
    assert abs(rect_upper_prob(law, [l1, l2]) - want) <= 1e-13 + err


def test_sample_seeded_and_moments():
    law = GaussianLaw(2, [1.0, -2.0], [[1.0, 0.3], [0.3, 0.5]])
    a = sample(law, 50_000, seed=7)
    b = sample(law, 50_000, seed=7)
    assert np.array_equal(a, b)
    assert a.shape == (50_000, 2)
    assert np.all(np.abs(a.mean(axis=0) - law.mean) <= 0.02)
    assert abs(np.cov(a.T)[0, 1] - 0.3) <= 0.02


def test_sample_rejects_an_empty_draw_with_a_typed_error():
    law = GaussianLaw(2, [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
    for n in (0, -3):
        with pytest.raises(ValidationError, match=r"n: must be >= 1"):
            sample(law, n, seed=1)


def test_degenerate_covariance_rejected():
    with pytest.raises(DegenerateLawError):
        GaussianLaw(2, [0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(DegenerateLawError):
        GaussianLaw(2, [0.0, 0.0], [[1.0, 0.2], [0.3, 1.0]])
