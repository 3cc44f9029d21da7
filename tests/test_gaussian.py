"""Gaussian laws, exponential tilts, sampling."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import tilted_interval_mass_four_ndtr
from shortfall_hedge._quad import integrate_batch
from shortfall_hedge.errors import DegenerateLawError, ValidationError
from shortfall_hedge.gaussian import GaussianLaw, sample, tilted_interval_mass


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
