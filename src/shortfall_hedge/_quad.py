"""Adaptive Gauss-Kronrod quadrature vectorized over batches of intervals.

The engine keeps one flat work array of panels that may span many unrelated
intervals and refines all unconverged panels at once, so integrand
evaluations stay inside numpy.  A scalar-callback integrator would be far
too slow here: outer nodes of the nested integrals in `psi` can each carry
an inner integral of their own.

Panels are accepted when the 7-point Gauss vs 15-point Kronrod difference
falls below max(rel_tol * |panel|, floor), with the floor tied to the
running estimate of each interval's total so negligible-mass tail panels
do not force refinement.  Accepted panel errors are summed per interval and
reported; refinement is capped, never raised on.  A non-finite integrand
value raises HeavyTailError at once: no panel around it could converge, and
refining toward it only multiplies the panels.
"""

from __future__ import annotations

import numpy as np

from .errors import HeavyTailError

# G7/K15 abscissae and weights on [-1, 1] (positive half; standard table).
_POS_NODES = np.array([
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_POS_WK = np.array([
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_G_AT = {1: 0.381830050505118944950369775488975,
         3: 0.279705391489276667901467771423780,
         5: 0.129484966168869693270611432679082}

NODES = np.concatenate([-_POS_NODES[::-1], [0.0], _POS_NODES])
WK = np.concatenate([_POS_WK[::-1],
                     [0.209482141084727828012999174891714],
                     _POS_WK])
WG = np.zeros(15)
WG[7] = 0.417959183673469387755102040816327
for _i, _w in _G_AT.items():
    WG[7 - (_i + 1)] = _w
    WG[7 + (_i + 1)] = _w
del _i, _w


def integrate_batch(f, lo, hi, rel_tol=1e-9, abs_floor=1e-15,
                    initial_panels=8, max_rounds=40):
    """Integrate f over each [lo[i], hi[i]] with per-panel adaptive G7/K15.

    f(x, ids) receives a flat array of abscissae and the interval index of
    each abscissa, and returns integrand values of the same shape.
    Intervals with hi <= lo contribute zero.  Returns (values, errors),
    both arrays of len(lo); errors are the summed accepted-panel K-G
    differences (a conservative bound for smooth integrands).  Raises
    HeavyTailError on the first non-finite integrand value.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    n = lo.size
    vals = np.zeros(n)
    errs = np.zeros(n)
    width = hi - lo
    live = width > 0
    if not live.any():
        return vals, errs

    idx_live = np.nonzero(live)[0]
    m = idx_live.size
    step = width[idx_live] / initial_panels
    ids = np.repeat(idx_live, initial_panels)
    k = np.tile(np.arange(initial_panels), m)
    a = lo[ids] + step[np.repeat(np.arange(m), initial_panels)] * k
    b = a + step[np.repeat(np.arange(m), initial_panels)]

    scale = np.zeros(n)  # running |integral| estimate per interval
    for rnd in range(max_rounds):
        c = 0.5 * (a + b)
        h = 0.5 * (b - a)
        x = (c[:, None] + h[:, None] * NODES[None, :]).ravel()
        ids_x = np.repeat(ids, 15)
        y = np.asarray(f(x, ids_x), dtype=float)
        if not np.isfinite(y).all():
            i = int(np.flatnonzero(~np.isfinite(y))[0])
            raise HeavyTailError(
                f"quadrature integrand is {float(y[i])!r} at x = "
                f"{float(x[i]):.6g}: a loss term overflows, too heavy a tail "
                "for the quadrature box")
        y = y.reshape(-1, 15)
        k15 = h * (y @ WK)
        g7 = h * (y @ WG)
        err = np.abs(k15 - g7)

        # refresh scale: accumulated + current estimates of live panels
        est = vals.copy()
        np.add.at(est, ids, k15)
        scale = np.abs(est)
        floor = abs_floor + 1e-13 * scale[ids]
        done = err <= np.maximum(rel_tol * np.abs(k15), floor)
        if rnd == max_rounds - 1:
            done[:] = True
        np.add.at(vals, ids[done], k15[done])
        np.add.at(errs, ids[done], err[done])
        if done.all():
            break
        keep = ~done
        a_r, b_r, ids_r = a[keep], b[keep], ids[keep]
        mid = 0.5 * (a_r + b_r)
        a = np.concatenate([a_r, mid])
        b = np.concatenate([mid, b_r])
        ids = np.concatenate([ids_r, ids_r])
    return vals, errs


def integrate_rows(f, lo, hi, n_panels):
    """Fixed-panel K15 integration of f row-wise over [lo[i], hi[i]].

    f receives abscissae shaped (rows, n_panels, 15); per-row constants in
    the integrand must broadcast against that shape.  No error control;
    meant for inner integrals whose smoothness is arranged by the caller.
    Rows with hi <= lo yield 0.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    width = np.maximum(hi - lo, 0.0)
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    a = lo[:, None] + width[:, None] * edges[None, :-1]
    b = lo[:, None] + width[:, None] * edges[None, 1:]
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x = c[..., None] + h[..., None] * NODES
    y = np.asarray(f(x), dtype=float)
    return (h * (y @ WK)).sum(axis=1)
