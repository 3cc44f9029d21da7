"""Adaptive Gauss-Kronrod quadrature vectorized over batches of intervals.

The engine keeps one flat work array of panels that may span many unrelated
intervals and refines all unconverged panels at once, so integrand
evaluations stay inside numpy.  A scalar-callback integrator would be far
too slow here: a Psi side in `psi` integrates one interval per c of a
read, and Spread/power's W table one per node of its panels, dozens at
once.

Panels are accepted when the 7-point Gauss vs 15-point Kronrod difference
falls below max(_REL_TOL * |panel|, floor), with the floor tied to the
running estimate of each interval's total so negligible-mass tail panels
do not force refinement.  Accepted panel errors are summed per interval and
reported; refinement is capped, never raised on.  A non-finite integrand
value raises HeavyTailError at once: no panel around it could converge, and
refining toward it only multiplies the panels.

Most rounds refine only the one or two panels of an interval that hold a
kink, so an integrand call costs its fixed numpy overhead more than its
points: each call also evaluates the children of its panels ahead of the
next round (integrate_batch).  Every integrand is elementwise, so a value
does not depend on the batch it is read in.
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


# the accept rule and the refinement budget of integrate_batch, read at
# each call (a tight reference run may set them for a while)
_REL_TOL = 1e-9
_ABS_FLOOR = 1e-15
_INITIAL_PANELS = 8
_MAX_ROUNDS = 40
# read-ahead: an integrand call evaluates at most _LEVELS levels of the
# panel tree, a level below the first only within _CALL_POINTS abscissae
_LEVELS = 2
_CALL_POINTS = 3000


def integrate_batch(f, lo, hi):
    """Integrate f over each [lo[i], hi[i]] with per-panel adaptive G7/K15.

    f(x, ids) receives a flat array of abscissae and the interval index of
    each abscissa, and returns integrand values of the same shape; its
    value at a point must not depend on the other points of the call.
    Intervals with hi <= lo contribute zero.  Returns (values, errors),
    both arrays of len(lo); errors are the summed accepted-panel K-G
    differences (a conservative bound for smooth integrands).  Raises
    HeavyTailError on the first non-finite integrand value of a panel that
    the refinement evaluates.

    An interval's value and error are the same bits whatever other
    intervals share the call: its panels, their acceptance and the order
    of their sums depend on that interval alone.  Each round evaluates the
    unconverged panels and splits them in two; a call of f evaluates the
    round's panels and, while it stays within _CALL_POINTS abscissae and
    _MAX_ROUNDS rounds, their children (_LEVELS levels in all), and the
    rounds are replayed on the evaluated rows, a level at a time.  So the
    panels accepted, their errors, the order of every sum and the first
    non-finite value reported are those of one round per call, and a
    non-finite value on a child that no round reaches raises nothing.
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
    step = width[idx_live] / _INITIAL_PANELS
    ids = np.repeat(idx_live, _INITIAL_PANELS)
    k = np.tile(np.arange(_INITIAL_PANELS), m)
    a = lo[ids] + step[np.repeat(np.arange(m), _INITIAL_PANELS)] * k
    b = a + step[np.repeat(np.arange(m), _INITIAL_PANELS)]

    rnd = 0
    while True:
        # the levels of this call: the round's panels, then the children
        # of each level's panels, left halves first, as a round splits them
        la, lb, lids = [a], [b], [ids]
        while (len(la) < _LEVELS and rnd + len(la) < _MAX_ROUNDS
               and 15 * (sum(x.size for x in la) + 2 * la[-1].size)
               <= _CALL_POINTS):
            mid = 0.5 * (la[-1] + lb[-1])
            la.append(np.concatenate([la[-1], mid]))
            lb.append(np.concatenate([mid, lb[-1]]))
            lids.append(np.concatenate([lids[-1], lids[-1]]))
        starts = np.cumsum([0] + [x.size for x in la])
        a_all, b_all = np.concatenate(la), np.concatenate(lb)
        ids_all = np.concatenate(lids)
        c = 0.5 * (a_all + b_all)
        h = 0.5 * (b_all - a_all)
        x = (c[:, None] + h[:, None] * NODES[None, :]).ravel()
        y = np.asarray(f(x, np.repeat(ids_all, 15)), dtype=float)
        y = y.reshape(-1, 15)
        finite = np.isfinite(y)
        bad = None
        if not finite.all():
            # a child may hold what no round reaches: raise only on a row
            # a round evaluates, and sum the rest without a RuntimeWarning
            bad, raw = ~finite.all(axis=1), y
            y = np.where(finite, y, 0.0)
        # row sums, not y @ WK: a BLAS product rounds each row differently
        # with the batch, and a value must not depend on its neighbours
        k15_all = h * (y * WK).sum(axis=-1)
        err_all = np.abs(k15_all - h * (y * WG).sum(axis=-1))

        rows = np.arange(a.size)  # the round's panels among the rows
        for level in range(len(la)):
            if bad is not None and bad[rows].any():
                r = int(rows[bad[rows]][0])
                j = int(np.flatnonzero(~finite[r])[0])
                raise HeavyTailError(
                    f"quadrature integrand is {float(raw[r, j])!r} at x = "
                    f"{float(x[15 * r + j]):.6g}: a loss term overflows, too "
                    "heavy a tail for the quadrature box")
            k15, err, ids = k15_all[rows], err_all[rows], ids_all[rows]
            # scale: accumulated + current estimates of live panels
            est = vals.copy()
            np.add.at(est, ids, k15)
            floor = _ABS_FLOOR + 1e-13 * np.abs(est)[ids]
            done = err <= np.maximum(_REL_TOL * np.abs(k15), floor)
            if rnd >= _MAX_ROUNDS - 1:
                done[:] = True
            np.add.at(vals, ids[done], k15[done])
            np.add.at(errs, ids[done], err[done])
            rnd += 1
            if done.all():
                return vals, errs
            kept = rows[~done]
            if level + 1 < len(la):
                left = kept - starts[level] + starts[level + 1]
                rows = np.concatenate([left, left + la[level].size])
        a_r, b_r, ids = a_all[kept], b_all[kept], ids_all[kept]
        mid = 0.5 * (a_r + b_r)
        a = np.concatenate([a_r, mid])
        b = np.concatenate([mid, b_r])
        ids = np.concatenate([ids, ids])
