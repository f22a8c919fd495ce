"""The library's one derivative-free local optimizer: Nelder-Mead.

``minimize`` replays the non-adaptive, unbounded Nelder-Mead of
``scipy.optimize.minimize(method="Nelder-Mead")`` (scipy 1.17) step for
step, on Python floats instead of small arrays:

- the initial simplex moves one coordinate of x0 per vertex, by 5%, or to
  0.00025 when it is zero;
- reflection, expansion, outside and inside contraction and shrink use
  the coefficients 1, 2, 0.5 and 0.5, in scipy's order;
- the centroid of the N best vertices is summed vertex by vertex, then
  divided by N;
- the run stops when every vertex is within ``XATOL`` of the best in each
  coordinate and every value within ``FATOL`` of the best, or when the
  iteration count, which starts at 1, reaches ``MAXITER``;
- the simplex is ordered by ``np.argsort`` of the values, twice before the
  first iteration and once after each, as scipy orders it.  The default
  sort is not stable, and on some CPUs it orders tied values differently
  from a stable sort, so a Python sort would change trajectories.

So for the same objective it returns the same ``x``, ``fun``, ``nfev``,
``nit`` and ``success`` as scipy with the options ``xatol=XATOL``,
``fatol=FATOL`` and ``maxiter=MAXITER``, bit for bit, without importing
scipy.  Those three module constants are the only options; ``minimize``
reads them at call time.

The one departure: when no value of the initial simplex is finite (inf or
NaN), no comparison of values holds, so scipy shrinks the simplex at every
iteration and, unless a shrunk vertex scores a finite value, stops only at
``MAXITER``.  ``minimize`` stops after the N+1 initial evaluations instead
and returns x0, ``np.min`` of those values and ``success=False``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

XATOL = 1e-12
FATOL = 1e-14
MAXITER = 4000


class NelderMeadResult(NamedTuple):
    x: np.ndarray
    fun: float
    nfev: int
    nit: int
    success: bool  # False at ``MAXITER`` or after a non-finite start


def _sorted(sim: list, fsim: list) -> tuple[list, list]:
    order = np.array(fsim).argsort().tolist()
    return [sim[i] for i in order], [fsim[i] for i in order]


def minimize(fun, x0) -> NelderMeadResult:
    """Minimize ``fun`` (a float of a 1-D float array) from ``x0``.

    ``fun`` gets a new array at every evaluation, so it may keep or change
    it."""
    x0 = np.asarray(x0, dtype=float).ravel().tolist()
    N = len(x0)
    nfev = 0

    def f(x: list) -> float:
        nonlocal nfev
        nfev += 1
        return float(fun(np.array(x)))

    sim = [x0]
    for k in range(N):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [f(x) for x in sim]
    if not np.isfinite(fsim).any():
        return NelderMeadResult(x=np.array(x0), fun=float(np.min(fsim)),
                                nfev=nfev, nit=1, success=False)
    sim, fsim = _sorted(*_sorted(sim, fsim))

    nit = 1
    while nit < MAXITER:
        best = sim[0]
        # scipy tests the vertices first; both tests are pure, and the
        # values' test is the cheaper one and fails more often
        if (all(abs(fsim[0] - fv) <= FATOL for fv in fsim[1:])
                and all(abs(v - b) <= XATOL
                        for x in sim[1:] for v, b in zip(x, best))):
            break
        xbar = sim[0]
        for x in sim[1:N]:
            xbar = [a + b for a, b in zip(xbar, x)]
        xbar = [a / N for a in xbar]
        worst = sim[-1]

        xr = [2 * a - w for a, w in zip(xbar, worst)]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = [3 * a - 2 * w for a, w in zip(xbar, worst)]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = [1.5 * a - 0.5 * w for a, w in zip(xbar, worst)]
                fxc = f(xc)
                keep = fxc <= fxr
            else:  # inside contraction
                xc = [0.5 * a + 0.5 * w for a, w in zip(xbar, worst)]
                fxc = f(xc)
                keep = fxc < fsim[-1]
            if keep:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, N + 1):
                    sim[j] = [b + 0.5 * (v - b) for v, b in zip(sim[j], best)]
                    fsim[j] = f(sim[j])
        nit += 1
        sim, fsim = _sorted(sim, fsim)

    # np.min, as scipy takes it: NaN when any value is NaN
    return NelderMeadResult(x=np.array(sim[0]), fun=float(np.min(fsim)),
                            nfev=nfev, nit=nit, success=nit < MAXITER)
