"""``neldermead.minimize`` against ``scipy.optimize.minimize(method=
"Nelder-Mead")``, bit for bit, on the objectives the library minimizes.

Each run must return the same ``x`` (to the bit), ``fun``, ``nfev``,
``nit`` and ``success`` as scipy with the same options.  The objectives
are gkm's exact objective for k=1 and k=2 in both models, gkm's coreset
cost, and the j=1 line objectives of ``jflat`` (coreset estimate and
exact value).  Integer-grid instances and starts make values tie, so the
simplex order of tied vertices matters; one case stops at ``maxiter``,
and one starts with a vertex whose value is infinite.  When every initial
value is non-finite the run stops at once, where scipy does not.
scipy is a test dependency only, so the comparison skips without it.  The
library itself must not load scipy.
"""

import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stocenter import gkm, jflat, neldermead
from stocenter.model import ExistentialInstance, LocationalInstance
from stocenter.objective import WeightedCollection, expected_objective_exact

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)

grid = st.integers(-3, 3).map(float)
real = st.floats(-5.0, 5.0, allow_nan=False)
coord = st.one_of(grid, real)
prob = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


def assert_same_run(fun, x0):
    optimize = pytest.importorskip("scipy.optimize")
    ours = neldermead.minimize(fun, x0)
    theirs = optimize.minimize(fun, x0, method="Nelder-Mead", options={
        "xatol": neldermead.XATOL, "fatol": neldermead.FATOL,
        "maxiter": neldermead.MAXITER})
    assert ours.x.tobytes() == np.asarray(theirs.x, dtype=float).tobytes()
    assert ours.fun == float(theirs.fun)
    assert (ours.nfev, ours.nit, ours.success) == \
        (theirs.nfev, theirs.nit, theirs.success)
    return ours


@st.composite
def existential(draw, d=2):
    n = draw(st.integers(1, 6))
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=n, max_size=n))
    probs = draw(st.lists(prob, min_size=n, max_size=n))
    return ExistentialInstance(points=np.array(pts), probs=np.array(probs))


@st.composite
def locational(draw, d=2):
    m = draw(st.integers(1, 5))
    locs = draw(st.lists(st.tuples(*[coord] * d), min_size=m, max_size=m))
    rows = [np.array(draw(st.lists(st.integers(0, 3), min_size=m,
                                   max_size=m).filter(any)), dtype=float)
            for _ in range(draw(st.integers(1, 3)))]
    return LocationalInstance(locations=np.array(locs),
                              probs=np.array([r / r.sum() for r in rows]))


instances = st.one_of(existential(), locational())


@SETTINGS
@given(instances, st.integers(1, 2), st.data())
def test_exact_objective_runs_match_scipy(inst, k, data):
    x0 = data.draw(st.lists(coord, min_size=2 * k, max_size=2 * k))
    assert_same_run(gkm._exact_objective(inst), np.array(x0))


@SETTINGS
@given(st.lists(st.lists(st.tuples(grid, grid), min_size=1, max_size=4),
                min_size=1, max_size=6),
       st.integers(1, 2), st.data())
def test_coreset_cost_runs_match_scipy(sets, k, data):
    S = WeightedCollection(
        sets=tuple(np.array(s) for s in sets),
        weights=np.array(data.draw(st.lists(
            st.sampled_from([0.5, 1.0, 2.0]), min_size=len(sets),
            max_size=len(sets)))))
    x0 = data.draw(st.lists(grid, min_size=2 * k, max_size=2 * k))
    assert_same_run(gkm._cost_objective(S), np.array(x0))


@settings(SETTINGS, max_examples=20)
@given(existential(), st.lists(coord, min_size=4, max_size=4),
       st.booleans())
def test_line_objectives_run_match_scipy(inst, x0, exact):
    S = jflat._pack((inst.points[:2],), inst.points,
                    np.maximum(inst.probs, 0.125))
    fval = (lambda F: expected_objective_exact(inst, F).value) if exact \
        else S.cost
    assert_same_run(lambda x: fval(jflat._flat_from_params(x, 1, 2)),
                    np.array(x0))


def test_integer_grid_ties_match_scipy():
    """Symmetric integer instances from integer starts: the initial simplex
    and many later vertices tie in value."""
    square = ExistentialInstance(points=[[0, 0], [0, 2], [2, 0], [2, 2]],
                                 probs=[0.5, 0.5, 0.5, 0.5])
    pair = LocationalInstance(locations=[[-1, 0], [1, 0], [0, 1]],
                              probs=[[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
    for inst in (square, pair):
        for k in (1, 2):
            for x0 in (np.zeros(2 * k), np.ones(2 * k),
                       np.arange(2 * k, dtype=float)):
                assert_same_run(gkm._exact_objective(inst), x0)


def test_maxiter_stop_matches_scipy():
    inst = ExistentialInstance(points=[[0, 0], [3, 1], [1, 4], [-2, 2]],
                               probs=[0.9, 0.3, 0.6, 1.0])
    with mock.patch.object(neldermead, "MAXITER", 25):
        res = assert_same_run(gkm._exact_objective(inst),
                              np.array([5.0, 5.0, -4.0, 0.0]))
    assert not res.success and res.nit == 25


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_non_finite_start_stops_after_the_initial_simplex(value):
    # scipy would shrink the simplex until maxiter, comparing values that
    # never order it
    calls = []

    def fun(x):
        calls.append(x)
        return value

    res = neldermead.minimize(fun, [1.0, 0.0, -2.0])
    assert len(calls) == res.nfev == 4
    assert res.x.tolist() == [1.0, 0.0, -2.0] and not res.success
    assert res.fun == value or np.isnan(value) and np.isnan(res.fun)


def test_partly_finite_start_matches_scipy():
    # one vertex of the initial simplex is off the line y = 0, where the
    # objective is finite, so the run goes on as scipy's does
    res = assert_same_run(
        lambda x: (x[0] - 1.0) ** 2 if x[1] == 0.0 else np.inf,
        np.array([3.0, 0.0]))
    assert np.isfinite(res.fun)


def test_library_does_not_import_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import stocenter, stocenter.verification; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code, str(src)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
