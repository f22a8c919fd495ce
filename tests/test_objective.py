import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stocenter.errors import NonFiniteValue
from stocenter.gkm import skc_pipeline
from stocenter.jflat import sjfc_pipeline
from stocenter.model import (CenterSet, ExistentialInstance, Flat,
                             LocationalInstance, realization_chunks)
from stocenter.objective import (expected_flatcenter_exact,
                                 expected_objective_exact,
                                 expected_objective_mc, flat_distance,
                                 kcenter_value)
from stocenter.oracle import oracle_expected_objective

SRC = Path(__file__).resolve().parents[1] / "src"


def test_kcenter_value_hand_cases():
    assert kcenter_value(np.array([[0.0, 0.0]]),
                         CenterSet(centers=[[3.0, 4.0]])) == pytest.approx(5.0)
    F2 = CenterSet(centers=[[0.0, 0.0], [10.0, 0.0]])
    assert kcenter_value(np.array([[0.0, 0.0], [10.0, 0.0]]), F2) == 0.0
    F1 = CenterSet(centers=[[2.0, 0.0]])
    assert kcenter_value(np.array([[0.0, 0.0], [6.0, 0.0]]), F1) == \
        pytest.approx(4.0)
    assert kcenter_value(np.zeros((0, 2)), F1) == 0.0


def test_flat_distance_hand_cases():
    assert flat_distance([3.0, 4.0], Flat(j=0, base=[0.0, 0.0])) == \
        pytest.approx(5.0)
    xaxis = Flat(j=1, base=[0.0, 0.0], basis=[[1.0, 0.0]])
    assert flat_distance([9.0, 2.0], xaxis) == pytest.approx(2.0)
    assert flat_distance([7.0, 0.0], xaxis) == pytest.approx(0.0)


def test_exact_existential_hand_value():
    # distances (4, 3) at p = 0.5 each: 0.5*4 + 0.5*0.5*3 = 2.75
    inst = ExistentialInstance(points=[[4.0], [3.0]], probs=[0.5, 0.5])
    F = CenterSet(centers=[[0.0]])
    assert expected_objective_exact(inst, F).value == pytest.approx(2.75)


def test_exact_existential_extremes():
    one = ExistentialInstance(points=[[5.0]], probs=[1.0])
    F = CenterSet(centers=[[0.0]])
    assert expected_objective_exact(one, F).value == pytest.approx(5.0)
    dead = ExistentialInstance(points=[[5.0], [2.0]], probs=[0.0, 0.0])
    assert expected_objective_exact(dead, F).value == 0.0


def test_exact_locational_hand_value():
    # two nodes, both rows (0.5, 0.5), distances (1, 2): 0.25*1 + 0.75*2
    inst = LocationalInstance(locations=[[1.0], [2.0]],
                              probs=[[0.5, 0.5], [0.5, 0.5]])
    F = CenterSet(centers=[[0.0]])
    assert expected_objective_exact(inst, F).value == pytest.approx(1.75)
    det = LocationalInstance(locations=[[7.0]], probs=[[1.0]])
    assert expected_objective_exact(det, F).value == pytest.approx(7.0)


def _enum_expected(instance, shape):
    # a mask row or an assignment row indexes the realized support points
    total = 0.0
    for rows, probs in realization_chunks(instance):
        for row, pr in zip(rows, probs):
            total += pr * kcenter_value(instance.support_points[row], shape)
    return total


def test_exact_matches_enumeration_existential():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(1, 10))
        inst = ExistentialInstance(points=rng.uniform(-5, 5, (n, 2)),
                                   probs=rng.uniform(0, 1, n))
        F = CenterSet(centers=rng.uniform(-6, 6, (2, 2)))
        exact = expected_objective_exact(inst, F).value
        assert exact == pytest.approx(_enum_expected(inst, F), abs=1e-9)


def test_exact_matches_enumeration_locational():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        rows = rng.uniform(0.1, 1.0, (n, m))
        rows /= rows.sum(axis=1, keepdims=True)
        inst = LocationalInstance(locations=rng.uniform(-5, 5, (m, 2)),
                                  probs=rows)
        F = CenterSet(centers=rng.uniform(-6, 6, (1, 2)))
        exact = expected_objective_exact(inst, F).value
        assert exact == pytest.approx(_enum_expected(inst, F), abs=1e-9)


def test_monotone_in_added_point():
    rng = np.random.default_rng(7)
    base = rng.uniform(-5, 5, (6, 2))
    probs = rng.uniform(0.1, 0.9, 6)
    F = CenterSet(centers=[[0.0, 0.0]])
    small = ExistentialInstance(points=base[:5], probs=probs[:5])
    big = ExistentialInstance(points=base, probs=probs)
    assert expected_objective_exact(big, F).value >= \
        expected_objective_exact(small, F).value - 1e-12


def test_scale_equivariance():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-5, 5, (5, 3))
    probs = rng.uniform(0, 1, 5)
    centers = rng.uniform(-5, 5, (2, 3))
    v1 = expected_objective_exact(
        ExistentialInstance(points=pts, probs=probs),
        CenterSet(centers=centers)).value
    c = 3.5
    v2 = expected_objective_exact(
        ExistentialInstance(points=c * pts, probs=probs),
        CenterSet(centers=c * centers)).value
    assert v2 == pytest.approx(c * v1, rel=1e-12)


def test_flatcenter_exact_matches_enumeration():
    inst = ExistentialInstance(points=[[1.0, 4.0], [2.0, -3.0]],
                               probs=[0.5, 0.5])
    line = Flat(j=1, base=[0.0, 0.0], basis=[[1.0, 0.0]])
    val = expected_flatcenter_exact(inst, line).value
    assert val == pytest.approx(0.25 * 4 + 0.25 * 4 + 0.25 * 3, abs=1e-12)
    on_line = ExistentialInstance(points=[[1.0, 0.0], [5.0, 0.0]],
                                  probs=[0.9, 0.9])
    assert expected_flatcenter_exact(on_line, line).value == 0.0


def test_monte_carlo_deterministic_and_converging():
    det = ExistentialInstance(points=[[4.0], [3.0]], probs=[1.0, 1.0])
    F = CenterSet(centers=[[0.0]])
    res = expected_objective_mc(det, F, 50, np.random.default_rng(1), seed=1)
    assert res.value == pytest.approx(4.0)
    inst = ExistentialInstance(points=[[4.0], [3.0]], probs=[0.5, 0.5])
    res = expected_objective_mc(inst, F, 200000, np.random.default_rng(2))
    assert res.value == pytest.approx(2.75, abs=0.01)
    assert res.stderr is not None and res.stderr < 0.01
    dead = ExistentialInstance(points=[[4.0]], probs=[0.0])
    assert expected_objective_mc(dead, F, 10,
                                 np.random.default_rng(3)).value == 0.0


# squared distances of coordinates near 1e200 overflow to inf; an absent
# point then scores 0 * inf = NaN in the Monte-Carlo estimate
OVERFLOW = ExistentialInstance(points=[[1e200, 0.0], [-1e200, 0.0]],
                               probs=[0.5, 0.5])
FAR_CENTER = CenterSet(centers=[[-1e200, 0.0]])


@pytest.mark.parametrize("evaluate", [
    lambda: expected_objective_exact(OVERFLOW, FAR_CENTER),
    lambda: expected_objective_mc(OVERFLOW, FAR_CENTER, 20,
                                  np.random.default_rng(0)),
    lambda: oracle_expected_objective(OVERFLOW, FAR_CENTER),
    lambda: skc_pipeline(OVERFLOW, 1, 0.5),
    lambda: sjfc_pipeline(OVERFLOW, 0, 0.3, N=10)],
    ids=["exact", "mc", "oracle", "skc-k1", "sjfc-j0"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_value_raises(evaluate):
    with pytest.raises(NonFiniteValue, match="inf|nan"):
        evaluate()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nelder_mead_objectives_do_not_check():
    # a center on each point costs 0 exactly; the polish steps through
    # overflowing simplices on its way there
    assert skc_pipeline(OVERFLOW, 2, 0.5)[1] == 0.0


THREADS_SCRIPT = """
import numpy as np
from stocenter import CenterSet, ExistentialInstance, expected_objective_exact
for n in (10 ** 5, 10 ** 6):
    rng = np.random.default_rng(3)
    inst = ExistentialInstance(points=rng.uniform(-10, 10, (n, 2)),
                               probs=rng.uniform(0.0, 1.0, n) * 10.0 / n)
    F = CenterSet(centers=[[0.0, 0.0]])
    print(expected_objective_exact(inst, F).value.hex())
"""


def test_exact_value_does_not_depend_on_the_blas_thread_count():
    """A BLAS dot splits a sum of 10^5 terms across threads; these values
    (probabilities of order 1/n, so that no weight underflows to 0) moved
    in their last bits at 2 OpenBLAS threads when the exact value was one."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = [subprocess.run([sys.executable, "-c", THREADS_SCRIPT],
                          env={**env, "OPENBLAS_NUM_THREADS": threads},
                          capture_output=True, text=True, check=True).stdout
           for threads in ("1", "2")]
    assert len(out[0].split()) == 2 and out[0] == out[1]
