import math
from unittest import mock

import numpy as np
import pytest

from stocenter import gkm, oracle
from stocenter.errors import EnumerationGuardExceeded, InstanceTooLarge
from stocenter.model import (CenterSet, ExistentialInstance,
                             LocationalInstance)
from stocenter.objective import expected_objective_exact, flat_distance
from stocenter.oracle import (_ball_from, center_grid, minimum_enclosing_ball,
                              oracle_expected_objective, oracle_holant_direct,
                              oracle_min_flat, oracle_sensitivities,
                              oracle_solver_gkm, oracle_solver_instance)
from stocenter.gkm import (WeightedCollection, sensitivity_bruteforce,
                           solve_gkm)
from stocenter.partition import build_weighted_image, holant_value


def test_oracle_objective_matches_exact_evaluators():
    rng = np.random.default_rng(51)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        inst = ExistentialInstance(points=rng.uniform(-5, 5, (n, 2)),
                                   probs=rng.uniform(0, 1, n))
        F = CenterSet(centers=rng.uniform(-6, 6, (2, 2)))
        rep = oracle_expected_objective(inst, F)
        assert rep.value == pytest.approx(
            expected_objective_exact(inst, F).value, abs=1e-9)
    rows = rng.uniform(0.1, 1.0, (3, 3))
    rows /= rows.sum(axis=1, keepdims=True)
    loc = LocationalInstance(locations=rng.uniform(-5, 5, (3, 2)), probs=rows)
    F = CenterSet(centers=rng.uniform(-5, 5, (1, 2)))
    assert oracle_expected_objective(loc, F).value == pytest.approx(
        expected_objective_exact(loc, F).value, abs=1e-9)


def test_oracle_objective_trivial_cases():
    det = ExistentialInstance(points=[[3.0, 4.0]], probs=[1.0])
    F = CenterSet(centers=[[0.0, 0.0]])
    assert oracle_expected_objective(det, F).value == pytest.approx(5.0)
    dead = ExistentialInstance(points=[[3.0, 4.0]], probs=[0.0])
    assert oracle_expected_objective(dead, F).value == 0.0


def test_oracle_partition_masses_sum_to_one():
    rng = np.random.default_rng(52)
    inst = ExistentialInstance(points=rng.uniform(-5, 5, (8, 2)),
                               probs=rng.uniform(0.1, 0.9, 8))
    image = build_weighted_image(inst, 1, 0.5, mode="exhaustive")
    assert image.total_weight == pytest.approx(1.0, abs=1e-9)
    det = ExistentialInstance(points=rng.uniform(-5, 5, (5, 2)),
                              probs=np.ones(5))
    assert len(build_weighted_image(det, 1, 0.5,
                                    mode="exhaustive").entries) == 1


def test_center_grid_and_solver_refinement():
    pts = np.array([[0.0, 0.0], [4.0, 0.0]])
    grid = center_grid(pts, 5)
    assert grid.shape == (25, 2)
    inst = ExistentialInstance(points=pts, probs=np.ones(2))
    _F1, v_coarse = oracle_solver_instance(inst, 1, resolution=5)
    _F2, v_fine = oracle_solver_instance(inst, 1, resolution=9)
    assert v_fine <= v_coarse + 1e-12
    assert v_fine == pytest.approx(2.0, abs=1e-9)  # midpoint radius


@pytest.mark.parametrize("resolution", [0, -1])
def test_center_grid_rejects_resolution_below_one(resolution):
    with pytest.raises(ValueError, match="resolution must be at least 1"):
        center_grid(np.array([[0.0, 0.0], [4.0, 0.0]]), resolution)


def test_oracle_sensitivities_dominate_and_single_set():
    rng = np.random.default_rng(53)
    sets = tuple(rng.uniform(-5, 5, (2, 2)) for _ in range(4))
    S = WeightedCollection(sets=sets, weights=rng.uniform(0.5, 1.5, 4))
    maximal = oracle_sensitivities(S, 1, resolution=5)
    small_family = [CenterSet(centers=S.points[i].reshape(1, -1))
                    for i in range(3)]
    smaller = sensitivity_bruteforce(S, small_family)
    assert np.all(smaller <= maximal + 1e-12)
    one = WeightedCollection(sets=(np.array([[1.0, 1.0]]),),
                             weights=np.array([2.0]))
    assert oracle_sensitivities(one, 1, resolution=3) == pytest.approx([1.0])


def test_minimum_enclosing_ball_hand_cases():
    c, r = minimum_enclosing_ball(np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert c == pytest.approx([1.0, 0.0]) and r == pytest.approx(1.0)
    tri = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    c, r = minimum_enclosing_ball(tri)
    assert c == pytest.approx([1.0, 0.0]) and r == pytest.approx(1.0)


def test_minimum_enclosing_ball_contains_everything():
    rng = np.random.default_rng(54)
    for _ in range(20):
        pts = rng.uniform(-10, 10, (int(rng.integers(1, 30)), 2))
        c, r = minimum_enclosing_ball(pts)
        assert np.linalg.norm(pts - c, axis=1).max() <= r * (1 + 1e-9) + 1e-9


def _recursive_welzl(points, seed=7):
    """The textbook recursion (depth grows with n), kept as the reference."""
    pts = [np.asarray(p, dtype=float) for p in np.atleast_2d(points)]
    np.random.default_rng(seed).shuffle(pts)
    d = pts[0].shape[0]

    def welzl(P, R):
        if not P or len(R) == d + 1:
            return _ball_from(R, d)
        p = P[0]
        c, r = welzl(P[1:], R)
        if np.linalg.norm(p - c) <= r * (1 + 1e-12) + 1e-12:
            return c, r
        return welzl(P[1:], R + [p])

    return welzl(pts, [])


def test_minimum_enclosing_ball_equals_recursion():
    rng = np.random.default_rng(55)
    for t in range(300):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 120))
        if t % 3 == 0:  # integer grid: ties and repeated points
            pts = rng.integers(-3, 4, (n, d)).astype(float)
        elif t % 3 == 1:  # duplicated rows
            pts = np.repeat(rng.uniform(-5, 5, (n // 2 + 1, d)), 2, axis=0)
        else:
            pts = rng.normal(0.0, 4.0, (n, d))
        c, r = minimum_enclosing_ball(pts)
        c_ref, r_ref = _recursive_welzl(pts)
        assert np.array_equal(c, c_ref) and r == r_ref


def test_minimum_enclosing_ball_past_recursion_limit():
    # The recursive form needs about n frames and fails near n=1000.
    pts = np.random.default_rng(56).uniform(-10, 10, (1500, 2))
    c, r = minimum_enclosing_ball(pts)
    dist = np.linalg.norm(pts - c, axis=1)
    assert dist.max() <= r * (1 + 1e-9) + 1e-9
    assert np.sum(dist >= r * (1 - 1e-9)) >= 2


def test_oracle_min_flat():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    F, r = oracle_min_flat(pts, 0)
    assert F.j == 0 and r == pytest.approx(1.0)
    # points near the diagonal: best line has small width
    t = np.linspace(-3, 3, 9)
    diag = np.stack([t, t], axis=1) + [[0.0, 0.1]] * 9
    F, r = oracle_min_flat(diag, 1)
    assert r <= 0.1
    assert max(flat_distance(x, F) for x in diag) == pytest.approx(r, abs=1e-6)


FIVE = ExistentialInstance(points=[[0, 0], [3, 1], [1, 4], [-2, 2], [2, -1]],
                           probs=[0.9, 0.3, 0.6, 1.0, 0.5])


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("solve", [
    lambda S, k: solve_gkm(S, k),
    lambda S, k: oracle_solver_gkm(S, k),
    lambda S, k: oracle_solver_instance(FIVE, k),
    lambda S, k: oracle_sensitivities(S, k)],
    ids=["solve_gkm", "oracle_solver_gkm", "oracle_solver_instance",
         "oracle_sensitivities"])
def test_k_below_one_is_rejected_before_any_work(solve, k):
    # k = 0 would reach the subset tables and raise IndexError
    S = WeightedCollection(sets=(FIVE.points[:3], FIVE.points[3:]))
    stop = mock.Mock(side_effect=AssertionError("work started"))
    with mock.patch.object(oracle, "center_grid", stop), \
            mock.patch.object(gkm, "_discrete_pass", stop), \
            pytest.raises(ValueError, match="k must be at least 1"):
        solve(S, k)
    assert not stop.called


@pytest.mark.parametrize("k", [1, 2])
def test_grid_search_guard_counts_subsets_times_points(k):
    """The guard passes at exactly its cap and raises one entry past it,
    before any subset is scored."""
    cand = np.unique(np.vstack([center_grid(FIVE.points, 4), FIVE.points]),
                     axis=0)
    entries = math.comb(len(cand), k) * 5
    with mock.patch.object(oracle, "MAX_GRID_ENTRIES", entries):
        F, _ = oracle_solver_instance(FIVE, k, resolution=4)
    assert F.k == k
    stop = mock.Mock(side_effect=AssertionError("scoring started"))
    with mock.patch.object(oracle, "MAX_GRID_ENTRIES", entries - 1), \
            mock.patch.object(oracle, "_subset_minima", stop), \
            pytest.raises(EnumerationGuardExceeded):
        oracle_solver_instance(FIVE, k, resolution=4)
    assert not stop.called


@pytest.mark.parametrize("k", [1, 2])
def test_sensitivity_oracle_guard_counts_subsets_times_points(k):
    """The guard passes at exactly its cap and raises one entry past it,
    before any subset is scored; k = 8 at the default resolution is
    C(54, 8) x 5, about 5.2e9 entries, past the shipped cap."""
    S = WeightedCollection(sets=(FIVE.points[:3], FIVE.points[3:]))
    pts = np.unique(S.points, axis=0)
    cand = np.unique(np.vstack([center_grid(pts, 4, margin=1.0), pts]),
                     axis=0)
    entries = math.comb(len(cand), k) * 5
    with mock.patch.object(oracle, "MAX_GRID_ENTRIES", entries):
        assert oracle_sensitivities(S, k, resolution=4).shape == (2,)
    stop = mock.Mock(side_effect=AssertionError("scoring started"))
    with mock.patch.object(oracle, "_subset_minima", stop):
        with mock.patch.object(oracle, "MAX_GRID_ENTRIES", entries - 1), \
                pytest.raises(EnumerationGuardExceeded, match=str(entries)):
            oracle_sensitivities(S, k, resolution=4)
        with pytest.raises(EnumerationGuardExceeded):
            oracle_sensitivities(S, 8)
    assert not stop.called


def test_direct_holant_guard_counts_assignments():
    """(|S| + 1)^n = 3^4 assignments pass at exactly the cap and raise one
    past it, before the first term."""
    rows = np.full((4, 3), 1 / 3)
    inst = LocationalInstance(locations=np.arange(6.0).reshape(3, 2),
                              probs=rows)
    args = (inst, (0, 1), (2,), (1, 2, 1))
    with mock.patch.object(oracle, "MAX_LOCATIONAL_STATES", 3 ** 4):
        assert oracle_holant_direct(*args) == \
            pytest.approx(holant_value(*args), abs=1e-15)
    stop = mock.Mock(side_effect=AssertionError("summation started"))
    with mock.patch.object(oracle, "MAX_LOCATIONAL_STATES", 3 ** 4 - 1), \
            mock.patch.object(oracle.itertools, "product", stop), \
            pytest.raises(InstanceTooLarge, match="81"):
        oracle_holant_direct(*args)
    assert not stop.called
