import numpy as np
import pytest

from stocenter.errors import CombinationGuardExceeded, EmptyRealization
from stocenter.grid_coreset import (SENTINEL_GRID, CoresetBuilder, GridSpec,
                                    coreset_image_size_bound, grid_cells)
from stocenter.model import CenterSet
from stocenter.objective import kcenter_value


def test_r_value_hand_cases():
    support = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert CoresetBuilder(support, 1, 0.5).r_of((0, 1)) == pytest.approx(2.0)
    assert CoresetBuilder(support, 1, 0.5).r_of((0,)) == 0.0
    assert CoresetBuilder(support, 2, 0.5).r_of((0, 1)) == 0.0


def test_r_value_guard():
    support = np.zeros((40, 1))
    with pytest.raises(CombinationGuardExceeded):
        CoresetBuilder(support, 10, 0.5)


def test_zero_radius_branch_returns_realization():
    support = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 1.0]])
    out = CoresetBuilder(support, 1, 0.5).build((1,))
    assert out.coreset == (1,)
    assert out.grid == SENTINEL_GRID and out.grid.side == 0.0


def test_more_centers_than_points_keeps_realization():
    # k > n: k centers can sit on every support point, so r_P = 0 and no
    # point may be dropped; thinning here would let F = E + {far point}
    # cover E exactly but miss (0.01, 0) by 0.01
    support = np.array([[0.0, 0.0], [0.01, 0.0], [5.0, 5.0]])
    builder = CoresetBuilder(support, 4, 0.5)
    assert builder.r_of((0, 1, 2)) == 0.0
    out = builder.build((0, 1, 2))
    assert out.coreset == (0, 1, 2)
    assert out.grid == SENTINEL_GRID
    F = CenterSet(centers=support[[0, 2]])
    assert kcenter_value(support, F) <= \
        1.5 * kcenter_value(support[list(out.coreset)], F)


def test_single_cell_collapses_to_smallest_id():
    # a tight cluster plus a far anchor: r_P is large, so the whole cluster
    # shares one coarse cell and keeps only the smallest id
    cluster = np.array([[100.0, 100.0], [100.01, 100.0], [100.0, 100.02]])
    support = np.vstack([[[0.0, 0.0]], cluster])
    out = CoresetBuilder(support, 1, 0.5).build((0, 1, 2, 3))
    assert out.coreset == (0, 1)
    cells = grid_cells(cluster, out.grid.side)
    assert (cells == cells[0]).all()


def test_empty_realization_rejected():
    with pytest.raises(EmptyRealization):
        CoresetBuilder(np.zeros((2, 1)), 1, 0.5).build(())


def test_boundary_point_goes_to_floor_cell():
    assert grid_cells(np.array([2.0, -3.0]), 1.0).tolist() == [2, -3]
    assert grid_cells(np.array([1.999999, -0.5]), 1.0).tolist() == [1, -1]


def test_grid_equality_ignores_bookkeeping():
    g1 = GridSpec(side=0.25, d=2, stage=1)
    g2 = GridSpec(side=0.25, d=2, stage=2)
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != GridSpec(side=0.5, d=2, stage=1)


def test_coverage_on_random_instances():
    rng = np.random.default_rng(99)
    for eps in (0.25, 0.5):
        support = rng.uniform(-10, 10, (30, 2))
        ids = tuple(range(30))
        out = CoresetBuilder(support, 1, eps).build(ids)
        E = support[list(out.coreset)]
        for _ in range(500):
            F = CenterSet(centers=rng.uniform(-12, 12, (1, 2)))
            KP = kcenter_value(support, F)
            KE = kcenter_value(E, F)
            assert KP <= (1 + eps) * KE * (1 + 1e-12)


def test_r_monotonicity_of_output():
    rng = np.random.default_rng(17)
    support = rng.uniform(-10, 10, (20, 2))
    builder = CoresetBuilder(support, 2, 0.5)
    for _ in range(50):
        mask = rng.random(20) < 0.7
        if not mask.any():
            continue
        ids = tuple(int(i) for i in np.flatnonzero(mask))
        out = builder.build(ids)
        r_P = builder.r_of(ids)
        r_E = builder.r_of(out.coreset)
        assert (1 - 0.5) * r_P - 1e-12 <= r_E <= r_P + 1e-12


def test_rerun_is_fixed_point():
    rng = np.random.default_rng(18)
    support = rng.uniform(-10, 10, (25, 2))
    builder = CoresetBuilder(support, 1, 0.25)
    for _ in range(30):
        ids = tuple(int(i) for i in np.flatnonzero(rng.random(25) < 0.8))
        if not ids:
            continue
        out = builder.build(ids)
        rerun = builder.build(out.coreset)
        assert rerun.coreset == out.coreset
        assert rerun.grid == out.grid


def test_determinism():
    rng = np.random.default_rng(3)
    support = rng.uniform(-5, 5, (15, 2))
    a = CoresetBuilder(support, 2, 0.3).build(tuple(range(15)))
    b = CoresetBuilder(support, 2, 0.3).build(tuple(range(15)))
    assert a == b


def test_size_bound_formula():
    assert coreset_image_size_bound(1, 1, 1.0) == 10
    assert coreset_image_size_bound(2, 2, 0.5) <= \
        coreset_image_size_bound(2, 2, 0.25)


def test_size_bound_holds_empirically():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(2, 25))
        d = int(rng.integers(1, 3))
        k = int(rng.integers(1, 3))
        eps = float(rng.uniform(0.25, 0.9))
        support = rng.uniform(-10, 10, (n, d))
        out = CoresetBuilder(support, k, eps).build(tuple(range(n)))
        assert out.size <= coreset_image_size_bound(k, d, eps)
