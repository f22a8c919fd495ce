import numpy as np
import pytest

from stocenter.errors import CaseMismatch, SchemaError
from stocenter.gkm import WeightedCollection, skc_pipeline, solve_gkm
from stocenter.jflat import (LinearizationMap, build_S1, build_S2,
                             build_sjfc_coreset, case1_coreset,
                             case1_size_cap, direction_net, estimate_J,
                             sjfc_pipeline, solve_jflat, sweep_convexK)
from stocenter.model import ExistentialInstance, Flat, LocationalInstance
from stocenter.objective import (expected_flatcenter_exact, flat_distance,
                                 shape_distances)
from stocenter.oracle import minimum_enclosing_ball, oracle_min_flat


def _rand_flat(rng, j, d):
    base = rng.uniform(-5, 5, d)
    if j == 0:
        return Flat(j=0, base=base)
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return Flat(j=1, base=base, basis=v.reshape(1, -1))


def test_lift_reproduces_squared_distance():
    rng = np.random.default_rng(31)
    for j in (0, 1):
        for d in (2, 3):
            lin = LinearizationMap(j=j, d=d)
            for _ in range(200):
                x = rng.uniform(-5, 5, d)
                F = _rand_flat(rng, j, d)
                a, b = lin.flat_coeffs(F)
                linearized = float(a @ lin.lift(x)[0]) + b
                assert linearized == pytest.approx(
                    flat_distance(x, F) ** 2, abs=1e-9)
    with pytest.raises(SchemaError):
        LinearizationMap(j=2, d=4)


def test_direction_net_symmetric_and_deterministic():
    net = direction_net(3, 16)
    assert net.shape == (16, 3)
    assert np.allclose(np.linalg.norm(net, axis=1), 1.0)
    assert np.allclose(net[:8], -net[8:])
    assert np.array_equal(net, direction_net(3, 16))


def test_sweep_requires_case2_mass():
    low = ExistentialInstance(points=[[0.0, 0.0], [1.0, 1.0]],
                              probs=[0.1, 0.1])
    with pytest.raises(CaseMismatch):
        sweep_convexK(low, 0, 0.5)


def test_sweep_deterministic_instance_keeps_all_points():
    rng = np.random.default_rng(32)
    pts = rng.uniform(-5, 5, (10, 2))
    inst = ExistentialInstance(points=pts, probs=np.ones(10))
    K = sweep_convexK(inst, 0, 0.2)
    assert K.inside_mask(pts).all()


def test_sweep_outside_mass_bounded():
    rng = np.random.default_rng(33)
    for _ in range(10):
        n = int(rng.integers(8, 25))
        inst = ExistentialInstance(points=rng.uniform(-8, 8, (n, 2)),
                                   probs=rng.uniform(0.001, 0.9, n))
        eps = 0.3
        K = sweep_convexK(inst, 0, eps)
        outside = ~K.inside_mask(inst.points)
        assert inst.probs[outside].sum() <= eps


def test_case1_coreset_tiny_instance_verbatim():
    inst = ExistentialInstance(points=[[1.0, 2.0]], probs=[0.5])
    core = case1_coreset(inst, 0, 0.6)
    assert core.case == 1 and core.N == 0
    assert np.array_equal(core.s2_points, [[1.0, 2.0]])
    assert core.s2_weights == pytest.approx([0.5])
    with pytest.raises(CaseMismatch):
        case1_coreset(ExistentialInstance(points=[[0.0, 0.0]], probs=[0.9]),
                      0, 0.5)
    assert case1_size_cap(0, 2, 0.5) == 8


def test_case1_surrogate_sandwich():
    rng = np.random.default_rng(34)
    eps = 0.5
    for _ in range(5):
        n = int(rng.integers(3, 8))
        probs = rng.uniform(0.01, 1.0, n)
        probs *= 0.8 * eps / probs.sum()
        inst = ExistentialInstance(points=rng.uniform(-5, 5, (n, 2)),
                                   probs=probs)
        core = case1_coreset(inst, 0, eps)
        for _ in range(50):
            F = _rand_flat(rng, 0, 2)
            est = estimate_J(core, F)
            exact = expected_flatcenter_exact(inst, F).value
            assert (1 - eps) * exact - 1e-12 <= est <= \
                (1 + eps) * exact + 1e-12


def test_build_S1_deterministic_and_kernel_property():
    rng = np.random.default_rng(35)
    pts = rng.uniform(-5, 5, (12, 2))
    inst = ExistentialInstance(points=pts, probs=np.ones(12))
    K = sweep_convexK(inst, 0, 0.2)
    s1 = build_S1(inst, K, 1, seed=0)
    assert len(s1) == 1
    # deterministic instance: the single sample is a kernel of the full set,
    # exact on every kernel-net direction
    kernel = s1[0]
    lifted_all = K.lin.lift(pts)
    lifted_ker = K.lin.lift(kernel)
    for u in direction_net(K.lin.D, 64):
        assert (lifted_ker @ u).max() == pytest.approx(
            (lifted_all @ u).max(), abs=1e-12)
    again = build_S1(inst, K, 1, seed=0)
    assert np.array_equal(again[0], kernel)


def test_build_S2_empty_outside():
    rng = np.random.default_rng(36)
    pts = rng.uniform(-5, 5, (8, 2))
    inst = ExistentialInstance(points=pts, probs=np.ones(8))
    K = sweep_convexK(inst, 0, 0.2)
    s2_pts, s2_w = build_S2(inst, K, 0, 0.2)
    assert s2_pts.shape[0] == 0 and s2_w.shape[0] == 0


def test_estimate_J_hand_value():
    core = build_sjfc_coreset(
        ExistentialInstance(points=[[3.0, 4.0], [0.0, 1.0]],
                            probs=[1.0, 1.0]), 0, 0.5, seed=0, N=1)
    F = Flat(j=0, base=[0.0, 0.0])
    pts = np.vstack([E for E in core.s1 if E.shape[0]])
    expected = shape_distances(pts, F).max()
    assert estimate_J(core, F) == pytest.approx(float(expected))


def test_estimator_tracks_exact_value():
    rng = np.random.default_rng(37)
    eps = 0.2
    inst = ExistentialInstance(points=rng.uniform(-6, 6, (15, 2)),
                               probs=rng.uniform(0.05, 0.95, 15))
    core = build_sjfc_coreset(inst, 0, eps, seed=1, N=800)
    for _ in range(50):
        F = _rand_flat(rng, 0, 2)
        est = estimate_J(core, F)
        exact = expected_flatcenter_exact(inst, F).value
        assert abs(est / exact - 1.0) <= 4 * eps + eps


def test_solve_jflat_symmetric_pair():
    core = build_sjfc_coreset(
        ExistentialInstance(points=[[1.0, 0.0], [-1.0, 0.0]],
                            probs=[1.0, 1.0]), 0, 0.3, seed=0, N=1)
    F, value = solve_jflat(core, 0, 2)
    assert F.base == pytest.approx([0.0, 0.0], abs=1e-6)
    assert value == pytest.approx(1.0, abs=1e-6)


def test_pipeline_rejects_large_j():
    inst = ExistentialInstance(points=np.eye(4), probs=np.full(4, 0.5))
    with pytest.raises(SchemaError):
        sjfc_pipeline(inst, 2, 0.3)


def test_pipeline_zero_mass():
    inst = ExistentialInstance(points=[[1.0, 2.0]], probs=[0.0])
    _F, value, info = sjfc_pipeline(inst, 0, 0.3)
    assert value == 0.0 and info["case"] == 1


def test_pipeline_deterministic_matches_meb():
    rng = np.random.default_rng(38)
    pts = rng.uniform(-8, 8, (10, 2))
    inst = ExistentialInstance(points=pts, probs=np.ones(10))
    _F, value, info = sjfc_pipeline(inst, 0, 0.2, seed=0, N=50)
    _c, r = minimum_enclosing_ball(pts)
    assert value == pytest.approx(r, abs=1e-4)
    assert info["case"] == 2
    assert info["polish_unconverged"] == 0


def test_pipeline_reports_unconverged_polish():
    # a seeded j=1 instance (n = 9) where a line polish stops at maxiter
    rng = np.random.default_rng(6)
    n = int(rng.integers(6, 14))
    inst = ExistentialInstance(points=rng.uniform(-5, 5, (n, 2)),
                               probs=rng.uniform(0.2, 0.9, n))
    _F, _value, info = sjfc_pipeline(inst, 1, 0.3, seed=0, N=30)
    assert info["polish_unconverged"] > 0


def test_pipeline_line_fit_deterministic():
    rng = np.random.default_rng(39)
    t = rng.uniform(-5, 5, 12)
    pts = np.stack([t, 0.5 * t + rng.normal(0, 0.2, 12)], axis=1)
    inst = ExistentialInstance(points=pts, probs=np.ones(12))
    _F, value, _ = sjfc_pipeline(inst, 1, 0.2, seed=0, N=50)
    _oF, ov = oracle_min_flat(pts, 1)
    assert value <= ov + 1e-4


def test_pipeline_locational_case2():
    rng = np.random.default_rng(40)
    rows = rng.uniform(0.1, 1.0, (4, 3))
    rows /= rows.sum(axis=1, keepdims=True)
    inst = LocationalInstance(locations=rng.uniform(-5, 5, (3, 2)),
                              probs=rows)
    F, value, info = sjfc_pipeline(inst, 0, 0.4, seed=0, N=100)
    assert info["case"] == 2
    assert value == pytest.approx(
        expected_flatcenter_exact(inst, F).value, abs=1e-12)


def test_k1_center_equals_j0_flat():
    # A 0-flat is one center: both pipelines minimize the same convex map.
    rng = np.random.default_rng(41)
    eps = 0.5
    for t in range(8):
        n = int(rng.integers(3, 9))
        pts = rng.uniform(-6, 6, (n, 2))
        deterministic = t % 4 == 3
        probs = np.ones(n) if deterministic else rng.uniform(0.05, 0.95, n)
        inst = ExistentialInstance(points=pts, probs=probs)
        _C, kval, _ = skc_pipeline(inst, 1, eps)
        _F, jval, _ = sjfc_pipeline(inst, 0, eps, seed=t, N=40)
        assert jval == pytest.approx(kval, rel=1e-9)
        if deterministic:
            _c, r = minimum_enclosing_ball(pts)
            assert kval == pytest.approx(r, rel=1e-9)
            assert jval == pytest.approx(r, rel=1e-9)


def test_solve_jflat_j0_is_the_k1_center_solve():
    rng = np.random.default_rng(42)
    low = rng.uniform(0.01, 1.0, 30)
    # Tiny masses leave points outside K, so Case 2 has both S1 and S2.
    high = np.concatenate([rng.uniform(0.3, 0.9, 10),
                           rng.uniform(0.0001, 0.001, 20)])
    for probs, eps in ((low * 0.2 / low.sum(), 0.3), (high, 0.2)):
        inst = ExistentialInstance(points=rng.uniform(-5, 5, (30, 2)),
                                   probs=probs)
        core = build_sjfc_coreset(inst, 0, eps, seed=3, N=25)
        assert core.s2_points.shape[0] and core.N == (0 if core.case == 1
                                                      else 25)
        S = WeightedCollection(
            sets=core.s1 + tuple(p.reshape(1, -1) for p in core.s2_points),
            weights=np.array([1.0 / core.N for _ in core.s1]
                             + list(core.s2_weights)), d=2)
        C, _ = solve_gkm(S, 1)
        F, value = solve_jflat(core, 0, 2)
        assert np.array_equal(F.base, C.centers[0])
        assert value == estimate_J(core, F)
