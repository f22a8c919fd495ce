from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stocenter import jflat, verification
from stocenter.cli import main
from stocenter.errors import CaseMismatch, SchemaError
from stocenter.gkm import WeightedCollection, skc_pipeline, solve_gkm
from stocenter.jflat import (KERNEL_NET_SIZE, build_S1,
                             build_S2, build_sjfc_coreset, case1_size_cap,
                             direction_net, lift, sjfc_pipeline, solve_jflat,
                             sweep_convexK, weighted_flat_median_coreset)
from stocenter.model import (ExistentialInstance, Flat, LocationalInstance,
                             instance_to_dict)
from stocenter.objective import expected_flatcenter_exact, shape_distances
from stocenter.oracle import minimum_enclosing_ball, oracle_min_flat
from stocenter.serialize import write_json


def _rand_flat(rng, j, d):
    base = rng.uniform(-5, 5, d)
    if j == 0:
        return Flat(j=0, base=base)
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return Flat(j=1, base=base, basis=v.reshape(1, -1))


def test_lift_reproduces_squared_distance():
    # d(x, F)^2 is affine in lift(x): a least-squares fit on [lift(x), 1]
    # over random x leaves no residual beyond rounding
    rng = np.random.default_rng(31)
    for j in (0, 1):
        for d in (2, 3):
            for _ in range(20):
                F = _rand_flat(rng, j, d)
                x = rng.uniform(-5, 5, (50, d))
                A = np.hstack([lift(x, j), np.ones((50, 1))])
                y = shape_distances(x, F) ** 2
                coef = np.linalg.lstsq(A, y, rcond=None)[0]
                assert np.linalg.norm(A @ coef - y) <= \
                    1e-9 * np.linalg.norm(y)
    for j, d in ((2, 4), (-1, 2), (1, 1)):
        with pytest.raises(SchemaError):
            lift(np.zeros((1, d)), j)


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
    assert sweep_convexK(inst, 0, 0.2).all()


def test_sweep_outside_mass_bounded():
    rng = np.random.default_rng(33)
    for _ in range(10):
        n = int(rng.integers(8, 25))
        inst = ExistentialInstance(points=rng.uniform(-8, 8, (n, 2)),
                                   probs=rng.uniform(0.001, 0.9, n))
        eps = 0.3
        outside = ~sweep_convexK(inst, 0, eps)
        assert inst.probs[outside].sum() <= eps


def test_sweep_outside_mass_bounded_locational():
    # a few nodes over many locations, some of little mass, so that K
    # leaves locations out
    rng = np.random.default_rng(33)
    cut = 0
    for _ in range(10):
        n, m = int(rng.integers(1, 5)), int(rng.integers(8, 25))
        rows = rng.uniform(0.001, 0.9, (n, m)) * rng.choice([1e-4, 1.0], m)
        inst = LocationalInstance(locations=rng.uniform(-8, 8, (m, 2)),
                                  probs=rows / rows.sum(axis=1, keepdims=True))
        eps = 0.3
        outside = ~sweep_convexK(inst, 0, eps)
        assert inst.probs[:, outside].sum() <= eps
        cut += outside.sum()
    assert cut > 0


def _site_masses(instance):
    """Each support point's mass, frozen: p_i, or a location's column
    summed over the nodes."""
    if isinstance(instance, ExistentialInstance):
        return instance.probs
    return instance.probs.sum(axis=0)


def union_prefix(instance, order):
    """The sum of the site masses along a sweep, as the existential sweep
    has always read it."""
    return np.cumsum(_site_masses(instance)[order])


def exact_prefix(instance, order):
    """The locational prefix mass before the sweep read the sum in both
    models: the exact probability that some node lands in the prefix."""
    tail = np.cumsum(instance.probs[:, order], axis=1)
    return 1.0 - np.prod(1.0 - tail, axis=0)


def frozen_inside(instance, j, eps, net_size, prefix=union_prefix):
    """The sweep and membership test as they were before the sweep returned
    its mask: one matrix-vector product per direction for the thresholds,
    then one matrix product over all directions, read with a 1e-12 relative
    slack.  ``prefix`` gives the mass of each sweep prefix."""
    if float(_site_masses(instance).sum()) < eps:
        raise CaseMismatch("total probability below eps; use the Case 1 path")
    lifted = lift(instance.support_points, j)
    dirs = direction_net(lifted.shape[1], net_size)
    eps_prime = eps / (2 * dirs.shape[0])
    thresholds = np.empty(dirs.shape[0])
    for i, u in enumerate(dirs):
        proj = lifted @ u
        order = np.lexsort((np.arange(len(proj)), -proj))
        mass = prefix(instance, order)
        hit = np.flatnonzero(mass >= eps_prime)
        # the full sweep's mass is at least eps > eps', so a prefix reaches it
        assert hit.size, f"sweep mass never reaches eps'={eps_prime}"
        thresholds[i] = proj[order[hit[0]]]
    proj = lifted @ dirs.T
    tol = 1e-12 * (1.0 + np.abs(thresholds))
    return np.all(proj <= thresholds + tol, axis=1)


@st.composite
def sweep_cases(draw):
    """Seeded instances of either model; integer coordinates give ties, tiny
    masses leave points outside K, and low total mass, a locational
    instance without nodes among them, gives CaseMismatch."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(1, 12))
    pts = rng.uniform(-4, 4, (m, d))
    if draw(st.booleans()):
        pts = np.round(pts)
    scale = draw(st.sampled_from([1e-3, 0.1, 1.0]))
    if draw(st.booleans()):
        probs = rng.uniform(0.0, 1.0, m) * rng.choice([scale, 1.0], m)
        inst = ExistentialInstance(points=pts, probs=probs)
    else:
        nodes = draw(st.sampled_from([3, 1, 4, 2, 0]))
        rows = rng.uniform(0.0, 1.0, (nodes, m))
        rows *= rng.choice([scale, 1.0], m)
        inst = LocationalInstance(locations=pts,
                                  probs=rows / rows.sum(axis=1, keepdims=True))
    return (inst, draw(st.sampled_from([0, 1])),
            draw(st.sampled_from([0.1, 0.3, 0.5])),
            draw(st.sampled_from([1, 8, 32])))


def _outcome(sweep, *args):
    try:
        return sweep(*args)
    except CaseMismatch as err:
        return type(err)


# two nodes of mass a = 0.01255 at location 1: the sum 2a reaches
# eps' = 0.1 / 4 there, the exact 2a - a^2 does not, so K grows by it
GROWN = (LocationalInstance(locations=[[0.0, 0.0], [3.0, 1.0]],
                            probs=[[1 - 0.01255, 0.01255]] * 2), 0, 0.1, 1)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sweep_cases())
@example(GROWN)
def test_sweep_mask_matches_the_frozen_sweep(case):
    # the thresholds and the test read the same projections, so the mask
    # needs no slack to keep every point the old sweep kept
    *args, net_size = case
    with mock.patch.object(jflat, "NET_SIZE", net_size):
        mask = _outcome(sweep_convexK, *args)
    expected = _outcome(frozen_inside, *case)
    if isinstance(expected, type):
        assert mask is expected
    else:
        assert mask.dtype == bool and np.array_equal(mask, expected)


def outside_probability(instance, inside):
    """Pr[some realized point lies outside K], computed exactly per model:
    1 - prod over the outside points of 1 - p_i, or 1 - prod over the
    nodes of their mass inside K."""
    if isinstance(instance, ExistentialInstance):
        return 1.0 - np.prod(1.0 - instance.probs[~inside])
    return 1.0 - np.prod(instance.probs[:, inside].sum(axis=1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sweep_cases())
@example(GROWN)
def test_union_bound_sweep_keeps_the_exact_sweep_inside(case):
    # Summing the site masses never undercounts the probability that a
    # prefix holds a realized point, so each halfspace cuts off no more
    # than the exact-probability sweep did, and the true mass left outside
    # K stays within the union bound.
    instance, j, eps, net_size = case
    with mock.patch.object(jflat, "NET_SIZE", net_size):
        mask = _outcome(sweep_convexK, instance, j, eps)
    if float(_site_masses(instance).sum()) < eps:  # or has no nodes
        assert mask is CaseMismatch
        return
    exact = isinstance(instance, LocationalInstance)
    old = frozen_inside(*case, prefix=exact_prefix if exact else union_prefix)
    assert np.all(mask[old])
    assert outside_probability(instance, mask) <= eps / 2


@pytest.mark.parametrize("inst", [
    ExistentialInstance(points=[[0.0, 0.0], [1.0, 1.0]], probs=[0.0, 0.0]),
    LocationalInstance(locations=[[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]],
                       probs=np.zeros((0, 3)))], ids=["existential",
                                                      "locational"])
def test_zero_mass_takes_case_1_in_both_models(inst):
    # one rule, total_prob < eps: an existential instance of zero mass and
    # a locational instance without nodes both give the empty Case-1 coreset
    with pytest.raises(CaseMismatch):
        sweep_convexK(inst, 0, 0.5)
    S, case = build_sjfc_coreset(inst, 0, 0.5, seed=0)
    assert case == 1 and S.size == 0 and S.d == 2


def test_case1_tiny_instance_verbatim():
    inst = ExistentialInstance(points=[[1.0, 2.0]], probs=[0.5])
    S, case = build_sjfc_coreset(inst, 0, 0.6, seed=0)
    assert case == 1 and S.size == 1
    assert np.array_equal(S.points, [[1.0, 2.0]])
    assert S.weights == pytest.approx([0.5])
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
        S, case = build_sjfc_coreset(inst, 0, eps, seed=0)
        assert case == 1
        for _ in range(50):
            F = _rand_flat(rng, 0, 2)
            est = S.cost(F)
            exact = expected_flatcenter_exact(inst, F).value
            assert (1 - eps) * exact - 1e-12 <= est <= \
                (1 + eps) * exact + 1e-12


def test_build_S1_deterministic_and_kernel_property():
    rng = np.random.default_rng(35)
    pts = rng.uniform(-5, 5, (12, 2))
    inst = ExistentialInstance(points=pts, probs=np.ones(12))
    inside = sweep_convexK(inst, 0, 0.2)
    s1 = build_S1(inst, inside, 0, 1, seed=0)
    assert len(s1) == 1
    # deterministic instance: the single sample is a kernel of the full set,
    # exact on every kernel-net direction
    kernel = s1[0]
    lifted_all = lift(pts, 0)
    lifted_ker = lift(pts[kernel], 0)
    for u in direction_net(lifted_all.shape[1], KERNEL_NET_SIZE):
        assert (lifted_ker @ u).max() == pytest.approx(
            (lifted_all @ u).max(), abs=1e-12)
    again = build_S1(inst, inside, 0, 1, seed=0)
    assert np.array_equal(again[0], kernel)


def test_build_S2_empty_outside():
    rng = np.random.default_rng(36)
    pts = rng.uniform(-5, 5, (8, 2))
    inst = ExistentialInstance(points=pts, probs=np.ones(8))
    inside = sweep_convexK(inst, 0, 0.2)
    s2_pts, s2_w = build_S2(inst, inside, 0, 0.2,
                            np.random.default_rng(jflat.NET_SEED))
    assert s2_pts.shape[0] == 0 and s2_w.shape[0] == 0


def test_estimate_J_hand_value():
    S, _ = build_sjfc_coreset(
        ExistentialInstance(points=[[3.0, 4.0], [0.0, 1.0]],
                            probs=[1.0, 1.0]), 0, 0.5, seed=0, N=1)
    F = Flat(j=0, base=[0.0, 0.0])
    assert S.size == 1
    expected = shape_distances(S.sets[0], F).max()
    assert S.cost(F) == pytest.approx(float(expected))


def test_estimator_tracks_exact_value():
    rng = np.random.default_rng(37)
    eps = 0.2
    inst = ExistentialInstance(points=rng.uniform(-6, 6, (15, 2)),
                               probs=rng.uniform(0.05, 0.95, 15))
    S, _ = build_sjfc_coreset(inst, 0, eps, seed=1, N=800)
    for _ in range(50):
        F = _rand_flat(rng, 0, 2)
        est = S.cost(F)
        exact = expected_flatcenter_exact(inst, F).value
        assert abs(est / exact - 1.0) <= 4 * eps + eps


def test_solve_jflat_symmetric_pair():
    S, _ = build_sjfc_coreset(
        ExistentialInstance(points=[[1.0, 0.0], [-1.0, 0.0]],
                            probs=[1.0, 1.0]), 0, 0.3, seed=0, N=1)
    F, value = solve_jflat(S, 0)
    assert F.base == pytest.approx([0.0, 0.0], abs=1e-6)
    assert value == pytest.approx(1.0, abs=1e-6)


def test_pipeline_rejects_large_j():
    inst = ExistentialInstance(points=np.eye(4), probs=np.full(4, 0.5))
    with pytest.raises(SchemaError):
        sjfc_pipeline(inst, 2, 0.3)


@pytest.mark.parametrize("p", [0.05, 0.5])
@pytest.mark.parametrize("j", [-1, 2])
def test_sjfc_rejects_unsupported_j_before_any_work(j, p):
    # p = 0.05 is Case 1 (total mass 0.3 < eps), p = 0.5 is Case 2; Case 1
    # used to return a coreset at j = 2 and fail in the sampler at j = -1
    inst = ExistentialInstance(
        points=np.random.default_rng(43).uniform(-5, 5, (6, 3)),
        probs=np.full(6, p))
    with mock.patch.object(jflat, "sweep_convexK") as sweep, \
            mock.patch.object(jflat, "build_S2") as s2:
        with pytest.raises(SchemaError):
            build_sjfc_coreset(inst, j, 0.5, seed=0)
        with pytest.raises(SchemaError):
            sjfc_pipeline(inst, j, 0.5)
    assert not sweep.called and not s2.called


@pytest.mark.parametrize("j", [-1, 2])
def test_flat_median_coresets_reject_unsupported_j(j):
    # at j = 2 build_S2 used to sample 167 points scored against a line,
    # and at j = -1 it failed in the sampler on a size cap of 0
    inst = ExistentialInstance(
        points=np.random.default_rng(44).uniform(-5, 5, (500, 2)),
        probs=np.full(500, 0.001))
    with mock.patch.object(jflat, "importance_sample_coreset") as sample:
        with pytest.raises(SchemaError):
            build_S2(inst, np.zeros(500, dtype=bool), j, 0.9,
                     np.random.default_rng(jflat.NET_SEED))
        with pytest.raises(SchemaError):
            weighted_flat_median_coreset(inst.points, inst.probs, j, 0.9,
                                         np.random.default_rng(0))
    assert not sample.called


@pytest.mark.parametrize("eps", [0.0, -0.5, 1.0, 1.5, float("nan")])
@pytest.mark.parametrize("build", [
    lambda inst, eps: sweep_convexK(inst, 0, eps),
    lambda inst, eps: build_S2(inst, np.zeros(inst.n, dtype=bool), 0, eps,
                               np.random.default_rng(0)),
    lambda inst, eps: weighted_flat_median_coreset(
        inst.points, inst.probs, 0, eps, np.random.default_rng(0))],
    ids=["sweep_convexK", "build_S2", "weighted_flat_median_coreset"])
def test_jflat_builders_reject_eps_outside_the_unit_interval(build, eps):
    # the sweep kept every point at eps 0 and -0.5; the flat-median
    # coresets divided by zero at 0 and drew 8 points at -0.5, 1 at 1.5
    rng = np.random.default_rng(3)
    inst = ExistentialInstance(points=rng.uniform(-5, 5, (60, 2)),
                               probs=rng.uniform(0.001, 0.9, 60))
    with mock.patch.object(jflat, "lift") as lifted, \
            mock.patch.object(jflat, "importance_sample_coreset") as sample:
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\)"):
            build(inst, eps)
    assert not (lifted.called or sample.called)


@pytest.mark.parametrize("d", [2, 3])
def test_line_median_coreset_above_the_size_cap(d):
    # j=1 past the cap scores the points against the principal axis through
    # the weighted mean, then samples cap draws
    rng = np.random.default_rng(50 + d)
    eps = 0.3
    points = rng.uniform(-5, 5, (2000, d))
    weights = rng.uniform(0.1, 1.0, 2000)
    rows, kept_w = weighted_flat_median_coreset(points, weights, 1, eps,
                                                np.random.default_rng(d))
    kept = points[rows]
    assert np.unique(kept, axis=0).shape[0] <= case1_size_cap(1, d, eps) < 2000
    assert np.all(kept_w > 0)
    for _ in range(50):
        F = _rand_flat(rng, 1, d)
        full = float(weights @ shape_distances(points, F))
        estimate = float(kept_w @ shape_distances(kept, F))
        assert abs(estimate - full) <= eps * full


@pytest.mark.parametrize("j, points", [
    (1, np.column_stack([np.linspace(-5, 5, 400), np.zeros(400)])),
    (0, np.zeros((400, 2)))], ids=["line-on-an-axis", "origin"])
def test_zero_cost_median_takes_uniform_sensitivities(j, points):
    # the rough optimum fits every point, so no distance share exists
    weights = np.ones(400)
    assert case1_size_cap(j, 2, 0.3) < 400
    with mock.patch.object(jflat, "importance_sample_coreset",
                           wraps=jflat.importance_sample_coreset) as sample:
        weighted_flat_median_coreset(points, weights, j, 0.3,
                                     np.random.default_rng(0))
    sigma = sample.call_args.args[1]
    assert np.array_equal(sigma, np.full(400, 1.0 / 400))


def test_sjfc_rejects_a_line_in_one_dimension_before_any_work(tmp_path,
                                                               capsys):
    # a 1-flat needs d >= 2; build_sjfc_coreset used to return a Case-2
    # coreset here, and the pipeline failed in Flat after the sweep
    inst = ExistentialInstance(
        points=np.random.default_rng(45).uniform(-5, 5, (20, 1)),
        probs=np.full(20, 0.5))
    path = tmp_path / "line.json"
    write_json(path, instance_to_dict(inst))
    with mock.patch.object(jflat, "sweep_convexK") as sweep, \
            mock.patch.object(jflat, "build_S1") as s1, \
            mock.patch.object(jflat, "build_S2") as s2:
        with pytest.raises(SchemaError):
            build_sjfc_coreset(inst, 1, 0.3, seed=0, N=40)
        with pytest.raises(SchemaError):
            sjfc_pipeline(inst, 1, 0.3, N=40)
        assert main(["jflat", "--instance", str(path), "--j", "1",
                     "--eps", "0.3", "--samples", "40"]) == 2
    assert not (sweep.called or s1.called or s2.called)
    assert "1-flat needs d >= 2" in capsys.readouterr().err


def test_pipeline_zero_mass():
    inst = ExistentialInstance(points=[[1.0, 2.0]], probs=[0.0])
    _F, value, info = sjfc_pipeline(inst, 0, 0.3)
    assert value == 0.0 and info["case"] == 1


ZERO_MASS = {
    "existential": ExistentialInstance(points=[[1.0, 2.0], [3.0, 4.0]],
                                       probs=[0.0, 0.0]),
    "no-nodes": LocationalInstance(locations=[[1.0, 2.0], [3.0, 4.0]],
                                   probs=np.zeros((0, 2))),
    "no-locations": LocationalInstance(locations=np.zeros((0, 2)),
                                       probs=np.zeros((0, 0))),
}


@pytest.mark.parametrize("name", sorted(ZERO_MASS))
def test_both_pipelines_skip_an_instance_without_mass(name):
    # one rule for both pipelines: no probability mass, no solve; at k = 1
    # skc_pipeline used to raise IndexError on no locations and to polish
    # a center on locations without nodes
    inst = ZERO_MASS[name]
    for k in (1, 2):
        F, value, info = skc_pipeline(inst, k, 0.5)
        assert F.centers.shape == (k, 2) and not F.centers.any()
        assert value == 0.0
        assert info["candidates_evaluated"] == info["polish_unconverged"] == 0
    for j in (0, 1):
        F, value, info = sjfc_pipeline(inst, j, 0.3)
        assert F.j == j and not F.base.any() and value == 0.0
        assert info == {"case": 1, "s1_size": 0, "s2_size": 0,
                        "polish_unconverged": 0}


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
        S, case = build_sjfc_coreset(inst, 0, eps, seed=3, N=25)
        # S2 is not empty in either case
        assert S.size > (0 if case == 1 else 25)
        C, _ = solve_gkm(S, 1)
        F, value = solve_jflat(S, 0)
        assert np.array_equal(F.base, C.centers[0])
        assert value == S.cost(F)


def frozen_packing(support, s1, s2, s2_weights):
    """The collection of the former ``SJFCCoreset``, from point sets: the
    N kernels first, each of weight 1/N, then every S2 point as a singleton
    set of its S2 weight; kernels and S2 are ids into ``support``."""
    N = len(s1)
    return WeightedCollection(
        sets=tuple(support[E] for E in s1) + tuple(support[s2][:, None, :]),
        weights=np.concatenate([np.ones(N) / N, s2_weights]),
        d=support.shape[1])


def _packing_instances():
    """(instance, j, eps) covering Case 1 under and past its size cap, Case
    2 with and without S2, kernels that come out empty, and both models."""
    rng = np.random.default_rng(46)
    pts = rng.uniform(-5, 5, (30, 2))
    low = rng.uniform(0.01, 1.0, 30)
    rows = rng.uniform(0.0, 1.0, (3, 12)) * rng.choice([1e-4, 1.0], 12)
    locational = LocationalInstance(
        locations=rng.uniform(-5, 5, (12, 2)),
        probs=rows / rows.sum(axis=1, keepdims=True))
    return [
        (ExistentialInstance(points=pts[:5], probs=low[:5] * 0.05), 0, 0.5),
        (ExistentialInstance(points=pts, probs=low * 0.2 / low.sum()), 0,
         0.3),
        (ExistentialInstance(points=pts[:12], probs=np.ones(12)), 0, 0.3),
        (ExistentialInstance(points=pts, probs=np.concatenate(
            [rng.uniform(0.05, 0.3, 10), rng.uniform(1e-4, 1e-3, 20)])),
         0, 0.2),
        (ExistentialInstance(points=pts[:10], probs=np.full(10, 0.2)), 1,
         0.3),
        (locational, 0, 0.3),
        (locational, 1, 0.3),
    ]


def test_coreset_packs_as_the_former_coreset_type():
    seen = set()
    for inst, j, eps in _packing_instances():
        S, case = build_sjfc_coreset(inst, j, eps, seed=7, N=20)
        if case == 1:
            s1 = ()
            s2 = build_S2(inst, np.zeros(inst.n, dtype=bool), j, eps,
                          np.random.default_rng([7, 1]))
        else:
            inside = sweep_convexK(inst, j, eps)
            s1 = build_S1(inst, inside, j, 20, seed=7)
            s2 = build_S2(inst, inside, j, eps,
                          np.random.default_rng([7, 2]))
        expected = frozen_packing(inst.support_points, s1, *s2)
        assert S.d == expected.d and len(S.sets) == len(expected.sets)
        assert all(np.array_equal(a, b)
                   for a, b in zip(S.sets, expected.sets))
        assert np.array_equal(S.weights, expected.weights)
        seen |= {f"case {case}", type(inst).__name__}
        seen |= {"empty S2"} if not s2[0].shape[0] else set()
        seen |= {"empty kernel"} if any(not E.shape[0] for E in s1) else set()
        seen |= {"sampled S2"} if case == 1 and s2[0].shape[0] < inst.n \
            else set()
    assert seen == {"case 1", "case 2", "ExistentialInstance",
                    "LocationalInstance", "empty S2", "empty kernel",
                    "sampled S2"}


def frozen_criterion_11_coreset(inst, eps, N, seed):
    """Criterion 11's former assembly: the sweep, S1, S2 drawn with the
    ``NET_SEED`` generator, then the packing; and the number of support
    points outside K."""
    inside = sweep_convexK(inst, 0, eps)
    s1 = build_S1(inst, inside, 0, N, seed=seed)
    s2 = build_S2(inst, inside, 0, eps, np.random.default_rng(jflat.NET_SEED))
    return frozen_packing(inst.support_points, s1, *s2), \
        int((~inside).sum())


@pytest.mark.parametrize("scale", ["quick", "full"])
def test_criterion_11_coreset_is_the_built_one(scale):
    # S2 comes back verbatim while the outside points fit under the Case-1
    # cap, so its generator is never drawn and either seed gives one S2
    c, seed, eps = verification.COUNTS[scale], 111, 0.2
    rng = np.random.default_rng(seed)
    for i in range(c["c11_inst"]):
        inst = verification._rand_exist(rng, int(rng.integers(10, 31)), 2,
                                        prob_lo=0.0005)
        for _ in range(c["c11_F"]):
            verification._rand_flat(rng, 0, 2)
        expected, outside = frozen_criterion_11_coreset(inst, eps,
                                                        c["c11_N"], seed + i)
        assert outside <= case1_size_cap(0, 2, eps)
        S, case = build_sjfc_coreset(inst, 0, eps, seed + i, N=c["c11_N"])
        assert case == 2 and S.d == expected.d
        assert len(S.sets) == len(expected.sets)
        assert all(np.array_equal(a, b)
                   for a, b in zip(S.sets, expected.sets))
        assert np.array_equal(S.weights, expected.weights)
