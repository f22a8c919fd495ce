import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stocenter.errors import EnumerationGuardExceeded, ZeroCostCandidate
from stocenter.gkm import (WeightedCollection, candidate_costs,
                           collection_from_image, gkm_cost,
                           importance_sample_coreset, sensitivity_bruteforce,
                           sensitivity_projection, skc_pipeline, solve_gkm)
from stocenter.model import (CenterSet, ExistentialInstance,
                             LocationalInstance)
from stocenter.objective import expected_objective_exact
from stocenter.oracle import (minimum_enclosing_ball, oracle_sensitivities,
                              oracle_solver_gkm, oracle_solver_instance)
from stocenter.partition import build_weighted_image


def _coll(sets, weights):
    return WeightedCollection(sets=tuple(np.array(s, dtype=float)
                                         for s in sets),
                              weights=np.array(weights, dtype=float))


def test_gkm_cost_hand_values():
    S = _coll([[[1.0, 0.0]], [[3.0, 0.0]]], [2.0, 1.0])
    F = CenterSet(centers=[[0.0, 0.0]])
    assert gkm_cost(S, F) == pytest.approx(5.0)
    single = _coll([[[1.0, 0.0], [3.0, 0.0]]], [1.0])
    assert gkm_cost(single, F) == pytest.approx(3.0)
    doubled = _coll([[[1.0, 0.0]], [[3.0, 0.0]]], [4.0, 2.0])
    assert gkm_cost(doubled, F) == pytest.approx(10.0)


def test_sensitivity_bruteforce_basics():
    one = _coll([[[1.0, 1.0]]], [1.0])
    fam = [CenterSet(centers=[[0.0, 0.0]]), CenterSet(centers=[[5.0, 5.0]])]
    est = sensitivity_bruteforce(one, fam)
    assert est == pytest.approx([1.0])
    # mirror-symmetric pair gets equal sensitivities
    sym = _coll([[[1.0, 0.0]], [[-1.0, 0.0]]], [1.0, 1.0])
    fam = [CenterSet(centers=[[0.0, 0.5]]), CenterSet(centers=[[2.0, 0.0]]),
           CenterSet(centers=[[-2.0, 0.0]])]
    est = sensitivity_bruteforce(sym, fam)
    assert est[0] == pytest.approx(est[1])
    with pytest.raises(ZeroCostCandidate):
        sensitivity_bruteforce(one, [CenterSet(centers=[[1.0, 1.0]])])


def test_total_sensitivity_cap():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n_sets = int(rng.integers(2, 7))
        sets = [rng.uniform(-10, 10, (int(rng.integers(1, 4)), 2))
                for _ in range(n_sets)]
        S = _coll(sets, rng.uniform(0.1, 2.0, n_sets))
        for k in (1, 2):
            total = oracle_sensitivities(S, k, resolution=5).sum()
            assert total <= 4 * k + 3 + 1e-9


def test_projection_upper_dominates_lower():
    rng = np.random.default_rng(22)
    for _ in range(10):
        n_sets = int(rng.integers(2, 6))
        sets = [rng.uniform(-10, 10, (int(rng.integers(1, 4)), 2))
                for _ in range(n_sets)]
        S = _coll(sets, rng.uniform(0.1, 2.0, n_sets))
        upper = sensitivity_projection(S, solve_gkm(S, 1)[0])
        lower = oracle_sensitivities(S, 1, resolution=5)
        assert np.all(lower <= upper + 1e-9)
        assert np.all(upper <= 1.0 + 1e-12)


def test_projection_upper_uniform_fallback():
    same = _coll([[[1.0, 1.0]], [[1.0, 1.0]], [[1.0, 1.0]]], [1.0, 1.0, 1.0])
    est = sensitivity_projection(same, solve_gkm(same, 1)[0])
    assert est == pytest.approx([1 / 3] * 3)


def test_importance_sampling_single_set_and_merging():
    one = _coll([[[2.0, 0.0]]], [3.0])
    est = sensitivity_projection(one, solve_gkm(one, 1)[0])
    idx, w = importance_sample_coreset(one.weights, est, 1,
                                       np.random.default_rng(0))
    assert idx.tolist() == [0]
    assert w == pytest.approx([3.0])
    # M draws of the only set merge to weight M * (q_tot*w/(q*M)) = w
    _, w = importance_sample_coreset(one.weights, est, 7,
                                     np.random.default_rng(0))
    assert w == pytest.approx([3.0])


def test_importance_sampling_unbiased_cost():
    rng = np.random.default_rng(23)
    sets = [rng.uniform(-5, 5, (2, 2)) for _ in range(5)]
    S = _coll(sets, rng.uniform(0.5, 1.5, 5))
    est = sensitivity_projection(S, solve_gkm(S, 1)[0])
    F = CenterSet(centers=[[0.0, 0.0]])
    target = gkm_cost(S, F)
    vals = []
    for seed in range(3000):
        idx, w = importance_sample_coreset(S.weights, est, 3,
                                           np.random.default_rng(seed))
        vals.append(gkm_cost(S.subset(idx, w), F))
    mean = np.mean(vals)
    se = np.std(vals, ddof=1) / np.sqrt(len(vals))
    assert abs(mean - target) <= 3 * se


def _stream_rows(S, M, L_exp):
    K = np.ones((S.size, 3))
    return sum(len(costs) for _, _, costs in
               candidate_costs(S, K, M=M, L_exp=L_exp, eps=0.5))


def test_enumerate_candidates_counting_and_guard():
    S = _coll([[[0.0, 0.0]], [[1.0, 0.0]]], [1.0, 1.0])
    assert _stream_rows(S, M=1, L_exp=1) == 4
    big = _coll([[[float(i), 0.0]] for i in range(40)], np.ones(40))
    with pytest.raises(EnumerationGuardExceeded):
        next(candidate_costs(big, np.ones((40, 3)), M=5, L_exp=10, eps=0.5))
    # one set, M=1: the stream has L_exp + 1 = 10^8 + 1 candidates, and the
    # guard fires before the first block
    one = _coll([[[0.0, 0.0]]], [1.0])
    with pytest.raises(EnumerationGuardExceeded):
        next(candidate_costs(one, np.ones((1, 3)), M=1, L_exp=10 ** 8,
                             eps=0.5))
    # the guard counts the stream itself: C(3,1)*31 + C(3,2)*31^2 = 2976
    three = _coll([[[float(i), 0.0]] for i in range(3)], np.ones(3))
    assert _stream_rows(three, M=2, L_exp=30) == 2976


def test_solve_gkm_singleton_and_midpoint():
    one = _coll([[[4.0, -1.0]]], [1.0])
    F, value = solve_gkm(one, 1)
    assert value == pytest.approx(0.0, abs=1e-9)
    assert F.centers[0] == pytest.approx([4.0, -1.0], abs=1e-7)
    pair = _coll([[[0.0]], [[10.0]]], [1.0, 1.0])
    F, value = solve_gkm(pair, 1)
    assert value == pytest.approx(10.0, abs=1e-9)
    assert F.centers[0][0] == pytest.approx(5.0, abs=1e-6)


@pytest.mark.parametrize("k", [1, 2])
def test_solve_gkm_matches_oracle(k):
    rng = np.random.default_rng(24)
    # two well-separated clusters of singleton sets
    left = [rng.normal([-8, 0], 0.3, (1, 2)) for _ in range(3)]
    right = [rng.normal([8, 0], 0.3, (1, 2)) for _ in range(3)]
    S = _coll(left + right, np.ones(6))
    F, value = solve_gkm(S, k)
    _oF, ov = oracle_solver_gkm(S, k, resolution=11)
    assert value <= (1 + 1e-6) * ov + 1e-9


def _two_coincident_points():
    # 2 unique points, fewer than k=3
    return _coll([[[1.0, 2.0], [1.0, 2.0]], [[4.0, -1.0]], [[1.0, 2.0]]],
                  [0.5, 1.0, 2.0]), 3


def _many_points():
    # C(460, 2) = 105570 pairs, more than MAX_DISCRETE_SUBSETS
    rng = np.random.default_rng(30)
    return _coll(list(rng.uniform(-10, 10, (460, 1, 2))),
                 rng.uniform(0.5, 1.5, 460)), 2


@pytest.mark.parametrize("make", [_two_coincident_points, _many_points])
def test_solve_gkm_fallback_start(make, monkeypatch):
    # with no discrete k-subset, the local search starts from k evenly
    # spaced packed points
    from stocenter import gkm
    S, k = make()
    assert gkm._discrete_pass(S, k) is None
    pts = S.points
    F0 = CenterSet(centers=pts[np.linspace(0, pts.shape[0] - 1, k)
                               .astype(int)])
    starts, alternating = [], gkm._alternating

    def spy(S_, F):
        starts.append(F)
        return alternating(S_, F)

    monkeypatch.setattr(gkm, "_alternating", spy)
    F, value = solve_gkm(S, k)
    assert len(starts) == 1 and np.array_equal(starts[0].centers, F0.centers)
    assert F.k == k
    assert value == gkm_cost(S, F)
    assert value <= gkm_cost(S, F0)


def test_solve_gkm_weight_scale_invariant_argmin():
    rng = np.random.default_rng(25)
    sets = [rng.uniform(-5, 5, (2, 2)) for _ in range(4)]
    w = rng.uniform(0.5, 1.5, 4)
    F1, v1 = solve_gkm(_coll(sets, w), 1)
    F2, v2 = solve_gkm(_coll(sets, 3.0 * w), 1)
    assert np.allclose(F1.centers, F2.centers, atol=1e-6)
    assert v2 == pytest.approx(3.0 * v1, rel=1e-6)


def test_skc_pipeline_zero_probability():
    inst = ExistentialInstance(points=[[1.0, 2.0], [3.0, 4.0]],
                               probs=[0.0, 0.0])
    _F, value, _ = skc_pipeline(inst, 1, 0.5)
    assert value == 0.0


@pytest.mark.parametrize("bad", [
    dict(k=0), dict(eps=0.0), dict(eps=5.0), dict(strategy="bogus"),
    dict(strategy="sampling", M=0), dict(strategy="enumerate", M=0),
    dict(strategy="enumerate", L_exp=-1)],
    ids=["k=0", "eps=0", "eps=5", "bogus", "sampling-M=0", "enumerate-M=0",
         "enumerate-L_exp=-1"])
def test_skc_pipeline_checks_arguments_without_mass(bad):
    # the zero-mass shortcut used to return value 0 for each of these
    args = dict(k=1, eps=0.5, strategy="full") | bad
    errors = []
    for probs in ([0.0, 0.0], [0.5, 0.5]):
        inst = ExistentialInstance(points=[[1.0, 2.0], [3.0, 4.0]],
                                   probs=probs)
        with pytest.raises(ValueError) as info:
            skc_pipeline(inst, **args)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


def test_skc_pipeline_deterministic_matches_meb():
    rng = np.random.default_rng(26)
    pts = rng.uniform(-10, 10, (8, 2))
    inst = ExistentialInstance(points=pts, probs=np.ones(8))
    _F, value, info = skc_pipeline(inst, 1, 0.5)
    _c, r = minimum_enclosing_ball(pts)
    assert value == pytest.approx(r, abs=1e-6)
    assert info["polish_unconverged"] == 0


def test_skc_pipeline_within_eps_of_oracle():
    rng = np.random.default_rng(27)
    eps = 0.5
    for strategy in ("full", "sampling", "enumerate"):
        inst = ExistentialInstance(points=rng.uniform(-10, 10, (8, 2)),
                                   probs=rng.uniform(0.05, 0.95, 8))
        _F, value, info = skc_pipeline(inst, 1, eps, strategy=strategy,
                                       seed=3)
        _oF, ov = oracle_solver_instance(inst, 1, resolution=11)
        assert value <= (1 + eps) * ov + 1e-9
        assert info["strategy"] == strategy


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("bad", [dict(M=0), dict(L_exp=-1)],
                         ids=["M=0", "L_exp=-1"])
def test_skc_enumerate_rejects_an_empty_stream(k, bad):
    # with M < 1 or L_exp < 0 the stream has no candidate; at k=2 the
    # pipeline used to return zero centers with value 0.0
    rng = np.random.default_rng(1)
    inst = ExistentialInstance(points=rng.uniform(-10, 10, (5, 2)),
                               probs=rng.uniform(0.2, 0.9, 5))
    with pytest.raises(ValueError, match="M >= 1 and L_exp >= 0"):
        skc_pipeline(inst, k, 0.5, strategy="enumerate", **bad)


@pytest.mark.parametrize("points", [[[1.0, 2.0]], [[1.0, 2.0]] * 3],
                         ids=["one-point", "coincident"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("strategy", ["full", "sampling", "enumerate"])
def test_skc_pipeline_zero_cost_instances(points, k, strategy):
    # no probe center has positive cost; enumerate used to raise here, and
    # at k >= 2 returned zero centers with value 0 it never evaluated
    inst = ExistentialInstance(points=points,
                               probs=[0.3, 0.6, 0.9][:len(points)])
    F, value, info = skc_pipeline(inst, k, 0.5, strategy=strategy, seed=1)
    assert value == 0.0 and F.k == k
    assert value == expected_objective_exact(inst, F).value
    assert info["polish_unconverged"] == 0


@st.composite
def small_instances(draw):
    """Seeded instances of either model on a few integer points of the
    line or plane, drawn with repeats, so that some coincide and some
    instances have one distinct point."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.sampled_from([1, 2]))
    grid = rng.integers(-3, 4, (draw(st.integers(1, 3)), d)).astype(float)
    points = grid[rng.integers(0, len(grid), draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        return ExistentialInstance(points=points,
                                   probs=rng.uniform(0.05, 1.0, len(points)))
    rows = rng.uniform(0.05, 1.0, (draw(st.integers(1, 3)), len(points)))
    return LocationalInstance(locations=points,
                              probs=rows / rows.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("strategy", ["full", "sampling", "enumerate"])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(small_instances())
@example(ExistentialInstance(points=[[3.0, -2.0]], probs=[0.4]))
def test_skc_pipeline_value_is_the_exact_value_at_its_centers(strategy, k,
                                                               instance):
    # every candidate collection gives the polish a start, so the value
    # returned is the exact objective at the centers returned
    F, value, info = skc_pipeline(instance, k, 0.5, strategy=strategy, seed=2)
    assert F.k == k and info["candidates_evaluated"] >= 1
    assert value == pytest.approx(
        expected_objective_exact(instance, F).value, rel=1e-12, abs=0.0)


def test_skc_pipeline_deterministic_repeat():
    rng = np.random.default_rng(28)
    inst = ExistentialInstance(points=rng.uniform(-10, 10, (7, 2)),
                               probs=rng.uniform(0.1, 0.9, 7))
    a = skc_pipeline(inst, 1, 0.5, strategy="sampling", seed=9)
    b = skc_pipeline(inst, 1, 0.5, strategy="sampling", seed=9)
    assert np.array_equal(a[0].centers, b[0].centers) and a[1] == b[1]


def test_skc_sampling_solves_each_collection_once(monkeypatch):
    # the sensitivity estimate and the fallback start share one solve of S
    from stocenter import gkm
    solved = []

    def counting(S, k):
        solved.append(S)
        return solve_gkm(S, k)

    monkeypatch.setattr(gkm, "solve_gkm", counting)
    rng = np.random.default_rng(29)
    inst = ExistentialInstance(points=rng.uniform(-10, 10, (8, 2)),
                               probs=rng.uniform(0.1, 0.9, 8))
    skc_pipeline(inst, 1, 0.5, strategy="sampling", seed=4)
    # the full image of 2^8 classes, then the sampled coreset
    sizes = [S.size for S in solved]
    assert len(sizes) == 2 and sizes[0] == 256 > sizes[1]


@pytest.mark.parametrize("points, probs, pointless", [
    ([[3.0, -2.0]], [0.4], True),
    (np.random.default_rng(30).uniform(-10, 10, (6, 2)),
     np.random.default_rng(31).uniform(0.1, 0.9, 6), False)],
    ids=["one-point", "six-points"])
def test_skc_enumerate_solves_the_image_only_for_a_pointless_candidate(
        points, probs, pointless, monkeypatch):
    # a screened candidate with no point starts from the image's own solve
    from stocenter import gkm
    images, solved = [], []

    def keep_image(image, instance):
        images.append(collection_from_image(image, instance))
        return images[-1]

    def counting(S, k):
        solved.append(S)
        return solve_gkm(S, k)

    monkeypatch.setattr(gkm, "collection_from_image", keep_image)
    monkeypatch.setattr(gkm, "solve_gkm", counting)
    inst = ExistentialInstance(points=points, probs=probs)
    _F, _v, info = skc_pipeline(inst, 2, 0.5, strategy="enumerate")
    assert len(images) == len(solved) == info["candidates_evaluated"] == 1
    assert (solved[0] is images[0]) is pointless
    assert solved[0].points.shape[0] > 0


def test_collection_from_image_weights():
    inst = ExistentialInstance(points=[[0.0], [4.0]], probs=[0.5, 0.5])
    image = build_weighted_image(inst, 1, 0.5)
    S = collection_from_image(image, inst)
    assert S.weights.sum() == pytest.approx(1.0, abs=1e-9)
    F = CenterSet(centers=[[0.0]])
    exact = expected_objective_exact(inst, F).value
    assert abs(gkm_cost(S, F) - exact) <= 0.5 * exact + 1e-9
