"""The packed per-set max kernel and the k-subset distance table against
the per-set and per-subset loops they replaced.

The loops below are the reference: they are the library's former
implementations of the gkm cost, the j-flat estimator, the per-set
farthest point, the discrete k-subset pass, the sensitivity oracle's
per-candidate family, the grid-search oracles' per-subset scan, the
importance sampler's per-draw merge, and the per-candidate walks of the
candidate-coreset stream (the ``enumerate`` screen and acceptance
criterion 8).  The packed versions must agree with them exactly
(``==``), not within a tolerance, also with the chunk constant patched
small so that every table spans many chunks.
"""

import math
import tracemalloc
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stocenter import gkm, objective, oracle
from stocenter.errors import DimensionMismatch
from stocenter.gkm import (WeightedCollection, _discrete_pass, _screen,
                           candidate_costs, collection_from_image, gkm_cost,
                           importance_sample_coreset, sensitivity_bruteforce,
                           sensitivity_projection, skc_pipeline, solve_gkm)
from stocenter.jflat import _pack, sjfc_pipeline, solve_jflat
from stocenter.model import (CenterSet, ExistentialInstance, Flat,
                             LocationalInstance)
from stocenter.objective import (_distances, _farthest_weights,
                                 _subset_minima, expected_objective_exact,
                                 shape_distances)
from stocenter.oracle import (center_grid, oracle_sensitivities,
                              oracle_solver_gkm, oracle_solver_instance)
from stocenter.partition import WeightedImage
from stocenter.verification import _c8_found

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


# ---------------------------------------------------------------------------
# Loop references


def loop_set_cost(points, F):
    if points.shape[0] == 0:
        return 0.0
    return float(shape_distances(points, F).max())


def loop_gkm_cost(sets, weights, F):
    return float(sum(w * loop_set_cost(s, F) for s, w in zip(sets, weights)))


def loop_estimate_J(s1, s2_points, s2_weights, F):
    """sum_i w_i max_i left to right: the kernels at weight 1/N, then S2."""
    total = 0.0
    for E in s1:
        total += 1.0 / len(s1) * loop_set_cost(E, F)
    for p, w in zip(s2_points, s2_weights):
        total += w * loop_set_cost(p[None], F)
    return total


def loop_argmax(sets, F):
    """Row in the concatenated points of each nonempty set's farthest
    point, first occurrence on ties."""
    rows, offset = [], 0
    for s in sets:
        if s.shape[0]:
            rows.append(offset + int(np.argmax(shape_distances(s, F))))
        offset += s.shape[0]
    return rows


def loop_subset_minima(D, k):
    """(subsets, table) of every k-subset of the columns of D."""
    subsets = list(combinations(range(D.shape[1]), k))
    table = [D[:, list(c)].min(axis=1) for c in subsets]
    return subsets, np.array(table).reshape(len(subsets), D.shape[0]).T


def loop_oracle_sensitivities(S, k, resolution):
    """The former oracle: one CenterSet per k-subset of the candidates,
    those of positive cost kept, then the per-candidate loop of
    ``sensitivity_bruteforce``."""
    pts = np.unique(S.points, axis=0)
    cand = np.unique(np.vstack([center_grid(pts, resolution, margin=1.0),
                                pts]), axis=0)
    family = []
    for idx in combinations(range(cand.shape[0]), k):
        F = CenterSet(centers=cand[list(idx)])
        if gkm_cost(S, F) > 0.0:
            family.append(F)
    return sensitivity_bruteforce(S, family)


def loop_best_subset(cand, k, value):
    """One ``value`` call per ``min(k, candidates)``-subset of ``cand``, in
    ``combinations`` order, padded to k centers by ``np.resize``; the first
    least one kept."""
    best = None
    for idx in combinations(range(cand.shape[0]), min(k, cand.shape[0])):
        F = CenterSet(centers=np.resize(cand[list(idx)], (k, cand.shape[1])))
        v = value(F)
        if best is None or v < best[1]:
            best = (F, v)
    return best


def loop_grid_search(points, k, resolution, value):
    """The former grid search, over the sorted grid and support
    candidates."""
    cand = np.unique(np.vstack([center_grid(points, resolution), points]),
                     axis=0)
    return loop_best_subset(cand, k, value)


def loop_discrete_pass(sets, weights, k):
    nonempty = [s for s in sets if s.shape[0]]
    return loop_best_subset(np.unique(np.vstack(nonempty), axis=0), k,
                            lambda F: loop_gkm_cost(sets, weights, F))


def loop_candidate_stream(S, M, L_exp, eps):
    """The former per-candidate generator: (indices, exponents, weights)
    over sizes 1..M, then ``combinations``, then ``product`` order of the
    exponents, with weights (1+eps)^a * w_i / M."""
    for size in range(1, M + 1):
        for idx in combinations(range(S.size), size):
            for exps in product(range(L_exp + 1), repeat=size):
                yield idx, exps, np.array([(1.0 + eps) ** a * S.weights[i] / M
                                           for i, a in zip(idx, exps)])


def loop_candidate_cost(K, idx, weights):
    cand_cost = np.zeros(K.shape[1])
    for i, wi in zip(idx, weights):
        cand_cost += wi * K[i]
    return cand_cost


def loop_screen(S, K, M, L_exp, eps):
    """The former ``enumerate`` screen: (indices, weights, deviation) of the
    first candidate not beaten by more than 1e-15 later in the stream."""
    full_cost = loop_candidate_cost(K, range(S.size), S.weights)
    mask = full_cost > 1e-12
    best, best_dev = None, math.inf
    for idx, _, weights in loop_candidate_stream(S, M, L_exp, eps):
        cand_cost = loop_candidate_cost(K, idx, weights)
        dev = float(np.abs(cand_cost[mask] / full_cost[mask] - 1.0)
                    .max(initial=0.0))
        if dev < best_dev - 1e-15:
            best, best_dev = (idx, weights), dev
    return best[0], best[1], best_dev


def loop_band_found(S, cand, eps):
    """The former criterion 8 check: one per-set distance stack, then a
    dense weight vector per candidate of the M=2, L_exp=6 stream."""
    K = np.stack([
        np.sqrt(((s[:, None, :] - cand[None, :, :]) ** 2).sum(axis=2))
        .max(axis=0) for s in S.sets])
    cost_full = loop_candidate_cost(K, range(S.size), S.weights)
    for idx, _, weights in loop_candidate_stream(S, 2, 6, eps):
        w = np.zeros(S.size)
        for i, wi in zip(idx, weights):
            w[i] = wi
        cost_c = w @ K
        lo = (1.0 - 3 * eps) * cost_full - 1e-9
        hi = (1.0 + 3 * eps) * cost_full + 1e-9
        if np.all((cost_c >= lo) & (cost_c <= hi)):
            return True
    return False


def loop_importance_sample(weights, sensitivities, M, rng):
    """The former sampler: M draws in proportion to the sensitivities plus
    the 1/N floor, merged per set by a dict in draw order."""
    scores = sensitivities + 1.0 / len(sensitivities)
    total_q = float(scores.sum())
    draws = rng.choice(len(scores), size=M, p=scores / total_q)
    acc = {}
    for i in draws:
        i = int(i)
        acc[i] = acc.get(i, 0.0) + total_q * weights[i] / (scores[i] * M)
    indices = sorted(acc)
    return indices, [acc[i] for i in indices]


def pack_points(s1, s2, s2_weights):
    """``jflat._pack`` of kernels and S2 given as points: their rows, in
    order, are the support."""
    support = np.vstack([*s1, s2])
    ends = np.cumsum([len(E) for E in s1], dtype=int)
    kernels = tuple(np.split(np.arange(ends[-1]), ends[:-1])) if s1 else ()
    return _pack(support, kernels, np.arange(len(support) - len(s2),
                                             len(support)), s2_weights)


# ---------------------------------------------------------------------------
# Strategies: small ragged collections with empty sets, single points and
# duplicate points (grid coordinates make argmax ties common).

coord = st.one_of(st.integers(-3, 3).map(float),
                  st.floats(-10, 10, allow_nan=False, width=64))


@st.composite
def ragged(draw, max_sets=30):
    d = draw(st.integers(1, 3))
    pool = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=8))
    sizes = draw(st.lists(st.integers(0, 5), min_size=1, max_size=max_sets))
    sets = tuple(
        np.array([pool[draw(st.integers(0, len(pool) - 1))]
                  for _ in range(n)], dtype=float).reshape(n, d)
        for n in sizes)
    weights = np.array(draw(st.lists(
        st.floats(0.01, 5.0, allow_nan=False), min_size=len(sets),
        max_size=len(sets))))
    return sets, weights, d


@st.composite
def center_sets(draw, d):
    k = draw(st.integers(1, 3))
    return CenterSet(centers=np.array(
        draw(st.lists(st.tuples(*[coord] * d), min_size=k, max_size=k)),
        dtype=float).reshape(k, d))


@st.composite
def flats(draw, d):
    j = draw(st.integers(0, min(1, d - 1)))
    base = np.array(draw(st.tuples(*[coord] * d)), dtype=float)
    if j == 0:
        return Flat(j=0, base=base)
    v = np.array(draw(st.tuples(*[coord] * d)), dtype=float)
    if np.linalg.norm(v) < 1e-3:
        v = np.eye(d)[0]
    return Flat(j=1, base=base, basis=(v / np.linalg.norm(v)).reshape(1, d))


@st.composite
def collection_and_centers(draw):
    sets, weights, d = draw(ragged())
    return sets, weights, draw(center_sets(d))


@st.composite
def coreset_and_flat(draw):
    s1, _, d = draw(ragged(max_sets=40))
    m = draw(st.integers(0, 4))
    s2 = np.array(draw(st.lists(st.tuples(*[coord] * d), min_size=m,
                                max_size=m)), dtype=float).reshape(m, d)
    w2 = np.array(draw(st.lists(st.floats(0.001, 1.0), min_size=m,
                                max_size=m)))
    return s1, s2, w2, draw(flats(d))


# ---------------------------------------------------------------------------
# Exact agreement with the loops


@SETTINGS
@given(collection_and_centers())
def test_gkm_cost_equals_loop(case):
    sets, weights, F = case
    S = WeightedCollection(sets=sets, weights=weights)
    assert gkm_cost(S, F) == loop_gkm_cost(sets, weights, F)


@SETTINGS
@given(ragged(), st.integers(1, 2), st.data())
def test_cost_objective_equals_gkm_cost(case, k, data):
    """The Nelder-Mead objective on the raw center vector is ``gkm_cost``
    of the same centers bit for bit, whatever the order of the rows."""
    sets, weights, d = case
    S = WeightedCollection(sets=sets, weights=weights)
    rows = np.array(data.draw(st.lists(st.tuples(*[coord] * d), min_size=k,
                                       max_size=k)), dtype=float).reshape(k, d)
    cost = gkm._cost_objective(S)
    for C in (rows, rows[::-1]):
        assert cost(C.reshape(-1)) == gkm_cost(S, CenterSet(centers=C))


@SETTINGS
@given(collection_and_centers())
def test_argmax_equals_loop_first_occurrence(case):
    sets, weights, F = case
    P = WeightedCollection(sets, weights)
    rows = P.argmax(shape_distances(P.support, F))
    assert rows.tolist() == loop_argmax(sets, F)
    assert P.max_distances(F).tolist() == \
        [loop_set_cost(s, F) for s in sets]


@SETTINGS
@given(coreset_and_flat())
# A point's line distance must not depend on the points scored with it: a
# BLAS projection rounded [0, 3] differently alone and packed with [0, 0].
@example(((np.zeros((0, 2)), np.array([[0.0, 3.0]])),
          np.array([[0.0, 0.0]]), np.array([0.5]),
          Flat(j=1, base=np.array([2.0, -2.0]),
               basis=(np.array([1.0, -10.0]) / np.sqrt(101.0))
               .reshape(1, 2))))
def test_estimate_J_equals_loop(case):
    s1, s2, w2, F = case
    assert pack_points(s1, s2, w2).cost(F) == loop_estimate_J(s1, s2, w2, F)


@SETTINGS
@given(coreset_and_flat())
def test_shape_distances_do_not_depend_on_the_batch(case):
    """Each point's distance is the same scored alone or with the others."""
    s1, s2, _w2, F = case
    P = np.vstack([*s1, s2])
    assert shape_distances(P, F).tolist() == \
        [shape_distances(P[i:i + 1], F)[0] for i in range(len(P))]


@SETTINGS
@given(collection_and_centers())
def test_sensitivities_equal_loop(case):
    sets, weights, F = case
    S = WeightedCollection(sets=sets, weights=weights)
    total = loop_gkm_cost(sets, weights, F)
    if total <= 0.0:
        return
    est = sensitivity_bruteforce(S, [F])
    assert est.tolist() == \
        [w * loop_set_cost(s, F) / total for s, w in zip(sets, weights)]
    # projection upper bound: farthest point, nearest center, cluster mass
    up = sensitivity_projection(S, F)
    nearest = np.zeros(len(sets), dtype=int)
    for i, s in enumerate(sets):
        if s.shape[0]:
            far = s[int(np.argmax(shape_distances(s, F)))]
            nearest[i] = int(np.argmin(((F.centers - far) ** 2).sum(axis=1)))
    mass = np.zeros(F.k)
    for i in range(len(sets)):
        mass[nearest[i]] += weights[i]
    ref = [min(max(w * loop_set_cost(s, F) / total
                   + 2.0 * w / mass[nearest[i]], 0.0), 1.0)
           for i, (s, w) in enumerate(zip(sets, weights))]
    assert up.tolist() == ref


def test_importance_sample_merge_equals_dict_loop():
    # M up to 60 draws of at most 11 sets, so most sets are drawn repeatedly
    for seed in range(60):
        rng = np.random.default_rng(seed)
        N = int(rng.integers(1, 12))
        S = WeightedCollection(
            sets=tuple(rng.uniform(-5, 5, (int(rng.integers(1, 4)), 2))
                       for _ in range(N)), weights=rng.uniform(0.1, 2.0, N))
        F = CenterSet(centers=rng.uniform(-5, 5, (int(rng.integers(1, 3)), 2)))
        sens = sensitivity_projection(S, F)
        for M in (1, 3, 17, 60):
            idx, w = importance_sample_coreset(
                S.weights, sens, M, np.random.default_rng([seed, M]))
            ref_idx, ref_w = loop_importance_sample(
                S.weights, sens, M, np.random.default_rng([seed, M]))
            assert idx.tolist() == ref_idx
            assert w.tolist() == ref_w


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(ragged(max_sets=14), st.integers(1, 3), st.sampled_from([1, 7, 2 ** 17]))
def test_discrete_pass_equals_loop(case, k, chunk):
    sets, weights, _d = case
    if not any(s.shape[0] for s in sets):
        return
    S = WeightedCollection(sets=sets, weights=weights)
    with mock.patch.object(gkm, "CHUNK_ELEMENTS", chunk):
        got = _discrete_pass(S, k)
    ref = loop_discrete_pass(sets, weights, k)
    assert got[1] == ref[1]
    assert np.array_equal(got[0].centers, ref[0].centers)


@SETTINGS
@given(st.integers(0, 6), st.integers(0, 7), st.integers(1, 3),
       st.integers(1, 5), st.integers(0, 2 ** 16))
def test_subset_minima_equal_combinations_loop(points, candidates, k, rows,
                                               seed):
    # integer distances make ties between subset members common
    D = np.random.default_rng(seed).integers(
        0, 4, (points, candidates)).astype(float)
    chunks = list(_subset_minima(D, k, rows))
    subsets, table = loop_subset_minima(D, k)
    assert all(0 < len(c) <= rows for c, _ in chunks)
    assert [tuple(row) for subs, _ in chunks for row in subs.tolist()] \
        == subsets
    got = np.hstack([t for _, t in chunks]) if chunks \
        else np.zeros((points, 0))
    assert got.shape == table.shape and (got == table).all()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(ragged(max_sets=6), st.integers(1, 2), st.sampled_from([3, 40]))
def test_oracle_sensitivities_equal_family_loop(case, k, chunk):
    sets, weights, _d = case
    if not any(s.shape[0] for s in sets):
        return
    S = WeightedCollection(sets=sets, weights=weights)
    with mock.patch.object(oracle, "CHUNK_ELEMENTS", chunk):
        got = oracle_sensitivities(S, k, resolution=3)
    assert got.tolist() == loop_oracle_sensitivities(S, k, 3).tolist()


@st.composite
def small_instances(draw):
    d = draw(st.integers(1, 2))
    pts = np.array(draw(st.lists(st.tuples(*[coord] * d), min_size=1,
                                 max_size=5)), dtype=float)
    if draw(st.booleans()):
        probs = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0])
                              | st.floats(0.0, 1.0),
                              min_size=len(pts), max_size=len(pts)))
        return ExistentialInstance(points=pts, probs=np.array(probs))
    rows = [np.array(draw(st.lists(st.integers(0, 3), min_size=len(pts),
                                   max_size=len(pts)).filter(any)),
                     dtype=float) for _ in range(draw(st.integers(1, 3)))]
    return LocationalInstance(locations=pts,
                              probs=np.array([r / r.sum() for r in rows]))


def assert_same_pick(got, ref):
    assert got[1] == ref[1]
    assert np.array_equal(got[0].centers, ref[0].centers)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_instances(), st.integers(1, 2), st.sampled_from([3, 40]))
def test_grid_search_on_the_instance_equals_loop(inst, k, chunk):
    """The batched screen picks what one exact evaluation per subset
    picks."""
    with mock.patch.object(oracle, "CHUNK_ELEMENTS", chunk):
        got = oracle_solver_instance(inst, k, resolution=4)
    assert_same_pick(got, loop_grid_search(
        inst.support_points, k, 4,
        lambda F: expected_objective_exact(inst, F).value))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(ragged(max_sets=6), st.integers(1, 2), st.sampled_from([3, 40]))
def test_grid_search_on_a_collection_equals_loop(case, k, chunk):
    sets, weights, _d = case
    if not any(s.shape[0] for s in sets):
        return
    S = WeightedCollection(sets=sets, weights=weights)
    with mock.patch.object(oracle, "CHUNK_ELEMENTS", chunk):
        got = oracle_solver_gkm(S, k, resolution=4)
    assert_same_pick(got, loop_grid_search(S.points, k, 4,
                                           lambda F: gkm_cost(S, F)))


@st.composite
def grid_cases(draw, kind):
    """An existential or locational instance, or a weighted collection, on
    integer coordinates in d = 1..3, where distances tie often."""
    d = draw(st.integers(1, 3))
    c = st.integers(-2, 2).map(float)
    pts = np.array(draw(st.lists(st.tuples(*[c] * d), min_size=1,
                                 max_size=5)), dtype=float)
    n = len(pts)
    if kind == "existential":
        probs = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0])
                              | st.floats(0.0, 1.0), min_size=n, max_size=n))
        return ExistentialInstance(points=pts, probs=np.array(probs))
    if kind == "locational":
        rows = [np.array(draw(st.lists(st.integers(0, 3), min_size=n,
                                       max_size=n).filter(any)), dtype=float)
                for _ in range(draw(st.integers(1, 3)))]
        return LocationalInstance(locations=pts,
                                  probs=np.array([r / r.sum() for r in rows]))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    sets = tuple(pts[draw(st.lists(st.integers(0, n - 1), min_size=m,
                                   max_size=m))] for m in sizes)
    weights = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0])
                            | st.floats(0.1, 3.0), min_size=len(sets),
                            max_size=len(sets)))
    return WeightedCollection(sets=sets, weights=np.array(weights), d=d)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("kind", ["existential", "locational", "collection"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data(), chunk=st.sampled_from([5, 64]))
def test_grid_screens_equal_the_value_of_every_subset(kind, k, data, chunk):
    """Both grid oracles' screens give every subset of every chunk the
    score ``value(CenterSet(cand[idx]))`` bit for bit."""
    case = data.draw(grid_cases(kind))
    grid_search, chunks = oracle._grid_search, []

    def search(points, k, resolution, reads, width, screen, value):
        def scored(table):
            chunks.append(screen(table))
            return chunks[-1]

        found = grid_search(points, k, resolution, reads, width, scored,
                            value)
        cand = np.unique(np.vstack([center_grid(points, resolution),
                                    points]), axis=0)
        values = [value(CenterSet(centers=cand[list(idx)]))
                  for idx in combinations(range(len(cand)),
                                          min(k, len(cand)))]
        assert len(chunks) == -(-len(values) // max(chunk // width, 1))
        assert [s for scores in chunks for s in scores.tolist()] == values
        return found

    with mock.patch.object(oracle, "CHUNK_ELEMENTS", chunk), \
            mock.patch.object(oracle, "_grid_search", search):
        if kind == "collection":
            oracle_solver_gkm(case, k, resolution=4)
        else:
            oracle_solver_instance(case, k, resolution=4)


@pytest.mark.parametrize("inst", [
    ExistentialInstance(points=[[0, 0], [3, 1], [1, 4], [-2, 2], [2, -1]],
                        probs=[0.9, 0.3, 0.6, 1.0, 0.5]),
    LocationalInstance(locations=[[0, 0], [3, 1], [1, 4], [-2, 2], [2, -1]],
                       probs=[[0.5, 0.5, 0, 0, 0], [0, 0.2, 0.3, 0.5, 0],
                              [0.1, 0, 0, 0.4, 0.5]])])
def test_grid_search_streams_one_bounded_chunk(inst):
    """The oracle holds one chunk of subsets at a time, sized so that the
    screen's largest temporary, (nodes, points, subsets) for a locational
    instance, stays within CHUNK_ELEMENTS."""
    chunk = 2 ** 10
    nodes = inst.n if isinstance(inst, LocationalInstance) else 1
    sizes = []

    def spy(instance, table):
        sizes.append(nodes * table.size)
        return _farthest_weights(instance, table)

    with mock.patch.object(oracle, "CHUNK_ELEMENTS", chunk):
        # the first call also makes numpy's one-time allocations (about
        # 1 MB), so only the second one is measured
        with mock.patch.object(objective, "_farthest_weights", spy):
            ref = oracle_solver_instance(inst, 3, resolution=9)
        tracemalloc.start()
        try:
            got = oracle_solver_instance(inst, 3, resolution=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(sizes) > 100 and max(sizes) <= chunk
    assert_same_pick(got, ref)
    # the 86 candidates have C(86, 3) = 102,340 3-subsets: 2.4 MB of
    # indices and 0.8 MB of scores if every chunk were kept
    assert peak < 2 ** 19


@pytest.mark.parametrize("n_s1, n_s2", [(0, 3), (4, 0), (0, 0)])
def test_sjfc_coreset_with_an_empty_part(n_s1, n_s2):
    rng = np.random.default_rng(n_s1 + 2 * n_s2)
    s1 = tuple(rng.uniform(-3, 3, (int(rng.integers(0, 4)), 2))
               for _ in range(n_s1))
    s2 = rng.uniform(-3, 3, (n_s2, 2))
    w2 = rng.uniform(0.1, 1.0, n_s2)
    S = pack_points(s1, s2, w2)
    assert S.size == n_s1 + n_s2
    assert all(np.array_equal(a, b) for a, b in zip(S.sets, s1))
    for F in (Flat(j=0, base=[0.5, -1.0]),
              Flat(j=1, base=[0.0, 1.0], basis=[[0.6, 0.8]])):
        assert S.cost(F) == loop_estimate_J(s1, s2, w2, F)
    F, value = solve_jflat(S, 0)
    assert value == S.cost(F)
    if not S.points.shape[0]:
        assert (F.base == 0.0).all() and value == 0.0


def test_image_cost_equals_loop():
    rng = np.random.default_rng(5)
    inst = ExistentialInstance(points=rng.uniform(-5, 5, (6, 2)),
                               probs=rng.uniform(0.1, 0.9, 6))
    image = WeightedImage(entries=(((), 0.25), ((0, 3), 0.5), ((1,), 0.125),
                                   ((2, 4, 5), 0.125)), source="Exhaustive")
    F = CenterSet(centers=[[0.5, -1.0], [2.0, 2.0]])
    ref = 0.0
    for ids, w in image.entries:
        if ids:
            ref += w * float(shape_distances(inst.points[list(ids)], F).max())
    assert collection_from_image(image, inst).cost(F) == ref


# ---------------------------------------------------------------------------
# The candidate-coreset stream


@st.composite
def scored_collection(draw):
    """Up to 5 sets of up to 3 points from a pool of up to 4 points in the
    plane, and 1-6 probes: on integer coordinates with weights in
    {0.5, 1, 2}, so that equal sets make deviations tie exactly, or
    random."""
    grid = draw(st.booleans())
    c = st.integers(-3, 3).map(float) if grid else \
        st.floats(-10, 10, allow_nan=False, width=64)
    pool = draw(st.lists(st.tuples(c, c), min_size=1, max_size=4))
    sizes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
    sets = tuple(np.array([pool[draw(st.integers(0, len(pool) - 1))]
                           for _ in range(n)], dtype=float).reshape(n, 2)
                 for n in sizes)
    if grid:
        weights = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                                         min_size=len(sets),
                                         max_size=len(sets))))
    else:
        weights = np.random.default_rng(draw(st.integers(0, 2 ** 32))) \
            .uniform(0.01, 5.0, len(sets))
    probes = np.array(draw(st.lists(st.tuples(c, c), min_size=1, max_size=6)))
    return WeightedCollection(sets=sets, weights=weights, d=2), probes


def stream_rows(blocks):
    return ([tuple(r) for idx, _, _ in blocks for r in idx.tolist()],
            [tuple(r) for _, exps, _ in blocks for r in exps.tolist()],
            np.vstack([costs for _, _, costs in blocks]))


# set 1 repeats set 0 at a weight one ulp higher: its deviation is lower by
# one ulp, which is not enough to take the lead from set 0
NEAR_TIE = (WeightedCollection(sets=(np.zeros((1, 2)), np.zeros((1, 2)),
                                     np.array([[2.5, 0.0]])),
                               weights=np.array([1.0, 1.0 + 2.0 ** -52, 1.0])),
            np.array([[3.0, 0.0]]))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@example(NEAR_TIE, 1, 0, 0.5, 2 ** 17, 0.5)
@given(scored_collection(), st.integers(1, 3), st.sampled_from([0, 1, 3]),
       st.sampled_from([0.5, 0.3, 0.1]), st.sampled_from([1, 7, 24, 2 ** 17]),
       st.sampled_from([0.5, 0.1, 0.03, 0.01]))
def test_candidate_stream_screen_and_band_equal_loop(case, M, L_exp, eps,
                                                     chunk, band_eps):
    S, probes = case
    K = S.maxima(_distances(S.support, probes))
    with mock.patch.object(gkm, "CHUNK_ELEMENTS", chunk):
        blocks = list(candidate_costs(S, K, M, L_exp, eps))
        core_idx, core_w, dev = _screen(S, K, M, L_exp, eps)
    ref = list(loop_candidate_stream(S, M, L_exp, eps))
    indices, exponents, costs = stream_rows(blocks)
    assert indices == [idx for idx, _, _ in ref]
    assert exponents == [exps for _, exps, _ in ref]
    assert np.array_equal(costs, [loop_candidate_cost(K, idx, weights)
                                  for idx, _, weights in ref])
    assert all(c.size <= max(chunk, K.shape[1]) for _, _, c in blocks)
    ref_indices, ref_weights, ref_dev = loop_screen(S, K, M, L_exp, eps)
    assert core_idx.tolist() == list(ref_indices)
    assert core_w.tolist() == ref_weights.tolist()
    assert dev == ref_dev
    # criterion 8's band verdict, on the nonempty sets; a narrow band makes
    # "no candidate" common
    keep = [i for i, s in enumerate(S.sets) if s.shape[0]]
    if keep:
        T = WeightedCollection(sets=tuple(S.sets[i] for i in keep),
                               weights=S.weights[keep])
        with mock.patch.object(gkm, "CHUNK_ELEMENTS", chunk):
            found = _c8_found(T, probes, band_eps)
        assert found == loop_band_found(T, probes, band_eps)


def test_candidate_costs_split_one_combination_into_exponent_blocks():
    # 4 probes and CHUNK_ELEMENTS = 8 give 2 rows per block, fewer than the
    # 16 exponent pairs of one 2-set combination
    S = WeightedCollection(sets=tuple(np.array([[float(i), 1.0]])
                                      for i in range(3)),
                           weights=np.array([1.0, 0.5, 2.0]))
    K = S.maxima(_distances(S.support, np.eye(4, 2)))
    with mock.patch.object(gkm, "CHUNK_ELEMENTS", 8):
        blocks = list(candidate_costs(S, K, 2, 3, 0.5))
    pairs = [idx for idx, _, _ in blocks if idx.shape[1] == 2]
    assert len(pairs) == 3 * 8
    assert all(len(idx) == 2 and len(np.unique(idx, axis=0)) == 1
               for idx in pairs)
    assert all(c.size <= 8 for _, _, c in blocks)
    ref = list(loop_candidate_stream(S, 2, 3, 0.5))
    indices, exponents, costs = stream_rows(blocks)
    assert indices == [idx for idx, _, _ in ref]
    assert exponents == [exps for _, exps, _ in ref]
    assert np.array_equal(costs, [loop_candidate_cost(K, idx, weights)
                                  for idx, _, weights in ref])


# ---------------------------------------------------------------------------
# The dimension of an all-empty collection


def test_all_empty_collection_keeps_dimension():
    S = WeightedCollection(sets=(np.zeros((0, 2)),) * 2,
                           weights=np.ones(2))
    assert S.d == 2
    assert S.sets[0].shape == (0, 2)
    F, value = solve_gkm(S, 2)
    assert F.centers.shape == (2, 2) and value == 0.0
    assert gkm_cost(S, CenterSet(centers=[[1.0, 1.0]])) == 0.0


def test_collection_from_image_passes_instance_dimension():
    inst = ExistentialInstance(points=[[1.0, 2.0, 3.0]], probs=[0.5])
    image = WeightedImage(entries=(((), 1.0),), source="Exhaustive")
    S = collection_from_image(image, inst)
    assert S.d == 3 and S.size == 1
    assert solve_gkm(S, 1)[0].centers.shape == (1, 3)


def test_dimension_must_be_known_and_consistent():
    with pytest.raises(DimensionMismatch):
        WeightedCollection(sets=(np.zeros(0),), weights=np.ones(1))
    with pytest.raises(DimensionMismatch):
        WeightedCollection(sets=(np.zeros((1, 2)), np.zeros((1, 3))),
                           weights=np.ones(2))
    S = WeightedCollection(sets=(np.zeros(0),), weights=np.ones(1), d=4)
    assert S.sets[0].shape == (0, 4)


# ---------------------------------------------------------------------------
# One support: every value is taken once per support point


def loop_cost_table(sets, weights, cand):
    """sum_i w_i max_{s in S_i} ||s - c|| for every candidate c, one
    distance per packed copy, added left to right."""
    costs = []
    for c in cand:
        total = 0.0
        for s, w in zip(sets, weights):
            if len(s):
                total += w * float(np.sqrt(((s - c) ** 2).sum(axis=1)).max())
        costs.append(total)
    return costs


@st.composite
def indexed_sets(draw):
    """A pool of points, with 0.0 and -0.0 among the coordinates, and up
    to 12 sets of pool ids: empty sets, single points, and ids repeated
    within a set and across sets."""
    d = draw(st.integers(1, 3))
    c = st.sampled_from([0.0, -0.0]) | coord
    pool = np.array(draw(st.lists(st.tuples(*[c] * d), min_size=1,
                                  max_size=6)), dtype=float).reshape(-1, d)
    ids = draw(st.lists(st.lists(st.integers(0, len(pool) - 1), max_size=5),
                        min_size=1, max_size=12))
    weights = np.array(draw(st.lists(st.floats(0.01, 5.0), min_size=len(ids),
                                     max_size=len(ids))))
    return pool, ids, weights


@SETTINGS
@given(indexed_sets(), st.data())
def test_support_indexed_collection_equals_per_copy_formula(case, data):
    """A collection built from support ids and one built from the same
    sets as points both equal the per-copy formulas bit for bit."""
    pool, ids, weights = case
    d = pool.shape[1]
    sets = tuple(pool[s].reshape(len(s), d) for s in ids)
    F = data.draw(center_sets(d))
    cand = np.array(data.draw(st.lists(st.tuples(*[coord] * d), min_size=1,
                                       max_size=4))).reshape(-1, d)
    picked = data.draw(st.lists(st.integers(0, len(sets) - 1),
                                max_size=len(sets)))
    sub_w = np.linspace(0.5, 2.0, len(picked))
    for S in (WeightedCollection(sets=ids, weights=weights, support=pool),
              WeightedCollection(sets=sets, weights=weights)):
        assert S.support.shape[0] <= pool.shape[0] and S.d == d
        assert S.size == len(sets) and all(
            np.array_equal(a, b) for a, b in zip(S.sets, sets))
        assert S.cost(F) == loop_gkm_cost(sets, weights, F)
        assert S.max_distances(F).tolist() == \
            [loop_set_cost(s, F) for s in sets]
        assert S.argmax(shape_distances(S.support, F)).tolist() == \
            loop_argmax(sets, F)
        assert S._cost(_distances(S.support, cand)).tolist() == \
            loop_cost_table(sets, weights, cand)
        T = S.subset(picked, sub_w)
        assert T.cost(F) == loop_gkm_cost([sets[i] for i in picked], sub_w,
                                          F)
        assert all(np.array_equal(a, sets[i]) for a, i in zip(T.sets, picked))
        if not S.ids.size:
            continue
        for k in (1, 2):
            assert_same_pick(_discrete_pass(S, k),
                             loop_discrete_pass(sets, weights, k))


@pytest.mark.parametrize("sets, weights", [
    ((np.array([[np.nan, 0.0], [1.0, 1.0]]),), None),
    ((np.array([[np.inf, 0.0], [1.0, 1.0]]),), None),
    ((np.array([[0.0, 0.0]]), np.array([[-np.inf, 1.0]])), None),
    ((np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]])), [np.inf, 1.0]),
    ((np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]])), [np.nan, 1.0])],
    ids=["nan point", "inf point", "-inf point", "inf weight", "nan weight"])
def test_non_finite_collections_are_rejected_at_construction(sets, weights):
    # solve_gkm raised IndexError out of argmax on a non-finite point at
    # k = 1 and 2; on an inf weight it returned NaN centers at k = 1
    with pytest.raises(ValueError, match="finite"):
        WeightedCollection(sets=sets, weights=weights)
    support = np.vstack(sets)
    with pytest.raises(ValueError, match="finite"):
        WeightedCollection(sets=[range(len(support))], weights=weights[:1]
                           if weights else None, support=support)


def test_a_support_point_no_set_uses_is_dropped():
    S = WeightedCollection(sets=[(2,), (), (2, 0)], support=[
        [0.0, 1.0], [np.nan, 0.0], [3.0, 4.0]])
    assert S.support.tolist() == [[0.0, 1.0], [3.0, 4.0]]
    assert S.ids.tolist() == [1, 1, 0] and S.offsets.tolist() == [0, 1, 1, 3]
    assert S.cost(CenterSet(centers=[[0.0, 0.0]])) == 10.0


def _n10():
    rng = np.random.default_rng(37)
    return ExistentialInstance(points=rng.uniform(-5, 5, (10, 2)),
                               probs=rng.uniform(0.2, 0.9, 10))


# the 1024-class image streams past its guard at the default M = 2
@pytest.mark.parametrize("run", [
    *(lambda inst, k=k, s=s: skc_pipeline(
        inst, k, 0.5, strategy=s, M=1 if s == "enumerate" else None)
      for k in (1, 2) for s in ("full", "sampling", "enumerate")),
    lambda inst: sjfc_pipeline(inst, 0, 0.3, seed=1, N=40)],
    ids=[f"skc-k{k}-{s}" for k in (1, 2)
         for s in ("full", "sampling", "enumerate")] + ["sjfc-j0"])
def test_no_distance_per_packed_copy(run):
    """Every distance table the pipelines take has at most one row per
    support point of the instance, however many sets repeat a point."""
    inst, rows = _n10(), []
    squared = objective._squared_distances

    def spy(points, candidates):
        rows.append(points.shape[0])
        return squared(points, candidates)

    with mock.patch.object(objective, "_squared_distances", spy):
        run(inst)
    assert rows and max(rows) <= inst.n
