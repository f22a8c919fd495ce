from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stocenter.errors import EnumerationGuardExceeded, StateSpaceGuardExceeded
from stocenter.gkm import collection_from_image
from stocenter.grid_coreset import CoresetBuilder, grid_cells
from stocenter.model import (CenterSet, ExistentialInstance,
                             LocationalInstance, realization_chunks)
from stocenter.objective import expected_objective_exact, kcenter_value
from stocenter.oracle import oracle_holant_direct
from stocenter.partition import (build_weighted_image, enumerate_sequences,
                                 holant_value, membership_check,
                                 prob_existential, prob_locational)


def _rand_exist(rng, n, d=2):
    return ExistentialInstance(points=rng.uniform(-10, 10, (n, d)),
                               probs=rng.uniform(0.05, 0.95, n))


def _rand_loc(rng, n, m, d=2):
    rows = rng.uniform(0.1, 1.0, (n, m))
    rows /= rows.sum(axis=1, keepdims=True)
    return LocationalInstance(locations=rng.uniform(-10, 10, (m, d)),
                              probs=rows)


def test_membership_small_sets_are_singletons():
    rng = np.random.default_rng(1)
    inst = _rand_exist(rng, 8)
    assert membership_check((), inst, 2, 0.5).kind == "Singleton"
    assert membership_check((3,), inst, 2, 0.5).kind == "Singleton"
    assert membership_check((0, 5), inst, 2, 0.5).kind == "Singleton"


def test_membership_cellmates_not_in_image():
    # two points in the same tiny cell next to a distant anchor: the
    # construction drops one of them, so the pair is not a fixed point
    pts = np.array([[0.0, 0.0], [100.0, 100.0], [100.0001, 100.0]])
    inst = ExistentialInstance(points=pts, probs=np.full(3, 0.5))
    verdict = membership_check((0, 1, 2), inst, 1, 0.5)
    assert verdict.kind == "NotInImage"


def test_membership_fixed_points_are_full():
    rng = np.random.default_rng(2)
    inst = _rand_exist(rng, 10)
    builder = CoresetBuilder(inst.points, 1, 0.5)
    seen_full = False
    for rows, _ in realization_chunks(inst):
        for row in rows:
            if not row.any():
                continue
            core = builder.build(np.flatnonzero(row)).coreset
            if len(core) > 1:
                assert membership_check(core, inst, 1, 0.5).kind == "Full"
                seen_full = True
    assert seen_full


def test_prob_existential_matches_grouping_oracle():
    rng = np.random.default_rng(3)
    for _ in range(5):
        inst = _rand_exist(rng, int(rng.integers(6, 11)))
        k, eps = 1, 0.5
        brute = dict(build_weighted_image(inst, k, eps,
                                          mode="exhaustive").entries)
        builder = CoresetBuilder(inst.points, k, eps)
        for S, mass in brute.items():
            if not S:
                continue
            algo = prob_existential(S, inst, k, eps, builder)
            assert algo == pytest.approx(mass, abs=1e-12)


def test_prob_existential_not_in_image_is_zero():
    pts = np.array([[0.0, 0.0], [100.0, 100.0], [100.0001, 100.0]])
    inst = ExistentialInstance(points=pts, probs=np.full(3, 0.5))
    assert prob_existential((0, 1, 2), inst, 1, 0.5) == 0.0


def test_forbidden_tail_partition_property():
    rng = np.random.default_rng(4)
    inst = _rand_exist(rng, 12)
    builder = CoresetBuilder(inst.points, 1, 0.5)
    core = builder.build(tuple(range(12))).coreset
    verdict = membership_check(core, inst, 1, 0.5, builder)
    if verdict.kind != "Full":
        pytest.skip("sampled instance produced no Full class")
    # forbidden: the points in unoccupied cells and the smaller-index
    # cellmates of a point of S; everything else outside S is the tail
    cells = [tuple(c) for c in
             grid_cells(inst.points, verdict.grid.side).tolist()]
    rep = {}
    for i in core:
        rep.setdefault(cells[i], i)
    forbidden = {i for i in range(12) if i not in core
                 and i < rep.get(cells[i], 12)}
    assert set(core).isdisjoint(verdict.tail)
    assert forbidden == set(range(12)) - set(core) - set(verdict.tail)


def test_enumerate_sequences():
    seqs = enumerate_sequences(3, 2)
    assert seqs == [(1, 1, 1), (1, 2, 0), (2, 1, 0)]
    assert all(sum(s) == 3 for s in seqs)
    assert enumerate_sequences(4, 0) == [(4,)]


def test_holant_dp_matches_direct_summation():
    rng = np.random.default_rng(6)
    inst = _rand_loc(rng, 4, 3)
    S_ids, tail = (0, 2), {1}
    for seq in enumerate_sequences(inst.n, len(S_ids)):
        dp = holant_value(inst, S_ids, tail, seq)
        direct = oracle_holant_direct(inst, S_ids, tail, seq)
        assert dp == pytest.approx(direct, abs=1e-12)


def test_holant_guard():
    rows = np.full((30, 6), 1 / 6)
    inst = LocationalInstance(locations=np.arange(12.0).reshape(6, 2),
                              probs=rows)
    with pytest.raises(StateSpaceGuardExceeded):
        holant_value(inst, (0, 1, 2, 3, 4), {5}, (1, 1, 1, 1, 1, 25))


def test_prob_locational_matches_grouping_oracle():
    rng = np.random.default_rng(7)
    for _ in range(4):
        inst = _rand_loc(rng, int(rng.integers(2, 5)),
                         int(rng.integers(2, 5)))
        k, eps = 1, 0.5
        brute = dict(build_weighted_image(inst, k, eps,
                                          mode="exhaustive").entries)
        for S, mass in brute.items():
            algo = prob_locational(S, inst, k, eps)
            assert algo == pytest.approx(mass, abs=1e-12)
        for S in [(0,), tuple(range(inst.m))]:
            algo = prob_locational(S, inst, k, eps)
            assert algo == pytest.approx(brute.get(S, 0.0), abs=1e-12)


def _exact_class_masses(inst, k, eps):
    """Pr[coreset = S] of every class S, in exact rationals: the exact
    probability of every node -> location assignment, added up by the class
    the construction gives its set of locations."""
    builder = CoresetBuilder(inst.locations, k, eps)
    classes, out = {}, {}
    for assignment in product(range(inst.m), repeat=inst.n):
        pr = Fraction(1)
        for node, loc in enumerate(assignment):
            pr *= Fraction(float(inst.probs[node, loc]))
        locs = tuple(sorted(set(assignment)))
        if locs not in classes:
            classes[locs] = builder.build(locs).coreset
        out[classes[locs]] = out.get(classes[locs], 0) + pr
    return out


def _sparse_loc(rng, n, m):
    """Rows with zero entries, each keeping at least one positive one."""
    rows = rng.uniform(0.0, 1.0, (n, m)) * (rng.random((n, m)) < 0.6)
    rows[np.arange(n), rng.integers(0, m, n)] += 0.05
    rows /= rows.sum(axis=1, keepdims=True)
    return LocationalInstance(locations=rng.uniform(-10, 10, (m, 2)),
                              probs=rows)


def test_class_masses_match_exact_rationals():
    # every candidate S, in the image or not, through the subsets image and
    # prob_locational; an inclusion-exclusion sum over subsets of S for a
    # class of at most k points cancelled on the first instance (relative
    # error 2.2e-5)
    rng = np.random.default_rng(21)
    row = [0.0, 1.0 - 1e-12, 1e-12]
    cases = [(LocationalInstance(locations=[[0.0, 0.0], [1.0, 0.0],
                                            [0.0, 1.0]], probs=[row] * 4), 2)]
    # location 1 shares the cell of location 0, so it is in the tail of
    # every class that holds 0
    tailed = _sparse_loc(rng, 4, 4)
    cases += [(LocationalInstance(locations=[[0.0, 0.0], [0.01, 0.0],
                                             [10.0, 0.0], [10.0, 10.0]],
                                  probs=tailed.probs), k) for k in (1, 2)]
    cases += [(_sparse_loc(rng, int(rng.integers(2, 5)),
                           int(rng.integers(3, 5))), int(rng.integers(1, 4)))
              for _ in range(12)]
    for inst, k in cases:
        exact = _exact_class_masses(inst, k, 0.5)
        image = dict(build_weighted_image(inst, k, 0.5,
                                          mode="subsets").entries)
        assert set(image) == {S for S, w in exact.items() if w}
        for size in range(1, inst.m + 1):
            for S in combinations(range(inst.m), size):
                want = exact.get(S, Fraction(0))
                for got in (prob_locational(S, inst, k, 0.5),
                            image.get(S, 0.0)):
                    assert abs(Fraction(got) - want) <= want * 1e-12, \
                        (S, got, float(want))


def test_locational_subsets_image_past_the_count_guard():
    # counting occupancies up to n took 6 * 7^8 = 3.5e7 DP states for the
    # eight-point classes here, over the 1e7 guard; a class mass needs only
    # which points of S are occupied
    inst = _rand_loc(np.random.default_rng(10), 6, 8)
    su = dict(build_weighted_image(inst, 2, 0.5, mode="subsets").entries)
    ex = dict(build_weighted_image(inst, 2, 0.5, mode="exhaustive").entries)
    assert set(su) == set(ex) and len(su) > 200
    assert max(abs(su[S] - ex[S]) for S in su) <= 1e-12


@pytest.mark.parametrize("model,k", [("existential", 1), ("existential", 2),
                                     ("locational", 1)])
def test_image_modes_agree_and_sum_to_one(model, k):
    # exhaustive mode is the reference the subsets mode is checked against
    rng = np.random.default_rng(8)
    inst = _rand_exist(rng, 9) if model == "existential" \
        else _rand_loc(rng, 4, 4)
    ex = build_weighted_image(inst, k, 0.5, mode="exhaustive")
    su = build_weighted_image(inst, k, 0.5, mode="subsets")
    assert ex.total_weight == pytest.approx(1.0, abs=1e-9)
    assert su.total_weight == pytest.approx(1.0, abs=1e-9)
    dex, dsu = dict(ex.entries), dict(su.entries)
    for S in set(dex) | set(dsu):
        assert dex.get(S, 0.0) == pytest.approx(dsu.get(S, 0.0), abs=1e-12)


def test_subset_guard_counts_candidates():
    # every subset of 21 points is a candidate: 2^21 of them
    inst = _rand_exist(np.random.default_rng(11), 21)
    with pytest.raises(EnumerationGuardExceeded, match="2097152"):
        build_weighted_image(inst, 1, 0.5, mode="subsets")


def test_locational_candidates_stop_at_n_points():
    # 2^24 candidates over 24 locations, but 3 nodes fill at most 3 of them:
    # 2324 candidates of 1..3 points
    inst = _rand_loc(np.random.default_rng(12), 3, 24)
    su = dict(build_weighted_image(inst, 1, 0.5, mode="subsets").entries)
    ex = dict(build_weighted_image(inst, 1, 0.5, mode="exhaustive").entries)
    assert set(su) == set(ex) and max(map(len, su)) == 3
    assert max(abs(su[S] - ex[S]) for S in su) <= 1e-12


def test_classes_of_more_than_n_points_have_no_mass():
    rng = np.random.default_rng(13)
    for inst in (_rand_loc(rng, 2, 5), _sparse_loc(rng, 3, 5)):
        for size in range(inst.n + 1, inst.m + 1):
            for S in combinations(range(inst.m), size):
                assert prob_locational(S, inst, 1, 0.5) == 0.0
                assert prob_locational(S, inst, 2, 0.5) == 0.0


@st.composite
def small_instances(draw):
    """Existential instances of up to 7 points, or locational ones of up to
    3 nodes over up to 5 locations (often more locations than nodes), on
    integer or free coordinates, with some zero probabilities."""
    coord = st.one_of(st.integers(-3, 3).map(float),
                      st.floats(-8, 8, allow_nan=False))
    existential = draw(st.booleans())
    m = draw(st.integers(1, 7 if existential else 5))
    pts = np.array(draw(st.lists(st.tuples(coord, coord), min_size=m,
                                 max_size=m)))
    if existential:
        probs = draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0]),
                                        st.floats(0.0, 1.0)),
                              min_size=m, max_size=m))
        return ExistentialInstance(points=pts, probs=np.array(probs))
    rows = [np.array(draw(st.lists(st.integers(0, 3), min_size=m,
                                   max_size=m).filter(any)), dtype=float)
            for _ in range(draw(st.integers(1, 3)))]
    return LocationalInstance(locations=pts,
                              probs=np.array([r / r.sum() for r in rows]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_instances(), st.integers(1, 2),
       st.sampled_from([0.3, 0.5, 0.9]))
def test_image_weights_sum_to_one(inst, k, eps):
    su = build_weighted_image(inst, k, eps, mode="subsets")
    ex = build_weighted_image(inst, k, eps, mode="exhaustive")
    assert abs(su.total_weight - 1.0) <= 1e-12
    assert {S for S, _ in su.entries} == {S for S, _ in ex.entries}


@pytest.mark.parametrize("model", ["existential", "locational"])
@pytest.mark.parametrize("mode", ["exhaustive", "subsets"])
@pytest.mark.parametrize("k", [1, 2])
def test_empty_instance_is_one_empty_class(model, mode, k):
    # no points, or no nodes: the one realization is empty
    inst = ExistentialInstance(points=np.zeros((0, 2)), probs=np.zeros(0)) \
        if model == "existential" else \
        LocationalInstance(locations=np.zeros((3, 2)), probs=np.zeros((0, 3)))
    assert build_weighted_image(inst, k, 0.5, mode=mode).entries == \
        (((), 1.0),)


def test_deterministic_instance_single_class():
    inst = ExistentialInstance(points=[[0.0, 0.0], [9.0, 2.0], [1.0, 7.0]],
                               probs=np.ones(3))
    image = build_weighted_image(inst, 1, 0.5)
    assert len(image.entries) == 1
    assert image.entries[0][1] == pytest.approx(1.0)


def test_image_cost_sandwich():
    rng = np.random.default_rng(9)
    inst = _rand_exist(rng, 10)
    eps = 0.5
    image = build_weighted_image(inst, 1, eps, mode="subsets")
    for _ in range(200):
        F = CenterSet(centers=rng.uniform(-12, 12, (1, 2)))
        approx = collection_from_image(image, inst).cost(F)
        exact = expected_objective_exact(inst, F).value
        assert (1 - eps) * exact - 1e-9 <= approx <= (1 + eps) * exact + 1e-9


def test_image_cost_definition():
    inst = ExistentialInstance(points=[[0.0], [4.0]], probs=[0.5, 0.5])
    image = build_weighted_image(inst, 1, 0.5)
    F = CenterSet(centers=[[0.0]])
    manual = sum(w * kcenter_value(inst.points[list(ids)], F)
                 for ids, w in image.entries if ids)
    assert collection_from_image(image, inst).cost(F) == \
        pytest.approx(manual)
