"""The batched grid construction against the per-realization loops it
replaced.

The loops below are the reference: they are the library's former
``CoresetBuilder.build`` (with its ``_collect_cells`` and the ``math.floor``
cell of every point), the former single-set membership and probability
helpers (the locational one with a plain loop over the 2^|S|
occupied-subset states in the library's summation order, which tries
candidates of every size), frozen copies of the one-row mass
calls that ``class_mass`` replaced, and the former loops of both
``build_weighted_image`` modes and of the realization enumeration (bit
masks, and ``itertools.product`` over node -> location assignments).  The
batched versions must agree with them exactly (``==``), not within a
tolerance, also with the chunk constant patched small so that every batch
spans many chunks.
"""

import math
import tracemalloc
from itertools import combinations, compress, islice, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stocenter import grid_coreset, model, partition
from stocenter.errors import CombinationGuardExceeded, SchemaError
from stocenter.cli import _coreset_cells
from stocenter.grid_coreset import (SENTINEL_GRID, CoresetBuilder, _exponent,
                                    grid_cells)
from stocenter.model import (ExistentialInstance, LocationalInstance,
                             assignment_rows, id_mask, mask_rows,
                             realization_chunks, realization_probabilities)
from stocenter.partition import build_weighted_image, class_mass

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True,
                    database=None)

# ---------------------------------------------------------------------------
# Former loops (the reference)


def ref_cell(x, side):
    return tuple(int(math.floor(c / side)) for c in x)


def ref_exponent(r):
    frac, e = math.frexp(r)
    a = e - 1
    upper = math.ldexp(1.0, a + 1)
    if abs(r - upper) <= 1e-12 * upper:
        a += 1
    return a


class RefBuilder:
    """The former CoresetBuilder: one realization at a time."""

    def __init__(self, support, k, eps):
        support = np.atleast_2d(np.asarray(support, dtype=float))
        n = support.shape[0]
        self.support, self.eps, self.d = support, eps, support.shape[1]
        diff = support[:, None, :] - support[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=2))
        combos = list(combinations(range(n), k))
        self.combo_min = np.stack([dist[:, list(c)].min(axis=1)
                                   for c in combos]) \
            if combos else np.zeros((0, n))

    def r_of(self, ids):
        if self.combo_min.shape[0] == 0:
            return 0.0
        return float(self.combo_min[:, list(ids)].max(axis=1).min())

    def build(self, ids):
        """(coreset, side, a, stage, cells) of a nonempty realization."""
        ids = tuple(sorted(ids))
        r_P = self.r_of(ids)
        if r_P == 0.0:
            return ids, 0.0, 0, 0, {}
        a = ref_exponent(r_P)
        two_a = math.ldexp(1.0, a)

        def stage(side, stage_no):
            cells = {}
            for pid in ids:
                c = ref_cell(self.support[pid], side)
                if c not in cells or pid < cells[c]:
                    cells[c] = pid
            return tuple(sorted(cells.values())), side, a, stage_no, cells

        out1 = stage(self.eps * two_a / (4 * self.d), 1)
        if self.r_of(out1[0]) >= two_a:
            return out1
        return stage(self.eps * two_a / (8 * self.d), 2)


def ref_verdict(builder, S, k):
    """(kind, side, cells) of candidate S."""
    if len(S) <= k:
        return "Singleton", None, None
    core, side, _, _, cells = builder.build(S)
    if core != S:
        return "NotInImage", None, None
    return "Full", side, cells


def ref_tail(support, S, side, cells):
    """(forbidden, tail) of the points outside a coreset S with grid side
    ``side`` and cells ``cells``: the tail holds each point whose cell holds
    a smaller-index point of S.  The former loop divided by the zero side
    of the r_S = 0 sentinel and raised; such an S is reached only from S
    itself, so everything outside S is forbidden."""
    forbidden, tail = set(), set()
    for i in range(support.shape[0]):
        if i in S:
            continue
        c = ref_cell(support[i], side) if side else None
        if c in cells and i > cells[c]:
            tail.add(i)
        else:
            forbidden.add(i)
    return forbidden, tail


def ref_prob_existential(builder, inst, S, k):
    kind, side, cells = ref_verdict(builder, S, k)
    if kind == "NotInImage":
        return 0.0
    p = inst.probs
    if kind == "Singleton":
        inside = np.zeros(inst.n, dtype=bool)
        inside[list(S)] = True
        return float(np.prod(np.where(inside, p, 1.0 - p)))
    result = 1.0
    for i in range(inst.n):
        c = ref_cell(inst.points[i], side) if side else None
        if c in cells:
            rep = cells[c]
            if i < rep:
                result *= 1.0 - p[i]
            elif i == rep:
                result *= p[i]
        elif i in S:  # the sentinel, see ref_tail
            result *= p[i]
        else:
            result *= 1.0 - p[i]
    return float(result)


def ref_occupied(inst, S, tail):
    """The occupancy DP with counts saturating at 1, as a plain loop over
    the 2^|S| states: the mass of each set of occupied points of S (bit j
    for the j-th point of S), each node at a point of S or in the tail
    bucket (forbidden points carry no mass).  The order is the library's:
    node by node, the tail, then bits j = 0..|S|-1 over the states in
    ascending order; the tail weight adds the tail columns left to right
    from 0."""
    p = inst.probs.tolist()
    dp = [1.0] + [0.0] * (2 ** len(S) - 1)
    for i in range(inst.n):
        t = 0.0
        for c in sorted(tail):
            t += p[i][c]
        nxt = [mass * t for mass in dp]
        for j, loc in enumerate(S):
            for state, mass in enumerate(dp):
                nxt[state | 1 << j] += mass * p[i][loc]
        dp = nxt
    return dp


def ref_prob_locational(builder, inst, S, k):
    kind, side, cells = ref_verdict(builder, S, k)
    if kind == "NotInImage":
        return 0.0
    tail = () if kind == "Singleton" else \
        ref_tail(inst.locations, S, side, cells)[1]
    # test_partition checks these masses against exact rationals
    return ref_occupied(inst, S, tail)[-1]


def ref_mask_probs(probs):
    out = np.ones(1)
    for p in probs:
        out = np.concatenate([out * (1.0 - p), out * p])
    return out


def ref_realizations(inst, with_zero=False):
    """(ids, probability) of every realization, existential, or
    (assignment, probability), locational; zero-probability ones only
    when with_zero is set."""
    out = []
    if isinstance(inst, ExistentialInstance):
        mask_probs = ref_mask_probs(inst.probs)
        for mask in range(2 ** inst.n):
            pr = float(mask_probs[mask])
            if pr == 0.0 and not with_zero:
                continue
            out.append((tuple(i for i in range(inst.n) if (mask >> i) & 1),
                        pr))
        return out
    for assignment in product(range(inst.m), repeat=inst.n):
        pr = 1.0
        for node, loc in enumerate(assignment):
            pr *= inst.probs[node, loc]
        if pr == 0.0 and not with_zero:
            continue
        out.append((assignment, float(pr)))
    return out


def ref_exhaustive(inst, k, eps):
    builder = RefBuilder(inst.support_points, k, eps)
    groups = {}
    for real, pr in ref_realizations(inst):
        ids = tuple(sorted(set(real)))
        core = builder.build(ids)[0] if ids else ()
        groups[core] = groups.get(core, 0.0) + pr
    return tuple(sorted(groups.items()))


def ref_subsets(inst, k, eps):
    builder = RefBuilder(inst.support_points, k, eps)
    n = inst.support_points.shape[0]
    existential = isinstance(inst, ExistentialInstance)
    prob = ref_prob_existential if existential else ref_prob_locational
    entries = []
    for size in range(0 if existential else 1, n + 1):
        for S in combinations(range(n), size):
            w = prob(builder, inst, S, k)
            if w > 0.0:
                entries.append((S, w))
    return tuple(sorted(entries))


# ---------------------------------------------------------------------------
# Strategies: duplicated points, integer and quarter grids (points exactly on
# cell boundaries), negative coordinates, k above n, d in {1, 2, 3}.

coord = st.one_of(st.integers(-4, 4).map(float),
                  st.integers(-16, 16).map(lambda v: v / 4),
                  st.floats(-8, 8, allow_nan=False, allow_subnormal=False))
k_values = st.integers(1, 4)
eps_values = st.one_of(st.sampled_from([0.25, 0.5, 0.9]),
                       st.floats(0.05, 0.95))
# 1 puts every row in its own chunk; 2 ** 17 is the shipped constant
chunks = st.sampled_from([1, 2, 5, 16, 2 ** 17])
prob = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def supports(draw, max_n=7):
    d = draw(st.integers(1, 3))
    pool = draw(st.lists(st.tuples(*[coord] * d), min_size=1,
                         max_size=max_n))
    n = draw(st.integers(1, max_n))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n,
                          max_size=n))
    return np.array([pool[i] for i in picks], dtype=float)


@st.composite
def existential_instances(draw):
    pts = draw(supports())
    probs = draw(st.lists(prob, min_size=len(pts), max_size=len(pts)))
    return ExistentialInstance(points=pts, probs=np.array(probs))


@st.composite
def locational_instances(draw):
    locs = draw(supports(max_n=4))
    n = draw(st.integers(1, 3))
    rows = []
    for _ in range(n):
        w = draw(st.lists(st.integers(0, 3), min_size=len(locs),
                          max_size=len(locs)).filter(any))
        rows.append(np.array(w, dtype=float) / sum(w))
    return LocationalInstance(locations=locs, probs=np.array(rows))


# Stage 2 is rare on random inputs.  Here r_P = 1.02 (center 1.0, not in the
# realization {0, 1, 2}); stage 1 keeps 1.9 over 2.02, whose r is 0.95 < 1.
STAGE2 = np.array([[0.05], [1.9], [2.02], [1.0]])
# Here r_P lies 1e-13 below 2, so the exponent snaps to 1 and r_E < 2^a.
SNAPPED = np.array([[0.0], [2.0 - 2e-13], [7.0]])


# Four coincident locations: the classes {0, 4} and {0, 5} have the tail
# {1, 2, 3}, and their masses move when the tail weights add its columns
# right to left.
TAIL3_ROWS = np.array([[17, 13, 10, 6, 6, 1], [2, 1, 4, 16, 13, 18],
                       [10, 12, 19, 14, 13, 11]])
TAIL3 = LocationalInstance(
    locations=[[0.0, 0.0]] * 4 + [[5.0, 0.0], [0.0, 5.0]],
    probs=TAIL3_ROWS / TAIL3_ROWS.sum(axis=1, keepdims=True))


def chunked(value):
    return mock.patch.object(grid_coreset, "CHUNK_ELEMENTS", value)


def enumeration_chunked(value):
    return mock.patch.object(model, "CHUNK_ELEMENTS", value)


# ---------------------------------------------------------------------------
# The construction


@SETTINGS
@given(supports(), k_values, eps_values, chunks)
@example(STAGE2, 1, 0.9, 1)
@example(SNAPPED, 1, 0.5, 2)
def test_batched_construction_equals_former_loop(support, k, eps, chunk):
    n = support.shape[0]
    masks = mask_rows(n)
    with chunked(chunk):
        builder = CoresetBuilder(support, k, eps)
        batch = builder.build_masks(masks)
        singles = [builder.build(tuple(compress(range(n), row)))
                   for row in masks[1:].tolist()]
    ref = RefBuilder(support, k, eps)
    assert np.array_equal(builder.combo_min, ref.combo_min.T)
    assert not batch.core[0].any() and batch.stage[0] == 0
    for row, out in zip(range(1, 2 ** n), singles):
        ids = tuple(compress(range(n), masks[row]))
        core, side, _, stage, cells = ref.build(ids)
        assert out.coreset == core
        # the cells stocenter grid-coreset prints
        assert _coreset_cells(support, out) == [
            {"index": list(c), "representative": rep}
            for c, rep in sorted(cells.items())]
        # side and stage fix the exponent a: side = eps 2^a / (4d) or /(8d)
        assert (batch.side[row], batch.stage[row]) == (side, stage)
        assert (out.grid.side, out.grid.stage) == (side, stage)
        # the batch row holds the one-row call's coreset and tail
        assert tuple(np.flatnonzero(batch.core[row]).tolist()) == out.coreset
        assert tuple(np.flatnonzero(batch.tail[row]).tolist()) == out.tail
        assert builder.r_of(ids) == ref.r_of(ids)


@SETTINGS
@given(st.one_of(existential_instances(), locational_instances()),
       st.integers(1, 2), eps_values, chunks)
@example(ExistentialInstance(points=STAGE2, probs=np.full(4, 0.3)), 1, 0.9, 3)
def test_batch_tail_equals_former_loop(inst, k, eps, chunk):
    # every row of the support, whether or not it is its own coreset: the
    # tail is the points outside the row's coreset whose cell holds a
    # smaller-index coreset point
    support = inst.support_points
    n = support.shape[0]
    masks = mask_rows(n)
    with chunked(chunk):
        batch = CoresetBuilder(support, k, eps).build_masks(masks)
    ref = RefBuilder(support, k, eps)
    assert not batch.tail[0].any()
    for row in range(1, 2 ** n):
        core, side, _, _, cells = ref.build(tuple(compress(range(n),
                                                          masks[row])))
        assert set(np.flatnonzero(batch.tail[row]).tolist()) == \
            ref_tail(support, core, side, cells)[1]


def test_constructed_inputs_reach_stage_2():
    out = CoresetBuilder(STAGE2, 1, 0.9).build((0, 1, 2))
    assert out.grid.stage == 2 and out.coreset == (0, 1, 2)
    out = CoresetBuilder(SNAPPED, 1, 0.5).build((0, 1))
    # exponent 1 at stage 2: side 0.5 * 2^1 / 8 (exponent 0 gives 0.0625)
    assert out.grid.stage == 2 and out.grid.side == 0.125


# ---------------------------------------------------------------------------
# The weighted image and the single-set helpers


@SETTINGS
@given(existential_instances(), k_values, eps_values, chunks)
@example(ExistentialInstance(points=STAGE2, probs=np.full(4, 0.3)), 1, 0.9, 3)
def test_existential_image_equals_former_loops(inst, k, eps, chunk):
    with chunked(chunk):
        exhaustive = build_weighted_image(inst, k, eps, mode="exhaustive")
        subsets = build_weighted_image(inst, k, eps, mode="subsets")
    assert exhaustive.entries == ref_exhaustive(inst, k, eps)
    assert subsets.entries == ref_subsets(inst, k, eps)


@SETTINGS
@given(locational_instances(), k_values, eps_values, chunks)
@example(TAIL3, 1, 0.5, 2 ** 17)
def test_locational_image_equals_former_loops(inst, k, eps, chunk):
    with chunked(chunk):
        exhaustive = build_weighted_image(inst, k, eps, mode="exhaustive")
        subsets = build_weighted_image(inst, k, eps, mode="subsets")
    assert exhaustive.entries == ref_exhaustive(inst, k, eps)
    assert subsets.entries == ref_subsets(inst, k, eps)


@SETTINGS
@given(st.one_of(existential_instances(), locational_instances()), k_values,
       eps_values)
def test_single_set_helpers_equal_former_loops(inst, k, eps):
    support = inst.support_points
    prob = ref_prob_existential if isinstance(inst, ExistentialInstance) \
        else ref_prob_locational
    builder = CoresetBuilder(support, k, eps)
    ref = RefBuilder(support, k, eps)
    for row in mask_rows(support.shape[0]).tolist():
        S = tuple(compress(range(len(row)), row))
        kind, side, cells = ref_verdict(ref, S, k)
        assert class_mass(S, inst, k, eps) == prob(ref, inst, S, k)
        if not S:
            continue
        out = builder.build(S)
        assert (out.coreset == S) == (kind != "NotInImage")
        if kind == "Full":
            assert out.grid.side == side
            assert out.tail == \
                tuple(sorted(ref_tail(support, S, side, cells)[1]))
        elif kind == "Singleton":
            assert out.tail == ()


def parent_prob_existential(S_ids, instance, k, eps):
    """The former ``prob_existential``, frozen: the closed-form product over
    the one-row batch of the construction."""
    builder = CoresetBuilder(instance.support_points, k, eps)
    masks = id_mask(S_ids, instance.n)[None]
    batch = builder.build_masks(masks)
    w = np.zeros(1)
    rows = np.flatnonzero((batch.core == masks).all(axis=1))
    factors = np.where(masks[rows], instance.probs,
                       np.where(batch.tail[rows], 1.0, 1.0 - instance.probs))
    w[rows] = np.multiply.accumulate(factors, axis=1)[:, -1] \
        if masks.shape[1] else 1.0
    return float(w[0])


def parent_prob_locational(S_ids, instance, k, eps):
    """The former ``prob_locational``, frozen: its three-kind verdict and
    the occupancy DP with counts saturating at 1 (``ref_occupied``)."""
    S = tuple(np.flatnonzero(id_mask(S_ids, instance.m)).tolist())
    if len(S) > instance.n:
        return 0.0
    tail = ()
    if len(S) > k:
        out = CoresetBuilder(instance.locations, k, eps).build(S)
        if out.coreset != S:
            return 0.0
        tail = out.tail
    return ref_occupied(instance, S, tail)[-1]


# Coincident points: {0, 1, 2} has r_S = 0 at k=2, a class of more than k
# points under the sentinel grid; 3 nodes can fill it.
DUPLICATES = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [5.0, 0.0]])


@SETTINGS
@given(st.one_of(existential_instances(), locational_instances()), k_values,
       eps_values)
@example(ExistentialInstance(points=DUPLICATES, probs=np.full(4, 0.5)), 2,
         0.5)
@example(LocationalInstance(locations=DUPLICATES,
                           probs=[[0.5, 0.5, 0.0, 0.0], [0.25] * 4,
                                  [0.0, 0.2, 0.3, 0.5]]), 2, 0.5)
def test_class_mass_equals_the_former_one_row_calls(inst, k, eps):
    # every subset of the support: the empty set, sets outside the image,
    # and locational sets of more than n points
    parent = parent_prob_existential if isinstance(inst, ExistentialInstance) \
        else parent_prob_locational
    for row in mask_rows(inst.support_points.shape[0]).tolist():
        S = tuple(compress(range(len(row)), row))
        assert class_mass(S, inst, k, eps).hex() == \
            parent(S, inst, k, eps).hex(), S


@st.composite
def float_locational_instances(draw):
    """Up to 4 nodes over up to 6 locations, with free-float rows (some
    zeros): many classes of each size share a DP batch."""
    locs = draw(supports(max_n=6))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        w = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                          min_size=len(locs), max_size=len(locs)).filter(any))
        rows.append(np.array(w) / sum(w))
    return LocationalInstance(locations=locs, probs=np.array(rows))


@SETTINGS
@given(float_locational_instances(), st.integers(1, 3), eps_values, chunks)
@example(TAIL3, 1, 0.5, 1)
def test_locational_mass_bits_do_not_depend_on_the_batch(inst, k, eps,
                                                         chunk):
    # chunk 1 puts every class in a batch of its own, for the construction
    # and for the subset-state DP alike
    want = build_weighted_image(inst, k, eps, mode="subsets").entries
    with chunked(chunk), mock.patch.object(partition, "CHUNK_ELEMENTS",
                                           chunk):
        got = build_weighted_image(inst, k, eps, mode="subsets").entries
    assert [(S, w.hex()) for S, w in got] == \
        [(S, w.hex()) for S, w in want]
    for S, w in want:
        assert class_mass(S, inst, k, eps).hex() == w.hex(), S


def seeded_locational(rng, kind):
    """m = 5..7 locations and n = 2..5 nodes: uniform rows, sparse rows
    (zero entries), or sparse rows over integer-grid locations (tied
    distances, duplicate points)."""
    m, n = int(rng.integers(5, 8)), int(rng.integers(2, 6))
    locs = rng.integers(-3, 4, (m, 2)).astype(float) if kind == "ties" \
        else rng.uniform(-10, 10, (m, 2))
    rows = rng.uniform(0.0, 1.0, (n, m))
    if kind != "random":
        rows *= rng.random((n, m)) < 0.6
        rows[np.arange(n), rng.integers(0, m, n)] += 0.05
    rows /= rows.sum(axis=1, keepdims=True)
    return LocationalInstance(locations=locs, probs=rows)


@pytest.mark.parametrize("kind", ["random", "sparse", "ties"])
def test_locational_masses_equal_the_unpruned_dp(kind):
    # m > n: every candidate of more than n points has mass 0, and the
    # library runs no DP for it
    rng = np.random.default_rng(["random", "sparse", "ties"].index(kind))
    for _ in range(4):
        inst = seeded_locational(rng, kind)
        k, eps = int(rng.integers(1, 3)), float(rng.choice([0.3, 0.5, 0.9]))
        ref = RefBuilder(inst.locations, k, eps)
        want = []
        for row in mask_rows(inst.m)[1:].tolist():
            S = tuple(compress(range(inst.m), row))
            w = ref_prob_locational(ref, inst, S, k)
            assert class_mass(S, inst, k, eps) == w, S
            if w > 0.0:
                want.append((S, w))
        assert build_weighted_image(inst, k, eps, mode="subsets").entries \
            == tuple(sorted(want))


def test_duplicate_points_have_full_classes_without_a_grid():
    # two coincident points and k=2: r_S = 0 for S = {0, 1, 2}, a Full class
    # under the sentinel grid (subsets mode raised here before)
    inst = ExistentialInstance(points=[[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]],
                               probs=[0.5, 0.5, 0.5])
    out = CoresetBuilder(inst.points, 2, 0.5).build((0, 1, 2))
    assert (out.coreset, out.grid) == ((0, 1, 2), SENTINEL_GRID)
    assert build_weighted_image(inst, 2, 0.5, mode="subsets").entries == \
        build_weighted_image(inst, 2, 0.5, mode="exhaustive").entries


# ---------------------------------------------------------------------------
# The realization enumeration


@SETTINGS
@given(st.integers(0, 9), st.data())
def test_mask_rows_by_range_match_the_bits(n, data):
    lo = data.draw(st.integers(0, 2 ** n))
    hi = data.draw(st.integers(lo, 2 ** n))
    rows = mask_rows(n, lo, hi)
    assert rows.shape == (hi - lo, n)
    assert rows.tolist() == [[bool((r >> i) & 1) for i in range(n)]
                             for r in range(lo, hi)]


@SETTINGS
@given(st.integers(0, 5), st.integers(1, 4), st.data())
def test_assignment_rows_by_range_match_itertools_product(n, m, data):
    lo = data.draw(st.integers(0, m ** n))
    hi = data.draw(st.integers(lo, m ** n))
    rows = assignment_rows(n, m, lo, hi)
    assert rows.shape == (hi - lo, n)
    assert rows.tolist() == \
        [list(a) for a in islice(product(range(m), repeat=n), lo, hi)]
    assert assignment_rows(n, m).tolist() == \
        [list(a) for a in product(range(m), repeat=n)]


def all_rows(inst):
    """Every realization row, zero-probability ones included."""
    if isinstance(inst, ExistentialInstance):
        return mask_rows(inst.n)
    return assignment_rows(inst.n, inst.m)


def enumerated(inst, rows=None):
    """(ids, probability) of every mask ``realization_chunks`` yields: the
    points present, or the locations the nodes took."""
    return [(tuple(compress(range(len(row)), row)), pr)
            for block, probs in realization_chunks(inst, rows)
            for row, pr in zip(block.tolist(), probs.tolist())]


@SETTINGS
@given(st.one_of(st.lists(prob, min_size=1, max_size=8).map(
    lambda p: ExistentialInstance(points=np.zeros((len(p), 1)), probs=p)),
    locational_instances()), chunks, st.sampled_from([None, 1, 3]))
def test_enumeration_equals_former_loops(inst, chunk, rows):
    assert realization_probabilities(inst, all_rows(inst)).tolist() == \
        [pr for _, pr in ref_realizations(inst, with_zero=True)]
    with enumeration_chunked(chunk):
        got = enumerated(inst, rows)
    # a locational assignment realizes the set of locations it names
    assert got == [(tuple(sorted(set(real))), pr)
                   for real, pr in ref_realizations(inst)]


@SETTINGS
@given(st.one_of(existential_instances(), locational_instances()))
def test_one_row_probability_is_the_enumerated_probability(inst):
    # every row on its own, zero-probability ones included, against the
    # batch and against the enumeration, which drops the zeros
    rows = all_rows(inst)
    one = [realization_probabilities(inst, row[None])[0] for row in rows]
    assert one == realization_probabilities(inst, rows).tolist()
    masks = rows if isinstance(inst, ExistentialInstance) \
        else model._index_masks(rows, inst.m)
    kept = [(row, pr) for row, pr in zip(masks.tolist(), one) if pr != 0.0]
    assert kept == [(row, pr) for block, probs in realization_chunks(inst)
                    for row, pr in zip(block.tolist(), probs.tolist())]


@SETTINGS
@given(st.lists(prob, min_size=51, max_size=90), st.data())
def test_realization_probabilities_of_many_factors_is_sequential(probs, data):
    present = data.draw(st.lists(st.booleans(), min_size=len(probs),
                                 max_size=len(probs)))
    pr = 1.0
    for p, here in zip(probs, present):
        pr *= p if here else 1.0 - p
    inst = ExistentialInstance(points=np.zeros((len(probs), 1)), probs=probs)
    assert realization_probabilities(inst, np.array([present]))[0] == pr


# ---------------------------------------------------------------------------
# Metamorphic relations


@SETTINGS
@given(st.integers(-60, 60),
       st.floats(-0.999e-12, 0.999e-12, allow_nan=False),
       st.integers(-20, 20))
def test_exponent_is_stable_near_powers_of_two(e, rel, shift):
    r = math.ldexp(1.0 + rel, e)
    assert _exponent(r) == ref_exponent(r) == e
    # scaling by a power of two shifts the exponent and nothing else
    assert _exponent(math.ldexp(1.0 + rel, e + shift)) == e + shift
    assert _exponent(math.ldexp(1.0 - 2e-12, e)) == e - 1
    assert _exponent(math.ldexp(1.0 + 2e-12, e)) == e
    rs = [r, math.ldexp(1.0 - 2e-12, e), math.ldexp(1.0 + 2e-12, e)]
    assert _exponent(np.array(rs)).tolist() == [ref_exponent(x) for x in rs]


@SETTINGS
@given(st.one_of(st.integers(-30, 30).map(lambda j: math.ldexp(1.0, j)),
                 st.floats(1e-3, 1e3)),
       st.lists(st.integers(-50, 50), min_size=1, max_size=6))
def test_cell_of_and_batched_cells_agree_on_boundaries(side, ms):
    xs = []
    for m in ms:
        x = m * side
        xs += [x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)]
    xs.append(-0.0)
    batched = grid_cells(np.array(xs)[:, None], side)

    def cell_of(x):
        """The cell of one point alone, as ints."""
        return tuple(map(int, grid_cells(np.array([x]), side).tolist()))

    for x, cell in zip(xs, batched.tolist()):
        assert cell_of(x) == (int(cell[0]),) == ref_cell([x], side)
    assert cell_of(-0.0) == (0,)
    if math.frexp(side)[0] == 0.5:  # side a power of two: m * side is exact
        for m in filter(None, ms):  # below 0 the ulp underflows to -0.0
            x = m * side
            assert cell_of(x) == (m,)
            assert cell_of(np.nextafter(x, -np.inf)) == (m - 1,)
            assert cell_of(np.nextafter(x, np.inf)) == (m,)


# ---------------------------------------------------------------------------
# Ids, guard and memory


@pytest.mark.parametrize("bad", [[0.7, 2.9], [0, 1.5], [float("nan")],
                                 [float("inf")], [True], ["1"], [None], 3,
                                 "01"])
def test_non_integral_ids_raise_schema_error(bad):
    inst = ExistentialInstance(points=np.arange(10.0).reshape(5, 2),
                               probs=np.full(5, 0.5))
    loc = LocationalInstance(locations=np.arange(10.0).reshape(5, 2),
                             probs=np.full((2, 5), 0.2))
    builder = CoresetBuilder(inst.points, 1, 0.5)
    calls = [lambda: builder.build(bad), lambda: builder.r_of(bad),
             lambda: class_mass(bad, inst, 1, 0.5),
             lambda: class_mass(bad, loc, 1, 0.5)]
    for call in calls:
        with pytest.raises(SchemaError):
            call()


def test_integral_ids_of_any_numeric_type_are_accepted():
    support = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [9.0, 1.0]])
    builder = CoresetBuilder(support, 1, 0.5)
    ref = builder.build([0, 1, 3])
    for ids in ([0.0, 1.0, 3.0], [np.int64(3), np.float64(1.0), 0],
                (3, 1, 0, 1)):
        assert builder.build(ids) == ref


def test_guard_counts_table_entries_before_allocating():
    support = np.zeros((1414, 2))  # C(1414, 2) = 998,991 <= the old cap
    tracemalloc.start()
    try:
        with pytest.raises(CombinationGuardExceeded):
            CoresetBuilder(support, 2, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_exhaustive_image_memory_is_bounded_by_the_chunk():
    # An always-present anchor and two stacks of coincident points: 2^n
    # realizations but only (a + 1)(b + 1) classes, so the output stays
    # small while the rows grow 16-fold from n = 12 to n = 16.
    def peak(n):
        a = (n - 1) // 2
        pts = np.array([[0.0, 0.0]] + [[10.0, 0.0]] * a
                       + [[0.0, 10.0]] * (n - 1 - a))
        inst = ExistentialInstance(points=pts,
                                   probs=np.r_[1.0, np.full(n - 1, 0.5)])
        with chunked(2 ** 10):
            tracemalloc.start()
            try:
                image = build_weighted_image(inst, 1, 0.5)
                return tracemalloc.get_traced_memory()[1], image
            finally:
                tracemalloc.stop()

    peak(12)  # first-call allocations (caches, lazy imports) are not rows
    small, _ = peak(12)
    large, image = peak(16)
    assert len(image.entries) == 8 * 9
    # all 2^16 masks alone would take 1 MB, their K(P, F) table 4 MB
    assert small < 2 ** 18 and large < 2 ** 18


def test_locational_exhaustive_image_memory_is_bounded_by_the_chunk():
    # Four locations give at most 15 classes, while the m^n realizations
    # grow 16-fold from n = 6 to n = 8.
    def peak(n):
        inst = LocationalInstance(
            locations=[[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]],
            probs=np.full((n, 4), 0.25))
        with chunked(2 ** 10), enumeration_chunked(2 ** 10):
            tracemalloc.start()
            try:
                image = build_weighted_image(inst, 1, 0.5)
                return tracemalloc.get_traced_memory()[1], image
            finally:
                tracemalloc.stop()

    peak(6)  # first-call allocations (caches, lazy imports) are not rows
    small, _ = peak(6)
    large, image = peak(8)
    assert len(image.entries) == 15
    # one Python object per realization took about 300 B: 20 MB at n = 8
    assert small < 2 ** 18 and large < 2 ** 18
