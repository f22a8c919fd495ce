"""Farthest-first Monte-Carlo scoring against the masked reader it replaced.

``model.farthest_realized`` must give, for every draw, the first True of
``realize(instance, u)[:, order]``: through the existential prefix steps
and the full-row fallback, with probabilities 0 and 1, uniforms equal to
a probability, locational rows that sum to 1 only within 1e-9 (a uniform
past the last cumulative value), one node or point, and draws that
realize nothing.

``former_masked_mc`` is a frozen copy of the former
``expected_objective_mc``, which multiplied each chunk's (rows, support)
realization masks by the distances and took the row maxima.  The
farthest-first evaluator must agree with it bit for bit (``==``) in value
and stderr, across chunk boundaries, with one sample per chunk, and when
every probability is so small that the draws reach the full-row compare.
The memory test shows that the evaluator holds one chunk of uniforms, not
a (samples, n) draw.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stocenter import objective
from stocenter.model import (CHUNK_ELEMENTS, FARTHEST_PREFIX_LIMIT,
                             CenterSet, ExistentialInstance, Flat,
                             LocationalInstance, farthest_realized, realize)
from stocenter.objective import expected_objective_mc, shape_distances

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True,
                    database=None)


def former_masked_mc(instance, shape, samples, rng):
    """(value, stderr) of the former masked-max Monte-Carlo reader."""
    dists = shape_distances(instance.support_points, shape)
    rows = max(CHUNK_ELEMENTS // max(instance.n, len(dists)), 1)
    vals = np.empty(samples)
    for start in range(0, samples, rows):
        masks = realize(instance, rng.random((min(rows, samples - start),
                                              instance.n)))
        chunk = (masks * dists).max(axis=1)
        vals[start:start + len(chunk)] = chunk
    stderr = float(vals.std(ddof=1) / np.sqrt(samples)) if samples > 1 \
        else 0.0
    return float(vals.mean()), stderr


def first_realized(instance, u, order):
    """The first True of each row of the masks in ``order``, or
    len(order)."""
    masks = realize(instance, u)[:, order]
    return np.where(masks.any(axis=1), masks.argmax(axis=1), len(order))


# ---------------------------------------------------------------------------
# Instances from a seed: n up to a few hundred, past the prefix limit


def existential(rng, n, kind):
    """``kind`` "tiny" puts every probability at most 1e-3, so most draws
    realize nothing in the first FARTHEST_PREFIX_LIMIT columns; "mixed"
    draws 0, 1, tiny and uniform probabilities."""
    if kind == "tiny":
        probs = rng.choice([0.0, 1e-6, 1e-4, 1e-3], n)
    else:
        probs = np.where(rng.random(n) < 0.5, rng.random(n),
                         rng.choice([0.0, 1.0, 1e-3, 0.5], n))
    return ExistentialInstance(points=rng.integers(-3, 4, (n, 2)) * 1.0,
                               probs=probs)


def locational(rng, n, m):
    """Rows with zeros anywhere, each scaled to sum to 1 - 5e-10 when
    ``rng`` says so, which ``LocationalInstance`` accepts."""
    rows = rng.random((n, m))
    rows[rng.random((n, m)) < 0.4] = 0.0
    rows[np.arange(n), rng.integers(0, m, n)] += 0.5
    rows /= rows.sum(axis=1, keepdims=True)
    rows[rng.random(n) < 0.5] *= 1.0 - 5e-10
    return LocationalInstance(locations=rng.integers(-3, 4, (m, 2)) * 1.0,
                              probs=rows)


@st.composite
def instance_seeds(draw):
    """An instance of either model, from a drawn seed and size."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        n = draw(st.sampled_from([1, 2, 7, 8, 9, 65, 130, 300]))
        return existential(rng, n, draw(st.sampled_from(["tiny", "mixed"])))
    n = draw(st.sampled_from([0, 1, 2, 5, 40]))
    return locational(rng, n, draw(st.sampled_from([1, 3, 70])))


def uniforms(rng, instance, samples):
    """Uniforms with exact boundary values: existential entries equal to
    their probability (absent), and locational entries just below 1, past
    a row that sums to 1 - 5e-10."""
    u = rng.random((samples, instance.n))
    pick = rng.random(u.shape) < 0.1
    if isinstance(instance, ExistentialInstance):
        u[pick] = np.broadcast_to(instance.probs, u.shape)[pick]
    else:
        u[pick] = 1.0 - 1e-10
    return u


# ---------------------------------------------------------------------------
# The reader


@SETTINGS
@given(instance_seeds(), st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
       st.booleans())
def test_farthest_realized_is_the_first_realized_point(instance, seed,
                                                       samples, tied):
    """``order`` sorts distances with ties (farthest first, ties to the
    lowest id, as the evaluator orders them) or is any permutation."""
    rng = np.random.default_rng(seed)
    width = instance.support_points.shape[0]
    if tied:
        dists = rng.integers(0, 3, width) * 1.0
        order = (-dists).argsort(kind="stable")
    else:
        order = rng.permutation(width)
    u = uniforms(rng, instance, samples)
    pos = farthest_realized(instance, u, order)
    assert pos.shape == (samples,)
    assert pos.tolist() == first_realized(instance, u, order).tolist()


def test_farthest_realized_by_hand():
    inst = ExistentialInstance(points=np.zeros((3, 1)),
                               probs=np.array([0.0, 0.5, 1.0]))
    u = np.array([[0.0, 0.5, 0.0], [0.0, 0.4999, 0.9999], [0.9, 0.9, 1.0]])
    # order (1, 2, 0): point 1 is absent in row 0 (u == p), present in row 1
    assert farthest_realized(inst, u, np.array([1, 2, 0])).tolist() \
        == [1, 0, 3]
    # a row past its total takes its last location of positive probability
    loc = LocationalInstance(locations=np.arange(3.0)[:, None],
                             probs=np.array([[0.5, 0.5 - 5e-10, 0.0]]))
    u = np.array([[0.2], [1.0 - 1e-10]])
    assert farthest_realized(loc, u, np.array([2, 1, 0])).tolist() == [2, 1]


def test_draws_past_the_prefix_reach_the_full_row():
    """All but the last point have probability 0, so every draw of the
    last point sits past the prefix limit."""
    n = 3 * FARTHEST_PREFIX_LIMIT
    probs = np.zeros(n)
    probs[-1] = 0.5
    inst = ExistentialInstance(points=np.zeros((n, 1)), probs=probs)
    u = np.random.default_rng(0).random((50, n))
    pos = farthest_realized(inst, u, np.arange(n))
    assert set(pos.tolist()) == {n - 1, n}
    assert pos.tolist() == first_realized(inst, u, np.arange(n)).tolist()


# ---------------------------------------------------------------------------
# The evaluator


def _shape(rng):
    if rng.random() < 0.5:
        return CenterSet(centers=rng.integers(-3, 4, (2, 2)) * 1.0)
    return Flat(j=1, base=[0.5, 0.0], basis=[[0.6, 0.8]])


@SETTINGS
@given(instance_seeds(), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([None, 1, 3]), st.sampled_from([-1, 0, 1, 5]))
def test_mc_equals_the_former_masked_reader(instance, seed, rows, offset):
    """``rows`` samples per chunk (None: the shipped chunk), and a sample
    count one below, at, one past or a few chunks past one chunk."""
    rng = np.random.default_rng(seed)
    shape = _shape(rng)
    width = max(instance.n, instance.support_points.shape[0], 1)
    chunk = CHUNK_ELEMENTS if rows is None else rows * width
    per_chunk = max(chunk // width, 1)
    samples = max(per_chunk + offset if offset < 5 else 3 * per_chunk + 1,
                  1)
    with mock.patch.object(objective, "CHUNK_ELEMENTS", chunk):
        res = expected_objective_mc(instance, shape, samples,
                                    np.random.default_rng(seed))
    assert (res.value, res.stderr) == former_masked_mc(
        instance, shape, samples, np.random.default_rng(seed))


def test_mc_with_every_probability_tiny():
    """Most samples realize nothing in the first FARTHEST_PREFIX_LIMIT
    points of the order, some realize one past it, and some none."""
    rng = np.random.default_rng(4)
    inst = ExistentialInstance(points=rng.uniform(-10, 10, (2000, 2)),
                               probs=np.full(2000, 1e-4))
    shape = CenterSet(centers=[[1.0, -2.0]])
    samples = 3 * (CHUNK_ELEMENTS // 2000) + 1
    dists = shape_distances(inst.points, shape)
    pos = farthest_realized(inst, np.random.default_rng(5).random(
        (samples, 2000)), (-dists).argsort(kind="stable"))
    assert (pos > FARTHEST_PREFIX_LIMIT).any() and (pos == 2000).any() \
        and (pos < 2000).any()
    res = expected_objective_mc(inst, shape, samples,
                                np.random.default_rng(5))
    assert (res.value, res.stderr) == former_masked_mc(
        inst, shape, samples, np.random.default_rng(5))


def _memory_instances():
    rng = np.random.default_rng(8)
    rows = rng.uniform(0.5, 1.0, (64, 256))
    return [ExistentialInstance(points=rng.uniform(-5, 5, (256, 2)),
                                probs=np.full(256, 1e-3)),
            LocationalInstance(locations=rng.uniform(-5, 5, (256, 2)),
                               probs=rows / rows.sum(axis=1, keepdims=True))]


def test_mc_holds_one_chunk():
    """With a chunk of 2**10 entries, both instances (support 256) draw 4
    samples per chunk.  A (samples, n) draw of the 2000 samples would be
    4 MB (existential) or 1 MB (locational)."""
    chunk, samples = 2 ** 10, 2000
    shape = CenterSet(centers=[[1.0, -2.0]])
    for instance in _memory_instances():
        sizes, reader = [], objective.farthest_realized

        def spy(inst, u, order):
            sizes.append(len(u) * max(inst.n, inst.support_points.shape[0]))
            return reader(inst, u, order)

        with mock.patch.object(objective, "CHUNK_ELEMENTS", chunk):
            # the first call also makes numpy's one-time allocations and
            # the locational inverse CDF, so only the second is measured
            with mock.patch.object(objective, "farthest_realized", spy):
                ref = expected_objective_mc(instance, shape, samples,
                                            np.random.default_rng(9))
            tracemalloc.start()
            try:
                got = expected_objective_mc(instance, shape, samples,
                                            np.random.default_rng(9))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(sizes) == samples // 4 and max(sizes) <= chunk
        assert got == ref
        # 16 KB of per-sample values, 2 KB each of distances, order and
        # scores, and one chunk of 4 samples
        assert peak < 2 ** 16, instance.model
