"""Locational realizations as location masks, against the readers of
node -> location assignments that they replaced.

The functions below are frozen copies of the library's former locational
readers: ``model.realize``, which returned each node's location index,
``expected_objective_mc``, which took the largest distance over those
indices, and ``oracle_expected_values``, which did the same over chunks of
``assignment_rows`` of ``CHUNK_ELEMENTS // n`` rows.  The mask readers must
agree with them bit for bit (``==``), with fewer locations than nodes and
with many more.  A mask is as wide as the support, so the chunks shrink
when m > n; the checks at the end show that no temporary outgrows
``CHUNK_ELEMENTS`` entries.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stocenter import model, objective
from stocenter.model import (CHUNK_ELEMENTS, CenterSet, LocationalInstance,
                             assignment_rows, realization_chunks,
                             realization_probabilities)
from stocenter.objective import (_weighted_sum, expected_objective_mc,
                                 shape_distances)
from stocenter.oracle import oracle_expected_values

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


# ---------------------------------------------------------------------------
# The former assignment-row readers


def former_realize(instance, u):
    """Each node's location index, by inverse CDF, clamped to the row's
    last location of positive probability."""
    cum, last = instance.inverse_cdf
    idx = np.empty(u.shape, dtype=np.intp)
    for j in range(instance.n):
        idx[:, j] = np.searchsorted(cum[j], u[:, j], side="right")
    return np.minimum(idx, last, out=idx)


def former_mc(instance, shape, samples, rng):
    """(value, stderr) of the former Monte-Carlo loop."""
    dists = shape_distances(instance.support_points, shape)
    rows = max(CHUNK_ELEMENTS // instance.n, 1)
    vals = np.empty(samples)
    for start in range(0, samples, rows):
        drawn = former_realize(instance, rng.random(
            (min(rows, samples - start), instance.n)))
        chunk = dists[drawn].max(axis=1)
        vals[start:start + len(chunk)] = chunk
    stderr = float(vals.std(ddof=1) / np.sqrt(samples)) if samples > 1 \
        else 0.0
    return float(vals.mean()), stderr


def former_oracle_values(instance, dmat):
    """The former exact oracle over chunks of assignment rows."""
    total = instance.m ** instance.n
    step = max(CHUNK_ELEMENTS // max(instance.n, 1), 1)
    out, count = np.zeros(dmat.shape[1]), 0
    for lo in range(0, total, step):
        rows = assignment_rows(instance.n, instance.m, lo,
                               min(lo + step, total))
        pr = realization_probabilities(instance, rows)
        keep = pr != 0.0
        rows, pr = rows[keep], pr[keep]
        count += len(pr)
        for f, dists in enumerate(dmat.T):
            out[f] += _weighted_sum(pr, dists[rows].max(axis=1, initial=0.0))
    return out, count


# ---------------------------------------------------------------------------
# Strategies


@st.composite
def locational(draw, wide):
    """Fewer locations than nodes, or (``wide``) 20 to 40 locations for one
    or two nodes; rows with zeros anywhere, and ties among distances."""
    if wide:
        n, m = draw(st.integers(1, 2)), draw(st.integers(20, 40))
    else:
        n = draw(st.integers(2, 5))
        m = draw(st.integers(1, n - 1))
    d = draw(st.integers(1, 2))
    coord = st.one_of(st.integers(-3, 3).map(float),
                      st.floats(-50.0, 50.0, allow_nan=False))
    locs = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                                  min_size=m, max_size=m)))
    rows = np.array(draw(st.lists(
        st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
                 min_size=m, max_size=m), min_size=n, max_size=n)))
    for row in rows:
        if not row.any():
            row[draw(st.integers(0, m - 1))] = 1.0
    return LocationalInstance(locations=locs,
                              probs=rows / rows.sum(axis=1, keepdims=True))


def centers(draw, d):
    k = draw(st.integers(1, 3))
    return CenterSet(centers=np.array(draw(st.lists(
        st.lists(st.floats(-50.0, 50.0, allow_nan=False), min_size=d,
                 max_size=d), min_size=k, max_size=k))))


# ---------------------------------------------------------------------------
# The readers' bits


@SETTINGS
@given(st.data(), st.booleans(), st.integers(0, 2 ** 16),
       st.integers(1, 50), st.sampled_from([None, 1, 3]))
def test_mc_equals_the_former_assignment_reader(data, wide, seed, samples,
                                                rows):
    """Also across chunk boundaries: with ``rows`` set, a chunk holds that
    many samples of the new code, and the former one draws them all at
    once."""
    instance = data.draw(locational(wide))
    shape = centers(data.draw, instance.d)
    chunk = CHUNK_ELEMENTS if rows is None \
        else rows * max(instance.n, instance.m)
    with mock.patch.object(objective, "CHUNK_ELEMENTS", chunk):
        res = expected_objective_mc(instance, shape, samples,
                                    np.random.default_rng(seed))
    assert (res.value, res.stderr) == former_mc(
        instance, shape, samples, np.random.default_rng(seed))


@SETTINGS
@given(st.data(), st.booleans())
def test_oracle_equals_the_former_assignment_reader(data, wide):
    """Every enumeration here fits in one chunk of either size, so the
    per-chunk partial sums cannot move."""
    instance = data.draw(locational(wide))
    shapes = [centers(data.draw, instance.d) for _ in range(2)]
    dmat = np.column_stack([shape_distances(instance.support_points, F)
                            for F in shapes])
    values, count = oracle_expected_values(instance, dmat)
    ref_values, ref_count = former_oracle_values(instance, dmat)
    assert count == ref_count
    assert values.tolist() == ref_values.tolist()


# ---------------------------------------------------------------------------
# The chunk bound when m >> n


def _wide_instance(m):
    """Two nodes over m locations, every entry of positive probability."""
    rng = np.random.default_rng(m)
    rows = rng.uniform(0.5, 1.0, (2, m))
    return LocationalInstance(locations=rng.uniform(-5, 5, (m, 2)),
                              probs=rows / rows.sum(axis=1, keepdims=True))


def test_mc_temporaries_stay_within_the_chunk():
    """With a chunk of 2**10 entries, a chunk holds 2 samples: sizing the
    chunks by n alone would hold 512 samples, 256,000 mask entries."""
    instance, chunk = _wide_instance(500), 2 ** 10
    shape = CenterSet(centers=[[1.0, -2.0]])
    sizes, farthest_realized = [], objective.farthest_realized

    def spy(inst, u, order):
        sizes.append(max(u.size, model.realize(inst, u).size))
        return farthest_realized(inst, u, order)

    with mock.patch.object(objective, "CHUNK_ELEMENTS", chunk):
        with mock.patch.object(objective, "farthest_realized", spy):
            ref = expected_objective_mc(instance, shape, 2000,
                                        np.random.default_rng(3))
        # the first call also makes numpy's one-time allocations, so only
        # the second one is measured
        tracemalloc.start()
        try:
            got = expected_objective_mc(instance, shape, 2000,
                                        np.random.default_rng(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(sizes) == 1000 and max(sizes) <= chunk
    assert got == ref
    # 16 KB of per-sample values, 4 KB of distances, and one chunk: the
    # 4 KB scores and location ranks and a draw of two samples
    assert peak < 2 ** 16


def test_enumeration_chunks_stay_within_the_chunk():
    """A chunk of 2**12 entries holds 40 masks of 100 locations, where
    sizing it by n alone would hold 2,048."""
    instance, chunk = _wide_instance(100), 2 ** 12
    with mock.patch.object(model, "CHUNK_ELEMENTS", chunk):
        blocks = [masks.shape for masks, _ in realization_chunks(instance)]
    assert max(rows * width for rows, width in blocks) <= chunk
    assert sum(rows for rows, _ in blocks) == 100 ** 2
