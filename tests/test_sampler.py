"""The vectorized realization sampler and the chunked Monte-Carlo evaluator
against the per-sample loops they replaced.

The loops below are the reference: they are the library's former
``expected_objective_mc`` and ``build_S1``, which drew n uniforms per
sample and placed each locational node with its own inverse-CDF lookup.
``build_S1`` now draws n uniforms per sample in the existential model
too; the former loop that drew only the points inside K is kept where it
must still agree, with K holding every point.  The vectorized versions
must agree with them exactly (``==``), not within a tolerance.  The
locational lookup here is a running sum over the row, and a draw past the
row's total takes the last location of positive probability (the former
loops took the last location, which can have probability 0; see
``test_clamp_skips_zero_probability_tail``).
``realize`` returns masks over the support, so the loop's present points
or taken locations are set in a mask before the comparison.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stocenter import objective
from stocenter.errors import SchemaError
from stocenter.jflat import (KERNEL_NET_SIZE, _kernel, build_S1,
                             direction_net, lift)
from stocenter.model import (CHUNK_ELEMENTS, CenterSet, ExistentialInstance,
                             Flat, LocationalInstance, realize)
from stocenter.objective import (expected_objective_exact,
                                 expected_objective_mc, shape_distances)

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True,
                    database=None)


# ---------------------------------------------------------------------------
# Loop references


def loop_locate(row, u):
    """First location whose running probability sum exceeds u; past the
    row's total, the last location of positive probability."""
    acc = 0.0
    for k, p in enumerate(row):
        acc += p
        if u < acc:
            return k
    return max(k for k, p in enumerate(row) if p > 0.0)


def loop_draw(instance, u):
    """One realization from one row of n uniforms."""
    if isinstance(instance, ExistentialInstance):
        return u < instance.probs
    return np.array([loop_locate(instance.probs[j], u[j])
                     for j in range(instance.n)], dtype=int)


def loop_mc_values(instance, shape, samples, rng):
    """The value of each sample, one realization at a time."""
    dists = shape_distances(instance.support_points, shape)
    vals = np.empty(samples)
    for i in range(samples):
        drawn = loop_draw(instance, rng.random(instance.n))
        if isinstance(instance, ExistentialInstance):
            vals[i] = dists[drawn].max() if drawn.any() else 0.0
        else:
            vals[i] = dists[drawn].max()
    return vals


def mc_summary(vals):
    """(value, stderr) of the loop estimator."""
    samples = len(vals)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return mean, stderr


def loop_build_S1(instance, inside, j, N, seed):
    """n uniforms per sample in both models, one per point or node; the
    realized support points outside K are dropped."""
    kernel_dirs = direction_net(lift(instance.support_points, j).shape[1],
                                KERNEL_NET_SIZE)
    out = []
    for i in range(N):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        u = rng.random(instance.n)
        if isinstance(instance, ExistentialInstance):
            mask = (u < instance.probs) & inside
            out.append(_kernel(instance.points[mask], j, kernel_dirs))
        else:
            idx = [loop_locate(instance.probs[r], u[r])
                   for r in range(instance.n)]
            idx = np.array(sorted(set(v for v in idx if inside[v])),
                           dtype=int)
            out.append(_kernel(instance.locations[idx], j, kernel_dirs))
    return out


def restricted_build_S1(instance, inside, j, N, seed):
    """The existential S1 before both models drew n uniforms per sample:
    only the points inside K are drawn, one uniform each, in id order."""
    kernel_dirs = direction_net(lift(instance.support_points, j).shape[1],
                                KERNEL_NET_SIZE)
    pts, probs = instance.points[inside], instance.probs[inside]
    out = []
    for i in range(N):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        out.append(_kernel(pts[rng.random(len(probs)) < probs], j,
                           kernel_dirs))
    return out


# ---------------------------------------------------------------------------
# Strategies


def _probs_existential(draw, n):
    special = st.sampled_from([0.0, 1.0])
    return np.array(draw(st.lists(
        st.one_of(special, st.floats(0.0, 1.0)), min_size=n, max_size=n)))


def _probs_locational(draw, n, m):
    """Rows normalized to sum to 1, with zero entries anywhere, including
    the whole tail of a row."""
    rows = np.array(draw(st.lists(
        st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
                 min_size=m, max_size=m),
        min_size=n, max_size=n)))
    for row in rows:
        if not row.any():
            row[draw(st.integers(0, m - 1))] = 1.0
    return rows / rows.sum(axis=1, keepdims=True)


@st.composite
def instances(draw, max_n=6):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, max_n))
    coords = st.floats(-50.0, 50.0, allow_nan=False)
    if draw(st.booleans()):
        pts = np.array(draw(st.lists(st.lists(coords, min_size=d, max_size=d),
                                     min_size=n, max_size=n)))
        return ExistentialInstance(points=pts,
                                   probs=_probs_existential(draw, n))
    m = draw(st.integers(1, 5))
    locs = np.array(draw(st.lists(st.lists(coords, min_size=d, max_size=d),
                                  min_size=m, max_size=m)))
    return LocationalInstance(locations=locs,
                              probs=_probs_locational(draw, n, m))


@st.composite
def shapes(draw, d):
    """A center set with k in {1, 2, 3}, or a flat with j in {0, 1}."""
    coords = st.floats(-50.0, 50.0, allow_nan=False)
    kind = draw(st.sampled_from(["centers", "flat0", "flat1"]
                                if d > 1 else ["centers", "flat0"]))
    if kind == "centers":
        k = draw(st.integers(1, 3))
        return CenterSet(centers=np.array(draw(st.lists(
            st.lists(coords, min_size=d, max_size=d),
            min_size=k, max_size=k))))
    base = np.array(draw(st.lists(coords, min_size=d, max_size=d)))
    if kind == "flat0":
        return Flat(j=0, base=base)
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d,
                               max_size=d)))
    if np.linalg.norm(v) < 1e-3:
        v = np.eye(d)[0]
    return Flat(j=1, base=base, basis=(v / np.linalg.norm(v))[None, :])


# ---------------------------------------------------------------------------
# The sampler on a given uniform matrix


@st.composite
def instance_and_uniforms(draw):
    """Uniform matrices whose entries include exact probabilities, exact
    cumulative sums and 0.0, where ``<`` and ``side="right"`` matter."""
    instance = draw(instances())
    if isinstance(instance, ExistentialInstance):
        edges = list(instance.probs)
    else:
        edges = list(np.cumsum(instance.probs, axis=1).ravel())
    edges = [e for e in edges + [0.0] if e < 1.0]
    value = st.one_of(st.sampled_from(edges),
                      st.floats(0.0, 1.0, exclude_max=True))
    samples = draw(st.integers(1, 5))
    u = np.array(draw(st.lists(st.lists(value, min_size=instance.n,
                                        max_size=instance.n),
                               min_size=samples, max_size=samples)))
    return instance, u


def taken(masks):
    """The locations set in every mask row, ascending."""
    return [np.flatnonzero(mask).tolist() for mask in masks]


@SETTINGS
@given(instance_and_uniforms())
def test_realize_matches_loop(case):
    instance, u = case
    drawn = realize(instance, u)
    expected = np.zeros((len(u), instance.support_points.shape[0]), bool)
    for mask, row in zip(expected, u):
        # the points present, or the locations the nodes took
        mask[loop_draw(instance, row)] = True
    assert drawn.shape == expected.shape and drawn.dtype == expected.dtype
    assert np.array_equal(drawn, expected)


def test_realize_boundaries_by_hand():
    inst = ExistentialInstance(points=np.zeros((3, 1)),
                               probs=np.array([0.0, 0.5, 1.0]))
    u = np.array([[0.0, 0.5, 0.0], [0.0, 0.4999, 0.9999]])
    assert realize(inst, u).tolist() == [[False, False, True],
                                         [False, True, True]]
    loc = LocationalInstance(locations=np.arange(4.0)[:, None],
                             probs=np.array([[0.0, 0.5, 0.0, 0.5]]))
    u = np.array([[0.0], [0.25], [0.5], [0.75]])
    # u == 0 skips the zero-probability head; u == 0.5 lands past location 1
    # and its zero-probability neighbour.  One node: its mask has one location.
    assert taken(realize(loc, u)) == [[1], [1], [3], [3]]


def test_clamp_skips_zero_probability_tail():
    """A row summing to 1 - 5e-10 with a zero last entry: a uniform past
    the row's total takes location 1, the last one of positive probability,
    not location 2."""
    row = np.array([0.5, 0.5 - 5e-10, 0.0])
    inst = LocationalInstance(locations=np.arange(3.0)[:, None],
                              probs=np.vstack([row, [0.0, 0.0, 1.0]]))
    u = np.array([[1.0 - 1e-10, 1.0 - 1e-10], [0.2, 0.2]])
    # the nodes' rows are disjoint, so node 0 took the first location taken
    assert taken(realize(inst, u)) == [[1, 2], [0, 2]]
    assert loop_locate(row, 1.0 - 1e-10) == 1


def test_realize_rejects_wrong_shape():
    inst = ExistentialInstance(points=np.zeros((3, 1)), probs=np.ones(3))
    with pytest.raises(SchemaError):
        realize(inst, np.zeros(3))
    with pytest.raises(SchemaError):
        realize(inst, np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# Callers of the sampler


@SETTINGS
@given(st.data(), st.integers(0, 2 ** 16), st.integers(1, 8))
def test_mc_matches_loop_across_chunk_boundaries(data, seed, rows):
    """A small chunk size puts chunk boundaries inside short runs."""
    instance = data.draw(instances())
    shape = data.draw(shapes(instance.d))
    samples = data.draw(st.sampled_from(
        [s for s in (1, 2, rows - 1, rows, rows + 1, 3 * rows + 1) if s >= 1]))
    width = max(instance.n, instance.support_points.shape[0])
    with mock.patch.object(objective, "CHUNK_ELEMENTS", rows * width):
        res = expected_objective_mc(instance, shape, samples,
                                    np.random.default_rng(seed))
    ref = loop_mc_values(instance, shape, samples, np.random.default_rng(seed))
    assert (res.value, res.stderr) == mc_summary(ref)
    assert res.samples == samples


def _large_instance(model, n, seed):
    rng = np.random.default_rng(seed)
    if model == "existential":
        probs = rng.uniform(0.0, min(1.0, 20.0 / n), n)
        probs[1::7] = 0.0
        return ExistentialInstance(points=rng.uniform(-10, 10, (n, 2)),
                                   probs=probs)
    rows = rng.uniform(0.0, 1.0, (n, 6))
    rows[rows < 0.3] = 0.0
    rows[:, -1] = 0.0
    rows[rows.sum(axis=1) == 0.0, 0] = 1.0
    return LocationalInstance(locations=rng.uniform(-10, 10, (6, 2)),
                              probs=rows / rows.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("model", ["existential", "locational"])
@pytest.mark.parametrize("n", [1, 2000])
def test_mc_matches_loop_at_the_chunk_size(model, n):
    """The shipped chunk size, at the sample counts around one and two
    chunks.  A run of s samples draws the first s of a longer run, so one
    reference loop serves every count."""
    instance = _large_instance(model, n, seed=n)
    shape = CenterSet(centers=[[1.0, -2.0], [-3.0, 4.0]])
    rows = max(CHUNK_ELEMENTS // max(n, instance.support_points.shape[0]), 1)
    counts = (1, 2, rows - 1, rows, rows + 1, 2 * rows + 3)
    ref = loop_mc_values(instance, shape, counts[-1],
                         np.random.default_rng(n))
    for samples in counts:
        res = expected_objective_mc(instance, shape, samples,
                                    np.random.default_rng(n))
        assert (res.value, res.stderr) == mc_summary(ref[:samples]), samples


def test_mc_on_an_instance_without_points():
    # every realization is empty, so every sample scores 0, as the exact
    # evaluator says
    instance = ExistentialInstance(points=np.zeros((0, 2)), probs=np.zeros(0))
    shape = CenterSet(centers=[[1.0, 2.0]])
    res = expected_objective_mc(instance, shape, 7, np.random.default_rng(0))
    assert (res.value, res.stderr, res.samples) == (0.0, 0.0, 7)
    assert expected_objective_exact(instance, shape).value == 0.0


def test_exact_on_a_locational_instance_without_nodes():
    # no node lands anywhere, so every realization is empty and scores 0,
    # as Monte Carlo says; the location distances do not count
    instance = LocationalInstance(locations=[[0.0, 0.0]],
                                  probs=np.zeros((0, 1)))
    shape = CenterSet(centers=[[1.0, 2.0]])
    assert expected_objective_exact(instance, shape).value == 0.0
    res = expected_objective_mc(instance, shape, 7, np.random.default_rng(0))
    assert (res.value, res.stderr) == (0.0, 0.0)


@SETTINGS
@given(st.data(), st.integers(0, 2 ** 16), st.integers(0, 6))
def test_build_S1_matches_loop(data, seed, N):
    instance = data.draw(instances())
    j = data.draw(st.sampled_from([0, 1] if instance.d > 1 else [0]))
    lifted = lift(instance.support_points, j)
    dirs = direction_net(lifted.shape[1], 6)
    # Thresholds at a random quantile of the support's projections put
    # anything from none to all of the support inside K.
    proj = lifted @ dirs.T
    q = data.draw(st.floats(0.0, 1.0))
    inside = (proj <= np.quantile(proj, q, axis=0)).all(axis=1)
    s1 = build_S1(instance, inside, j, N, seed)
    ref = loop_build_S1(instance, inside, j, N, seed)
    assert len(s1) == len(ref) == N
    for kernel, expected in zip(s1, ref):
        assert kernel.shape == expected.shape
        assert np.array_equal(kernel, expected)


@SETTINGS
@given(st.data(), st.integers(0, 2 ** 16), st.integers(0, 6))
def test_build_S1_keeps_the_existential_bits_when_K_holds_every_point(
        data, seed, N):
    # with every point inside K, drawing n uniforms draws the same ones as
    # drawing the inside points only
    instance = data.draw(instances().filter(
        lambda inst: isinstance(inst, ExistentialInstance)))
    j = data.draw(st.sampled_from([0, 1] if instance.d > 1 else [0]))
    inside = np.ones(instance.n, dtype=bool)
    s1 = build_S1(instance, inside, j, N, seed)
    ref = restricted_build_S1(instance, inside, j, N, seed)
    assert len(s1) == len(ref) == N
    for kernel, expected in zip(s1, ref):
        assert np.array_equal(kernel, expected)
