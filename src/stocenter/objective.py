"""Exact and Monte-Carlo evaluation of the expected k-center value K(P, F)
and expected j-flat-center value J(P, F) in both uncertainty models.

Both models' exact value is sum_l w_l d_l over one private kernel,
``_farthest_weights``: w_l = Pr[support point l is the farthest realized
point, ties to the lowest id], the exact distribution of Monte Carlo's
farthest point from ``model._farthest_distribution``.  So, for a fixed
assignment of points to centers, sum_l w_l (c - s_l) / ||c - s_l|| over
the points served by c is a subgradient of the expected objective.

Every weighted sum of a value is ``_weighted_sum``, added left to right:
a BLAS dot's order depends on the thread count.  ``_exact_value`` and
``WeightedCollection._cost`` are the one arithmetic path of the exact
value and of the collection cost, and ``_nearest_distances`` of the
distance to the nearest center.  Both sums also take an (m, shapes)
table and score each column bit for bit as alone; the grid-search
oracles screen with them.

Flat distances are per-row sums along d, never a BLAS product, so a
point's distance does not depend on the other points scored with it.
A Monte-Carlo sample's value is the distance of its farthest realized
support point, from ``model.farthest_realized``, the same rule in both
models.

``WeightedCollection``, the one weighted point-set type, is the one place
that takes K(S, F) = max_{s in S} d(s, F) for every set S.  Its sets index
one support, so every per-point value it reads is taken once per support
point and gathered by the packed ids, never once per packed member; a
point's distance does not depend on the points scored with it, so the
values keep their bits.  The grid coreset's r_P table and the sensitivity
oracle read the point-to-candidate table ``_distances`` through
``_subset_minima``, its minimum over every k-subset of candidates, and
gkm's discrete pass and the grid-search oracles through ``_best_subset``;
gkm's screen reads it directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations, islice

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue
from .model import (CHUNK_ELEMENTS, CenterSet, Flat, Instance,
                    _farthest_distribution, farthest_realized)


@dataclass(frozen=True)
class ObjectiveValue:
    value: float
    method: str
    samples: int | None = None
    stderr: float | None = None


Shape = CenterSet | Flat


def shape_distances(points: np.ndarray, shape: Shape) -> np.ndarray:
    """Distance of each point to the shape (nearest center, or the flat)."""
    points = np.atleast_2d(points)
    if points.shape[0] == 0:
        return np.zeros(0)
    if isinstance(shape, CenterSet):
        if points.shape[1] != shape.d:
            raise DimensionMismatch("point and center dimensions differ")
        return _nearest_distances(points, shape.centers)
    if points.shape[1] != shape.d:
        raise DimensionMismatch("point and flat dimensions differ")
    rel = points - shape.base
    if shape.j > 0:
        # per-row sums along d, not a BLAS product, whose rounding depends
        # on how many rows are scored together
        coef = (rel[:, None, :] * shape.basis).sum(axis=2)    # (points, j)
        rel = rel - (coef[:, :, None] * shape.basis).sum(axis=1)
    return np.sqrt((rel ** 2).sum(axis=1))


def _weighted_sum(w: np.ndarray, values: np.ndarray):
    """sum_i w[i] * values[i] along axis 0, added left to right whatever the
    thread count; one sum per column of an (m, shapes) table, each equal to
    that column's sum alone.  ``w`` is 1-D or of the table's shape; an
    empty ``w`` gives 0."""
    if not len(w):
        return np.zeros(values.shape[1:])
    terms = (w if w.ndim == values.ndim else w[:, None]) * values
    return np.add.accumulate(terms)[-1]


def _finite(value: float) -> float:
    """``value``, or ``NonFiniteValue`` when it is inf or NaN (squared
    distances of points about 1e154 apart overflow)."""
    if not math.isfinite(value):
        raise NonFiniteValue(f"the expected objective is {value}: distances "
                             f"overflow, or the input is not finite")
    return value


def _squared_distances(points: np.ndarray,
                       candidates: np.ndarray) -> np.ndarray:
    """(points, candidates) table of squared Euclidean distances."""
    return np.add.reduce((points[:, None, :] - candidates[None, :, :]) ** 2,
                         axis=2)


def _distances(points: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """(points, candidates) table of Euclidean distances."""
    return np.sqrt(_squared_distances(points, candidates))


def _nearest_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Distance of each point to its nearest center, equal to the row
    minima of ``_distances`` bit for bit: sqrt is monotone and correctly
    rounded, so it is taken once per point, after the minimum."""
    return np.sqrt(np.minimum.reduce(_squared_distances(points, centers),
                                     axis=1))


def _check_k(k: int):
    """A center set has k >= 1 centers."""
    if k < 1:
        raise ValueError("k must be at least 1")


def _check_eps(eps: float):
    """Every coreset takes an eps in (0, 1); NaN is not in it."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")


def _subset_minima(D: np.ndarray, k: int, rows: int):
    """Every k-subset of the columns of ``D``, in ``combinations`` order,
    as (subsets, table) chunks of at most ``rows`` subsets: ``subsets`` is
    (c, k) column indices and ``table[i, s]`` the minimum of row i of ``D``
    over subset s, the distance to the nearest of its centers when ``D``
    comes from ``_distances``.  Fewer columns than k give no chunk."""
    combos = combinations(range(D.shape[1]), k)
    while chunk := list(islice(combos, rows)):
        subsets = np.array(chunk, dtype=np.intp)
        table = D[:, subsets[:, 0]]
        for j in range(1, k):
            np.minimum(table, D[:, subsets[:, j]], out=table)
        yield subsets, table


def _best_subset(points: np.ndarray, cand: np.ndarray, k: int, rows: int,
                 score) -> tuple[CenterSet, float]:
    """The first k-subset of ``cand``, in ``combinations`` order, with the
    least ``score`` of its ``_subset_minima`` column, scored ``rows`` subsets
    at a time, and that score; a later chunk wins only when strictly lower.
    Centers may repeat: fewer candidates than k give one subset, every
    candidate, padded to k centers by ``np.resize``."""
    best, low = None, np.inf
    for subsets, table in _subset_minima(_distances(points, cand),
                                         min(k, len(cand)), rows):
        scores = score(table)
        i = int(scores.argmin())
        if best is None or scores[i] < low:
            best, low = subsets[i], scores[i]
    return CenterSet(centers=np.resize(cand[best], (k, cand.shape[1]))), low


@dataclass(frozen=True, eq=False, init=False)
class WeightedCollection:
    """Weighted sets of points of one support; empty sets cost 0.

    ``support`` holds the (u, d) points that the sets use, each at least
    once; ``ids`` the members of every set as rows of ``support``, packed
    in set order, set i at ``ids[offsets[i]:offsets[i + 1]]``; ``weights``
    one positive finite weight per set, 1 each by default.

    ``sets`` are (n_i, d) arrays of points (a 1-D array is one point), whose
    support is their distinct points by one ``np.unique``, or, when
    ``support`` is given, sequences of its row ids; ``d`` comes from the
    sets (an empty ``(0, d)`` array counts) or the support unless given.
    Support points that no set uses are dropped, and non-finite ones raise
    ``ValueError``.  Every per-point value is taken once per support point:
    a per-set maximum is one gather by ``ids`` and one
    ``np.maximum.reduceat`` over the starts of the ``nonempty`` sets.
    ``points`` and ``sets`` are derived views that no cost reads.
    """

    support: np.ndarray   # (u, d)
    ids: np.ndarray       # (total,) rows of support
    offsets: np.ndarray   # (size + 1,)
    weights: np.ndarray
    d: int
    nonempty: np.ndarray = field(repr=False)  # set indices
    _starts: np.ndarray = field(repr=False)

    def __init__(self, sets, weights=None, d=None, support=None):
        if support is None:
            arrays = [np.asarray(s, dtype=float) for s in sets]
            dims = {np.atleast_2d(a).shape[1] for a in arrays
                    if a.size or a.ndim == 2}
            if d is None:
                if len(dims) != 1:
                    raise DimensionMismatch(
                        "cannot infer one dimension from the sets; pass d")
                d = dims.pop()
            elif dims - {d}:
                raise DimensionMismatch(
                    f"set dimensions {sorted(dims)} != {d}")
            rows = [np.atleast_2d(a) for a in arrays if a.size]
            support, ids = np.unique(
                np.vstack(rows) if rows else np.zeros((0, d)), axis=0,
                return_inverse=True)
            sizes = np.array([a.size // d for a in arrays], dtype=np.intp)
        else:
            support = np.atleast_2d(np.asarray(support, dtype=float))
            if d is not None and d != support.shape[1]:
                raise DimensionMismatch(
                    f"support dimension {support.shape[1]} != {d}")
            sizes = np.fromiter(map(len, sets), np.intp, len(sets))
            ids = np.fromiter(chain.from_iterable(sets), np.intp,
                              int(sizes.sum()))
        self._fill(support, ids.reshape(-1), sizes,
                   np.ones(len(sizes)) if weights is None else weights)

    def _fill(self, support: np.ndarray, ids: np.ndarray, sizes: np.ndarray,
              weights):
        """Fill the fields: keep the support points that some set uses, and
        check the weights and those points."""
        w = np.asarray(weights, dtype=float)
        if w.shape != sizes.shape:
            raise ValueError("one weight per set required")
        if not np.all(w > 0.0) or not np.isfinite(w).all():
            raise ValueError("weights must be positive and finite")
        used = np.zeros(len(support), dtype=bool)
        used[ids] = True
        if not used.all():
            support, ids = support[used], (np.cumsum(used) - 1)[ids]
        if not np.isfinite(support).all():
            raise ValueError("points must be finite")
        offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.intp)
        nonempty = np.flatnonzero(sizes)
        for name, value in (("support", support), ("ids", ids),
                            ("offsets", offsets), ("weights", w),
                            ("d", int(support.shape[1])),
                            ("nonempty", nonempty),
                            ("_starts", offsets[nonempty])):
            object.__setattr__(self, name, value)

    @property
    def size(self) -> int:
        return len(self.weights)

    @property
    def points(self) -> np.ndarray:
        """(total, d) copies of the members, in set order."""
        return self.support[self.ids]

    @property
    def sets(self) -> tuple:
        """The (n_i, d) members of every set."""
        return tuple(np.split(self.points, self.offsets[1:-1])) \
            if self.size else ()

    def subset(self, indices, weights) -> WeightedCollection:
        """Sets ``indices`` of this collection, with new weights."""
        indices = np.asarray(indices, dtype=np.intp)
        starts = self.offsets[indices]
        sizes = self.offsets[indices + 1] - starts
        rows = np.repeat(starts - np.cumsum(sizes) + sizes, sizes) \
            + np.arange(sizes.sum())
        sub = object.__new__(WeightedCollection)
        sub._fill(self.support, self.ids[rows], sizes, weights)
        return sub

    def maxima(self, values: np.ndarray) -> np.ndarray:
        """Per-set maximum of per-support-point values, shape (u,) or
        (u, m); an empty set gives 0."""
        out = np.zeros((self.size,) + values.shape[1:])
        if self._starts.size:
            out[self.nonempty] = np.maximum.reduceat(values[self.ids],
                                                     self._starts, axis=0)
        return out

    def argmax(self, values: np.ndarray) -> np.ndarray:
        """Row in ``ids`` of the first maximum of the per-support-point
        ``values`` over each nonempty set (one entry per index in
        ``nonempty``), as ``np.argmax`` over its members picks it."""
        if not self._starts.size:
            return np.zeros(0, dtype=int)
        packed = values[self.ids]
        top = np.maximum.reduceat(packed, self._starts)
        sizes = np.diff(np.append(self._starts, len(packed)))
        rows = np.arange(len(packed))
        hit = np.where(packed == np.repeat(top, sizes), rows, len(packed))
        return np.minimum.reduceat(hit, self._starts)

    def max_distances(self, shape: Shape) -> np.ndarray:
        """max_{s in S_i} d(s, shape) for every set i (0 when empty)."""
        return self.maxima(shape_distances(self.support, shape))

    def cost(self, shape: Shape) -> float:
        """sum_i w_i max_{s in S_i} d(s, shape)."""
        return float(self._cost(shape_distances(self.support, shape)))

    def _cost(self, dists: np.ndarray):
        """sum_i w_i max_{s in S_i} dists[s] for per-support-point distances
        of shape (u,), or one such sum per column of a (u, m) table."""
        return _weighted_sum(self.weights, self.maxima(dists))


def kcenter_value(P: np.ndarray, shape: Shape) -> float:
    """max_{s in P} d(s, shape); empty P gives 0."""
    P = np.asarray(P, dtype=float)
    if P.size == 0:
        return 0.0
    return float(shape_distances(P, shape).max())


def _farthest_weights(instance: Instance, dists: np.ndarray) -> np.ndarray:
    """w_l = Pr[support point l is the farthest realized point, ties to the
    lowest id] for every support point l, given its distance ``dists[l]``;
    for an (m, shapes) ``dists``, the weights of each column: the
    distribution of Monte Carlo's farthest-first position, scattered."""
    order = (-dists).argsort(axis=0, kind="stable")
    p = _farthest_distribution(instance, order)
    w = np.empty(dists.shape)
    if dists.ndim == 1:
        # the Nelder-Mead objectives' path: put_along_axis builds index
        # arrays each call, and in traced skc runs (seed 9850, 2-vCPU x86)
        # it raised gkm.minimize self time per evaluation from 16.5-17.8
        # to 18.4-20.5 us
        w[order] = p
    else:
        np.put_along_axis(w, order, p, axis=0)
    return w


def _exact_value(instance: Instance, dists: np.ndarray):
    """E[max over the realized points of dists]: sum_l w_l dists[l] over the
    farthest-point weights w of ``_farthest_weights``; for an (m, shapes)
    ``dists``, the value of each column."""
    return _weighted_sum(_farthest_weights(instance, dists), dists)


def expected_objective_exact(instance: Instance, shape: Shape) -> ObjectiveValue:
    """Exact expected objective of a center set or a flat.

    ``shape_distances`` handles the shape kind and ``_exact_value`` the
    model.
    """
    return ObjectiveValue(_finite(float(_exact_value(
        instance, shape_distances(instance.support_points, shape)))), "Exact")


def expected_flatcenter_exact(instance: Instance, F: Flat) -> ObjectiveValue:
    """``expected_objective_exact`` for a flat."""
    return expected_objective_exact(instance, F)


def expected_objective_mc(instance: Instance, shape: Shape, samples: int,
                          rng: np.random.Generator) -> ObjectiveValue:
    """Monte-Carlo estimate with standard error of the mean.

    Sample i consumes the i-th block of n uniforms from ``rng`` (see
    ``model.realize``), so a seed gives the same value and stderr as
    drawing the samples one at a time.  A sample scores the distance of
    its first realized support point in farthest-first order (ties to the
    lowest id), read by ``model.farthest_realized``, or 0 when it realizes
    none: the largest distance over its realized points.
    Uniforms are drawn into one reused (rows, n) buffer and scored in
    chunks of ``rows = CHUNK_ELEMENTS // max(n, support)`` samples (at
    least one): the buffer and each chunk temporary hold at most 1 MiB, or
    one row when n or the support exceeds ``CHUNK_ELEMENTS``; the values
    take 8 bytes per sample.  Any non-finite distance raises
    ``NonFiniteValue``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if instance.n == 0:  # every realization is empty
        return ObjectiveValue(0.0, "MonteCarlo", samples=samples, stderr=0.0)
    dists = shape_distances(instance.support_points, shape)
    _finite(float(dists.max()))
    order = (-dists).argsort(kind="stable")
    # the score at a position in ``order``; the last one, 0, scores a
    # sample with nothing realized
    scores = np.append(dists[order], 0.0)
    rows = max(CHUNK_ELEMENTS // max(instance.n, len(dists)), 1)
    buf = np.empty((min(rows, samples), instance.n))
    vals = np.empty(samples)
    for start in range(0, samples, rows):
        u = rng.random(out=buf[:min(rows, samples - start)])
        vals[start:start + len(u)] = scores[farthest_realized(instance, u,
                                                              order)]
    mean = _finite(float(vals.mean()))
    stderr = float(vals.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return ObjectiveValue(mean, "MonteCarlo", samples=samples, stderr=stderr)
