"""Exact and Monte-Carlo evaluation of the expected k-center value K(P, F)
and expected j-flat-center value J(P, F) in both uncertainty models.

Both models' exact value is sum_l w_l d_l over one private kernel,
``_farthest_weights``: w_l = Pr[support point l is the farthest realized
point, ties to the lowest id].  So, for a fixed assignment of points to
centers, sum_l w_l (c - s_l) / ||c - s_l|| over the points served by c is
a subgradient of the expected objective.

Every weighted sum of a value is ``_weighted_sum``, added left to right:
a BLAS dot's order depends on the thread count.  ``_exact_value`` and
``WeightedCollection._cost`` are the one arithmetic path of the exact
value and of the collection cost, and ``_nearest_distances`` of the
distance to the nearest center.  Both sums also take an (m, shapes)
table and score each column bit for bit as alone; the grid-search
oracles screen with them.

Flat distances are per-row sums along d, never a BLAS product, so a
point's distance does not depend on the other points scored with it.

``WeightedCollection``, the one weighted point-set type, is the one place
that takes K(S, F) = max_{s in S} d(s, F) for every set S.  The grid
coreset's r_P table, gkm's discrete pass and screen and the sensitivity
oracle read the point-to-candidate table ``_distances`` through
``_subset_minima``, its minimum over every k-subset of candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, islice

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue
from .model import (CHUNK_ELEMENTS, CenterSet, ExistentialInstance, Flat,
                    Instance, realize)


@dataclass(frozen=True)
class ObjectiveValue:
    value: float
    method: str
    samples: int | None = None
    seed: int | None = None
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


@dataclass(frozen=True, eq=False)
class WeightedCollection:
    """Weighted point sets packed into one array; empty sets cost 0.

    ``sets`` are (n_i, d) arrays (a 1-D array is one point), ``weights``
    positive, 1 each by default, and ``d`` is taken from the sets (an empty
    ``(0, d)`` array counts) unless given.  Set i becomes the read-only view
    ``points[offsets[i]:offsets[i + 1]]``.  Every per-set maximum is one
    ``np.maximum.reduceat`` over the starts of the ``nonempty`` sets, and
    ``max_distances`` and ``cost`` take ``shape_distances`` once.
    """

    sets: tuple
    weights: np.ndarray | None = None
    d: int | None = None
    points: np.ndarray = field(init=False, repr=False)   # (total, d)
    offsets: np.ndarray = field(init=False, repr=False)  # (size + 1,)
    nonempty: np.ndarray = field(init=False, repr=False)  # set indices
    _starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arrays = [np.asarray(s, dtype=float) for s in self.sets]
        dims = {np.atleast_2d(a).shape[1] for a in arrays
                if a.size or a.ndim == 2}
        d = self.d
        if d is None:
            if len(dims) != 1:
                raise DimensionMismatch(
                    "cannot infer one dimension from the sets; pass d")
            d = dims.pop()
        elif dims - {d}:
            raise DimensionMismatch(f"set dimensions {sorted(dims)} != {d}")
        w = np.ones(len(arrays)) if self.weights is None \
            else np.asarray(self.weights, dtype=float)
        if w.shape != (len(arrays),):
            raise ValueError("one weight per set required")
        if not np.all(w > 0.0):
            raise ValueError("weights must be positive")
        rows = [np.atleast_2d(a) for a in arrays if a.size]
        points = np.vstack(rows) if rows else np.zeros((0, d))
        points.flags.writeable = False
        sizes = [a.size // d for a in arrays]
        offsets = np.concatenate([[0], np.cumsum(sizes, dtype=int)])
        nonempty = np.flatnonzero(np.diff(offsets))
        views = tuple(np.split(points, offsets[1:-1])) if arrays else ()
        object.__setattr__(self, "sets", views)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "d", int(d))
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "nonempty", nonempty)
        object.__setattr__(self, "_starts", offsets[nonempty])

    @property
    def size(self) -> int:
        return len(self.weights)

    def maxima(self, values: np.ndarray) -> np.ndarray:
        """Per-set maximum of per-point values, shape (total,) or
        (total, m); an empty set gives 0."""
        out = np.zeros((self.size,) + values.shape[1:])
        if self._starts.size:
            out[self.nonempty] = np.maximum.reduceat(values, self._starts,
                                                     axis=0)
        return out

    def argmax(self, values: np.ndarray) -> np.ndarray:
        """Row in ``points`` of the first maximum of each nonempty set
        (one entry per index in ``nonempty``), as ``np.argmax`` picks it."""
        if not self._starts.size:
            return np.zeros(0, dtype=int)
        top = np.maximum.reduceat(values, self._starts)
        sizes = np.diff(np.append(self._starts, len(values)))
        rows = np.arange(len(values))
        hit = np.where(values == np.repeat(top, sizes), rows, len(values))
        return np.minimum.reduceat(hit, self._starts)

    def max_distances(self, shape: Shape) -> np.ndarray:
        """max_{s in S_i} d(s, shape) for every set i (0 when empty)."""
        return self.maxima(shape_distances(self.points, shape))

    def cost(self, shape: Shape) -> float:
        """sum_i w_i max_{s in S_i} d(s, shape)."""
        return float(self._cost(shape_distances(self.points, shape)))

    def _cost(self, dists: np.ndarray):
        """sum_i w_i max_{s in S_i} dists[s] for per-point distances of
        shape (total,), or one such sum per column of a (total, m) table."""
        return _weighted_sum(self.weights, self.maxima(dists))


def kcenter_value(P: np.ndarray, shape: Shape) -> float:
    """max_{s in P} d(s, shape); empty P gives 0."""
    P = np.asarray(P, dtype=float)
    if P.size == 0:
        return 0.0
    return float(shape_distances(P, shape).max())


def flat_distance(x: np.ndarray, F: Flat) -> float:
    return float(shape_distances(np.atleast_2d(np.asarray(x, dtype=float)), F)[0])


def _farthest_weights(instance: Instance, dists: np.ndarray) -> np.ndarray:
    """w_l = Pr[support point l is the farthest realized point, ties to the
    lowest id] for every support point l, given its distance ``dists[l]``;
    for an (m, shapes) ``dists``, the weights of each column.  An empty
    realization has no farthest point, so w sums to
    Pr[some point is realized]: 0 for a locational instance with no nodes,
    whose only realization is empty."""
    if instance.n == 0:
        return np.zeros(dists.shape)
    if isinstance(instance, ExistentialInstance):
        # farthest first, ties to the lowest id: l is the farthest realized
        # point iff it is present and every point before it is absent
        order = (-dists).argsort(axis=0, kind="stable")
        p = instance.probs[order]
        p[1:] *= np.multiply.accumulate(1.0 - p, axis=0)[:-1]
    else:
        # nearest first, ties to the highest id: cdf[r] = Pr[every node
        # lands in order[:r + 1]], so its jump at r is Pr[the farthest
        # realized location is order[r]]
        order = len(dists) - 1 - dists[::-1].argsort(axis=0, kind="stable")
        cdf = np.multiply.reduce(
            np.add.accumulate(instance.probs[:, order], axis=1), axis=0)
        p = np.diff(cdf, axis=0, prepend=0.0)
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
    method = "ExactSorted" if isinstance(instance, ExistentialInstance) \
        else "ExactCDF"
    return ObjectiveValue(_finite(float(_exact_value(
        instance, shape_distances(instance.support_points, shape)))), method)


def expected_flatcenter_exact(instance: Instance, F: Flat) -> ObjectiveValue:
    """``expected_objective_exact`` for a flat."""
    return expected_objective_exact(instance, F)


def expected_objective_mc(instance: Instance, shape: Shape, samples: int,
                          rng: np.random.Generator,
                          seed: int | None = None) -> ObjectiveValue:
    """Monte-Carlo estimate with standard error of the mean.

    Sample i consumes the i-th block of n uniforms from ``rng`` (see
    ``model.realize``), so a seed gives the same value and stderr as
    drawing the samples one at a time.  Uniforms are drawn and scored in
    chunks of ``model.CHUNK_ELEMENTS // n`` rows (at least one), which
    keeps each chunk temporary at 1 MiB, or at one row of n values when n
    exceeds ``CHUNK_ELEMENTS``; the per-sample values take 8 bytes
    per sample.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if instance.n == 0:  # every realization is empty
        return ObjectiveValue(0.0, "MonteCarlo", samples=samples, seed=seed,
                              stderr=0.0)
    dists = shape_distances(instance.support_points, shape)
    rows = max(CHUNK_ELEMENTS // instance.n, 1)
    vals = np.empty(samples)
    for start in range(0, samples, rows):
        drawn = realize(instance, rng.random((min(rows, samples - start),
                                              instance.n)))
        if isinstance(instance, ExistentialInstance):
            # Distances are finite and nonnegative, so an absent point's 0.0
            # never exceeds a present one's: this is the max over the
            # present points, and 0 when none is present.
            chunk = (drawn * dists).max(axis=1)
        else:
            chunk = dists[drawn].max(axis=1)
        vals[start:start + len(chunk)] = chunk
    mean = _finite(float(vals.mean()))
    stderr = float(vals.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return ObjectiveValue(mean, "MonteCarlo", samples=samples, seed=seed,
                          stderr=stderr)
