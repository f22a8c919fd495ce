"""Brute-force reference implementations backing every approximation claim.

Everything here is definitionally exact on guard-sized instances and
deliberately slow: full realization enumeration, direct holant summation,
grid-search solvers, exhaustive sensitivity families, and a Welzl minimum
enclosing ball.  The grouped coreset-class masses are the exhaustive mode
of ``partition.build_weighted_image``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationGuardExceeded, InstanceTooLarge
from .gkm import WeightedCollection, gkm_cost
from .model import (CHUNK_ELEMENTS, MAX_LOCATIONAL_STATES, CenterSet, Flat,
                    Instance, realization_chunks)
from .objective import (_check_k, _distances, _exact_value, _finite,
                        _subset_minima, _weighted_sum,
                        expected_objective_exact, shape_distances)
from .partition import _holant_inputs

# Cap on the point-to-subset entries a grid search or the sensitivity oracle
# scores: k-subsets of the candidates times the points.
MAX_GRID_ENTRIES = 10 ** 8


@dataclass(frozen=True)
class OracleReport:
    value: float
    method: str
    enumeration_size: int


def oracle_expected_values(instance: Instance,
                           dmat: np.ndarray) -> tuple[np.ndarray, int]:
    """Expected max distance by full enumeration, for every column of the
    (support, shapes) distance matrix ``dmat``, and the number of
    realizations enumerated (those of nonzero probability)."""
    out = np.zeros(dmat.shape[1])
    count = 0
    for masks, pr in realization_chunks(instance):
        count += len(pr)
        for f, dists in enumerate(dmat.T):
            # distances are >= 0: an unrealized point's 0 never wins, and
            # the empty realization scores 0
            vals = np.where(masks, dists, 0.0)
            out[f] += _weighted_sum(pr, vals.max(axis=1, initial=0.0))
    return out, count


def oracle_expected_objective(instance: Instance, shape) -> OracleReport:
    """Expected objective by summing over every realization."""
    dists = shape_distances(instance.support_points, shape)
    values, count = oracle_expected_values(instance, dists[:, None])
    return OracleReport(value=_finite(float(values[0])),
                        method="FullEnumeration",
                        enumeration_size=count)


def oracle_holant_direct(instance: Instance, S_ids, tail,
                         sequence) -> float:
    """Z for one occupancy sequence of a locational instance, by direct
    summation over assignments.

    Each node picks one alternative (a point of S or the tail bucket); the
    term survives iff the occupancy counts match the sequence exactly.
    The inputs are checked as ``holant_value`` checks them, and the
    (|S| + 1)^n assignments are counted before the first term: past
    ``MAX_LOCATIONAL_STATES`` they raise InstanceTooLarge.
    """
    S_ids, tail, target = _holant_inputs(instance, S_ids, tail, sequence)
    slots = len(S_ids) + 1  # last slot is the tail bucket
    n = instance.n
    if slots ** n > MAX_LOCATIONAL_STATES:
        raise InstanceTooLarge(f"{slots}^{n} = {slots ** n} assignments "
                               f"exceed {MAX_LOCATIONAL_STATES}")
    w = np.zeros((n, slots))
    w[:, :len(S_ids)] = instance.probs[:, list(S_ids)]
    if tail:
        w[:, -1] = instance.probs[:, list(tail)].sum(axis=1)
    total = 0.0
    for assign in itertools.product(range(slots), repeat=n):
        counts = [0] * slots
        term = 1.0
        for node, slot in enumerate(assign):
            counts[slot] += 1
            term *= w[node, slot]
        if tuple(counts) == target:
            total += term
    return total


def center_grid(points: np.ndarray, resolution: int,
                margin: float = 0.0) -> np.ndarray:
    """Axis-aligned grid of candidate centers over the bounding box."""
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    points = np.atleast_2d(points)
    lo = points.min(axis=0) - margin
    hi = points.max(axis=0) + margin
    axes = [np.linspace(lo[i], hi[i], resolution) for i in range(points.shape[1])]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _check_entries(candidates: int, k: int, points: int) -> None:
    """Raise EnumerationGuardExceeded when the k-subsets of ``candidates``
    times ``points`` exceed ``MAX_GRID_ENTRIES``; called before any subset
    is scored."""
    entries = math.comb(candidates, k) * points
    if entries > MAX_GRID_ENTRIES:
        raise EnumerationGuardExceeded(
            f"{entries} subset-point entries exceed {MAX_GRID_ENTRIES}")


def _grid_search(points: np.ndarray, k: int, resolution: int, width: int,
                 screen, value) -> tuple[CenterSet, float] | None:
    """The first k-subset, in ``combinations`` order of the sorted grid and
    support candidates, with the least ``value(CenterSet)``, and that value;
    None when there are fewer candidates than k.

    ``screen(table)`` scores a chunk of subsets at once from their
    point-to-nearest-center table (points, subsets), equal to ``value`` bit
    for bit, with temporaries of at most ``width`` elements per subset, so
    a chunk holds ``CHUNK_ELEMENTS // width`` subsets (at least one).
    Raises EnumerationGuardExceeded, before any scoring, past
    ``MAX_GRID_ENTRIES`` subsets times points."""
    _check_k(k)
    cand = np.unique(np.vstack([center_grid(points, resolution), points]),
                     axis=0)
    _check_entries(len(cand), k, points.shape[0])
    rows = max(CHUNK_ELEMENTS // max(width, 1), 1)
    best, low = None, np.inf
    for subsets, table in _subset_minima(_distances(points, cand), k, rows):
        scores = screen(table)
        i = int(scores.argmin())
        if best is None or scores[i] < low:
            best, low = subsets[i], scores[i]
    if best is None:
        return None
    F = CenterSet(centers=cand[best])
    return F, value(F)


def oracle_solver_gkm(S: WeightedCollection, k: int,
                      resolution: int = 21) -> tuple[CenterSet, float]:
    """Grid search over center tuples plus all k-subsets of union points."""
    return _grid_search(S.points, k, resolution, S.points.shape[0], S._cost,
                        lambda F: gkm_cost(S, F))


def oracle_solver_instance(instance: Instance, k: int,
                           resolution: int = 21) -> tuple[CenterSet, float]:
    """Grid search directly on the exact expected k-center objective."""
    points = instance.support_points
    # the kernel's temporaries: nodes x points per subset, at least points
    return _grid_search(
        points, k, resolution, max(instance.probs.size, points.shape[0]),
        lambda table: _exact_value(instance, table),
        lambda F: expected_objective_exact(instance, F).value)


def oracle_sensitivities(S: WeightedCollection, k: int,
                         resolution: int = 7) -> np.ndarray:
    """Brute-force lower bounds over the maximal feasible family, every
    k-subset of union points plus grid centers of positive cost: the values
    of ``gkm.sensitivity_bruteforce`` on it, a chunk of subsets at a time,
    with each cost summed as ``gkm_cost`` sums it.  Raises
    EnumerationGuardExceeded, before any scoring, past ``MAX_GRID_ENTRIES``
    subsets times packed points."""
    _check_k(k)
    pts = np.unique(S.points, axis=0)
    cand = np.unique(np.vstack([center_grid(pts, resolution, margin=1.0), pts]),
                     axis=0)
    _check_entries(len(cand), k, S.points.shape[0])
    rows = max(CHUNK_ELEMENTS // max(S.points.shape[0], 1), 1)
    values, feasible = np.zeros(S.size), False
    for _, table in _subset_minima(_distances(S.points, cand), k, rows):
        maxima = S.maxima(table)                            # (sets, chunk)
        total = _weighted_sum(S.weights, maxima)
        good = total > 0.0
        if good.any():
            feasible = True
            shares = S.weights[:, None] * maxima[:, good] / total[good]
            values = np.maximum(values, shares.max(axis=1))
    if not feasible:
        raise ValueError("candidate family must be nonempty")
    return values


# ---------------------------------------------------------------------------
# Minimum enclosing ball (deterministic-instance j=0 reference)


def _ball_from(boundary: list[np.ndarray], d: int):
    if not boundary:
        return np.zeros(d), 0.0
    if len(boundary) == 1:
        return boundary[0], 0.0
    if len(boundary) == 2:
        c = (boundary[0] + boundary[1]) / 2.0
        return c, float(np.linalg.norm(boundary[0] - c))
    # General position: solve the circumsphere through all boundary points.
    A = 2.0 * (np.array(boundary[1:]) - boundary[0])
    b = np.array([float(p @ p - boundary[0] @ boundary[0])
                  for p in boundary[1:]])
    c, *_ = np.linalg.lstsq(A, b, rcond=None)
    return c, float(np.linalg.norm(boundary[0] - c))


def minimum_enclosing_ball(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Welzl's algorithm with a fixed-seed shuffle, in loop form: it recurses
    only when a point joins the boundary, so the depth is at most d + 1."""
    pts = [np.asarray(p, dtype=float) for p in np.atleast_2d(points)]
    np.random.default_rng(7).shuffle(pts)
    d = pts[0].shape[0]

    def welzl(start, R):  # the ball of pts[start:] with R on its boundary
        c, r = _ball_from(R, d)
        if len(R) == d + 1:
            return c, r
        for i in range(len(pts) - 1, start - 1, -1):
            p = pts[i]
            if np.linalg.norm(p - c) > r * (1 + 1e-12) + 1e-12:
                c, r = welzl(i + 1, R + [p])
        return c, r

    return welzl(0, [])


def oracle_min_flat(points: np.ndarray, j: int) -> tuple[Flat, float]:
    """Deterministic minimum over flats of the max distance.

    j=0 is the minimum enclosing ball.  j=1 falls back to a dense direction
    scan with interval stabbing per direction (2-D only).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d = points.shape[1]
    if j == 0:
        c, r = minimum_enclosing_ball(points)
        return Flat(j=0, base=c), r
    if d != 2:
        raise ValueError("line oracle implemented for d=2 only")
    best = None
    for theta in np.linspace(0.0, np.pi, 3600, endpoint=False):
        v = np.array([np.cos(theta), np.sin(theta)])
        nrm = np.array([-v[1], v[0]])
        offs = points @ nrm
        width = (offs.max() - offs.min()) / 2.0
        mid = (offs.max() + offs.min()) / 2.0
        if best is None or width < best[1]:
            best = (Flat(j=1, base=mid * nrm, basis=v.reshape(1, -1)),
                    float(width))
    return best
