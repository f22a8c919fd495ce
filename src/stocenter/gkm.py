"""Generalized k-median over weighted collections of point sets.

An instance is a weighted collection of finite point sets; the cost of a
k-point center set F is sum_i w_i * max_{s in S_i} d(s, F).  The module
provides per-set sensitivity scores, an importance sampler, the scored
candidate-coreset stream, numerical solvers, and the end-to-end
stochastic k-center pipeline built on the partition module.

Packed layout.  The collection type is ``objective.WeightedCollection``,
re-exported here.  It packs the sets once, at construction: all points in
one (total, d) array, the start offset of each set, one weight per set
and an explicit d.  A cost evaluation is one point-to-center distance
table on the packed points, its minimum over the centers, and one
``np.maximum.reduceat`` for the per-set maxima; the first-occurrence
argmax per set (the farthest point, for the k=1 start and reassignment)
comes from the same reduction.  The discrete k-subset
pass scores many center sets at once from ``objective``'s
point-to-candidate table, and one chunked scorer, ``candidate_costs``,
serves the candidate-coreset stream (the ``enumerate`` screen and criterion
8) in one chunk of memory; it needs M >= 1 and L_exp >= 0.  No cost or
farthest-point evaluation loops over the sets in Python.

Solves.  One local search per k, every Nelder-Mead run made by
``neldermead.minimize``, whose only options are its module constants
(``XATOL`` 1e-12, ``FATOL`` 1e-14, ``MAXITER`` 4000), as ``jflat``'s j=1
line searches are; it replays
scipy's Nelder-Mead bit for bit, and the library does not import scipy.
k=1 is one Nelder-Mead run from the weighted centroid of the sets'
farthest points; k >= 2 is one alternating run from
the discrete pass's best k-subset, or from k evenly spaced points when it
has none; the exact polish is one Nelder-Mead run per start, and the
pipelines report the runs stopped at ``MAXITER`` as ``polish_unconverged``.
Both Nelder-Mead objectives score the raw (k*d,) center vector through
the evaluators' own arithmetic (``objective._nearest_distances``, then the
collection cost or ``_exact_value``), with no ``CenterSet`` per
evaluation, so they equal ``gkm_cost`` and ``expected_objective_exact``
bit for bit.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations, islice

import numpy as np

from .errors import EnumerationGuardExceeded, ZeroCostCandidate
from .model import (CHUNK_ELEMENTS, CenterSet, ExistentialInstance, Instance,
                    assignment_rows)
from .neldermead import minimize
from .objective import (WeightedCollection, _check_eps, _check_k, _distances,
                        _exact_value, _finite, _nearest_distances,
                        _subset_minima, _weighted_sum, shape_distances)
from .partition import WeightedImage, build_weighted_image

MAX_CANDIDATE_STREAM = 10 ** 7
MAX_DISCRETE_SUBSETS = 10 ** 5


def collection_from_image(image: WeightedImage,
                          instance: Instance) -> WeightedCollection:
    support = instance.support_points
    entries = [(ids, w) for ids, w in image.entries if w > 0.0]
    return WeightedCollection(
        sets=tuple(support[list(ids)] for ids, _ in entries),
        weights=np.array([w for _, w in entries]), d=instance.d)


def gkm_cost(S: WeightedCollection, F: CenterSet) -> float:
    return S.cost(F)


def _cost_objective(S: WeightedCollection):
    """``gkm_cost`` of S as a function of the raw (k*d,) center vector."""
    points, d = S.points, S.d
    return lambda x: S._cost(_nearest_distances(points, x.reshape(-1, d)))


def _exact_objective(instance: Instance):
    """``expected_objective_exact(instance, ·).value`` as a function of the
    raw (k*d,) center vector."""
    points, d = instance.support_points, instance.d
    return lambda x: _exact_value(
        instance, _nearest_distances(points, x.reshape(-1, d)))


def _farthest_nearest(S: WeightedCollection, F: CenterSet) -> np.ndarray:
    """Index of the center of F nearest to each nonempty set's farthest
    point from F (first argmax), one entry per ``S.nonempty``."""
    far = S.points[S.argmax(shape_distances(S.points, F))]
    return ((F.centers[None, :, :] - far[:, None, :]) ** 2).sum(axis=2) \
        .argmin(axis=1)


def sensitivity_bruteforce(S: WeightedCollection,
                           candidate_family) -> np.ndarray:
    """Max over the explicit family of each set's cost share, one per set.

    A certified lower bound on the true sensitivities (the supremum ranges
    over all center sets, the family over finitely many).
    """
    if not candidate_family:
        raise ValueError("candidate family must be nonempty")
    values = np.zeros(S.size)
    for F in candidate_family:
        total = gkm_cost(S, F)
        if total <= 0.0:
            raise ZeroCostCandidate("candidate with zero total cost")
        values = np.maximum(values,
                            S.weights * S.max_distances(F) / total)
    return values


def sensitivity_projection(S: WeightedCollection,
                           F_hat: CenterSet) -> np.ndarray:
    """Sensitivity scores from an approximate optimum F_hat, one per set.

    A heuristic, not a certified upper bound: each set is reduced to its
    farthest point, projected to its nearest center of F_hat, and scored by
    its cost share under F_hat plus the projected instance's cluster-mass
    term, clipped to [0, 1].  Uniform 1/N when F_hat fits every set exactly.
    """
    total = gkm_cost(S, F_hat)
    N = S.size
    if total <= 0.0:
        return np.full(N, 1.0 / N)
    # Nearest reference center of each set's farthest point; the projected
    # points coincide with centers, so their distance share vanishes and
    # only the cluster-mass term survives.
    # Empty sets count toward center 0's cluster mass.
    nearest = np.zeros(N, dtype=int)
    nearest[S.nonempty] = _farthest_nearest(S, F_hat)
    cluster_mass = np.zeros(F_hat.k)
    np.add.at(cluster_mass, nearest, S.weights)  # in set order
    share = S.weights * S.max_distances(F_hat) / total
    # Each set adds its own positive weight, so every cluster mass used here
    # is positive.
    mass_term = 2.0 * S.weights / cluster_mass[nearest]
    return np.minimum(np.maximum(share + mass_term, 0.0), 1.0)


def importance_sample_coreset(weights: np.ndarray, sensitivities: np.ndarray,
                              M: int, rng: np.random.Generator
                              ) -> tuple[np.ndarray, np.ndarray]:
    """M draws of the sets in proportion to their sensitivity plus the 1/N
    floor, each weighted w_i * total / (score_i * M).  Returns the drawn
    set indices, ascending, and their weights; the draws of one set are
    summed in draw order."""
    if M < 1:
        raise ValueError("M must be >= 1")
    scores = sensitivities + 1.0 / len(sensitivities)
    total_q = float(scores.sum())
    draws = rng.choice(len(scores), size=M, p=scores / total_q)
    acc = np.zeros(len(scores))
    np.add.at(acc, draws, total_q * weights[draws] / (scores[draws] * M))
    indices = np.unique(draws)
    return indices, acc[indices]


def candidate_costs(S: WeightedCollection, K: np.ndarray, M: int,
                    L_exp: int, eps: float):
    """The candidate-coreset stream scored against the (sets, probes) table
    K, as blocks of (rows, size) set indices and exponents and (rows, probes)
    costs sum_t ((1+eps)^{a_t} w_{i_t} / M) K[i_t], added left to right, in
    order of size 1..M, ``combinations``, then ``product`` of 0..L_exp.  A
    block holds at most ``CHUNK_ELEMENTS`` entries (one row at least), and a
    stream past ``MAX_CANDIDATE_STREAM`` raises before the first block."""
    if M < 1 or L_exp < 0:
        raise ValueError("candidate enumeration needs M >= 1 and L_exp >= 0")
    N, m = S.size, L_exp + 1
    sizes = range(1, min(M, N) + 1)
    if sum(math.comb(N, s) * m ** s for s in sizes) > MAX_CANDIDATE_STREAM:
        raise EnumerationGuardExceeded(f"candidate stream for N={N}, M={M}, "
                                       f"L_exp={L_exp} exceeds {MAX_CANDIDATE_STREAM}")
    powers = np.array([(1.0 + eps) ** a for a in range(m if N else 0)])
    for size in sizes:
        E = m ** size
        rows = max(CHUNK_ELEMENTS // max(K.shape[1], size), 1)
        # whole combinations per block, or one combination in exponent steps
        per, step = max(rows // E, 1), min(rows, E)
        combos = combinations(range(N), size)
        while block := list(islice(combos, per)):
            idx = np.array(block, dtype=np.intp)
            for lo in range(0, E, step):
                exps = assignment_rows(size, m, lo, min(lo + step, E))
                # sum() adds the terms to 0 left to right, as the loop did
                costs = sum((powers[exps[:, t]] * S.weights[idx[:, t], None]
                             / M)[:, :, None] * K[idx[:, t]][:, None, :]
                            for t in range(size))
                yield (np.repeat(idx, len(exps), axis=0), np.tile(
                    exps, (len(idx), 1)), costs.reshape(-1, K.shape[1]))


def _screen(S: WeightedCollection, K: np.ndarray, M: int, L_exp: int,
            eps: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The candidate whose largest relative deviation from S's cost, over
    the probes where S costs more than 1e-12, is least, as (set indices,
    weights, deviation): a later candidate replaces the kept one only when
    lower by over 1e-15."""
    full = _weighted_sum(S.weights, K)
    mask = full > 1e-12
    best, best_dev = None, math.inf
    for idx, exps, costs in candidate_costs(S, K, M, L_exp, eps):
        # with no probe of positive cost every candidate matches
        dev = np.abs(costs[:, mask] / full[mask] - 1.0).max(axis=1, initial=0.0)
        for r in np.flatnonzero(dev < best_dev - 1e-15).tolist():
            if dev[r] < best_dev - 1e-15:
                best, best_dev = (idx[r].tolist(), exps[r].tolist()), float(dev[r])
    return np.array(best[0]), np.array(
        [(1.0 + eps) ** a * S.weights[i] / M for i, a in zip(*best)]), best_dev


# ---------------------------------------------------------------------------
# Solvers


def _lex_key(centers: np.ndarray):
    """Sort key of a ``CenterSet``'s centers, which it stores sorted."""
    return tuple(map(tuple, centers.tolist()))


def _solve_k1(S: WeightedCollection) -> tuple[np.ndarray, float]:
    """Minimize the convex map c -> sum_i w_i max_{s in S_i} ||s - c|| by one
    Nelder-Mead run from the weighted centroid of the per-set farthest
    points from the mean of all points."""
    pts = S.points
    far = pts[S.argmax(np.linalg.norm(pts - pts.mean(axis=0), axis=1))]
    c0 = np.average(far, axis=0, weights=S.weights[S.nonempty])
    res = minimize(_cost_objective(S), c0)
    return res.x, res.fun


def _discrete_pass(S: WeightedCollection, k: int):
    """Best k-subset of the unique packed points, scored
    ``CHUNK_ELEMENTS // points`` subsets at a time.

    Subsets are scanned in ``combinations`` order of the sorted unique
    points, which is lexicographic order of the center sets, so keeping
    the first subset within 1e-15 of the best keeps the lexicographically
    smallest one."""
    uniq = np.unique(S.points, axis=0)
    if math.comb(uniq.shape[0], k) > MAX_DISCRETE_SUBSETS:
        return None
    rows = max(CHUNK_ELEMENTS // max(S.points.shape[0], 1), 1)
    best = None
    for subsets, table in _subset_minima(_distances(S.points, uniq), k, rows):
        for idx, v in zip(subsets, S._cost(table).tolist()):
            if best is None or v < best[1] - 1e-15:
                best = (idx, v)
    if best is None:  # fewer unique points than k
        return None
    return CenterSet(centers=uniq[best[0]]), best[1]


def _alternating(S: WeightedCollection,
                 F0: CenterSet) -> tuple[CenterSet, float]:
    F = F0
    value = gkm_cost(S, F)
    for _ in range(30):
        nearest = _farthest_nearest(S, F)
        new_centers = F.centers.copy()
        for j in np.unique(nearest):
            members = S.nonempty[nearest == j]
            c, _ = _solve_k1(S.subset(members, S.weights[members]))
            new_centers[j] = c
        F2 = CenterSet(centers=new_centers)
        v2 = gkm_cost(S, F2)
        if v2 >= value - 1e-12 * max(value, 1.0):
            break
        F, value = F2, v2
    return F, value


def solve_gkm(S: WeightedCollection, k: int) -> tuple[CenterSet, float]:
    """Best center set found; deterministic for fixed inputs.

    k=1 is ``_solve_k1``.  For k >= 2 it is one ``_alternating`` run from
    the discrete pass's best k-subset of the support, or from k evenly
    spaced packed points when there is none (fewer unique points than k, or
    more than ``MAX_DISCRETE_SUBSETS`` k-subsets)."""
    _check_k(k)
    if S.size == 0:
        raise ValueError("collection must be nonempty")
    if S.points.shape[0] == 0:
        return CenterSet(centers=np.zeros((k, S.d))), 0.0
    if k == 1:
        c, v = _solve_k1(S)
        return CenterSet(centers=c.reshape(1, -1)), v
    disc = _discrete_pass(S, k)
    if disc is None:
        pts = S.points
        F0 = CenterSet(centers=pts[np.linspace(0, pts.shape[0] - 1, k).astype(int)])
    else:
        F0 = disc[0]
    return _alternating(S, F0)


# ---------------------------------------------------------------------------
# End-to-end stochastic k-center


def _best_polished(instance: Instance, k: int,
                   starts: list) -> tuple[CenterSet, float, int, int]:
    """Polish each start center set (every caller passes one at least) by
    one Nelder-Mead run on the exact expected objective (cheap: each
    evaluation is one weight kernel and one sum) and keep the best by
    (value, lexicographic centers).

    For k=1 the enclosing-ball center of the support is tried last: it is
    the exact optimum for deterministic instances and a strong start
    elsewhere.  Returns (CenterSet, value, starts evaluated, starts whose
    run stopped unconverged at ``maxiter``).
    """
    if k == 1:
        from .oracle import minimum_enclosing_ball
        c, _ = minimum_enclosing_ball(instance.support_points)
        starts = [*starts, CenterSet(centers=c.reshape(1, -1))]
    d = instance.d
    fval = _exact_objective(instance)
    best, unconverged = None, 0
    for F0 in starts:
        res = minimize(fval, F0.centers.reshape(-1))
        unconverged += not res.success
        F = CenterSet(centers=res.x.reshape(k, d))
        v = res.fun
        if best is None or v < best[1] - 1e-15 or \
                (abs(v - best[1]) <= 1e-15 and _lex_key(F.centers) < _lex_key(best[0].centers)):
            best = (F, v)
    return best[0], best[1], len(starts), unconverged


def _check_skc_args(k: int, eps: float, strategy: str, M, L_exp):
    """Raise up front what an instance with mass raises downstream."""
    _check_eps(eps)
    _check_k(k)
    if strategy not in ("full", "sampling", "enumerate"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "sampling" and M is not None and M < 1:
        raise ValueError("M must be >= 1")
    if strategy == "enumerate" and ((M is not None and M < 1)
                                    or (L_exp is not None and L_exp < 0)):
        raise ValueError("candidate enumeration needs M >= 1 and L_exp >= 0")


def skc_pipeline(instance: Instance, k: int, eps: float,
                 strategy: str = "full", seed: int = 0,
                 M: int | None = None, L_exp: int | None = None):
    """Full stochastic k-center pipeline.

    Builds the coreset-class image S, derives candidate collections per the
    strategy, and polishes one start per collection: its ``solve_gkm``
    centers, or S's, solved once, for S and for a collection with no points
    (it costs 0 at every center set).  Returns the best polished CenterSet,
    its exact value and info: the strategy, ``candidates_evaluated``
    (polish starts run, a pointless collection's included) and
    ``polish_unconverged`` (those that stopped at ``maxiter``).

    ``enumerate`` solves the candidate (M default min(N, 2), L_exp 6) that
    tracks the image best on a probe grid.  L_exp is 6, not the paper's
    >= 21 for eps < 1: on a 256-set image with M=2 that would stream
    C(256, 2)·22² ≈ 1.58e7 candidates, past ``MAX_CANDIDATE_STREAM``.
    """
    _check_skc_args(k, eps, strategy, M, L_exp)
    if not instance.probs.any():
        F = CenterSet(centers=np.zeros((k, instance.d)))
        return F, 0.0, {"strategy": strategy, "candidates_evaluated": 0,
                        "polish_unconverged": 0}
    image_mode = "exhaustive" if instance.support_points.shape[0] <= 14 \
        and isinstance(instance, ExistentialInstance) else "subsets"
    image = build_weighted_image(instance, k, eps, mode=image_mode)
    S = collection_from_image(image, instance)
    collections = []
    solve_S = functools.cache(lambda: solve_gkm(S, k)[0])
    if strategy == "full":
        collections.append(S)
    elif strategy == "sampling":
        M_eff = M if M is not None else max(2 * S.size // 3, 1)
        idx, w = importance_sample_coreset(
            S.weights, sensitivity_projection(S, solve_S()), M_eff,
            np.random.default_rng(seed))
        collections.append(S.subset(idx, w))
        collections.append(S)  # keep the safe fallback candidate
    elif strategy == "enumerate":
        from .oracle import center_grid
        support = instance.support_points
        probes = np.unique(np.vstack([center_grid(support, 5), support]), axis=0)
        idx, w, _ = _screen(S, S.maxima(_distances(S.points, probes)),
                            min(S.size, 2) if M is None else M,
                            6 if L_exp is None else L_exp, eps)
        collections.append(S.subset(idx, w))
    starts = [solve_S() if coll is S or not coll.points.shape[0]
              else solve_gkm(coll, k)[0] for coll in collections]
    F, value, evaluated, unconverged = _best_polished(instance, k, starts)
    return F, _finite(value), {"strategy": strategy,
                               "candidates_evaluated": evaluated,
                               "polish_unconverged": unconverged}
