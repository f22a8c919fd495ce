"""Probability mass of each additive-coreset class.

A realization maps through the grid construction to its coreset; this module
computes Pr[coreset = S] for candidate subsets S.  S is in the image exactly
when the construction run on S returns S, and every class's mass follows one
rule: the probability that a realization contains S and avoids every
forbidden point, with the tail T(S) left free.  T(S) is the construction's
own tail of S (``CoresetBatch.tail``), and every other point outside S is
forbidden.  A class of at most k points (a Singleton) is its own coreset
under the sentinel grid of side 0, so its tail is empty and it needs no rule
of its own.  Existential instances evaluate the rule as a closed-form
per-point product; locational instances as an exact dynamic program over
which points of S the nodes occupy, one array of 2^|S| occupied-subset
states per class.  ``holant_value``, the per-sequence value of the paper,
runs a dict program over occupancy counts up to n.

Both modes of ``build_weighted_image`` run the batched construction
(``CoresetBuilder.build_masks``) over chunks of ``chunk_rows`` mask rows:
every realization (exhaustive) or every candidate subset (subsets).
Exhaustive mode passes the realization masks of either model and their
probabilities from ``model.realization_chunks``, which owns the enumeration
order, guards and zero-probability filter, straight to the construction.
Memory is one chunk plus the classes, in both models.  In subsets mode one
function, ``_class_masses``, gives a chunk its masses in both models: one
batch of the construction tells which rows are in the image, and gives the
existential tails.  n nodes occupy at most n locations, so locational
candidates stop at n points, and a class of more than n points has mass 0;
the in-image locational classes of a chunk, all of one size, then go
through one batched subset-state DP (``_occupied_masses``).
``class_mass`` is its one-row call.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import combinations, compress, islice

import numpy as np

from .errors import EnumerationGuardExceeded, StateSpaceGuardExceeded
from .grid_coreset import CoresetBuilder, coreset_image_size_bound
from .model import (CHUNK_ELEMENTS, ExistentialInstance, Instance,
                    LocationalInstance, _index_masks, id_mask,
                    realization_chunks)

MAX_SUBSET_ENUMERATION = 10 ** 6
MAX_HOLANT_STATES = 10 ** 7

@dataclass(frozen=True)
class WeightedImage:
    entries: tuple[tuple[tuple[int, ...], float], ...]  # (subset ids, weight)
    source: str  # "Exhaustive" | "SubsetEnumeration"

    @property
    def total_weight(self) -> float:
        return float(sum(w for _, w in self.entries))


def _ids(masks: np.ndarray) -> list[tuple[int, ...]]:
    """Ascending point ids of every mask row."""
    cols = range(masks.shape[1])
    return [tuple(compress(cols, row)) for row in masks.tolist()]


def _group_rows(masks: np.ndarray):
    """The distinct rows of a boolean matrix, and each row's index among
    them."""
    # lexsort needs a key; rows of width 0 are all equal
    order = np.lexsort(masks.T) if masks.shape[1] else np.arange(len(masks))
    ordered = masks[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def _class_masses(builder: CoresetBuilder, instance: Instance,
                  masks: np.ndarray) -> np.ndarray:
    """Pr over realizations P of [coreset(P) = S] for every candidate row S,
    in either model; 0 for rows not in the image.

    S is in the image when the construction run on S returns S.  A row of
    at most k points (the empty row included) has r_S = 0, so it is its own
    coreset under the sentinel grid, with an empty tail.
    """
    batch = builder.build_masks(masks)
    in_image = (batch.core == masks).all(axis=1)
    w = np.zeros(masks.shape[0])
    if isinstance(instance, ExistentialInstance):
        # One factor per support point, in index order: p at a point of S, 1
        # for a point of T(S) (unconstrained), and 1 - p for a smaller-index
        # cellmate of a point of S or a point in an unoccupied cell (both
        # must be absent).
        rows = np.flatnonzero(in_image)
        factors = np.where(masks[rows], instance.probs,
                           np.where(batch.tail[rows], 1.0,
                                    1.0 - instance.probs))
        # the empty product of a support of no points is 1
        w[rows] = np.multiply.accumulate(factors, axis=1)[:, -1] \
            if masks.shape[1] else 1.0
        return w
    # n nodes occupy at most n locations
    rows = np.flatnonzero(in_image & (masks.sum(axis=1) <= instance.n))
    w[rows] = _occupied_masses(builder, instance, masks[rows])
    return w


def _occupied_masses(builder: CoresetBuilder, instance: LocationalInstance,
                     masks: np.ndarray) -> np.ndarray:
    """Pr over realizations of [coreset = S] for every row S of a boolean
    (classes, m) matrix of in-image classes of one size s <= n: the mass of
    the realizations that occupy every point of S and no forbidden point,
    with T(S) free.

    One DP over a (classes, 2^s) array of occupied-subset states, where
    bit j of a state says whether the j-th point of S (ascending ids) is
    occupied.  Node i moves a state's mass to the same state with its tail
    weight t_i, the sum of its probabilities over T(S), and to the state
    with bit j set with its probability w_ij at the j-th point of S (a set
    bit stays set); the mass of S is the entry of the all-occupied state.
    Summation order, fixed: node by node; the next array starts as each
    state's mass times t_i; then for bits j = 0..s-1, and states in
    ascending order, the state with bit j set gains the state's mass times
    w_ij.  t_i adds the tail columns left to right from 0.  Every term is
    non-negative, so nothing cancels, and every operation acts on each
    class alone, so a class's bits do not depend on the classes that share
    its batch.  Batches of classes keep each temporary within
    ``CHUNK_ELEMENTS`` entries.
    """
    classes = len(masks)
    s = int(masks[0].sum()) if classes else 0
    n = instance.n
    if n * 2 ** s > MAX_HOLANT_STATES:
        raise StateSpaceGuardExceeded(
            f"occupancy DP needs about {n * 2 ** s} states, "
            f"cap {MAX_HOLANT_STATES}")
    # A class of at most k points is its own coreset under the sentinel
    # grid, with an empty tail.  The batch of ``_class_masses`` holds every
    # other tail too; it is built again here because perfbench's traced
    # smoke run counts ``CoresetBuilder.build`` calls on its ``image``
    # workload, until the bench reads a library trace (ROADMAP item 10).
    tails = np.zeros_like(masks)
    if s > builder.k:
        for row, ids in enumerate(_ids(masks)):
            tails[row, list(builder.build(ids).tail)] = True
    cols = np.nonzero(masks)[1].reshape(classes, s)
    probs = instance.probs
    w = np.empty(classes)
    step = max(CHUNK_ELEMENTS // max(2 ** s, n), 1)
    for lo in range(0, classes, step):
        S, T = cols[lo:lo + step], tails[lo:lo + step]
        t = np.zeros((len(S), n))
        for col in np.flatnonzero(T.any(axis=0)).tolist():
            t += T[:, col, None] * probs[:, col]
        dp = np.zeros((len(S), 2 ** s))
        dp[:, 0] = 1.0
        for i in range(n):
            nxt = dp * t[:, i, None]
            w_i = probs[i, S]
            for j in range(s):
                # axis 2 of the views is bit j: 0, then 1
                src = dp.reshape(len(S), -1, 2, 2 ** j)
                dst = nxt.reshape(len(S), -1, 2, 2 ** j)
                dst[:, :, 1] += src[:, :, 0] * w_i[:, j, None, None]
                dst[:, :, 1] += src[:, :, 1] * w_i[:, j, None, None]
            dp = nxt
        w[lo:lo + step] = dp[:, -1]
    return w


def class_mass(S_ids, instance: Instance, k: int, eps: float) -> float:
    """Pr over realizations P of [coreset(P) = S] for one set S of support
    ids (points, or locations), in either model; 0 when S is not a class."""
    masks = id_mask(S_ids, instance.support_points.shape[0])[None]
    builder = CoresetBuilder(instance.support_points, k, eps)
    return float(_class_masses(builder, instance, masks)[0])


def enumerate_sequences(n: int, slots: int):
    """Integer sequences (l_1..l_slots, l_t) with all l_i >= 1, l_t >= 0,
    summing to n; lexicographic order.  The prefix sums of l_1..l_slots
    are ``slots`` increasing cut points in 1..n."""
    if n < 0:
        return []
    ends = ((0,) + cuts for cuts in combinations(range(1, n + 1), slots))
    return [tuple(b - a for a, b in zip(e, e[1:])) + (n - e[-1],)
            for e in ends]


def _occupancy_dp(instance: LocationalInstance, S_ids, tail):
    """Distribution over occupancy counts of the points of S.

    Each node picks one of the |S| points (its row probability there) or the
    aggregated tail bucket; forbidden locations contribute no mass.  Returns
    a dict mapping count tuples to probability; the tail count is implied
    (node index minus the sum of counts).
    """
    S_ids = list(S_ids)
    n = instance.n
    states = n * (n + 1) ** len(S_ids)
    if states > MAX_HOLANT_STATES:
        raise StateSpaceGuardExceeded(
            f"occupancy DP needs about {states} states, cap {MAX_HOLANT_STATES}")
    tail = sorted(tail)
    # Python floats: the same IEEE products and sums as numpy scalars, in
    # the same order, without a numpy scalar per step
    w_s = instance.probs[:, S_ids].tolist()              # (n, |S|)
    w_t = (instance.probs[:, tail].sum(axis=1) if tail
           else np.zeros(n)).tolist()
    dp = {tuple([0] * len(S_ids)): 1.0}
    for i in range(n):
        nxt: dict[tuple, float] = {}
        for state, mass in dp.items():
            for j, w in enumerate(w_s[i]):
                if w > 0.0:
                    s2 = list(state)
                    s2[j] += 1
                    s2 = tuple(s2)
                    nxt[s2] = nxt.get(s2, 0.0) + mass * w
            if w_t[i] > 0.0:
                nxt[state] = nxt.get(state, 0.0) + mass * w_t[i]
        dp = nxt
    return dp


def _holant_inputs(instance: LocationalInstance, S_ids, tail, sequence):
    """S and the tail as ascending ids of disjoint sets of the m locations,
    and the sequence as a tuple of |S| + 1 non-negative integers summing
    to n.  A bad id raises SchemaError (``id_mask``), anything else
    ValueError."""
    S, T = id_mask(S_ids, instance.m), id_mask(tail, instance.m)
    if (S & T).any():
        raise ValueError("the tail must be disjoint from S")
    S, T = _ids(np.stack([S, T]))
    sequence = tuple(sequence)
    if len(sequence) != len(S) + 1 or not all(
            isinstance(l, numbers.Integral) and l >= 0 for l in sequence) \
            or sum(sequence) != instance.n:
        raise ValueError(f"sequence must be |S| + 1 = {len(S) + 1} "
                         f"non-negative integers summing to n = {instance.n}")
    return S, T, sequence


def holant_value(instance: LocationalInstance, S_ids, tail, sequence) -> float:
    """Z for one occupancy sequence (l_1..l_|S|, l_t)."""
    S, tail, sequence = _holant_inputs(instance, S_ids, tail, sequence)
    dp = _occupancy_dp(instance, S, tail)
    return float(dp.get(sequence[:-1], 0.0))


def _candidate_chunks(n: int, sizes, rows: int):
    """Masks of every subset of range(n) with a size in ``sizes``, by size
    and then lexicographically, in chunks of at most ``rows`` rows."""
    for size in sizes:
        combos = combinations(range(n), size)
        while block := list(islice(combos, rows)):
            yield _index_masks(
                np.array(block, dtype=np.intp).reshape(len(block), size), n)


def build_weighted_image(instance: Instance, k: int, eps: float,
                         mode: str = "exhaustive") -> WeightedImage:
    """All coreset classes with their exact masses.

    exhaustive: group every realization by its coreset (small instances).
    This is the brute-force reference: acceptance criteria 4 and 5 check
    subsets mode against it.  Masses add up per class in enumeration order.
    subsets: iterate candidate subsets up to the size bound and up to n
    points, filter by the fixed-point membership test, attach
    closed-form/DP probabilities, and drop the classes of mass 0.
    """
    builder = CoresetBuilder(instance.support_points, k, eps)
    rows = builder.chunk_rows
    if mode == "exhaustive":
        groups: dict[tuple[int, ...], float] = {}
        for masks, pr in realization_chunks(instance, rows):
            classes, inverse = _group_rows(builder.build_masks(masks).core)
            keys = _ids(classes)
            mass = np.array([groups.get(key, 0.0) for key in keys])
            # ufunc.at adds repeated indices one by one, in row order
            np.add.at(mass, inverse, pr)
            groups.update(zip(keys, mass.tolist()))
        return WeightedImage(entries=tuple(sorted(groups.items())),
                             source="Exhaustive")
    if mode != "subsets":
        raise ValueError(f"unknown mode {mode!r}")
    n = instance.support_points.shape[0]
    # n points or nodes realize at most n support points
    bound = min(coreset_image_size_bound(k, instance.d, eps), n, instance.n)
    total = sum(math.comb(n, s) for s in range(bound + 1))
    if total > MAX_SUBSET_ENUMERATION:
        raise EnumerationGuardExceeded(
            f"{total} candidate subsets exceed {MAX_SUBSET_ENUMERATION}")
    entries = []
    for masks in _candidate_chunks(n, range(bound + 1), rows):
        w = _class_masses(builder, instance, masks)
        keep = w > 0.0
        entries.extend(zip(_ids(masks[keep]), w[keep].tolist()))
    entries.sort()
    return WeightedImage(entries=tuple(entries), source="SubsetEnumeration")

