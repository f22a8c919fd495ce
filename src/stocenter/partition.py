"""Probability mass of each additive-coreset class.

A realization maps through the grid construction to its coreset; this module
computes Pr[coreset = S] for candidate subsets S.  Existential instances use
the closed-form per-cell product; locational instances use an exact dynamic
program over node occupancy counts (summing the per-sequence holant values).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (EnumerationGuardExceeded, NotFull,
                     StateSpaceGuardExceeded)
from .grid_coreset import (CoresetBuilder, GridSpec, coreset_image_size_bound)
from .model import ExistentialInstance, Instance, LocationalInstance

MAX_SUBSET_ENUMERATION = 10 ** 6
MAX_HOLANT_STATES = 10 ** 7


@dataclass(frozen=True)
class MembershipVerdict:
    kind: str  # "NotInImage" | "Singleton" | "Full"
    grid: GridSpec | None = None
    cells: dict | None = None          # cell index -> representative id


@dataclass(frozen=True)
class WeightedImage:
    entries: tuple[tuple[tuple[int, ...], float], ...]  # (subset ids, weight)
    source: str  # "Exhaustive" | "SubsetEnumeration"

    @property
    def total_weight(self) -> float:
        return float(sum(w for _, w in self.entries))


def _builder(instance: Instance, k: int, eps: float) -> CoresetBuilder:
    return CoresetBuilder(instance.support_points, k, eps)


def membership_check(S_ids, instance: Instance, k: int, eps: float,
                     builder: CoresetBuilder | None = None) -> MembershipVerdict:
    """Classify S as NotInImage, Singleton, or Full by running the grid
    construction on S itself."""
    S_ids = tuple(sorted(int(i) for i in S_ids))
    if len(S_ids) <= k:
        # Includes the empty set: the only realization mapping to S is S.
        return MembershipVerdict(kind="Singleton")
    if builder is None:
        builder = _builder(instance, k, eps)
    out = builder.build(S_ids)
    if out.coreset != S_ids:
        return MembershipVerdict(kind="NotInImage")
    return MembershipVerdict(kind="Full", grid=out.grid, cells=dict(out.cells))


def _support_cells(instance: Instance, grid: GridSpec):
    return [grid.cell_of(x) for x in instance.support_points]


def prob_existential(S_ids, instance: ExistentialInstance, k: int, eps: float,
                     builder: CoresetBuilder | None = None,
                     verdict: MembershipVerdict | None = None) -> float:
    """Pr over realizations P of [coreset(P) = S], computed in closed form."""
    S_ids = tuple(sorted(int(i) for i in S_ids))
    if verdict is None:
        verdict = membership_check(S_ids, instance, k, eps, builder)
    if verdict.kind == "NotInImage":
        return 0.0
    p = instance.probs
    if verdict.kind == "Singleton":
        inside = np.zeros(instance.n, dtype=bool)
        inside[list(S_ids)] = True
        return float(np.prod(np.where(inside, p, 1.0 - p)))
    # Full: one factor per support point, grouped by its cell.
    cells = verdict.cells
    result = 1.0
    cell_of = _support_cells(instance, verdict.grid)
    for i in range(instance.n):
        c = cell_of[i]
        if c in cells:
            rep = cells[c]
            if i < rep:
                result *= 1.0 - p[i]
            elif i == rep:
                result *= p[i]
            # larger-index points in an occupied cell are unconstrained
        else:
            result *= 1.0 - p[i]
    return float(result)


def forbidden_and_tail_sets(S_ids, instance: Instance, k: int, eps: float,
                            verdict: MembershipVerdict | None = None):
    """Split the support into forbidden points and the free tail T(S).

    Forbidden: points in unoccupied cells plus smaller-index points in
    occupied cells.  T(S): larger-index points in occupied cells.
    """
    S_ids = tuple(sorted(int(i) for i in S_ids))
    if verdict is None:
        verdict = membership_check(S_ids, instance, k, eps)
    if verdict.kind != "Full":
        raise NotFull("forbidden/tail decomposition requires a Full verdict")
    S_set = set(S_ids)
    forbidden, tail = set(), set()
    cell_of = _support_cells(instance, verdict.grid)
    for i in range(instance.support_points.shape[0]):
        if i in S_set:
            continue
        c = cell_of[i]
        if c in verdict.cells:
            if i < verdict.cells[c]:
                forbidden.add(i)
            else:
                tail.add(i)
        else:
            forbidden.add(i)
    return forbidden, tail


def enumerate_sequences(n: int, slots: int):
    """Integer sequences (l_1..l_slots, l_t) with all l_i >= 1, l_t >= 0,
    summing to n; lexicographic order."""
    out = []

    def rec(prefix, remaining):
        if len(prefix) == slots:
            out.append(tuple(prefix) + (remaining,))
            return
        left = slots - len(prefix) - 1
        for v in range(1, remaining - left + 1):
            rec(prefix + [v], remaining - v)

    if slots == 0:
        return [(n,)] if n >= 0 else []
    rec([], n)
    return out


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
    w_s = instance.probs[:, S_ids]                       # (n, |S|)
    w_t = instance.probs[:, tail].sum(axis=1) if tail else np.zeros(n)
    dp = {tuple([0] * len(S_ids)): 1.0}
    for i in range(n):
        nxt: dict[tuple, float] = {}
        for state, mass in dp.items():
            for j in range(len(S_ids)):
                w = w_s[i, j]
                if w > 0.0:
                    s2 = list(state)
                    s2[j] += 1
                    s2 = tuple(s2)
                    nxt[s2] = nxt.get(s2, 0.0) + mass * w
            if w_t[i] > 0.0:
                nxt[state] = nxt.get(state, 0.0) + mass * w_t[i]
        dp = nxt
    return dp


def holant_value(instance: LocationalInstance, S_ids, tail, sequence) -> float:
    """Z for one occupancy sequence (l_1..l_|S|, l_t)."""
    S_ids = tuple(sorted(int(i) for i in S_ids))
    ls, lt = sequence[:-1], sequence[-1]
    if sum(ls) + lt != instance.n:
        raise ValueError("sequence must sum to n")
    dp = _occupancy_dp(instance, S_ids, tail)
    return float(dp.get(tuple(ls), 0.0))


def prob_locational(S_ids, instance: LocationalInstance, k: int, eps: float,
                    builder: CoresetBuilder | None = None,
                    verdict: MembershipVerdict | None = None) -> float:
    S_ids = tuple(sorted(int(i) for i in S_ids))
    if verdict is None:
        verdict = membership_check(S_ids, instance, k, eps, builder)
    if verdict.kind == "NotInImage":
        return 0.0
    if verdict.kind == "Singleton":
        # Pr[realized location set equals exactly S], by inclusion-exclusion
        # over subsets of S (every node must land in S, covering all of it).
        total = 0.0
        S = list(S_ids)
        for r in range(len(S) + 1):
            for T in combinations(S, r):
                inner = instance.probs[:, list(T)].sum(axis=1) if T \
                    else np.zeros(instance.n)
                total += (-1) ** (len(S) - r) * float(np.prod(inner))
        return max(total, 0.0)
    _, tail = forbidden_and_tail_sets(S_ids, instance, k, eps, verdict)
    dp = _occupancy_dp(instance, S_ids, tail)
    return float(sum(mass for state, mass in dp.items()
                     if all(c >= 1 for c in state)))


def subset_probability(S_ids, instance: Instance, k: int, eps: float,
                       builder: CoresetBuilder | None = None) -> float:
    if isinstance(instance, ExistentialInstance):
        return prob_existential(S_ids, instance, k, eps, builder)
    return prob_locational(S_ids, instance, k, eps, builder)


def build_weighted_image(instance: Instance, k: int, eps: float,
                         mode: str = "exhaustive") -> WeightedImage:
    """All coreset classes with their exact masses.

    exhaustive: group every realization by its coreset (small instances).
    This is the brute-force reference: acceptance criteria 4 and 5 check
    subsets mode against it.
    subsets: iterate candidate subsets up to the size bound, filter by the
    fixed-point membership test, attach closed-form/DP probabilities.
    """
    builder = _builder(instance, k, eps)
    if mode == "exhaustive":
        from .model import enumerate_realizations
        groups: dict[tuple[int, ...], float] = {}
        for real, pr in enumerate_realizations(instance):
            ids = real.point_ids()
            core = builder.build(ids).coreset if ids else ()
            groups[core] = groups.get(core, 0.0) + pr
        entries = tuple(sorted(groups.items()))
        return WeightedImage(entries=entries, source="Exhaustive")
    if mode != "subsets":
        raise ValueError(f"unknown mode {mode!r}")
    n = instance.support_points.shape[0]
    bound = min(coreset_image_size_bound(k, instance.d, eps), n)
    total = sum(math.comb(n, s) for s in range(bound + 1))
    if total > MAX_SUBSET_ENUMERATION:
        raise EnumerationGuardExceeded(
            f"{total} candidate subsets exceed {MAX_SUBSET_ENUMERATION}")
    entries = []
    for size in range(bound + 1):
        for S in combinations(range(n), size):
            if isinstance(instance, LocationalInstance) and size == 0:
                continue  # every node always realizes somewhere
            verdict = membership_check(S, instance, k, eps, builder)
            if verdict.kind == "NotInImage":
                continue
            if isinstance(instance, ExistentialInstance):
                w = prob_existential(S, instance, k, eps, builder, verdict)
            else:
                w = prob_locational(S, instance, k, eps, builder, verdict)
            if w > 0.0:
                entries.append((S, w))
    entries.sort()
    return WeightedImage(entries=tuple(entries), source="SubsetEnumeration")


def image_cost(image: WeightedImage, instance: Instance, shape) -> float:
    """Sum over classes of weight times the class's plain objective."""
    from .objective import PackedSets
    support = instance.support_points
    entries = [(ids, w) for ids, w in image.entries if ids]
    return PackedSets.pack([support[list(ids)] for ids, _ in entries],
                           [w for _, w in entries], d=instance.d).cost(shape)
