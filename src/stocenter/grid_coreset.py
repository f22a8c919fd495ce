"""Additive epsilon-coreset of a realization via a two-stage Cartesian grid.

Given a realization P of a stochastic instance, the builder computes
r_P = min over k-subsets F of the support of the k-center value K(P, F),
lays a grid of side eps*2^a/(4d) with 2^a <= r_P < 2^{a+1}, and keeps the
smallest-index point of every nonempty cell.  If the kept points' own
r value dropped below 2^a the grid is refined once to side eps*2^a/(8d).
The origin is a grid vertex, so stage-2 cells exactly refine stage-1 cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import CombinationGuardExceeded, EmptyRealization, SchemaError
MAX_K_SUBSETS = 10 ** 6


@dataclass(frozen=True, eq=False)
class GridSpec:
    """An axis-aligned grid with the origin as a vertex.

    Two specs describe the same grid iff side and dimension agree; the a and
    stage fields are bookkeeping (re-running the construction on its own
    output can reach the identical grid as stage 1 of exponent a-1 instead
    of stage 2 of exponent a), so equality ignores them.
    """

    side: float
    d: int
    a: int
    stage: int  # 1 or 2; 0 for the r_P = 0 sentinel

    def __eq__(self, other):
        if not isinstance(other, GridSpec):
            return NotImplemented
        return self.side == other.side and self.d == other.d

    def __hash__(self):
        return hash((self.side, self.d))

    def cell_of(self, x: np.ndarray) -> tuple[int, ...]:
        """Boundary coordinates fall to the floor cell."""
        return tuple(int(math.floor(c / self.side)) for c in x)


@dataclass(frozen=True)
class CoresetOutput:
    coreset: tuple[int, ...]                       # ids, ascending
    grid: GridSpec
    cells: dict[tuple[int, ...], int]              # cell index -> representative id

    @property
    def size(self) -> int:
        return len(self.coreset)


SENTINEL_GRID = GridSpec(side=0.0, d=0, a=0, stage=0)


def _exponent(r: float) -> int:
    """The integer a with 2^a <= r < 2^{a+1}, snapping near-powers downward.

    A value within relative 1e-12 of 2^e is treated as exactly 2^e so that
    the exponent is stable across platforms.
    """
    frac, e = math.frexp(r)  # r = frac * 2^e, frac in [0.5, 1)
    a = e - 1
    upper = math.ldexp(1.0, a + 1)
    if abs(r - upper) <= 1e-12 * upper:
        a += 1
    return a


def _collect_cells(ids, points: np.ndarray, grid: GridSpec):
    """Smallest-index representative per nonempty cell."""
    cells: dict[tuple[int, ...], int] = {}
    for pid, x in zip(ids, points):
        c = grid.cell_of(x)
        if c not in cells or pid < cells[c]:
            cells[c] = pid
    return cells


class CoresetBuilder:
    """Runs the grid construction repeatedly over one support set.

    Precomputes, for every k-subset F of the support, the column
    min_{f in F} ||s_i - f||, so each r query is a masked max/min.
    """

    def __init__(self, support: np.ndarray, k: int, eps: float):
        if not (0.0 < eps < 1.0):
            raise ValueError("eps must lie in (0, 1)")
        support = np.atleast_2d(np.asarray(support, dtype=float))
        n = support.shape[0]
        if math.comb(n, k) > MAX_K_SUBSETS:
            raise CombinationGuardExceeded(f"C({n},{k}) exceeds {MAX_K_SUBSETS}")
        self.support = support
        self.k = k
        self.eps = eps
        self.d = support.shape[1]
        diff = support[:, None, :] - support[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=2))
        combos = list(combinations(range(n), k))
        # combo_min[c, i] = distance of point i to its nearest center of combo c
        self.combo_min = np.stack([dist[:, list(c)].min(axis=1) for c in combos]) \
            if combos else np.zeros((0, n))

    def r_of(self, ids: tuple[int, ...]) -> float:
        """r_P: min over k-subsets F of the support of K(P, F).

        With k above the support size there is no k-subset, but k centers
        can sit on every support point, so r_P is 0.
        """
        if self.combo_min.shape[0] == 0:
            return 0.0
        return float(self.combo_min[:, list(ids)].max(axis=1).min())

    def build(self, P_ids) -> CoresetOutput:
        P_ids = tuple(sorted(int(i) for i in P_ids))
        if not P_ids:
            raise EmptyRealization("realization has no points")
        n = self.support.shape[0]
        if P_ids[0] < 0 or P_ids[-1] >= n:
            raise SchemaError(f"realization ids must lie in [0, {n})")
        r_P = self.r_of(P_ids)
        if r_P == 0.0:
            return CoresetOutput(coreset=P_ids, grid=SENTINEL_GRID, cells={})
        a = _exponent(r_P)
        two_a = math.ldexp(1.0, a)
        P = self.support[list(P_ids)]

        def stage(side: float, stage_no: int) -> CoresetOutput:
            grid = GridSpec(side=side, d=self.d, a=a, stage=stage_no)
            cells = _collect_cells(P_ids, P, grid)
            core = tuple(sorted(cells.values()))
            return CoresetOutput(coreset=core, grid=grid, cells=cells)

        out1 = stage(self.eps * two_a / (4 * self.d), 1)
        if self.r_of(out1.coreset) >= two_a:
            return out1
        return stage(self.eps * two_a / (8 * self.d), 2)


def coreset_image_size_bound(k: int, d: int, eps: float) -> int:
    """Concrete cap on |coreset|: ceil(k * (8d/eps + 2)^d)."""
    return math.ceil(k * (8 * d / eps + 2) ** d)
