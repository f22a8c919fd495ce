"""Additive epsilon-coreset of a realization via a two-stage Cartesian grid.

Given a realization P of a stochastic instance, the builder computes
r_P = min over k-subsets F of the support of the k-center value K(P, F),
lays a grid of side eps*2^a/(4d) with 2^a <= r_P < 2^{a+1}, and keeps the
smallest-index point of every nonempty cell.  If the kept points' own
r value dropped below 2^a the grid is refined once to side eps*2^a/(8d).
The origin is a grid vertex, so stage-2 cells exactly refine stage-1 cells.

``CoresetBuilder.build_masks`` runs the construction on a boolean
(rows, n) matrix of realization masks at once: r_P of every row is a masked
max/min over the precomputed ``combo_min`` table, the exponent of every row
one ``np.frexp``, the cells once per distinct grid side (one ``np.floor``
over the support), and a row keeps each of its points that has no earlier
point of the row in the same cell.  The same test, run over every support
point, gives the row's tail: the points outside the coreset whose cell
holds a smaller-index point of the row.  For a row S that is its own
coreset this is the tail T(S) of its class, which ``partition`` reads from
the batch.  Rows go through in chunks whose largest temporary holds at
most ``CHUNK_ELEMENTS`` float64 entries.  ``build(ids)`` is the one-row
call; it returns the coreset, grid and tail, and a cell of the grid is
``grid_cells`` of a point at the grid's side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CombinationGuardExceeded, EmptyRealization
from .model import CHUNK_ELEMENTS, id_mask
from .objective import _check_eps, _check_k, _distances, _subset_minima

# Cap on the entries of the C(n,k) x n combo_min table (80 MB of float64).
MAX_COMBO_ENTRIES = 10 ** 7


@dataclass(frozen=True, eq=False)
class GridSpec:
    """An axis-aligned grid with the origin as a vertex.

    Two specs describe the same grid iff side and dimension agree; the
    stage is bookkeeping (re-running the construction on its own output can
    reach the identical grid at stage 1 of exponent a-1 instead of stage 2
    of exponent a, where side = eps 2^a / (4d) or eps 2^a / (8d)), so
    equality ignores it.
    """

    side: float
    d: int
    stage: int  # 1 or 2; 0 for the r_P = 0 sentinel

    def __eq__(self, other):
        if not isinstance(other, GridSpec):
            return NotImplemented
        return self.side == other.side and self.d == other.d

    def __hash__(self):
        return hash((self.side, self.d))


@dataclass(frozen=True)
class CoresetOutput:
    coreset: tuple[int, ...]                       # ids, ascending
    grid: GridSpec
    tail: tuple[int, ...]                          # ids, ascending

    @property
    def size(self) -> int:
        return len(self.coreset)


@dataclass(frozen=True)
class CoresetBatch:
    """Per-row result of ``CoresetBuilder.build_masks``."""

    core: np.ndarray   # (rows, n) bool: the coreset of each row
    side: np.ndarray   # (rows,) final grid side; 0.0 for the sentinel
    stage: np.ndarray  # (rows,) 1 or 2; 0 for the r_P = 0 sentinel
    # (rows, n) bool: the support points outside the coreset whose cell
    # holds a smaller-index coreset point; empty under the sentinel grid
    tail: np.ndarray


SENTINEL_GRID = GridSpec(side=0.0, d=0, stage=0)


def _exponent(r):
    """The integer a with 2^a <= r < 2^{a+1}, snapping near-powers downward;
    elementwise for an array of r > 0.

    A value within relative 1e-12 of 2^e is treated as exactly 2^e so that
    the exponent is stable across platforms.
    """
    frac, e = np.frexp(r)  # r = frac * 2^e, frac in [0.5, 1)
    a = e - 1
    upper = np.ldexp(1.0, a + 1)
    return np.where(np.abs(r - upper) <= 1e-12 * upper, a + 1, a)


def grid_cells(points: np.ndarray, side: float) -> np.ndarray:
    """Cell index of every coordinate, as integral floats: floor(x / side),
    so boundary coordinates fall to the floor cell."""
    return np.floor(points / side)


def shadowed(support: np.ndarray, masks: np.ndarray,
             side: np.ndarray) -> np.ndarray:
    """For every row of ``masks``, the points that share their cell of the
    row's grid (side ``side[row]``) with an earlier point of the row.

    A row's grid coreset is its points minus these, and its tail is these.
    Rows with side 0 (the r_P = 0 sentinel) shadow nothing.
    """
    out = np.zeros(masks.shape, dtype=bool)
    ids = np.arange(support.shape[0])
    below = ids[:, None] > ids[None, :]
    for s in set(side[side > 0.0].tolist()):
        rows = side == s
        cells = grid_cells(support, s)
        # earlier[i, j]: point j < i lies in the cell of point i
        earlier = below & (cells[:, None, :] == cells[None, :, :]).all(axis=2)
        out[rows] = masks[rows].astype(np.float32) \
            @ earlier.T.astype(np.float32) > 0.0
    return out


class CoresetBuilder:
    """Runs the grid construction repeatedly over one support set.

    Precomputes, for every k-subset F of the support, the column
    min_{f in F} ||s_i - f|| over the support points i, so each r query is
    a masked max/min.
    """

    def __init__(self, support: np.ndarray, k: int, eps: float):
        _check_eps(eps)
        _check_k(k)
        support = np.atleast_2d(np.asarray(support, dtype=float))
        n = support.shape[0]
        n_combos = math.comb(n, k)
        if n_combos * n > MAX_COMBO_ENTRIES:
            raise CombinationGuardExceeded(
                f"C({n},{k}) x {n} = {n_combos * n} entries exceed "
                f"{MAX_COMBO_ENTRIES}")
        self.support = support
        self.k = k
        self.eps = eps
        self.n = n
        self.d = support.shape[1]
        # combo_min[i, c] = distance of point i to its nearest center of combo c
        self.combo_min = np.empty((n, n_combos))
        lo = 0
        for combos, table in _subset_minima(
                _distances(support, support), k,
                max(CHUNK_ELEMENTS // max(n, 1), 1)):
            self.combo_min[:, lo:lo + len(combos)] = table
            lo += len(combos)

    @property
    def chunk_rows(self) -> int:
        """Mask rows per chunk: the temporaries are rows x C(n,k) floats
        and rows x n masks."""
        return max(CHUNK_ELEMENTS // max(self.combo_min.shape[1], self.n, 1),
                   1)

    def _r_rows(self, masks: np.ndarray) -> np.ndarray:
        """r_P of every mask row; 0 for an empty row.

        With k above the support size there is no k-subset, but k centers
        can sit on every support point, so r_P is 0.
        """
        r = np.zeros(masks.shape[0])
        if self.combo_min.shape[1] == 0:
            return r
        step = self.chunk_rows
        for lo in range(0, masks.shape[0], step):
            chunk = masks[lo:lo + step]
            # K(P, F) of every row and combo, reduced over a broadcast view
            # (no rows x n x C copy); distances are >= 0, so the initial 0
            # leaves every nonempty row's maximum unchanged
            table = np.broadcast_to(self.combo_min, (len(chunk),)
                                    + self.combo_min.shape)
            K = np.maximum.reduce(table, axis=1, where=chunk[:, :, None],
                                  initial=0.0)
            r[lo:lo + step] = K.min(axis=1)
        return r

    def r_of(self, ids) -> float:
        """r_P: min over k-subsets F of the support of K(P, F)."""
        return float(self._r_rows(id_mask(ids, self.n)[None])[0])

    def build_masks(self, masks: np.ndarray) -> CoresetBatch:
        """The grid construction on every row of a boolean (rows, n) mask
        matrix.  An empty row, like any row with r_P = 0, is its own
        coreset under the sentinel grid."""
        masks = np.asarray(masks, dtype=bool)
        r = self._r_rows(masks)
        live = r > 0.0
        two_a = np.ldexp(1.0, np.where(live, _exponent(r), 0))
        side = np.where(live, self.eps * two_a / (4 * self.d), 0.0)
        tail = shadowed(self.support, masks, side)
        core = masks & ~tail
        refine = live & (self._r_rows(core) < two_a)
        if refine.any():
            side[refine] = self.eps * two_a[refine] / (8 * self.d)
            tail[refine] = shadowed(self.support, masks[refine], side[refine])
            core[refine] = masks[refine] & ~tail[refine]
        stage = np.where(live, np.where(refine, 2, 1), 0)
        return CoresetBatch(core=core, side=side, stage=stage, tail=tail)

    def build(self, P_ids) -> CoresetOutput:
        mask = id_mask(P_ids, self.n)
        if not mask.any():
            raise EmptyRealization("realization has no points")
        batch = self.build_masks(mask[None])
        grid = SENTINEL_GRID if batch.stage[0] == 0 else GridSpec(
            side=float(batch.side[0]), d=self.d, stage=int(batch.stage[0]))
        return CoresetOutput(
            coreset=tuple(np.flatnonzero(batch.core[0]).tolist()),
            grid=grid, tail=tuple(np.flatnonzero(batch.tail[0]).tolist()))


def coreset_image_size_bound(k: int, d: int, eps: float) -> int:
    """Concrete cap on |coreset|: ceil(k * (8d/eps + 2)^d)."""
    return math.ceil(k * (8 * d / eps + 2) ** d)
