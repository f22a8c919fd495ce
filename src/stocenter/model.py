"""Core domain types: stochastic instances, realizations, centers, flats.

Point ids are 0-based input-file positions and are never reassigned; every
"smallest index" tie-break elsewhere in the package refers to these ids.
All types are immutable after construction and safe to share across threads;
random state is always caller-owned and passed explicitly.

A realization is one boolean mask over the support: the points present
(existential) or the locations the nodes took (locational).  Every rule
that differs between the models lives here, so no caller asks which model
an instance is: the draw (``realize``), the enumeration
(``realization_chunks``: bit masks from ``mask_rows``, or node -> location
assignments from ``assignment_rows`` as location masks, under both
guards, zero-probability rows dropped), the realization probability
(``realization_probabilities``), the sampled farthest position
(``farthest_realized``: the first realized support point of each draw in
a caller's order, read without building the masks) and its exact
distribution (``_farthest_distribution``), and the site masses
(``site_masses``, the expected number of realized points at each support
point, summed in ``total_prob``).  Node assignments stay in this module.
"""

from __future__ import annotations

import json
import numbers
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InstanceTooLarge, SchemaError

# Guards for exhaustive realization enumeration.
MAX_EXISTENTIAL_N = 24
MAX_LOCATIONAL_STATES = 2 ** 24

# Entries of the largest temporary of one chunk (2**17 float64 values are
# 1 MiB): in the realization enumeration and Monte-Carlo sampling
# (rows x max(n, support)) and in the batched grid construction.
CHUNK_ELEMENTS = 2 ** 17

# ``farthest_realized`` compares an existential draw's uniforms on a prefix
# of the order, FARTHEST_FIRST_COLUMNS wide and doubling; rows with nothing
# realized in the first FARTHEST_PREFIX_LIMIT columns compare their whole row.
FARTHEST_FIRST_COLUMNS = 8
FARTHEST_PREFIX_LIMIT = 64


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ExistentialInstance:
    """n points in R^d, point i present independently with probability p_i."""

    points: np.ndarray  # (n, d)
    probs: np.ndarray   # (n,)

    def __post_init__(self):
        pts = _freeze(np.atleast_2d(self.points))
        pr = _freeze(np.atleast_1d(self.probs))
        if pts.ndim != 2 or pts.shape[1] < 1:
            raise SchemaError("points must be an (n, d) array with d >= 1")
        if pr.shape != (pts.shape[0],):
            raise SchemaError("probs must have one entry per point")
        if not np.all(np.isfinite(pts)):
            raise SchemaError("coordinates must be finite")
        if not np.all((pr >= 0.0) & (pr <= 1.0)):  # NaN fails both
            raise SchemaError("probabilities must lie in [0, 1]")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probs", pr)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def site_masses(self) -> np.ndarray:
        """Expected number of realized points at each support point: p_i."""
        return self.probs

    @property
    def total_prob(self) -> float:
        """B = sum of p_i, the expected number of realized points."""
        return float(self.probs.sum())

    @property
    def model(self) -> str:
        return "existential"

    @property
    def support_points(self) -> np.ndarray:
        return self.points


@dataclass(frozen=True)
class LocationalInstance:
    """n nodes, each realized at one of m locations per its probability row."""

    locations: np.ndarray  # (m, d)
    probs: np.ndarray      # (n, m), rows sum to 1

    def __post_init__(self):
        loc = _freeze(np.atleast_2d(self.locations))
        pr = _freeze(np.atleast_2d(self.probs))
        if loc.ndim != 2 or loc.shape[1] < 1:
            raise SchemaError("locations must be an (m, d) array with d >= 1")
        if not np.all(np.isfinite(loc)):
            raise SchemaError("coordinates must be finite")
        if pr.ndim != 2 or pr.shape[1] != loc.shape[0]:
            raise SchemaError("probs must be (n, m) matching the locations")
        if not np.all((pr >= 0.0) & (pr <= 1.0)):  # NaN fails both
            raise SchemaError("probabilities must lie in [0, 1]")
        if np.any(np.abs(pr.sum(axis=1) - 1.0) > 1e-9):
            raise SchemaError("each node row must sum to 1 within 1e-9")
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "probs", pr)

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def m(self) -> int:
        return self.locations.shape[0]

    @property
    def d(self) -> int:
        return self.locations.shape[1]

    @property
    def model(self) -> str:
        return "locational"

    @property
    def site_masses(self) -> np.ndarray:
        """Expected number of nodes at each location: its column sum."""
        return self.probs.sum(axis=0)

    @property
    def total_prob(self) -> float:
        """B = sum of the site masses: n, within 1e-9 per node."""
        return float(self.site_masses.sum())

    @cached_property
    def inverse_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node cumulative probabilities (n, m) and the index of each
        node's last location of positive probability (n,)."""
        cum = np.cumsum(self.probs, axis=1)
        last = self.m - 1 - np.argmax(self.probs[:, ::-1] > 0.0, axis=1)
        cum.flags.writeable = last.flags.writeable = False
        return cum, last

    @property
    def support_points(self) -> np.ndarray:
        return self.locations


Instance = ExistentialInstance | LocationalInstance


@dataclass(frozen=True)
class CenterSet:
    """Exactly k centers; stored in lexicographic order for determinism.
    A (d,) vector is one center."""

    centers: np.ndarray  # (k, d)

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.centers, dtype=float))
        if c.ndim != 2 or c.shape[0] < 1 or c.shape[1] < 1:
            raise SchemaError("centers must be a (k, d) array, k, d >= 1")
        order = np.lexsort(c.T[::-1])
        object.__setattr__(self, "centers", _freeze(c[order]))

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def d(self) -> int:
        return self.centers.shape[1]


@dataclass(frozen=True)
class Flat:
    """A j-dimensional affine subspace: base point plus j orthonormal axes."""

    j: int
    base: np.ndarray              # (d,)
    basis: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def __post_init__(self):
        if isinstance(self.j, bool) or not isinstance(self.j, numbers.Integral):
            raise SchemaError(f"flat j {self.j!r} is not an integer")
        base = _freeze(np.atleast_1d(self.base))
        if base.ndim != 1:
            raise SchemaError("flat base must be a (d,) vector")
        d = base.shape[0]
        basis = np.asarray(self.basis, dtype=float)
        if basis.size == 0:
            basis = np.zeros((0, d))
        basis = np.atleast_2d(basis)
        if self.j != basis.shape[0] or (self.j > 0 and basis.shape[1] != d):
            raise SchemaError("basis must be (j, d)")
        if not (0 <= self.j <= d - 1):
            raise SchemaError("need 0 <= j <= d-1")
        gram = basis @ basis.T
        if self.j > 0 and np.max(np.abs(gram - np.eye(self.j))) > 1e-10:
            raise SchemaError("basis must be orthonormal within 1e-10")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "basis", _freeze(basis))

    @property
    def d(self) -> int:
        return self.base.shape[0]


# ---------------------------------------------------------------------------
# Realizations: masks over the support, from mask rows or assignment rows


def mask_rows(n: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Rows start..stop-1 (default: all 2^n) of the bit-mask enumeration of
    n points, as a boolean (rows, n) matrix: column i of row r is bit i of
    r, so row r is the realization with point i present iff that bit is set.
    """
    if stop is None:
        stop = 2 ** n
    rows = np.arange(start, stop, dtype=np.int64)
    return ((rows[:, None] >> np.arange(n)) & 1).astype(bool)


def assignment_rows(n: int, m: int, start: int = 0,
                    stop: int | None = None) -> np.ndarray:
    """Rows start..stop-1 (default: all m^n) of the enumeration of node ->
    location assignments of n nodes over m locations, as an integer (rows, n)
    matrix in ``itertools.product(range(m), repeat=n)`` order: row r holds
    the n base-m digits of r, most significant first, so the last node
    varies fastest."""
    if stop is None:
        stop = m ** n
    rows = np.arange(start, stop, dtype=np.int64)
    place = m ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return rows[:, None] // place % m


def realization_probabilities(instance: Instance,
                              rows: np.ndarray) -> np.ndarray:
    """Probability of every realization row: a presence mask (existential)
    or a node -> location assignment (locational).  It is the product of
    p_i or 1 - p_i per point, or of the node's row entry per node, taken
    in point or node order."""
    if isinstance(instance, ExistentialInstance):
        factors = np.where(rows, instance.probs, 1.0 - instance.probs)
    else:
        factors = instance.probs[np.arange(instance.n), rows]
    out = np.ones(rows.shape[0])
    for column in factors.T:
        out *= column
    return out


def _integer(value, what: str) -> int:
    """A JSON integer as an int: an integral float reads as the integer
    (2.0 is 2, as JSON writers may print it); a boolean, a fraction, a
    non-finite float or a non-number (a string, null) raises SchemaError."""
    if isinstance(value, (bool, np.bool_)) or not (
            isinstance(value, numbers.Integral)
            or isinstance(value, numbers.Real) and float(value).is_integer()):
        raise SchemaError(f"{what} {value!r} is not an integer")
    return int(value)


def id_mask(ids, n: int) -> np.ndarray:
    """Boolean (n,) mask of a set of point ids, each an integer in [0, n)
    under the rule of ``_integer``."""
    if isinstance(ids, (str, bytes)) or not isinstance(ids, Iterable):
        raise SchemaError("realization ids must be a list of integers")
    mask = np.zeros(n, dtype=bool)
    for i in ids:
        i = _integer(i, "realization id")
        if not 0 <= i < n:
            raise SchemaError(f"realization ids must lie in [0, {n})")
        mask[i] = True
    return mask


def _index_masks(idx: np.ndarray, width: int) -> np.ndarray:
    """Boolean (rows, width) masks, row r set at the columns idx[r]."""
    masks = np.zeros((idx.shape[0], width), dtype=bool)
    masks[np.arange(idx.shape[0])[:, None], idx] = True
    return masks


def realization_chunks(instance: Instance, rows: int | None = None):
    """Every realization with its probability, in enumeration order, as
    (boolean (rows, support) masks, probabilities) chunks.

    The masks are ``mask_rows`` (existential) or the locations taken in
    each of ``assignment_rows`` (locational).  A chunk has at most ``rows``
    rows and at most ``CHUNK_ELEMENTS`` entries per temporary (at least one
    row).  Zero-probability realizations are dropped.
    Raises InstanceTooLarge past the enumeration guards, before any row
    is built.
    """
    n = instance.n
    existential = isinstance(instance, ExistentialInstance)
    if existential:
        if n > MAX_EXISTENTIAL_N:
            raise InstanceTooLarge(f"existential n={n} exceeds {MAX_EXISTENTIAL_N}")
        total = 2 ** n
    else:
        total = instance.m ** n
        if total > MAX_LOCATIONAL_STATES:
            raise InstanceTooLarge(f"locational m^n={total} exceeds {MAX_LOCATIONAL_STATES}")
    width = max(n, instance.support_points.shape[0], 1)
    step = max(CHUNK_ELEMENTS // width, 1)
    if rows is not None:
        step = min(step, rows)
    for lo in range(0, total, step):
        hi = min(lo + step, total)
        block = mask_rows(n, lo, hi) if existential \
            else assignment_rows(n, instance.m, lo, hi)
        pr = realization_probabilities(instance, block)
        keep = pr != 0.0
        yield (block[keep] if existential
               else _index_masks(block[keep], instance.m)), pr[keep]


def _uniforms(instance: Instance, u: np.ndarray) -> np.ndarray:
    """``u`` as a float (samples, n) matrix of uniforms, one row per draw."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[1] != instance.n:
        raise SchemaError(f"need a (samples, {instance.n}) uniform matrix")
    return u


def _location_indices(instance: LocationalInstance,
                      u: np.ndarray) -> np.ndarray:
    """The location each node took in each draw: the first location whose
    cumulative probability exceeds u (inverse CDF), or, for a u past the
    row's last cumulative value, the row's last location of positive
    probability."""
    cum, last = instance.inverse_cdf
    idx = np.empty(u.shape, dtype=np.intp)
    for j in range(instance.n):
        idx[:, j] = np.searchsorted(cum[j], u[:, j], side="right")
    return np.minimum(idx, last, out=idx)


def realize(instance: Instance, u: np.ndarray) -> np.ndarray:
    """Map a caller-drawn (samples, n) matrix of uniforms in [0, 1) to
    (samples, support) masks; u[i, j] decides node (or point) j of draw i.

    Existential: the presence mask ``u < probs``.  Locational: the
    locations the nodes took, each the first location whose cumulative
    probability exceeds u (inverse CDF).  A row may sum to 1 only within
    1e-9, so u can lie past its last cumulative value; such a draw takes
    the row's last location of positive probability.
    """
    u = _uniforms(instance, u)
    if isinstance(instance, ExistentialInstance):
        return u < instance.probs
    return _index_masks(_location_indices(instance, u), instance.m)


def farthest_realized(instance: Instance, u: np.ndarray,
                      order: np.ndarray) -> np.ndarray:
    """Position in ``order``, a permutation of the support, of the first
    support point realized by each draw of ``realize(instance, u)``, or
    ``len(order)`` when the draw realizes none: the first True of each row
    of ``realize(instance, u)[:, order]``, with no mask built.

    Existential: ``u < probs`` is compared on a prefix of ``order``,
    ``FARTHEST_FIRST_COLUMNS`` columns wide and doubling, until every row
    has a realized point; past ``FARTHEST_PREFIX_LIMIT`` columns the rows
    still without one compare their whole row.  Locational: the least
    rank in ``order`` of the locations the nodes took.
    """
    u = _uniforms(instance, u)
    width = len(order)
    if not isinstance(instance, ExistentialInstance):
        rank = np.empty(width, dtype=np.intp)
        rank[order] = np.arange(width)
        return rank[_location_indices(instance, u)].min(axis=1,
                                                         initial=width)
    pos = np.full(len(u), width, dtype=np.intp)
    probs = instance.probs[order]
    pending = np.ones(len(u), dtype=bool)
    lo, hi = 0, FARTHEST_FIRST_COLUMNS
    while lo < min(width, FARTHEST_PREFIX_LIMIT) and pending.any():
        hit = u[:, order[lo:hi]] < probs[lo:hi]
        found = pending & hit.any(axis=1)
        pos[found] = lo + hit[found].argmax(axis=1)
        pending &= ~found
        lo, hi = hi, 2 * hi
    if lo < width and pending.any():
        hit = (u < instance.probs)[pending]
        found = hit.any(axis=1)
        pos[np.flatnonzero(pending)[found]] = \
            hit[found].take(order, axis=1).argmax(axis=1)
    return pos


def _farthest_distribution(instance: Instance,
                           order: np.ndarray) -> np.ndarray:
    """p[r] = Pr[position r of ``order``, a permutation of the support (or
    one per column), is the first realized point]: ``farthest_realized``'s
    distribution, summing to Pr[some point is realized].  Nothing is
    subtracted, so p[r] is within 2(n - 1) (existential) or (n - 1)(m + 1)
    (locational) relative roundings of exact while no product underflows;
    at hundreds of nodes and locations some p[r] are 0 or subnormal."""
    if instance.n == 0:
        return np.zeros(order.shape)
    if isinstance(instance, ExistentialInstance):
        # r is first iff its point is present and every one before absent
        p = instance.probs[order]
        p[1:] *= np.multiply.accumulate(1.0 - p, axis=0)[:-1]
        return p
    # Location rev[r] of the reversed order is the last one realized with
    # probability prod_i C_i(r) - prod_i C_i(r - 1), C_i(r) = Pr[node i
    # lands in rev[:r + 1]], telescoped over the nodes into non-negative
    # terms prod_{i<j} C_i(r - 1) * q_j(r) * prod_{i>j} C_i(r), q_j(r) node
    # j's entry at rev[r], so nothing cancels when products are near 1.
    q = instance.probs[:, order[::-1]]
    cdf = np.add.accumulate(q, axis=1)
    # head[j, r] = prod_{i<j} C_i(r - 1), with C_i(-1) = 0, and
    # tail[j, r] = prod_{i>j} C_i(r)
    head = np.zeros_like(cdf)
    head[0] = 1.0
    np.multiply.accumulate(cdf[:-1, :-1], axis=0, out=head[1:, 1:])
    tail = np.ones_like(cdf)
    np.multiply.accumulate(cdf[:0:-1], axis=0, out=tail[-2::-1])
    head *= q
    head *= tail
    return np.add.reduce(head, axis=0)[::-1]


# ---------------------------------------------------------------------------
# JSON I/O


def _fields(obj, where: str, required: set[str],
            allowed: set[str] | None = None):
    """Check that ``obj`` is a JSON object with every ``required`` field
    and none outside ``allowed`` (by default the required ones)."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be a JSON object")
    if obj.keys() == required:
        return
    extra = obj.keys() - (allowed or required)
    if extra:
        raise SchemaError(f"unknown field(s) {sorted(extra)} in {where}")
    missing = required - obj.keys()
    if missing:
        raise SchemaError(f"missing field(s) {sorted(missing)} in {where}")


def _floats(values, what: str) -> np.ndarray:
    """One float array from a JSON value, converted in one call.  Every
    entry must be a finite number (``np.array`` turns null into NaN)."""
    try:
        out = np.array(values, dtype=float)
    except (TypeError, ValueError):
        raise SchemaError(f"{what} must be numbers") from None
    if not np.all(np.isfinite(out)):
        raise SchemaError(f"{what} must be finite numbers")
    return out


def _rows(values, d, what: str) -> list:
    """A JSON list of coordinate rows, each a list of d entries, where d
    is the instance's JSON ``d`` read by ``_integer``."""
    d = _integer(d, "instance d")
    if not isinstance(values, list) or not all(
            isinstance(row, list) for row in values):
        raise SchemaError(f"{what} must be a list of coordinate lists")
    if any(len(row) != d for row in values):
        raise DimensionMismatch(f"{what} dimension differs from d")
    return values


def instance_from_dict(data: dict) -> Instance:
    if not isinstance(data, dict) or "model" not in data:
        raise SchemaError("instance JSON must be an object with a 'model' field")
    model = data["model"]
    if model == "existential":
        _fields(data, "existential instance", {"model", "d", "points"})
        entries = data["points"]
        if not isinstance(entries, list) or not entries:
            raise SchemaError("instance needs a nonempty list of points")
        for entry in entries:
            _fields(entry, "existential point", {"coords", "p"})
        coords = _rows([entry["coords"] for entry in entries], data["d"],
                       "point")
        return ExistentialInstance(
            points=_floats(coords, "coordinates"),
            probs=_floats([entry["p"] for entry in entries], "probabilities"))
    if model == "locational":
        _fields(data, "locational instance",
                {"model", "d", "locations", "nodes"})
        locs = _rows(data["locations"], data["d"], "location")
        nodes = data["nodes"]
        if not isinstance(nodes, list) or not locs or not nodes:
            raise SchemaError("instance needs locations and nodes")
        for entry in nodes:
            _fields(entry, "locational node", {"probs"})
        return LocationalInstance(
            locations=_floats(locs, "coordinates"),
            probs=_floats([entry["probs"] for entry in nodes],
                          "probabilities"))
    raise SchemaError(f"unknown model {model!r}")


def instance_to_dict(instance: Instance) -> dict:
    if isinstance(instance, ExistentialInstance):
        return {
            "model": "existential",
            "d": instance.d,
            "points": [{"coords": list(map(float, p)), "p": float(pr)}
                       for p, pr in zip(instance.points, instance.probs)],
        }
    return {
        "model": "locational",
        "d": instance.d,
        "locations": [list(map(float, p)) for p in instance.locations],
        "nodes": [{"probs": list(map(float, row))} for row in instance.probs],
    }


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))


def shape_from_dict(data: dict) -> CenterSet | Flat:
    if not isinstance(data, dict) or "kind" not in data:
        raise SchemaError("shape JSON must be an object with a 'kind' field")
    if data["kind"] == "centers":
        _fields(data, "centers shape", {"kind", "points"})
        return CenterSet(centers=_floats(data["points"], "center coordinates"))
    if data["kind"] == "flat":
        _fields(data, "flat shape", {"kind", "j", "base"},
                {"kind", "j", "base", "basis"})
        return Flat(j=_integer(data["j"], "flat j"),
                    base=_floats(data["base"], "flat coordinates"),
                    basis=_floats(data.get("basis", []), "flat coordinates"))
    raise SchemaError(f"unknown shape kind {data['kind']!r}")


def shape_to_dict(shape: CenterSet | Flat) -> dict:
    if isinstance(shape, CenterSet):
        return {"kind": "centers", "points": [list(map(float, c)) for c in shape.centers]}
    return {"kind": "flat", "j": shape.j, "base": list(map(float, shape.base)),
            "basis": [list(map(float, b)) for b in shape.basis]}


def load_shape(path) -> CenterSet | Flat:
    with open(path, "r", encoding="utf-8") as fh:
        return shape_from_dict(json.load(fh))
