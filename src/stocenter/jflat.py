"""Coresets and solvers for the stochastic minimum j-flat-center problem.

Two regimes, split on the total probability mass B of the instance.  When
B < eps the objective is within (1 +- eps) of the linear surrogate
sum_i p_i d(s_i, F), so a weighted flat-median coreset suffices (Case 1).
Otherwise (Case 2) the points are lifted so squared flat distance becomes
affine, a convex region K cutting off at most eps probability mass is swept
out, sampled realizations inside K are reduced to directional kernels (S1),
and the outside points get a Case-1 style weighted coreset (S2).  Only
j in {0, 1} is supported; the lift dimension grows too fast beyond that.

The locational model always takes Case 2 with per-location masses
p_i = sum over nodes of probs[node, i].

A 0-flat is one center, so j=0 (coreset solve, S2 sensitivity seed and
exact polish) runs through the k=1 code of ``gkm``; only j=1 uses the
Nelder-Mead line search of this module, ``neldermead.minimize``, as in
``gkm``.
An ``SJFCCoreset`` packs S1 and S2 once, into one ``WeightedCollection``:
the estimator reads its per-set maxima, and the j=0 solve runs on it as it
is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CaseMismatch, EmptyK, SchemaError
from .gkm import (SensitivityEstimate, WeightedCollection, _best_polished,
                  importance_sample_coreset, solve_gkm)
from .model import CenterSet, ExistentialInstance, Flat, Instance, realize
from .neldermead import minimize
from .objective import _exact_value, _finite, shape_distances

NET_SEED = 0xC0FFEE


# ---------------------------------------------------------------------------
# Linearization


@dataclass(frozen=True)
class LinearizationMap:
    """Coordinate lift making d(x, F)^2 affine in the lifted coordinates."""

    j: int
    d: int

    def __post_init__(self):
        if self.j not in (0, 1):
            raise SchemaError("only j in {0, 1} is supported")

    @property
    def D(self) -> int:
        if self.j == 0:
            return self.d + 1
        return self.d + self.d * (self.d + 1) // 2

    def lift(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.j == 0:
            return np.hstack([pts, (pts ** 2).sum(axis=1, keepdims=True)])
        cols = [pts]
        prods = [pts[:, a:a + 1] * pts[:, b:b + 1]
                 for a in range(self.d) for b in range(a, self.d)]
        cols.extend(prods)
        return np.hstack(cols)

    def flat_coeffs(self, F: Flat) -> tuple[np.ndarray, float]:
        """(a, b) with d(x, F)^2 = a . lift(x) + b."""
        if F.j != self.j or F.d != self.d:
            raise SchemaError("flat does not match the linearization")
        if self.j == 0:
            c = F.base
            a = np.concatenate([-2.0 * c, [1.0]])
            return a, float(c @ c)
        t, v = F.base, F.basis[0]
        tv = float(t @ v)
        a = np.empty(self.D)
        a[:self.d] = -2.0 * t + 2.0 * tv * v
        idx = self.d
        for p in range(self.d):
            for q in range(p, self.d):
                if p == q:
                    a[idx] = 1.0 - v[p] * v[p]
                else:
                    a[idx] = -2.0 * v[p] * v[q]
                idx += 1
        return a, float(t @ t - tv * tv)


# ---------------------------------------------------------------------------
# Direction nets and the convex region K


def direction_net(D: int, size: int) -> np.ndarray:
    """Deterministic symmetric set of unit directions in R^D.

    Pairs +-u are generated from a fixed-seed Gaussian stream, so mirror
    directions always come together; size is rounded up to even.
    """
    half = (size + 1) // 2
    rng = np.random.default_rng([NET_SEED, D, half])
    u = rng.standard_normal((half, D))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return np.vstack([u, -u])


@dataclass(frozen=True)
class ConvexKSpec:
    directions: np.ndarray   # (m, D)
    thresholds: np.ndarray   # (m,)
    lin: LinearizationMap

    def inside_mask(self, points: np.ndarray) -> np.ndarray:
        """Membership of original-space points, with a small slack so the
        sweep's own boundary points count as inside."""
        lifted = self.lin.lift(points)
        proj = lifted @ self.directions.T
        tol = 1e-12 * (1.0 + np.abs(self.thresholds))
        return np.all(proj <= self.thresholds + tol, axis=1)


def _point_masses(instance: Instance) -> np.ndarray:
    """Per-support-point probability mass; locational rows summed per
    location (may exceed 1, used only as sweep surrogates and weights)."""
    if isinstance(instance, ExistentialInstance):
        return instance.probs.copy()
    return instance.probs.sum(axis=0)


def _prefix_mass(instance: Instance, order: np.ndarray) -> np.ndarray:
    """Mass surrogate of each sweep prefix order[:i+1].

    Existential: sum of p_i.  Locational: 1 - prod over nodes of
    (1 - row mass on the prefix), the exact probability that some node
    lands in the prefix.
    """
    if isinstance(instance, ExistentialInstance):
        return np.cumsum(instance.probs[order])
    tail = np.cumsum(instance.probs[:, order], axis=1)
    return 1.0 - np.prod(1.0 - tail, axis=0)


def sweep_convexK(instance: Instance, j: int, eps: float,
                  net_size: int = 32) -> ConvexKSpec:
    """Intersect halfspaces cutting off at most eps' = eps / (2 * net_size)
    mass per direction, so the union bound puts at most eps/2 total mass
    outside K.
    """
    if isinstance(instance, ExistentialInstance) and instance.total_prob < eps:
        raise CaseMismatch("total probability below eps; use the Case 1 path")
    lin = LinearizationMap(j=j, d=instance.d)
    dirs = direction_net(lin.D, net_size)
    eps_prime = eps / (2 * dirs.shape[0])
    lifted = lin.lift(instance.support_points)
    thresholds = np.empty(dirs.shape[0])
    for i, u in enumerate(dirs):
        proj = lifted @ u
        order = np.lexsort((np.arange(len(proj)), -proj))
        mass = _prefix_mass(instance, order)
        hit = np.flatnonzero(mass >= eps_prime)
        if hit.size == 0:
            raise EmptyK(f"sweep mass never reaches eps'={eps_prime}")
        thresholds[i] = proj[order[hit[0]]]
    return ConvexKSpec(directions=dirs, thresholds=thresholds, lin=lin)


# ---------------------------------------------------------------------------
# Coresets


@dataclass(frozen=True)
class SJFCCoreset:
    """S1 kernels (each weight 1/N) and the weighted outside points S2.

    Both are packed once, at construction, into one ``collection``: the N
    kernels first, each of weight 1/N, then every S2 point as a singleton
    set of its S2 weight (d from ``s2_points``).  ``s1`` then holds
    read-only views into it.
    """

    s1: tuple               # tuple of (n_i, d) arrays, each weight 1/N
    s2_points: np.ndarray   # (m, d)
    s2_weights: np.ndarray  # (m,)
    j: int
    eps: float
    case: int               # 1 or 2
    collection: WeightedCollection = field(init=False, repr=False,
                                           compare=False)

    def __post_init__(self):
        N = len(self.s1)
        collection = WeightedCollection(
            sets=tuple(self.s1) + tuple(self.s2_points[:, None, :]),
            weights=np.concatenate([np.ones(N) / N, self.s2_weights]),
            d=self.s2_points.shape[1])
        object.__setattr__(self, "collection", collection)
        object.__setattr__(self, "s1", collection.sets[:N])

    @property
    def N(self) -> int:
        return len(self.s1)


def case1_size_cap(j: int, d: int, eps: float) -> int:
    return math.ceil((j + 1) ** 4 * d / eps ** 2)


def _weighted_median_flat(S: WeightedCollection, j: int) -> Flat:
    """Rough optimum of sum_i w_i d(s_i, F) over the singleton sets of S,
    enough for sensitivity scores: the weighted 1-median for j=0, the
    principal axis through the weighted mean for j=1."""
    if j == 0:
        C, _ = solve_gkm(S, 1)
        return Flat(j=0, base=C.centers[0])
    points, weights = S.points, S.weights
    center = np.average(points, axis=0, weights=weights)
    cov = np.cov(points.T, aweights=weights, bias=True).reshape(S.d, S.d)
    v = np.linalg.eigh(cov)[1][:, -1]
    return Flat(j=1, base=center, basis=v.reshape(1, -1))


def weighted_flat_median_coreset(points: np.ndarray, weights: np.ndarray,
                                 j: int, eps: float,
                                 rng: np.random.Generator):
    """Importance-sampling coreset of a weighted flat-median instance.

    Instances at or under the size cap are returned verbatim.  Sensitivities
    are the distance share w.r.t. an approximate optimum plus the projected
    total-sensitivity mass term; the draws are ``gkm``'s importance sampler
    over the points as singleton sets.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    weights = np.asarray(weights, dtype=float)
    n, d = points.shape
    cap = case1_size_cap(j, d, eps)
    if n <= cap:
        return points, weights
    S = WeightedCollection(sets=tuple(points[:, None, :]), weights=weights,
                           d=d)
    dists = shape_distances(points, _weighted_median_flat(S, j))
    cost = float(S._cost(dists))
    W = float(weights.sum())
    if cost > 0.0:
        sigma = SensitivityEstimate(
            values=weights * dists / cost + 2.0 * (d + 1) ** 1.5 * weights / W,
            kind="ProjectionUpper")
    else:
        sigma = SensitivityEstimate(values=np.full(n, 1.0 / n), kind="Uniform")
    core = importance_sample_coreset(S, sigma, cap, rng)
    return points[list(core.indices)], core.weights


def case1_coreset(instance: ExistentialInstance, j: int, eps: float,
                  rng: np.random.Generator | None = None) -> SJFCCoreset:
    """Weighted flat-median coreset for the low-mass regime."""
    if instance.total_prob >= eps:
        raise CaseMismatch("total probability at least eps; use Case 2")
    if rng is None:
        rng = np.random.default_rng(NET_SEED)
    keep = instance.probs > 0.0
    pts, w = weighted_flat_median_coreset(
        instance.points[keep], instance.probs[keep], j, eps, rng)
    return SJFCCoreset(s1=(), s2_points=pts, s2_weights=w, j=j, eps=eps,
                       case=1)


def _kernel(points: np.ndarray, lin: LinearizationMap,
            kernel_dirs: np.ndarray) -> np.ndarray:
    """Directional-extent kernel: the argmax point per net direction."""
    if points.shape[0] == 0:
        return points
    proj = lin.lift(points) @ kernel_dirs.T
    keep = sorted(set(int(i) for i in proj.argmax(axis=0)))
    return points[keep]


def build_S1(instance: Instance, K: ConvexKSpec, N: int, seed: int,
             kernel_net_size: int = 64) -> tuple:
    """N sampled realizations of the inside-K sub-instance, each reduced to
    a directional kernel; empty realizations stay empty."""
    inside = K.inside_mask(instance.support_points)
    kernel_dirs = direction_net(K.lin.D, kernel_net_size)
    if isinstance(instance, ExistentialInstance):
        # Only the points inside K are drawn, one uniform each.
        instance = ExistentialInstance(points=instance.points[inside],
                                       probs=instance.probs[inside])
    # One generator per sample, so sample i does not depend on N.
    u = np.array([np.random.default_rng(np.random.SeedSequence([seed, i]))
                  .random(instance.n) for i in range(N)])
    drawn = realize(instance, u.reshape(N, instance.n))
    if isinstance(instance, ExistentialInstance):
        realized = (instance.points[mask] for mask in drawn)
    else:
        realized = (instance.locations[np.unique(idx[inside[idx]])]
                    for idx in drawn)
    return tuple(_kernel(P, K.lin, kernel_dirs) for P in realized)


def build_S2(instance: Instance, K: ConvexKSpec, j: int, eps: float,
             rng: np.random.Generator | None = None):
    """Weighted flat-median coreset of the points left outside K."""
    if rng is None:
        rng = np.random.default_rng(NET_SEED)
    inside = K.inside_mask(instance.support_points)
    masses = _point_masses(instance)
    outside = (~inside) & (masses > 0.0)
    return weighted_flat_median_coreset(
        instance.support_points[outside], masses[outside], j, eps, rng)


def _check_sjfc_args(eps: float, N: int, net_size: int):
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if N < 1:
        raise ValueError("N must be at least 1")
    if net_size < 1:
        raise ValueError("net_size must be at least 1")


def build_sjfc_coreset(instance: Instance, j: int, eps: float, seed: int,
                       N: int = 500, net_size: int = 32) -> SJFCCoreset:
    _check_sjfc_args(eps, N, net_size)
    if isinstance(instance, ExistentialInstance) and instance.total_prob < eps:
        return case1_coreset(instance, j, eps,
                             np.random.default_rng([seed, 1]))
    K = sweep_convexK(instance, j, eps, net_size=net_size)
    s1 = build_S1(instance, K, N, seed)
    s2_pts, s2_w = build_S2(instance, K, j, eps,
                            np.random.default_rng([seed, 2]))
    return SJFCCoreset(s1=s1, s2_points=s2_pts, s2_weights=s2_w, j=j,
                       eps=eps, case=2)


def estimate_J(coreset: SJFCCoreset, F: Flat) -> float:
    """(1/N) sum of kernel maxima plus the weighted outside term: the cost
    of the packed collection."""
    return coreset.collection.cost(F)


# ---------------------------------------------------------------------------
# Solvers


def _flat_from_params(x: np.ndarray, j: int, d: int) -> Flat:
    if j == 0:
        return Flat(j=0, base=x)
    t, v = x[:d], x[d:]
    norm = np.linalg.norm(v)
    v = v / norm if norm > 1e-12 else np.eye(d)[0]
    t = t - (t @ v) * v  # canonical base: the point of the line nearest 0
    return Flat(j=1, base=t, basis=v.reshape(1, -1))


def _optimize_flat(fval, d: int, starts) -> tuple[Flat, float, int]:
    """One Nelder-Mead run per start over lines; returns the best line, its
    value and the number of runs that stopped unconverged at ``maxiter``."""
    best, unconverged = None, 0
    for x0 in starts:
        res = minimize(lambda x: fval(_flat_from_params(x, 1, d)), x0)
        unconverged += not res.success
        F = _flat_from_params(res.x, 1, d)
        v = res.fun
        if best is None or v < best[1]:
            best = (F, v)
    return best[0], best[1], unconverged


def _starts_for(support: np.ndarray, d: int):
    """Lines through the support mean along its principal axis, then each
    coordinate axis."""
    base = support.mean(axis=0)
    axes = np.eye(d)
    dirs = [axes[i] for i in range(d)]
    if support.shape[0] > 1:
        centered = support - base
        v = np.linalg.eigh(centered.T @ centered)[1][:, -1]
        dirs.insert(0, v)
    return [np.concatenate([base, v]) for v in dirs]


def solve_jflat(coreset: SJFCCoreset, j: int, d: int) -> tuple[Flat, float]:
    """Minimize the coreset estimator over flats; deterministic multi-start
    for j=1.  Returns the flat and its ``estimate_J``."""
    if j not in (0, 1):
        raise SchemaError("only j in {0, 1} is supported")
    support = coreset.collection.points
    if support.shape[0] == 0:
        return _flat_from_params(np.zeros(d if j == 0 else 2 * d), j, d), 0.0
    if j == 0:
        # gkm's k=1 solve on the packed kernels and S2 singletons
        C, _ = solve_gkm(coreset.collection, 1)
        F = Flat(j=0, base=C.centers[0])
        return F, estimate_J(coreset, F)
    F, value, _ = _optimize_flat(lambda F: estimate_J(coreset, F), d,
                                 _starts_for(support, d))
    return F, value


def sjfc_pipeline(instance: Instance, j: int, eps: float, seed: int = 0,
                  N: int = 500, net_size: int = 32):
    """Coreset, solve, then re-optimize on the exact expected objective.

    Returns (Flat, value, info).  The exact evaluator is cheap (one sort per
    call), so the final polish runs directly on it and the reported value is
    exact for the returned flat.  For j=0 the polish is ``gkm``'s k=1 one,
    from the coreset solution and the support's enclosing-ball center.  info
    holds the coreset ``case``, ``s1_size``, ``s2_size`` and
    ``polish_unconverged``, the number of polish runs that stopped at
    ``maxiter``.
    """
    if j not in (0, 1):
        raise SchemaError("only j in {0, 1} is supported")
    _check_sjfc_args(eps, N, net_size)
    masses = _point_masses(instance)
    if float(masses.max(initial=0.0)) == 0.0:
        F = _flat_from_params(np.zeros(instance.d if j == 0 else 2 * instance.d),
                              j, instance.d)
        return F, 0.0, {"case": 1, "s1_size": 0, "s2_size": 0,
                        "polish_unconverged": 0}
    coreset = build_sjfc_coreset(instance, j, eps, seed, N=N,
                                 net_size=net_size)
    F0, _ = solve_jflat(coreset, j, instance.d)
    if j == 0:
        C, value, _, unconverged = _best_polished(
            instance, 1, [CenterSet(centers=F0.base.reshape(1, -1))])
        F = Flat(j=0, base=C.centers[0])
    else:
        points = instance.support_points
        starts = _starts_for(points, instance.d)
        starts.insert(0, np.concatenate([F0.base, F0.basis[0]]))
        F, value, unconverged = _optimize_flat(
            lambda F: _exact_value(instance, shape_distances(points, F)),
            instance.d, starts)
    info = {"case": coreset.case, "s1_size": coreset.N,
            "s2_size": int(coreset.s2_points.shape[0]),
            "polish_unconverged": unconverged}
    return F, _finite(float(value)), info
