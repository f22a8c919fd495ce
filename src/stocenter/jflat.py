"""Coresets and solvers for the stochastic minimum j-flat-center problem.

Both models run one construction over the support and its site masses p_i
(``site_masses``: a point's probability, or a location's column sum).  Two
regimes, split on their sum B (``total_prob``).  When B < eps the objective
is within (1 +- eps) of the linear surrogate sum_i p_i d(s_i, F), so a
weighted flat-median coreset suffices (Case 1).  Otherwise (Case 2) the
points are lifted so squared flat distance becomes affine, a convex region
K cutting off at most eps mass, summed over p_i (a union bound), is swept
out along the ``NET_SIZE`` directions of a fixed net as a mask over the
support, sampled realizations inside K are reduced to kernels along the
``KERNEL_NET_SIZE`` directions of another (S1), and the outside points get
the weighted coreset (S2).  Case 1 is S2 of an empty K: a locational
instance takes it only without nodes.  Only j in {0, 1} is supported: the
j=1 lift, of width d + d(d+1)/2, already linearizes every flat with j >= 1,
but ``_flat_from_params``, ``_starts_for`` and ``_weighted_median_flat``
fit one axis only (ROADMAP item 15).

A 0-flat is one center, so j=0 (coreset solve, S2 sensitivity seed and
exact polish) runs through the k=1 code of ``gkm``; only j=1 uses the
Nelder-Mead line search of this module, ``neldermead.minimize``, as in
``gkm``.
The coreset is one ``WeightedCollection``: the N kernels of S1 at weight
1/N each, then every S2 point as a singleton set.  Its ``cost`` is the
estimator, and the j=0 solve runs on it as it is.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CaseMismatch, SchemaError
from .gkm import (WeightedCollection, _best_polished,
                  importance_sample_coreset, solve_gkm)
from .model import CenterSet, Flat, Instance, realize
from .neldermead import minimize
from .objective import _check_eps, _exact_value, _finite, shape_distances

NET_SEED = 0xC0FFEE
NET_SIZE = 32  # directions of the sweep net that cuts out K
KERNEL_NET_SIZE = 64  # directions of the S1 kernel net


# ---------------------------------------------------------------------------
# Linearization


def _check_j(j: int, d: int):
    """Only j in {0, 1} is supported, and a j-flat in R^d needs j <= d-1."""
    if j not in (0, 1):
        raise SchemaError("only j in {0, 1} is supported")
    if j > d - 1:
        raise SchemaError(f"a {j}-flat needs d >= {j + 1}, got d = {d}")


def lift(points: np.ndarray, j: int) -> np.ndarray:
    """Coordinate lift making d(x, F)^2 affine in the lifted coordinates:
    x and |x|^2 for j=0, x and every product x_a x_b (a <= b) for j=1."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = pts.shape[1]
    _check_j(j, d)
    if j == 0:
        return np.hstack([pts, (pts ** 2).sum(axis=1, keepdims=True)])
    return np.hstack([pts] + [pts[:, a:a + 1] * pts[:, b:b + 1]
                              for a in range(d) for b in range(a, d)])


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


def sweep_convexK(instance: Instance, j: int, eps: float) -> np.ndarray:
    """Which support points lie in K, the intersection of halfspaces cutting
    off at most eps' = eps / (2 * M) mass per direction, where M is the
    number of directions in the net (``NET_SIZE``), so the union bound puts
    at most eps/2 total mass outside K.

    Each direction's threshold is the lifted projection at which a sweep
    from its far side (ties to the lower id) first reaches eps' mass, summed
    over the site masses: it bounds Pr[some swept point is realized].  The
    thresholds come from the same projections that the membership test
    reads, so a point on a boundary is inside exactly.
    """
    _check_j(j, instance.d)
    _check_eps(eps)
    if instance.total_prob < eps:
        raise CaseMismatch("total probability below eps; use the Case 1 path")
    masses = instance.site_masses
    lifted = lift(instance.support_points, j)
    dirs = direction_net(lifted.shape[1], NET_SIZE)
    eps_prime = eps / (2 * dirs.shape[0])
    proj = lifted @ dirs.T
    ids = np.arange(proj.shape[0])
    thresholds = np.empty(dirs.shape[0])
    for i, column in enumerate(proj.T):
        order = np.lexsort((ids, -column))
        mass = np.cumsum(masses[order])
        hit = np.flatnonzero(mass >= eps_prime)
        thresholds[i] = column[order[hit[0]]]
    return (proj <= thresholds).all(axis=1)


# ---------------------------------------------------------------------------
# Coresets


def _pack(s1: tuple, s2_points: np.ndarray,
          s2_weights: np.ndarray) -> WeightedCollection:
    """The coreset: the N kernels of S1 first, each of weight 1/N, then
    every S2 point as a singleton set of its S2 weight (d from
    ``s2_points``)."""
    N = len(s1)
    return WeightedCollection(
        sets=tuple(s1) + tuple(s2_points[:, None, :]),
        weights=np.concatenate([np.ones(N) / N, s2_weights]),
        d=s2_points.shape[1])


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
    _check_j(j, d)
    _check_eps(eps)
    cap = case1_size_cap(j, d, eps)
    if n <= cap:
        return points, weights
    S = WeightedCollection(sets=tuple(points[:, None, :]), weights=weights,
                           d=d)
    dists = shape_distances(points, _weighted_median_flat(S, j))
    cost = float(S._cost(dists))
    W = float(weights.sum())
    if cost > 0.0:
        sigma = weights * dists / cost + 2.0 * (d + 1) ** 1.5 * weights / W
    else:
        sigma = np.full(n, 1.0 / n)
    idx, w = importance_sample_coreset(weights, sigma, cap, rng)
    return points[idx], w


def _kernel(points: np.ndarray, j: int,
            kernel_dirs: np.ndarray) -> np.ndarray:
    """Directional-extent kernel: the argmax point per net direction."""
    if points.shape[0] == 0:
        return points
    proj = lift(points, j) @ kernel_dirs.T
    keep = sorted(set(int(i) for i in proj.argmax(axis=0)))
    return points[keep]


def build_S1(instance: Instance, inside: np.ndarray, j: int, N: int,
             seed: int) -> tuple:
    """N sampled realizations of n uniforms each, restricted to the support
    points ``inside`` K and reduced to a directional kernel over
    ``KERNEL_NET_SIZE`` directions; empty realizations stay empty."""
    kernel_dirs = direction_net(lift(np.zeros(instance.d), j).shape[1],
                                KERNEL_NET_SIZE)
    # One generator per sample, so sample i does not depend on N.
    u = np.array([np.random.default_rng(np.random.SeedSequence([seed, i]))
                  .random(instance.n) for i in range(N)])
    masks = realize(instance, u.reshape(N, instance.n)) & inside
    return tuple(_kernel(instance.support_points[mask], j, kernel_dirs)
                 for mask in masks)


def build_S2(instance: Instance, inside: np.ndarray, j: int, eps: float,
             rng: np.random.Generator):
    """Weighted flat-median coreset of the support points of positive mass
    that are not ``inside`` K."""
    _check_j(j, instance.d)
    _check_eps(eps)
    masses = instance.site_masses
    outside = (~inside) & (masses > 0.0)
    return weighted_flat_median_coreset(
        instance.support_points[outside], masses[outside], j, eps, rng)


def _check_sjfc_args(instance: Instance, j: int, eps: float, N: int):
    _check_j(j, instance.d)
    _check_eps(eps)
    if N < 1:
        raise ValueError("N must be at least 1")


def build_sjfc_coreset(instance: Instance, j: int, eps: float, seed: int,
                       N: int = 500) -> tuple[WeightedCollection, int]:
    """The packed coreset of S1 and S2 (see ``_pack``) and its case, 1 or
    2; in Case 1, S1 is empty."""
    _check_sjfc_args(instance, j, eps, N)
    if instance.total_prob < eps:
        # Case 1 is S2 of an empty K
        s2 = build_S2(instance, np.zeros(len(instance.site_masses), bool), j,
                      eps, np.random.default_rng([seed, 1]))
        return _pack((), *s2), 1
    inside = sweep_convexK(instance, j, eps)
    s1 = build_S1(instance, inside, j, N, seed)
    return _pack(s1, *build_S2(instance, inside, j, eps,
                               np.random.default_rng([seed, 2]))), 2


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


def solve_jflat(S: WeightedCollection, j: int) -> tuple[Flat, float]:
    """Minimize the coreset estimator ``S.cost`` over j-flats;
    deterministic multi-start for j=1.  Returns the flat and its cost."""
    _check_j(j, S.d)
    support, d = S.points, S.d
    if support.shape[0] == 0:
        return _flat_from_params(np.zeros(d if j == 0 else 2 * d), j, d), 0.0
    if j == 0:
        # gkm's k=1 solve on the packed kernels and S2 singletons
        C, _ = solve_gkm(S, 1)
        F = Flat(j=0, base=C.centers[0])
        return F, S.cost(F)
    F, value, _ = _optimize_flat(S.cost, d, _starts_for(support, d))
    return F, value


def sjfc_pipeline(instance: Instance, j: int, eps: float, seed: int = 0,
                  N: int = 500):
    """Coreset, solve, then re-optimize on the exact expected objective.

    Returns (Flat, value, info).  The exact evaluator is cheap (one sort per
    call), so the final polish runs directly on it and the reported value is
    exact for the returned flat.  For j=0 the polish is ``gkm``'s k=1 one,
    from the coreset solution and the support's enclosing-ball center.  info
    holds the coreset ``case``, ``s1_size``, ``s2_size`` and
    ``polish_unconverged``, the number of polish runs that stopped at
    ``maxiter``.
    """
    _check_sjfc_args(instance, j, eps, N)
    if not instance.probs.any():
        F = _flat_from_params(np.zeros(instance.d if j == 0 else 2 * instance.d),
                              j, instance.d)
        return F, 0.0, {"case": 1, "s1_size": 0, "s2_size": 0,
                        "polish_unconverged": 0}
    S, case = build_sjfc_coreset(instance, j, eps, seed, N=N)
    F0, _ = solve_jflat(S, j)
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
    s1_size = N if case == 2 else 0
    info = {"case": case, "s1_size": s1_size, "s2_size": S.size - s1_size,
            "polish_unconverged": unconverged}
    return F, _finite(float(value)), info
