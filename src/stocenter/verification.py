"""Acceptance checks shared by the CLI verify command and the test suite.

Each criterion is a seeded, deterministic function returning a CheckResult;
run_all executes them in order.  The quick scale trims instance counts for
interactive runs, the full scale uses the acceptance counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gkm import WeightedCollection, candidate_costs, skc_pipeline
from .grid_coreset import CoresetBuilder, coreset_image_size_bound
from .jflat import build_sjfc_coreset, sjfc_pipeline, sweep_convexK
from .model import (CenterSet, ExistentialInstance, Flat, LocationalInstance,
                    realize)
from .objective import (_distances, _squared_distances, _weighted_sum,
                        expected_flatcenter_exact, expected_objective_exact,
                        shape_distances)
from .oracle import (center_grid, minimum_enclosing_ball,
                     oracle_expected_values, oracle_holant_direct,
                     oracle_sensitivities, oracle_solver_instance)
from .partition import build_weighted_image, enumerate_sequences, holant_value
from .serialize import dumps_json


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


COUNTS = {
    "full": dict(c1_exist=200, c1_F=50, c1_loc=50, c1_locF=20,
                 c2_reals=200, c2_F=500, c4_inst=100, c5_inst=50,
                 c6_F=200, c7_inst=100, c8_inst=10, c9_inst=50,
                 c10_inst=20, c10_F=100, c11_inst=20, c11_N=2000,
                 c11_F=100),
    "quick": dict(c1_exist=20, c1_F=10, c1_loc=10, c1_locF=5,
                  c2_reals=20, c2_F=60, c4_inst=10, c5_inst=6,
                  c6_F=40, c7_inst=12, c8_inst=3, c9_inst=5,
                  c10_inst=4, c10_F=20, c11_inst=3, c11_N=300,
                  c11_F=20),
}


# ---------------------------------------------------------------------------
# Random-instance helpers (all seeded)


def _rand_exist(rng, n, d, prob_lo=0.05):
    return ExistentialInstance(
        points=rng.uniform(-10.0, 10.0, size=(n, d)),
        probs=rng.uniform(prob_lo, 0.95, size=n))


def _rand_loc(rng, n, m, d):
    rows = rng.uniform(0.05, 1.0, size=(n, m))
    rows /= rows.sum(axis=1, keepdims=True)
    return LocationalInstance(
        locations=rng.uniform(-10.0, 10.0, size=(m, d)), probs=rows)


def _rand_centers(rng, count, k, d):
    return rng.uniform(-12.0, 12.0, size=(count, k, d))


def _min_center_dists(points: np.ndarray, F_batch: np.ndarray) -> np.ndarray:
    """(n_points, n_F) min distance to each batch center set, sqrt last."""
    count, k, d = F_batch.shape
    sq = _squared_distances(points, F_batch.reshape(count * k, d))
    return np.sqrt(sq.reshape(len(points), count, k).min(axis=2))


def _c1_error(instance, F_batch: np.ndarray) -> float:
    """Largest |exact - enumeration| over the center sets of F_batch."""
    dmat = _min_center_dists(instance.support_points, F_batch)
    exact = [expected_objective_exact(instance, CenterSet(centers=F)).value
             for F in F_batch]
    enum, _ = oracle_expected_values(instance, dmat)
    return float(np.abs(np.array(exact) - enum).max())


# ---------------------------------------------------------------------------
# Criteria


def criterion_1(scale: str, seed: int = 101, **_) -> CheckResult:
    c = COUNTS[scale]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _i in range(c["c1_exist"]):
        n = int(rng.integers(4, 16))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 3))
        inst = _rand_exist(rng, n, d)
        F_batch = _rand_centers(rng, c["c1_F"], k, d)
        worst = max(worst, _c1_error(inst, F_batch))
    for _i in range(c["c1_loc"]):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 3))
        inst = _rand_loc(rng, n, m, d)
        F_batch = _rand_centers(rng, c["c1_locF"], k, d)
        worst = max(worst, _c1_error(inst, F_batch))
    ok = worst <= 1e-9
    return CheckResult("criterion 1 exact-objective equivalence", ok,
                       f"max |exact - enumeration| = {worst:.3e} (tol 1e-9)")


def _c2_cases(scale: str, seed: int):
    c = COUNTS[scale]
    rng = np.random.default_rng(seed)
    for i in range(c["c2_reals"]):
        n = int(rng.integers(8, 41))
        k = 1 + i % 2
        eps = (0.25, 0.5)[(i // 2) % 2]
        inst = _rand_exist(rng, n, 2)
        builder = CoresetBuilder(inst.points, k, eps)
        mask = rng.random(n) < 0.6
        if not mask.any():
            mask[0] = True
        ids = tuple(int(v) for v in np.flatnonzero(mask))
        yield rng, inst, builder, ids, k, eps


def criterion_2(scale: str, seed: int = 102, **_) -> CheckResult:
    c = COUNTS[scale]
    violations = 0
    size_viol = 0
    for rng, inst, builder, ids, k, eps in _c2_cases(scale, seed):
        out = builder.build(ids)
        if out.size > coreset_image_size_bound(k, 2, eps):
            size_viol += 1
        F_batch = _rand_centers(rng, c["c2_F"], k, 2)
        P = inst.points[list(ids)]
        E = inst.points[list(out.coreset)]
        KP = _min_center_dists(P, F_batch).max(axis=0)
        KE = _min_center_dists(E, F_batch).max(axis=0)
        violations += int(np.sum(KP > (1.0 + eps) * KE * (1 + 1e-12)))
    ok = violations == 0 and size_viol == 0
    return CheckResult("criterion 2 additive-coreset coverage", ok,
                       f"{violations} coverage violations, "
                       f"{size_viol} size-bound violations")


def criterion_3(scale: str, seed: int = 102, **_) -> CheckResult:
    bad = 0
    for _rng, _inst, builder, ids, _k, eps in _c2_cases(scale, seed):
        out = builder.build(ids)
        r_P = builder.r_of(ids)
        r_E = builder.r_of(out.coreset)
        if not ((1.0 - eps) * r_P <= r_E <= r_P):
            bad += 1
            continue
        rerun = builder.build(out.coreset)
        if rerun.coreset != out.coreset or rerun.grid != out.grid:
            bad += 1
    return CheckResult("criterion 3 r-monotonicity and grid stability",
                       bad == 0, f"{bad} violations")


def _c4_instances(scale: str, seed: int):
    c = COUNTS[scale]
    rng = np.random.default_rng(seed)
    for i in range(c["c4_inst"]):
        n = int(rng.integers(6, 13))
        k = 1 + i % 2
        eps = (0.25, 0.5)[(i // 2) % 2]
        yield rng, _rand_exist(rng, n, 2), k, eps


def criterion_4(scale: str, seed: int = 104, perturb: float = 0.0,
                **_) -> CheckResult:
    worst = 0.0
    worst_sum = 0.0
    for _rng, inst, k, eps in _c4_instances(scale, seed):
        algo = dict(build_weighted_image(inst, k, eps, mode="subsets").entries)
        if perturb and algo:
            key = max(algo, key=algo.get)
            algo[key] *= 1.0 + perturb
        brute = dict(build_weighted_image(inst, k, eps,
                                          mode="exhaustive").entries)
        keys = set(algo) | set(brute)
        for key in keys:
            worst = max(worst, abs(algo.get(key, 0.0) - brute.get(key, 0.0)))
        worst_sum = max(worst_sum, abs(sum(algo.values()) - 1.0))
    ok = worst <= 1e-12 and worst_sum <= 1e-9
    return CheckResult("criterion 4 coreset-class probabilities (existential)",
                       ok, f"max mass error {worst:.3e} (tol 1e-12), "
                           f"max sum error {worst_sum:.3e} (tol 1e-9)")


def criterion_5(scale: str, seed: int = 105, **_) -> CheckResult:
    c = COUNTS[scale]
    rng = np.random.default_rng(seed)
    worst = 0.0
    z_worst = 0.0
    for i in range(c["c5_inst"]):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 5))
        k = 1
        eps = 0.5
        inst = _rand_loc(rng, n, m, 2)
        algo = dict(build_weighted_image(inst, k, eps, mode="subsets").entries)
        brute = dict(build_weighted_image(inst, k, eps,
                                          mode="exhaustive").entries)
        for key in set(algo) | set(brute):
            worst = max(worst, abs(algo.get(key, 0.0) - brute.get(key, 0.0)))
        # per-sequence holant values on the first class of more than k
        # points, if any
        for S in sorted(algo):
            if len(S) <= k:
                continue
            tail = CoresetBuilder(inst.locations, k, eps).build(S).tail
            for seq in enumerate_sequences(n, len(S)):
                z_dp = holant_value(inst, S, tail, seq)
                z_direct = oracle_holant_direct(inst, S, tail, seq)
                z_worst = max(z_worst, abs(z_dp - z_direct))
            break
    ok = worst <= 1e-12 and z_worst <= 1e-12
    return CheckResult("criterion 5 locational occupancy DP", ok,
                       f"max mass error {worst:.3e}, "
                       f"max per-sequence error {z_worst:.3e} (tol 1e-12)")


def criterion_6(scale: str, seed: int = 104, perturb: float = 0.0,
                **_) -> CheckResult:
    c = COUNTS[scale]
    violations = 0
    for rng, inst, k, eps in _c4_instances(scale, seed):
        image = build_weighted_image(inst, k, eps, mode="subsets")
        entries = list(image.entries)
        if perturb and entries:
            # hit the heaviest nonempty class so the injected error actually
            # moves the estimated cost
            pos = max((i for i, (ids, _) in enumerate(entries) if ids),
                      key=lambda i: entries[i][1], default=0)
            ids0, w0 = entries[pos]
            entries[pos] = (ids0, w0 * (1.0 + perturb))
        F_batch = _rand_centers(rng, c["c6_F"], k, 2)
        dmat = _min_center_dists(inst.points, F_batch)  # (n, F)
        # summed from 0, class by class, as a per-class loop adds
        approx = sum(w * dmat[list(ids)].max(axis=0) for ids, w in entries
                     if ids)
        exact = np.array([expected_objective_exact(inst, CenterSet(centers=F))
                          .value for F in F_batch])
        violations += int(np.sum(~(((1.0 - eps) * exact - 1e-9 <= approx)
                                   & (approx <= (1.0 + eps) * exact + 1e-9))))
    return CheckResult("criterion 6 weighted-image cost sandwich",
                       violations == 0, f"{violations} violations")


def _rand_gkm(rng, max_sets=8, max_size=4) -> WeightedCollection:
    n_sets = int(rng.integers(2, max_sets + 1))
    sets, weights = [], []
    for _ in range(n_sets):
        sz = int(rng.integers(1, max_size + 1))
        sets.append(rng.uniform(-10, 10, size=(sz, 2)))
        weights.append(float(rng.uniform(0.1, 2.0)))
    return WeightedCollection(sets=tuple(sets), weights=np.array(weights))


def criterion_7(scale: str, seed: int = 107, **_) -> CheckResult:
    c = COUNTS[scale]
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for i in range(c["c7_inst"]):
        k = 1 + i % 2
        S = _rand_gkm(rng)
        total = float(oracle_sensitivities(S, k).sum())
        worst = max(worst, total - (4 * k + 3))
    ok = worst <= 1e-9
    return CheckResult("criterion 7 total sensitivity cap", ok,
                       f"max excess over 4k+3 = {worst:.3e} (tol 1e-9)")


def _c8_found(S: WeightedCollection, cand: np.ndarray, eps: float) -> bool:
    """Whether an M=2, L_exp=6 candidate is in S's (1 +- 3 eps) band."""
    K = S.maxima(_distances(S.points, cand))  # (sets, F)
    cost_full = _weighted_sum(S.weights, K)
    lo = (1.0 - 3 * eps) * cost_full - 1e-9
    hi = (1.0 + 3 * eps) * cost_full + 1e-9
    return any(((costs >= lo) & (costs <= hi)).all(axis=1).any()
               for _, _, costs in candidate_costs(S, K, 2, 6, eps))


def criterion_8(scale: str, seed: int = 108, **_) -> CheckResult:
    rng = np.random.default_rng(seed)
    failures = 0
    for _i in range(COUNTS[scale]["c8_inst"]):
        S = _rand_gkm(rng, max_sets=4, max_size=3)
        cand = np.vstack([center_grid(S.points, 5, margin=2.0), S.points])
        # at eps >= 1/3 the band's lower edge (1 - 3 eps) cost is not
        # positive, and the check could not fail
        failures += not _c8_found(S, cand, eps=0.2)
    return CheckResult("criterion 8 enumerated-coreset existence",
                       failures == 0, f"{failures} instances without a "
                                      f"(1 +- 3 eps) candidate")


def criterion_9(scale: str, seed: int = 109, **_) -> CheckResult:
    c = COUNTS[scale]
    rng = np.random.default_rng(seed)
    eps = 0.5
    worst_ratio = 0.0
    det_err = 0.0
    for i in range(c["c9_inst"]):
        n = int(rng.integers(4, 11))
        deterministic = i % 5 == 4
        if deterministic:
            inst = ExistentialInstance(
                points=rng.uniform(-10, 10, size=(n, 2)), probs=np.ones(n))
        else:
            inst = _rand_exist(rng, n, 2)
        F, value, _info = skc_pipeline(inst, 1, eps, strategy="full")
        if deterministic:
            _, r = minimum_enclosing_ball(inst.points)
            det_err = max(det_err, abs(value - r))
        else:
            _oF, ov = oracle_solver_instance(inst, 1, resolution=15)
            if ov > 0:
                worst_ratio = max(worst_ratio, value / ov)
    ok = worst_ratio <= 1.0 + eps and det_err <= 1e-6
    return CheckResult("criterion 9 end-to-end k-center pipeline", ok,
                       f"max ratio to grid oracle {worst_ratio:.6f} "
                       f"(cap {1 + eps}), deterministic error "
                       f"{det_err:.2e} (tol 1e-6)")


def _rand_flat(rng, j, d) -> Flat:
    base = rng.uniform(-12.0, 12.0, size=d)
    if j == 0:
        return Flat(j=0, base=base)
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return Flat(j=1, base=base, basis=v.reshape(1, -1))


def criterion_10(scale: str, seed: int = 110, **_) -> CheckResult:
    c = COUNTS[scale]
    rng = np.random.default_rng(seed)
    eps = 0.5
    violations = 0
    for i in range(c["c10_inst"]):
        n = int(rng.integers(4, 12))
        d = 2
        probs = rng.uniform(0.01, 1.0, size=n)
        probs *= rng.uniform(0.2, 0.9) * eps / probs.sum()
        inst = ExistentialInstance(points=rng.uniform(-10, 10, size=(n, d)),
                                   probs=probs)
        j = i % 2
        for _f in range(c["c10_F"]):
            F = _rand_flat(rng, j, d)
            dists = shape_distances(inst.points, F)
            surrogate = float(_weighted_sum(inst.probs, dists))
            exact = expected_flatcenter_exact(inst, F).value
            if not ((1 - eps) * exact - 1e-12 <= surrogate
                    <= (1 + eps) * exact + 1e-12):
                violations += 1
    return CheckResult("criterion 10 low-mass linear surrogate",
                       violations == 0, f"{violations} violations")


def criterion_11(scale: str, seed: int = 111, **_) -> CheckResult:
    c = COUNTS[scale]
    rng = np.random.default_rng(seed)
    eps = 0.2
    max_outside = 0.0
    max_delta = 0.0
    for _i in range(c["c11_inst"]):
        n = int(rng.integers(10, 31))
        # a few near-zero probabilities so the sweep leaves points outside K
        # and the weighted outside coreset is exercised
        inst = _rand_exist(rng, n, 2, prob_lo=0.0005)
        inside = sweep_convexK(inst, 0, eps)
        max_outside = max(max_outside, float(inst.probs[~inside].sum()))
        S, _ = build_sjfc_coreset(inst, 0, eps, seed + _i, N=c["c11_N"])
        for _f in range(c["c11_F"]):
            F = _rand_flat(rng, 0, 2)
            exact = expected_flatcenter_exact(inst, F).value
            est = S.cost(F)
            if exact > 0:
                max_delta = max(max_delta,
                                abs(est / exact - 1.0) - 4 * eps)
    max_delta = max(max_delta, 0.0)
    # deterministic pipeline vs the enclosing-ball reference
    rng2 = np.random.default_rng(seed + 999)
    pts = rng2.uniform(-8, 8, size=(12, 2))
    det = ExistentialInstance(points=pts, probs=np.ones(12))
    _F, value, _ = sjfc_pipeline(det, 0, eps, seed=seed, N=50)
    _c, r = minimum_enclosing_ball(pts)
    det_err = abs(value - r)
    ok = max_outside <= eps and max_delta <= eps and det_err <= 1e-4
    return CheckResult("criterion 11 sampled-kernel estimator", ok,
                       f"outside mass {max_outside:.4f} (cap {eps}), "
                       f"slack delta {max_delta:.4f} (cap {eps}), "
                       f"deterministic error {det_err:.2e} (tol 1e-4)")


def _c12_pipeline_text(seed: int) -> str:
    """n in {6, 8}, k=1, eps=0.5: a sampled realization, its coreset, the
    exhaustive image, the full pipeline and its ratio to the oracle."""
    out = []
    for n in (6, 8):
        rng = np.random.default_rng([seed, n])
        inst = _rand_exist(rng, n, 2)
        ids = tuple(np.flatnonzero(
            realize(inst, rng.random((1, inst.n)))[0])) or (0,)
        core = CoresetBuilder(inst.points, 1, 0.5).build(ids)
        image = build_weighted_image(inst, 1, 0.5, mode="exhaustive")
        F, value, _ = skc_pipeline(inst, 1, 0.5, strategy="full")
        _oF, oracle_v = oracle_solver_instance(inst, 1, resolution=9)
        out.append({
            "n": n, "realization": ids, "coreset": core.coreset,
            "size_bound": coreset_image_size_bound(1, 2, 0.5),
            "image": image.entries, "centers": F.centers, "value": value,
            "ratio": value / oracle_v if oracle_v > 0 else 1.0})
    return dumps_json(out)


def _c12_verify_text(seed: int) -> str:
    """The sampling pipeline and the j=0 flat pipeline on one instance."""
    rng = np.random.default_rng(seed)
    inst = _rand_exist(rng, 8, 2)
    F, value, info = skc_pipeline(inst, 1, 0.5, strategy="sampling",
                                  seed=seed)
    jF, jvalue, jinfo = sjfc_pipeline(inst, 0, 0.3, seed=seed, N=60)
    return dumps_json({
        "centers": F.centers, "value": value, "info": info,
        "flat_base": jF.base, "jvalue": jvalue, "jinfo": jinfo,
    })


def criterion_12(_scale: str, seed: int = 112, **_) -> CheckResult:
    ok = _c12_pipeline_text(seed) == _c12_pipeline_text(seed) \
        and _c12_verify_text(seed) == _c12_verify_text(seed)
    return CheckResult("criterion 12 determinism of seeded runs", ok,
                       "byte-identical" if ok else "outputs differ between runs")


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11, criterion_12]


def run_all(scale: str = "quick", perturb: float = 0.0) -> list[CheckResult]:
    return [fn(scale, perturb=perturb) for fn in CRITERIA]
