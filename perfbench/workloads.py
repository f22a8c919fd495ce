"""The four benchmark workloads: seeded inputs, the timed call, the check.

Each workload turns ``--seed`` into a fixed batch of operation specs.  The
batch repeats a short cycle of op classes; every spec in it carries its own
freshly generated instance, so the seed changes the data but not the mix of
sizes.  Within a cycle one broad class of ops holds both the 50th and the
75th percentile of op time, so those percentiles do not jump between
classes when a run completes one cycle more or less.

``run`` is the only timed call and hands the library nothing but the
generated instance.  ``check`` runs outside the timed region: it recomputes
reference values (oracles included) and returns a ``Check``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import stocenter.cli
import stocenter.gkm
import stocenter.jflat
import stocenter.objective
import stocenter.oracle
import stocenter.partition
from stocenter.model import (CenterSet, ExistentialInstance, Flat,
                             LocationalInstance, instance_to_dict)

# Library entry points are looked up on their modules at call time, so the
# tracer's swapped bindings are the ones called in the traced pass.
gkm = stocenter.gkm
jflat = stocenter.jflat
objective = stocenter.objective
oracle = stocenter.oracle
partition = stocenter.partition
cli = stocenter.cli


@dataclass
class Spec:
    """One operation of a batch: a class label, its instance and params."""

    label: str
    instance: object
    params: dict = field(default_factory=dict)


@dataclass
class Check:
    ok: bool
    ratio: float | None = None     # value ratio (see README), lower is better
    mass_err: float | None = None  # image: weight-sum / class-mass error
    z: float | None = None         # evaluate-cli: |MC - exact| / stderr
    detail: str = ""


WARMUP_INDEX = 10 ** 9  # stream of the warm-up instances, past any batch


def _rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, index])


def existential_uniform(rng, n: int, d: int) -> ExistentialInstance:
    return ExistentialInstance(points=rng.uniform(-10.0, 10.0, size=(n, d)),
                               probs=rng.uniform(0.05, 0.95, size=n))


def existential_clustered(rng, n: int, d: int) -> ExistentialInstance:
    centers = rng.uniform(-10.0, 10.0, size=(max(n // 4, 1), d))
    pick = rng.integers(0, centers.shape[0], size=n)
    pts = centers[pick] + rng.normal(0.0, 0.7, size=(n, d))
    return ExistentialInstance(points=pts, probs=rng.uniform(0.05, 0.95, n))


def locational(rng, n: int, m: int, d: int) -> LocationalInstance:
    rows = rng.uniform(0.05, 1.0, size=(n, m))
    rows /= rows.sum(axis=1, keepdims=True)
    return LocationalInstance(locations=rng.uniform(-10.0, 10.0, size=(m, d)),
                              probs=rows)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


class Workload:
    name = ""
    tag = 0
    cycles = 60  # batch length in cycles; runs wrap around if they finish it
    window = 4   # ops per throughput window: a stretch of similar total cost

    def cycle(self) -> list[tuple]:
        raise NotImplementedError

    def make_spec(self, rng, cls: tuple) -> Spec:
        raise NotImplementedError

    def setup(self, seed: int, workdir: Path) -> list[Spec]:
        """Generate the batch (and write its files); no library calls."""
        cyc = self.cycle()
        return [self.make_spec(_rng(seed, self.tag, i), cyc[i % len(cyc)])
                for i in range(self.cycles * len(cyc))]

    def warmup(self, seed: int, specs: list[Spec]):
        """A few small library calls, so lazy imports and caches fill."""
        raise NotImplementedError

    def run(self, spec: Spec):
        raise NotImplementedError

    def check(self, spec: Spec, out, state: dict) -> Check:
        raise NotImplementedError

    def digest(self, out) -> str:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class SKC(Workload):
    """skc_pipeline(strategy="full") on small existential and locational
    instances; gkm does most of the work."""

    name = "skc"
    tag = 1
    eps = 0.5

    def cycle(self):
        # Each window of four is one cheap op (locational or n=5) and three
        # n=6 ops; the n=6 ops carry the 50th and 75th percentiles.
        return [("L", 3, 4, 1), ("E", 6, 1), ("E", 6, 2), ("E", 6, 2),
                ("E", 5, 1), ("E", 6, 1), ("E", 6, 2), ("E", 6, 1),
                ("L", 4, 4, 2), ("E", 6, 2), ("E", 6, 1), ("E", 6, 2)]

    def make_spec(self, rng, cls):
        if cls[0] == "E":
            _, n, k = cls
            inst = existential_uniform(rng, n, 2)
        else:
            _, n, m, k = cls
            inst = locational(rng, n, m, 2)
        return Spec("-".join(map(str, cls)), inst, {"k": k})

    def warmup(self, seed, specs):
        inst = existential_uniform(_rng(seed, self.tag, WARMUP_INDEX), 4, 2)
        gkm.skc_pipeline(inst, 1, self.eps, strategy="full")

    def run(self, spec):
        return gkm.skc_pipeline(spec.instance, spec.params["k"], self.eps,
                                strategy="full")

    def check(self, spec, out, state):
        F, value, _info = out
        exact = objective.expected_objective_exact(spec.instance, F).value
        key = ("ref", id(spec))
        if key not in state:
            # Grid search on the exact objective; coarser for k=2, where it
            # scans all pairs of grid points.
            k = spec.params["k"]
            state[key] = oracle.oracle_solver_instance(
                spec.instance, k, resolution=21 if k == 1 else 9)[1]
        ref = state[key]
        if F.k != spec.params["k"]:
            return Check(False, detail=f"returned {F.k} centers")
        if not (math.isfinite(value) and _rel_close(value, exact, 1e-9)):
            return Check(False, detail=f"value {value} != exact {exact}")
        ratio = value / ref if ref > 0 else 1.0
        # The (1+eps) bound is gated for k=1, where the library claims it
        # (acceptance criterion 9).  For k=2 solve_gkm is a heuristic with
        # no such claim; its ratio is reported through value_ratio_*.
        ok = spec.params["k"] > 1 or value <= (1.0 + self.eps) * ref + 1e-9
        return Check(ok, ratio=ratio,
                     detail="" if ok else f"ratio {ratio} > 1+eps")

    def digest(self, out):
        F, value, info = out
        return _digest(F.centers, value, sorted(info.items()))


class SJFC(Workload):
    """sjfc_pipeline(j=0) on clustered existential instances plus one
    locational instance per cycle; jflat.estimate_J does the work."""

    name = "sjfc"
    tag = 2
    eps = 0.3
    N = 40

    def cycle(self):
        return [("E", 25), ("E", 35), ("L", 5, 12), ("E", 30)]

    def make_spec(self, rng, cls):
        if cls[0] == "E":
            inst = existential_clustered(rng, cls[1], 2)
        else:
            inst = locational(rng, cls[1], cls[2], 2)
        return Spec("-".join(map(str, cls)), inst,
                    {"seed": int(rng.integers(0, 2 ** 31))})

    def warmup(self, seed, specs):
        inst = existential_clustered(_rng(seed, self.tag, WARMUP_INDEX), 12, 2)
        jflat.sjfc_pipeline(inst, 0, self.eps, seed=0, N=10)

    def run(self, spec):
        return jflat.sjfc_pipeline(spec.instance, 0, self.eps,
                                   seed=spec.params["seed"], N=self.N)

    def check(self, spec, out, state):
        F, value, _info = out
        if F.j != 0:
            return Check(False, detail=f"returned a {F.j}-flat")
        exact = objective.expected_flatcenter_exact(spec.instance, F).value
        if not (math.isfinite(value) and _rel_close(value, exact, 1e-9)):
            return Check(False, detail=f"value {value} != exact {exact}")
        # A 0-flat is one center, so the k=1 oracle is the reference.
        key = ("ref", id(spec))
        if key not in state:
            state[key] = oracle.oracle_solver_instance(
                spec.instance, 1, resolution=21)[1]
        ref = state[key]
        ratio = value / ref if ref > 0 else 1.0
        ok = value <= (1.0 + self.eps) * ref + 1e-9
        return Check(ok, ratio=ratio,
                     detail="" if ok else f"ratio {ratio} > 1+eps")

    def digest(self, out):
        F, value, info = out
        return _digest(F.base, F.basis, value, sorted(info.items()))


class Image(Workload):
    """build_weighted_image in both modes: exhaustive and subsets on the same
    existential instance, subsets with the occupancy DP on locational ones."""

    name = "image"
    tag = 3
    eps = 0.5
    window = 6

    def cycle(self):
        # Cheap locational ops fill the bottom third, exhaustive builds the
        # middle (50th percentile), subsets builds the top (75th).
        return [("L", 4, 8, 1), ("E", 11, 1, "exhaustive"),
                ("E", 11, 1, "subsets"), ("L", 5, 7, 2),
                ("E", 11, 2, "exhaustive"), ("E", 11, 2, "subsets")]

    def setup(self, seed, workdir):
        specs = super().setup(seed, workdir)
        # The subsets op reuses the instance of the exhaustive op before it.
        for prev, spec in zip(specs, specs[1:]):
            if spec.params["mode"] == "subsets" and spec.label.startswith("E"):
                spec.instance = prev.instance
                spec.params["pair"] = id(prev)
        return specs

    def make_spec(self, rng, cls):
        if cls[0] == "E":
            _, n, k, mode = cls
            inst = existential_uniform(rng, n, 2)
        else:
            _, n, m, k = cls
            mode = "subsets"
            inst = locational(rng, n, m, 2)
        centers = rng.uniform(-10.0, 10.0, size=(k, 2))
        return Spec("-".join(map(str, cls)), inst,
                    {"k": k, "mode": mode, "probe": CenterSet(centers=centers)})

    def warmup(self, seed, specs):
        rng = _rng(seed, self.tag, WARMUP_INDEX)
        inst = existential_uniform(rng, 6, 2)
        for mode in ("exhaustive", "subsets"):
            partition.build_weighted_image(inst, 1, self.eps, mode=mode)
        partition.build_weighted_image(locational(rng, 3, 4, 2), 1, self.eps,
                                       mode="subsets")

    def run(self, spec):
        return partition.build_weighted_image(
            spec.instance, spec.params["k"], self.eps, mode=spec.params["mode"])

    def check(self, spec, out, state):
        entries = dict(out.entries)
        mass_err = abs(sum(entries.values()) - 1.0)
        problems = []
        if mass_err > 1e-9:
            problems.append(f"weights sum off by {mass_err:.3e}")
        if any(w < 0.0 for w in entries.values()):
            problems.append("negative weight")
        # The coreset-class image sandwiches the exact objective of any
        # k-center set within (1 +- eps); the ratio is their disagreement.
        probe = spec.params["probe"]
        support = spec.instance.support_points
        diff = support[:, None, :] - probe.centers[None, :, :]
        dists = np.sqrt((diff ** 2).sum(axis=2)).min(axis=1)
        approx = sum(w * dists[list(ids)].max() for ids, w in entries.items()
                     if ids)
        exact = objective.expected_objective_exact(spec.instance, probe).value
        if not ((1 - self.eps) * exact - 1e-9 <= approx
                <= (1 + self.eps) * exact + 1e-9):
            problems.append(f"image cost {approx} outside (1+-eps) of {exact}")
        ratio = max(approx / exact, exact / approx) if approx > 0 else 1.0
        if "pair" in spec.params:
            first = state.pop(("exhaustive", spec.params["pair"]), None)
            if first is not None:
                if set(first) != set(entries):
                    problems.append("modes disagree on the class set")
                else:
                    diff_max = max(abs(first[s] - entries[s]) for s in entries)
                    mass_err = max(mass_err, diff_max)
                    if diff_max > 1e-12:
                        problems.append(f"modes disagree by {diff_max:.3e}")
        elif spec.label.startswith("E"):
            state[("exhaustive", id(spec))] = entries
        return Check(not problems, ratio=ratio, mass_err=mass_err,
                     detail="; ".join(problems))

    def digest(self, out):
        return _digest(out.source, out.entries)


class EvaluateCLI(Workload):
    """In-process ``stocenter evaluate`` calls, exact and --mc, on large
    instance files of both models with center sets and lines."""

    name = "evaluate-cli"
    tag = 4
    cycles = 1  # a fixed set of files; runs cycle over it
    window = 5
    # Locational nodes are fewer than the 300 first proposed so that 1200
    # samples fit the op's time; at 400 samples the 4-stderr check raised a
    # false alarm (the t-statistic of a skewed max is not normal yet).
    mc_samples = {"existential": 12000, "locational": 1200}

    def cycle(self):
        # (instance, shape, mc): four cheap exact calls below the 50th
        # percentile, six Monte-Carlo calls of similar cost above it; each
        # half is one window of two exact and three Monte-Carlo calls.
        return [("E0", "C0", False), ("E0", "C0", True), ("L0", "F0", False),
                ("E0", "F0", True), ("L0", "C1", True), ("E1", "F1", False),
                ("E1", "C1", True), ("L1", "F1", True), ("L1", "C0", False),
                ("L1", "F0", True)]

    def setup(self, seed, workdir):
        rng = _rng(seed, self.tag, 0)
        insts = {"E0": existential_uniform(rng, 2000, 3),
                 "E1": existential_uniform(rng, 2000, 3),
                 "L0": locational(rng, 100, 200, 3),
                 "L1": locational(rng, 100, 200, 3)}
        shapes = {}
        for i in range(2):
            shapes[f"C{i}"] = CenterSet(centers=rng.uniform(-8, 8, (4, 3)))
            v = rng.standard_normal(3)
            shapes[f"F{i}"] = Flat(j=1, base=rng.uniform(-3, 3, 3),
                                   basis=(v / np.linalg.norm(v)).reshape(1, -1))
        workdir.mkdir(parents=True, exist_ok=True)
        paths = {}
        for key, inst in insts.items():
            paths[key] = workdir / f"instance-{key}.json"
            paths[key].write_text(json.dumps(instance_to_dict(inst)))
        for key, shape in shapes.items():
            paths["shape-" + key] = workdir / f"shape-{key}.json"
            if isinstance(shape, CenterSet):
                obj = {"kind": "centers", "points": shape.centers.tolist()}
            else:
                obj = {"kind": "flat", "j": 1, "base": shape.base.tolist(),
                       "basis": shape.basis.tolist()}
            paths["shape-" + key].write_text(json.dumps(obj))
        specs = []
        for ik, sk, mc in self.cycle():
            inst = insts[ik]
            argv = ["evaluate", "--instance", str(paths[ik]),
                    "--shape", str(paths["shape-" + sk])]
            if mc:
                argv += ["--mc", str(self.mc_samples[inst.model]),
                         "--seed", str(int(rng.integers(0, 2 ** 31)))]
            specs.append(Spec(f"{ik}-{sk}-{'mc' if mc else 'exact'}", inst,
                              {"argv": argv, "shape": shapes[sk], "mc": mc,
                               "ref": (ik, sk)}))
        return specs

    def warmup(self, seed, specs):
        exact, mc = specs[0], specs[1]
        self.run(exact)
        self.run(Spec(mc.label, mc.instance,
                      {"argv": mc.params["argv"][:-4] + ["--mc", "10"]}))

    def run(self, spec):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(spec.params["argv"])
        return code, buf.getvalue()

    def check(self, spec, out, state):
        code, text = out
        if code != 0:
            return Check(False, detail=f"exit code {code}")
        try:
            res = json.loads(text)
            value = float(res["value"])
        except (ValueError, KeyError, TypeError) as exc:
            return Check(False, detail=f"unparseable output: {exc}")
        key = ("ref", spec.params["ref"])
        if key not in state:
            state[key] = objective.expected_objective_exact(
                spec.instance, spec.params["shape"]).value
        exact = state[key]
        ratio = max(value / exact, exact / value) if value > 0 else math.inf
        if not spec.params["mc"]:
            ok = _rel_close(value, exact, 1e-12)
            return Check(ok, ratio=ratio,
                         detail="" if ok else f"exact {value} != {exact}")
        stderr = res.get("stderr")
        if not stderr or stderr <= 0:
            return Check(False, detail=f"bad stderr {stderr}")
        z = abs(value - exact) / stderr
        return Check(z <= 4.0, ratio=ratio, z=z,
                     detail="" if z <= 4.0 else f"|MC-exact| = {z:.2f} stderr")

    def digest(self, out):
        return _digest(out)


WORKLOADS = {w.name: w for w in (SKC(), SJFC(), Image(), EvaluateCLI())}
