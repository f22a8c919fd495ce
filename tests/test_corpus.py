"""Byte-identity corpus: seeded outputs pinned to the bit.

``corpus.json`` maps each case name to the SHA-256 of its output's
``repr`` and to the floats in that output as ``float.hex``.  Outputs are
turned into plain Python values first (arrays become lists, dataclasses
dicts of their fields), so the ``repr`` holds every float in its shortest
round-trip form and does not depend on numpy's print options.

On the numpy and BLAS build the file records, the test compares the
digests, so a case moves when any bit of its output moves.  On another
build (the j=1 starts call LAPACK) it compares the values within 1e-12
relative instead, and warns that it does.  Either way the failure names
every moved case.

A change that moves seeded output on purpose rewrites the file and lists
the moved cases in CHANGES.md:

    PYTHONPATH=src python tests/test_corpus.py --rewrite
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from stocenter.cli import main
from stocenter.gkm import (candidate_costs, collection_from_image,
                           importance_sample_coreset, sensitivity_projection,
                           skc_pipeline, solve_gkm)
from stocenter.jflat import build_sjfc_coreset, sjfc_pipeline
from stocenter.model import (CenterSet, ExistentialInstance, Flat,
                             LocationalInstance, instance_to_dict, realize)
from stocenter.objective import (_distances, expected_objective_exact,
                                 expected_objective_mc)
from stocenter.partition import WeightedImage, build_weighted_image
from stocenter.serialize import write_json
from stocenter.verification import _c12_pipeline_text, _c12_verify_text

CORPUS = Path(__file__).with_name("corpus.json")
REL_TOL = 1e-12


def build_name() -> str:
    """The numpy version, BLAS library and machine the digests hold for."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"numpy {np.__version__}; BLAS {blas['name']} "
            f"{blas['version']}; {platform.machine()}")


# ---------------------------------------------------------------------------
# Instances


def _exist(seed, n):
    rng = np.random.default_rng(seed)
    return ExistentialInstance(points=rng.uniform(-10.0, 10.0, (n, 2)),
                               probs=rng.uniform(0.05, 0.95, n))


def _loc(seed, n, m):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(0.05, 1.0, (n, m))
    rows /= rows.sum(axis=1, keepdims=True)
    return LocationalInstance(locations=rng.uniform(-10.0, 10.0, (m, 2)),
                              probs=rows)


def _exist_grid(seed, n):
    """Points on a small integer grid, so distances tie."""
    rng = np.random.default_rng(seed)
    return ExistentialInstance(
        points=rng.integers(-3, 4, (n, 2)).astype(float),
        probs=rng.choice([0.25, 0.5, 0.75], n))


def _loc_grid(seed, n, m):
    rng = np.random.default_rng(seed)
    rows = rng.choice([1.0, 2.0, 3.0], (n, m))
    rows /= rows.sum(axis=1, keepdims=True)
    return LocationalInstance(
        locations=rng.integers(-3, 4, (m, 2)).astype(float), probs=rows)


def _low_mass(seed, n):
    """Total probability below 0.3: the j-flat Case 1."""
    rng = np.random.default_rng(seed)
    return ExistentialInstance(points=rng.uniform(-10.0, 10.0, (n, 2)),
                               probs=rng.uniform(0.005, 0.02, n))


INSTANCES = {
    "E6": lambda: _exist(11, 6),
    "L4x5": lambda: _loc(12, 4, 5),
    "Egrid7": lambda: _exist_grid(13, 7),
    "Lgrid3x6": lambda: _loc_grid(14, 3, 6),
}

SHAPES = (CenterSet(centers=[[0.5, -1.0]]),
          CenterSet(centers=[[-2.0, 3.0], [4.0, 0.0]]),
          Flat(j=0, base=[1.0, 1.0]),
          Flat(j=1, base=[0.0, 1.0], basis=[[0.6, 0.8]]))

# The j-flat pipeline in Case 2 (both models) and Case 1.  Each j = 1
# instance's seed was picked for a short run: on about half the seeds one
# line polish runs to Nelder-Mead's MAXITER and takes seconds.
SJFC = {"E6/j0": (INSTANCES["E6"], 0),
        "L4x5/j0": (INSTANCES["L4x5"], 0),
        "low-mass8/j0": (lambda: _low_mass(15, 8), 0),
        "E6s23/j1": (lambda: _exist(23, 6), 1),
        "L3x4s25/j1": (lambda: _loc(25, 3, 4), 1),
        "low-mass6s21/j1": (lambda: _low_mass(21, 6), 1)}

# Realizations of the STAGE2 support at k = 1, eps = 0.9: one point is its
# own coreset under the sentinel grid, {0, 1, 2} refines to stage 2, and
# {0, 2, 3} stays at stage 1.
STAGE2 = ExistentialInstance(points=[[0.05], [1.9], [2.02], [1.0]],
                             probs=[0.5, 0.5, 0.5, 0.5])
GRID_ROWS = {"sentinel": [2], "stage2": [0, 1, 2], "stage1": [0, 2, 3]}


# ---------------------------------------------------------------------------
# Cases


def _cli(command, instance, *flags, realization=None) -> str:
    """The JSON text ``stocenter <command>`` writes for ``instance``."""
    with tempfile.TemporaryDirectory() as tmp:
        inst, out = Path(tmp, "inst.json"), Path(tmp, "out.json")
        write_json(inst, instance_to_dict(instance))
        args = [command, "--instance", str(inst), *flags, "--output",
                str(out)]
        if realization is not None:
            Path(tmp, "real.json").write_text(json.dumps(realization))
            args += ["--realization", str(Path(tmp, "real.json"))]
        if main(args) != 0:
            raise RuntimeError(f"stocenter {command} failed")
        return out.read_text()


def _image(name, k, eps, mode):
    inst = INSTANCES[name]()
    image = build_weighted_image(inst, k, eps, mode=mode)
    collection = collection_from_image(image, inst)
    return {"image": image,
            "cost": [collection.cost(F) for F in SHAPES]}


def _mc(name):
    inst = INSTANCES[name]()
    res = expected_objective_mc(inst, SHAPES[1], 500,
                                np.random.default_rng(21))
    return res.value, res.stderr, res.samples


def _candidates(name):
    """The stream over the image's first 12 classes, at two probes."""
    inst = INSTANCES[name]()
    image = build_weighted_image(inst, 1, 0.5, "subsets")
    S = collection_from_image(
        WeightedImage(image.entries[:12], image.source), inst)
    K = S.maxima(_distances(S.support, np.array([[0.0, 0.0], [3.0, -2.0]])))
    return list(candidate_costs(S, K, 2, 1, 0.5))


def _sampled(name):
    """The importance-sampled sub-collection of the image at k = 1, with
    F_hat from ``solve_gkm``: 48 draws of its 64 classes, so draws repeat
    and merge."""
    inst = INSTANCES[name]()
    S = collection_from_image(build_weighted_image(inst, 1, 0.5, "subsets"),
                              inst)
    idx, w = importance_sample_coreset(
        S.weights, sensitivity_projection(S, solve_gkm(S, 1)[0]), 48,
        np.random.default_rng(6))
    return idx.tolist(), S.subset(idx, w)


def _cases():
    cases = {}
    for name in INSTANCES:
        for strategy in ("full", "sampling", "enumerate"):
            for k in (1, 2):
                cases[f"skc/{name}/{strategy}/k{k}"] = (
                    lambda name=name, strategy=strategy, k=k: skc_pipeline(
                        INSTANCES[name](), k, 0.5, strategy=strategy,
                        seed=3))
    for name, (make, j) in SJFC.items():
        cases[f"sjfc/{name}"] = lambda make=make, j=j: sjfc_pipeline(
            make(), j, 0.3, seed=4, N=20)
    # Case 1 past its size cap of 8: the flat-median sampler keeps 6 of 8
    # draws
    cases["sjfc_coreset/low-mass30/j0"] = lambda: build_sjfc_coreset(
        _low_mass(15, 30), 0, 0.5, seed=4)
    cases["sampled/E6/k1"] = lambda: _sampled("E6")
    for name in INSTANCES:
        for mode in ("exhaustive", "subsets"):
            cases[f"image/{name}/{mode}"] = (
                lambda name=name, mode=mode: _image(name, 1, 0.5, mode))
        cases[f"exact/{name}"] = (lambda name=name: [
            expected_objective_exact(INSTANCES[name](), F).value
            for F in SHAPES])
        cases[f"realize/{name}"] = (lambda name=name: realize(
            INSTANCES[name](), np.random.default_rng(22).random(
                (6, INSTANCES[name]().n))))
        cases[f"mc/{name}"] = lambda name=name: _mc(name)
    for name in ("E6", "L4x5"):
        cases[f"candidate_costs/{name}"] = lambda name=name: _candidates(name)
    cases["criterion_12/pipeline"] = lambda: _c12_pipeline_text(112)
    cases["criterion_12/verify"] = lambda: _c12_verify_text(112)
    for name in ("E6", "L4x5"):
        cases[f"cli/solve/{name}"] = lambda name=name: _cli(
            "solve", INSTANCES[name](), "--k", "2", "--eps", "0.5",
            "--strategy", "sampling", "--seed", "5")
        cases[f"cli/jflat/{name}"] = lambda name=name: _cli(
            "jflat", INSTANCES[name](), "--j", "0", "--eps", "0.3",
            "--seed", "5", "--samples", "20")
        cases[f"cli/partition/{name}"] = lambda name=name: _cli(
            "partition", INSTANCES[name](), "--k", "1", "--eps", "0.5",
            "--mode", "subsets")
    for row, ids in GRID_ROWS.items():
        cases[f"cli/grid-coreset/{row}"] = lambda ids=ids: _cli(
            "grid-coreset", STAGE2, "--k", "1", "--eps", "0.9",
            realization=ids)
    cases["cli/grid-coreset/E6-k2"] = lambda: _cli(
        "grid-coreset", INSTANCES["E6"](), "--k", "2", "--eps", "0.5",
        realization=list(range(6)))
    return cases


# ---------------------------------------------------------------------------
# Digests


def plain(obj):
    """``obj`` as nested tuples, lists, dicts and Python scalars; a
    dataclass becomes its class name and the dict of its fields."""
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,
                {f.name: plain(getattr(obj, f.name))
                 for f in dataclasses.fields(obj)})
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (tuple, list)):
        return type(obj)(plain(v) for v in obj)
    return obj


def floats(obj) -> list[float]:
    """Every float in a plain value, in order."""
    if isinstance(obj, float):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (tuple, list)):
        return [x for v in obj for x in floats(v)]
    return []


def record(output) -> dict:
    """A case's digest and floats; a text output is a JSON text."""
    value = plain(output)
    return {"sha256": hashlib.sha256(repr(value).encode()).hexdigest(),
            "values": [x.hex() for x in floats(
                json.loads(value) if isinstance(value, str) else value)]}


def compute() -> dict:
    return {name: record(case()) for name, case in _cases().items()}


def _close(a: str, b: str) -> bool:
    x, y = float.fromhex(a), float.fromhex(b)
    return x == y or math.isclose(x, y, rel_tol=REL_TOL, abs_tol=0.0)


def moved_cases(stored: dict, now: dict, exact: bool) -> list[str]:
    """Names of the cases whose output moved: a new digest on the recorded
    build, values beyond ``REL_TOL`` relative on another one."""
    moved = []
    for name in sorted(set(stored) | set(now)):
        old, new = stored.get(name), now.get(name)
        if old is None or new is None:
            moved.append(name)
        elif exact:
            if old["sha256"] != new["sha256"]:
                moved.append(name)
        elif len(old["values"]) != len(new["values"]) or not all(
                map(_close, old["values"], new["values"])):
            moved.append(name)
    return moved


def test_seeded_outputs_keep_their_bits():
    stored = json.loads(CORPUS.read_text())
    exact = stored["build"] == build_name()
    if not exact:
        warnings.warn(f"corpus recorded on {stored['build']}, running on "
                      f"{build_name()}: comparing values within {REL_TOL} "
                      f"relative, not digests")
    moved = moved_cases(stored["cases"], compute(), exact)
    assert not moved, f"{len(moved)} seeded outputs moved: {moved}"


def test_corpus_names_every_moved_case():
    """A digest or a value that moves marks its case, and only it."""
    stored = {"a": {"sha256": "0", "values": [(1.0).hex()]},
              "b": {"sha256": "1", "values": [(2.0).hex()]},
              "c": {"sha256": "2", "values": [(3.0).hex()]}}
    now = {"a": {"sha256": "0", "values": [(1.0).hex()]},
           "b": {"sha256": "9", "values": [(2.0 + 1e-15).hex()]},
           "c": {"sha256": "2", "values": [(3.0 + 1e-9).hex()]},
           "d": {"sha256": "3", "values": []}}
    assert moved_cases(stored, now, exact=True) == ["b", "d"]
    assert moved_cases(stored, now, exact=False) == ["c", "d"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_corpus.py --rewrite")
    CORPUS.write_text(json.dumps({"build": build_name(), "cases": compute()},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {CORPUS}")
