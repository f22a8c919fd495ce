"""Command-line front-end.

Subcommands: evaluate, grid-coreset, partition, solve, jflat, oracle,
generate, verify.  Structured outputs are JSON.
Exit codes: 0 ok, 2 usage, 3 guard exceeded, 4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import jflat as jflat_mod
from .errors import GuardExceeded, StocenterError
from .gkm import skc_pipeline
from .grid_coreset import CoresetBuilder, coreset_image_size_bound, grid_cells
from .model import (ExistentialInstance, Instance, LocationalInstance,
                    instance_to_dict, load_instance, load_shape,
                    shape_to_dict)
from .objective import (expected_objective_exact, expected_objective_mc)
from .oracle import oracle_expected_objective, oracle_solver_instance
from .partition import build_weighted_image
from .serialize import dumps_json, write_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_VERIFY = 4


def _emit(args, obj):
    if args.output:
        write_json(args.output, obj)
    else:
        print(dumps_json(obj, indent=2))


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_evaluate(args) -> int:
    instance = load_instance(args.instance)
    shape = load_shape(args.shape)
    if args.mc is not None:
        rng = np.random.default_rng(args.seed)
        res = expected_objective_mc(instance, shape, args.mc, rng)
        _emit(args, {"value": res.value, "method": res.method,
                     "stderr": res.stderr, "samples": res.samples,
                     "seed": args.seed})
    else:
        res = expected_objective_exact(instance, shape)
        _emit(args, {"value": res.value, "method": res.method,
                     "stderr": None})
    return EXIT_OK


def _coreset_cells(support: np.ndarray, out) -> list[dict]:
    """The grid cell of every coreset point, with the point as its
    representative, sorted by cell index; none under the sentinel grid."""
    cells = [] if out.grid.stage == 0 else \
        grid_cells(support[list(out.coreset)], out.grid.side).tolist()
    return [{"index": list(map(int, c)), "representative": rep}
            for c, rep in sorted(zip(cells, out.coreset))]


def cmd_grid_coreset(args) -> int:
    instance = load_instance(args.instance)
    import json
    with open(args.realization, "r", encoding="utf-8") as fh:
        ids = json.load(fh)
    out = CoresetBuilder(instance.support_points, args.k,
                         args.eps).build(ids)
    _emit(args, {
        "coreset": list(out.coreset),
        "grid": {"side": out.grid.side, "d": out.grid.d,
                 "stage": out.grid.stage},
        "cells": _coreset_cells(instance.support_points, out),
        "size_bound": coreset_image_size_bound(args.k, instance.d, args.eps),
    })
    return EXIT_OK


def cmd_partition(args) -> int:
    instance = load_instance(args.instance)
    image = build_weighted_image(instance, args.k, args.eps,
                                 mode=args.mode)
    _emit(args, {
        "source": image.source,
        "entries": [{"subset": list(ids), "weight": w}
                    for ids, w in image.entries],
        "total_weight": image.total_weight,
    })
    return EXIT_OK


def cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    F, value, info = skc_pipeline(instance, args.k, args.eps,
                                  strategy=args.strategy, seed=args.seed,
                                  M=args.M, L_exp=args.Lexp)
    _emit(args, {"centers": [list(c) for c in F.centers], "value": value,
                 "strategy": info["strategy"],
                 "candidates_evaluated": info["candidates_evaluated"],
                 "polish_unconverged": info["polish_unconverged"],
                 "seed": args.seed})
    return EXIT_OK


def cmd_jflat(args) -> int:
    instance = load_instance(args.instance)
    F, value, info = jflat_mod.sjfc_pipeline(
        instance, args.j, args.eps, seed=args.seed, N=args.samples)
    _emit(args, {
        "flat": shape_to_dict(F),
        "value": value, "case": info["case"],
        "coreset_sizes": {"s1": info["s1_size"], "s2": info["s2_size"]},
        "polish_unconverged": info["polish_unconverged"],
        "seed": args.seed,
    })
    return EXIT_OK


def cmd_oracle(args) -> int:
    instance = load_instance(args.instance)
    if args.oracle_cmd == "evaluate":
        shape = load_shape(args.shape)
        rep = oracle_expected_objective(instance, shape)
        out = {"value": rep.value, "method": rep.method,
               "enumeration_size": rep.enumeration_size}
    else:  # solve
        F, value = oracle_solver_instance(instance, args.k,
                                          resolution=args.resolution)
        out = {"centers": [list(c) for c in F.centers], "value": value,
               "resolution": args.resolution}
    _emit(args, out)
    return EXIT_OK


def generate_instance(kind: str, model: str, n: int, d: int, seed: int,
                      m: int = 4) -> Instance:
    """Uniform, clustered, or annulus point layouts in either model."""
    for flag, value in (("n", n), ("m", m), ("d", d)):
        if value < 1:
            raise StocenterError(f"--{flag} must be at least 1")
    rng = np.random.default_rng(seed)
    count = n if model == "existential" else m
    if kind == "uniform":
        pts = rng.uniform(-10.0, 10.0, size=(count, d))
    elif kind == "clustered":
        centers = rng.uniform(-10.0, 10.0, size=(max(count // 4, 1), d))
        pick = rng.integers(0, centers.shape[0], size=count)
        pts = centers[pick] + rng.normal(0.0, 0.7, size=(count, d))
    elif kind == "annulus":
        if d < 2:
            raise StocenterError("--kind annulus needs --d of at least 2")
        theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
        radius = rng.uniform(4.0, 6.0, size=count)
        pts = np.zeros((count, d))
        pts[:, 0] = radius * np.cos(theta)
        pts[:, 1] = radius * np.sin(theta)
        if d > 2:
            pts[:, 2:] = rng.normal(0.0, 0.5, size=(count, d - 2))
    else:
        raise StocenterError(f"unknown generator kind {kind!r}")
    if model == "existential":
        probs = rng.uniform(0.05, 0.95, size=n)
        return ExistentialInstance(points=pts, probs=probs)
    rows = rng.uniform(0.05, 1.0, size=(n, m))
    rows /= rows.sum(axis=1, keepdims=True)
    return LocationalInstance(locations=pts, probs=rows)


def cmd_generate(args) -> int:
    instance = generate_instance(args.kind, args.model, args.n, args.d,
                                 args.seed, m=args.m)
    _emit(args, instance_to_dict(instance))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verification import run_all
    scale = "full" if args.full else "quick"
    results = run_all(scale=scale, perturb=args.perturb)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}")
    if all(r.passed for r in results):
        print("verification: all checks passed")
        return EXIT_OK
    print("verification: FAILURES present")
    return EXIT_VERIFY


# ---------------------------------------------------------------------------
# Parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by every
    ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="stocenter",
        description="Clustering and shape fitting over stochastic point sets")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="expected objective of a shape")
    p.add_argument("--instance", required=True)
    p.add_argument("--shape", required=True)
    p.add_argument("--mc", type=int, default=None, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("grid-coreset", help="additive coreset of a realization")
    p.add_argument("--instance", required=True)
    p.add_argument("--realization", required=True,
                   help="JSON list of support point ids")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_grid_coreset)

    p = sub.add_parser("partition", help="coreset-class probability masses")
    p.add_argument("--instance", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--mode", choices=["exhaustive", "subsets"],
                   default="exhaustive")
    p.add_argument("--output")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("solve", help="stochastic k-center pipeline")
    p.add_argument("--instance", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--strategy", choices=["sampling", "enumerate", "full"],
                   default="full")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--Lexp", type=int, default=None)
    p.add_argument("--output")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("jflat", help="stochastic j-flat-center pipeline")
    p.add_argument("--instance", required=True)
    p.add_argument("--j", type=int, required=True, choices=[0, 1])
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--output")
    p.set_defaults(func=cmd_jflat)

    p = sub.add_parser("oracle", help="brute-force reference computations")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    for name in ("evaluate", "solve"):
        op = osub.add_parser(name)
        op.add_argument("--instance", required=True)
        if name == "evaluate":
            op.add_argument("--shape", required=True)
        if name == "solve":
            op.add_argument("--k", type=int, required=True)
            op.add_argument("--resolution", type=int, default=21)
        op.add_argument("--output")
        op.set_defaults(func=cmd_oracle)

    p = sub.add_parser("generate", help="write a random instance")
    p.add_argument("--kind", choices=["uniform", "clustered", "annulus"],
                   default="uniform")
    p.add_argument("--model", choices=["existential", "locational"],
                   default="existential")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="run the acceptance checks")
    p.add_argument("--full", action="store_true",
                   help="full acceptance counts (slow); default is reduced")
    p.add_argument("--perturb", type=float, default=0.0,
                   help="inject a relative weight error (testing hook)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except StocenterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        # unreadable files, malformed JSON, bad flag combinations
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
