"""Outside-in tracer for the stocenter library.

The tracer wraps the public functions of each ``stocenter`` module from the
outside: it swaps every module-level binding of a function (the defining
module, the package re-export and each module that imported it by name) for
a wrapper that records a span, and puts the originals back afterwards.

A span holds a name, start, end, parent span and operation id.  Spans are
kept in memory and written out once, when the run ends.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# Modules whose public functions are wrapped.  ``oracle`` is included because
# ``skc_pipeline`` calls ``oracle.minimum_enclosing_ball``; the benchmark's own
# reference values are computed while the tracer is paused.
LAYERS = ("model", "objective", "grid_coreset", "partition", "gkm", "jflat",
          "cli", "serialize", "oracle")

# Hot per-point helpers: counted, not timed, so their time stays in the
# caller's self time and the tracer adds no span per call.
COUNTED_ONLY = {("objective", "shape_distances"), ("gkm", "set_cost")}

# Methods wrapped on their class (module, class, method).
METHODS = (("grid_coreset", "CoresetBuilder", "__init__"),
           ("grid_coreset", "CoresetBuilder", "build"))

# scipy's minimize as imported by each solver module; spans read the result.
MINIMIZE = ("gkm", "jflat")

OP_SPAN = "bench.op"
WRAPPER_MARK = "__perfbench_wrapper__"


def _result_extra(name: str, result):
    """Counts read from a wrapped call's return value."""
    if name.endswith(".minimize"):
        return (int(getattr(result, "nfev", 0)), int(getattr(result, "nit", 0)),
                bool(getattr(result, "success", True)))
    if name == "model.enumerate_realizations":
        return len(result)
    if name == "partition.membership_check":
        return result.kind != "NotInImage"
    if name == "grid_coreset.CoresetBuilder.build":
        return (result.grid.stage == 2, result.size)
    if name == "partition.build_weighted_image":
        return len(result.entries)
    if name == "gkm.collection_from_image":
        return result.size
    if name == "jflat.build_S1":
        return int(sum(E.shape[0] for E in result))
    if name == "objective.expected_objective_mc":
        return result.samples
    return None


class Tracer:
    """Records spans around wrapped library calls; one instance per pass."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op, extra]
        self.counts: Counter = Counter()
        self.op_id = -1
        self.recording = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list):
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation."""
        self.op_id = op_id
        self.recording = True
        rec = self._open(OP_SPAN)
        try:
            yield
        finally:
            self._close(rec)
            self.recording = False
            self.op_id = -1

    def _span_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            rec[5] = _result_extra(name, result)
            return result

        setattr(wrapper, WRAPPER_MARK, True)
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.recording:
                counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, WRAPPER_MARK, True)
        return wrapper

    # -- installing and removing wrappers -------------------------------

    def _swap(self, owner, attr: str, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Swap every binding of every public library function."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "stocenter"
                                         or n.startswith("stocenter."))]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"stocenter.{layer}"]
            for fname, fn in vars(mod).items():
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                name = f"{layer}.{fname}"
                if (layer, fname) in COUNTED_ONLY:
                    wrappers[id(fn)] = self._count_wrapper(name, fn)
                else:
                    wrappers[id(fn)] = self._span_wrapper(name, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._swap(mod, attr, wrappers[id(value)])
        for layer in MINIMIZE:
            mod = sys.modules[f"stocenter.{layer}"]
            self._swap(mod, "minimize",
                       self._span_wrapper(f"{layer}.minimize", mod.minimize))
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"stocenter.{layer}"], cls_name)
            self._swap(cls, meth, self._span_wrapper(
                f"{layer}.{cls_name}.{meth}", vars(cls)[meth]))

    def remove(self):
        """Put every original binding back, newest swap first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    def write(self, path, t0: float):
        """One JSON array per span, times relative to t0."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, extra in self.spans:
                fh.write(json.dumps([name, round(start - t0, 9),
                                     round(end - t0, 9), parent, op, extra]))
                fh.write("\n")


def leftover_wrappers() -> list[str]:
    """Bindings in stocenter modules or classes that are still wrappers."""
    found = []
    for n, mod in sorted(sys.modules.items()):
        if mod is None or not (n == "stocenter" or n.startswith("stocenter.")):
            continue
        for attr, value in vars(mod).items():
            if getattr(value, WRAPPER_MARK, False):
                found.append(f"{n}.{attr}")
            if inspect.isclass(value):
                for meth, fn in vars(value).items():
                    if getattr(fn, WRAPPER_MARK, False):
                        found.append(f"{n}.{attr}.{meth}")
    return found


# ---------------------------------------------------------------------------
# Aggregation


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus its children's."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (_, start, end, _, _, _) in enumerate(spans)]


EXACT = {"objective.expected_objective_exact",
         "objective.expected_kcenter_exact_existential",
         "objective.expected_kcenter_exact_locational",
         "objective.expected_flatcenter_exact"}
PROB = {"partition.prob_existential", "partition.prob_locational",
        "partition.subset_probability", "partition.forbidden_and_tail_sets",
        "partition.holant_value"}
LOADING = {"model.load_instance", "model.instance_from_dict",
           "model.load_shape", "model.shape_from_dict"}


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-layer figures of a traced pass, normalised per operation."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    by_name = defaultdict(list)
    for i, rec in enumerate(spans):
        calls[rec[0]] += 1
        self_s[rec[0]] += selfs[i]
        by_name[rec[0]].append(i)
    per_op = 1.0 / max(n_ops, 1)

    def total_self(names) -> float:
        return sum(self_s[n] for n in names)

    def extras(name):
        return [spans[i][5] for i in by_name[name]]

    def minimize_stats(layer):
        res = extras(f"{layer}.minimize")
        polish = sum(selfs[i] for i in by_name[f"{layer}.minimize"]
                     if spans[i][3] >= 0 and spans[spans[i][3]][0]
                     in ("gkm.skc_pipeline", "jflat.sjfc_pipeline"))
        return (sum(r[0] for r in res), sum(1 for r in res if not r[2]),
                polish)

    g_nfev, g_fail, g_polish = minimize_stats("gkm")
    j_nfev, j_fail, j_polish = minimize_stats("jflat")
    builds = extras("grid_coreset.CoresetBuilder.build")
    member = extras("partition.membership_check")
    # Classes per realization enumerated (exhaustive mode) or per subset
    # tried (subsets mode), over the image spans' direct children.
    tried = 0
    for name in ("model.enumerate_realizations", "partition.membership_check"):
        for i in by_name[name]:
            parent = spans[i][3]
            if parent >= 0 and spans[parent][0] == "partition.build_weighted_image":
                tried += spans[i][5] if name.startswith("model") else 1
    classes = sum(extras("partition.build_weighted_image"))
    exact_outer = sum(1 for n in EXACT for i in by_name[n]
                      if spans[i][3] < 0 or spans[spans[i][3]][0] not in EXACT)

    m = {
        "gkm.cost.calls": calls["gkm.gkm_cost"] * per_op,
        "gkm.cost.self_s": self_s["gkm.gkm_cost"] * per_op,
        "gkm.solve.calls": calls["gkm.solve_gkm"] * per_op,
        "gkm.solve.self_s": self_s["gkm.solve_gkm"] * per_op,
        "gkm.collection.sets": sum(extras("gkm.collection_from_image")) * per_op,
        "gkm.polish.self_s": g_polish * per_op,
        "gkm.minimize.nfev": g_nfev * per_op,
        "gkm.minimize.fail": g_fail * per_op,
        "jflat.sweep.self_s": self_s["jflat.sweep_convexK"] * per_op,
        "jflat.s1.self_s": self_s["jflat.build_S1"] * per_op,
        "jflat.s1.kernel_points": sum(extras("jflat.build_S1")) * per_op,
        "jflat.s2.self_s": self_s["jflat.build_S2"] * per_op,
        "jflat.solve.self_s": self_s["jflat.solve_jflat"] * per_op,
        "jflat.estimate_J.calls": calls["jflat.estimate_J"] * per_op,
        "jflat.estimate_J.self_s": self_s["jflat.estimate_J"] * per_op,
        "jflat.polish.self_s": j_polish * per_op,
        "jflat.minimize.nfev": j_nfev * per_op,
        "jflat.minimize.fail": j_fail * per_op,
        "grid_coreset.init.self_s":
            self_s["grid_coreset.CoresetBuilder.__init__"] * per_op,
        "grid_coreset.build.calls": len(builds) * per_op,
        "grid_coreset.build.self_s":
            self_s["grid_coreset.CoresetBuilder.build"] * per_op,
        "grid_coreset.stage2_frac":
            sum(b[0] for b in builds) / len(builds) if builds else 0.0,
        "grid_coreset.coreset_size_mean":
            sum(b[1] for b in builds) / len(builds) if builds else 0.0,
        "partition.image.self_s":
            self_s["partition.build_weighted_image"] * per_op,
        "partition.image.classes": classes * per_op,
        "partition.image.class_ratio": classes / tried if tried else 0.0,
        "partition.membership.calls": len(member) * per_op,
        "partition.membership.self_s":
            self_s["partition.membership_check"] * per_op,
        "partition.membership.hit_frac":
            sum(member) / len(member) if member else 0.0,
        "partition.prob.self_s": total_self(PROB) * per_op,
        "model.enumerate.self_s":
            self_s["model.enumerate_realizations"] * per_op,
        "model.enumerate.realizations":
            sum(extras("model.enumerate_realizations")) * per_op,
        "objective.exact.calls": exact_outer * per_op,
        "objective.exact.self_s": total_self(EXACT) * per_op,
        "objective.mc.calls": calls["objective.expected_objective_mc"] * per_op,
        "objective.mc.self_s":
            self_s["objective.expected_objective_mc"] * per_op,
        "objective.mc.samples":
            sum(extras("objective.expected_objective_mc")) * per_op,
        "objective.shape_distances.calls":
            tracer.counts["objective.shape_distances"] * per_op,
        "cli.main.self_s": self_s["cli.main"] * per_op,
        "serialize.dumps_json.self_s": self_s["serialize.dumps_json"] * per_op,
        "model.load_instance.self_s": total_self(LOADING) * per_op,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = total_self(
            n for n in self_s if n.startswith(layer + ".")) * per_op
    m["bench.op.self_s"] = self_s[OP_SPAN] * per_op
    return m


def ranked_self_times(spans: list[list], top: int = 12):
    """(name, calls, self seconds, share of op time), largest first."""
    selfs = self_times(spans)
    agg: dict[str, list] = {}
    for i, rec in enumerate(spans):
        a = agg.setdefault(rec[0], [0, 0.0])
        a[0] += 1
        a[1] += selfs[i]
    total = sum(rec[2] - rec[1] for rec in spans if rec[3] < 0) or 1.0
    rows = sorted(agg.items(), key=lambda kv: -kv[1][1])[:top]
    return [(n, c, s, s / total) for n, (c, s) in rows]
