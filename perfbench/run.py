"""stocenter benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload skc --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the library from its
``src`` directory.  A single caller runs the workload's operations back to
back (a closed loop) until the operations have taken ``--seconds`` of time,
then checks every output.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` spends half the time untraced and half traced and prints the
per-layer metrics.  The last line of standard output is the result object;
the lines before it are a readable report.

On a shared 2-vCPU virtual machine (Intel Xeon, 2.0 GHz) the vCPU speed
drifts by up to a quarter within minutes (a fixed busy loop did 2184 to
3064 iterations in consecutive 2 s windows), so every time is scaled to a
reference speed: a fixed probe of interpreter and
small-array numpy work runs between operations, and an op's time is
multiplied by ``PROBE_REF_S`` over the mean of the probes just before and
just after it.  The raw wall times are printed in the report as well.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# One caller on a 2-core machine: BLAS gets one thread, the caller one core.
# Set before numpy is imported.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 3
PROBE_REF_S = 0.004  # probe time at the reference speed
# op_s_tail is this fixed percentile rather than one picked from the op
# count, so that a faster library (more ops per run) is not measured at a
# higher percentile.  At the seed commit every workload makes at least 40
# ops per 20 s run, which leaves at least ten ops beyond it.
TAIL_PERCENTILE = 75
WORKLOAD_NAMES = ("skc", "sjfc", "image", "evaluate-cli")

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_s_p50", "s"),
              ("op_s_tail", "s"), ("peak_rss_mb", "MB"),
              ("value_ratio_max", "ratio"), ("value_ratio_mean", "ratio"))
QUALITY_UNITS = {"fail_frac": "ratio", "mass_err_max": "abs",
                 "mc_z_max": "stderr"}


def probe() -> float:
    """Seconds taken by a fixed piece of work that does not touch the
    library: 300 rounds of a small distance computation and a Python sum."""
    import numpy as np
    pts = np.linspace(0.0, 1.0, 60).reshape(20, 3)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(300):
        d = np.sqrt(((pts[:, None, :] - pts[None, i % 20, :]) ** 2)
                    .sum(axis=2)).min(axis=1)
        acc += float(d.max()) + sum(j * 0.5 for j in range(20))
    return time.perf_counter() - t0


def scaled(seconds: float, probe_before: float, probe_after: float) -> float:
    """A raw time at the reference speed of the probe."""
    return seconds * PROBE_REF_S / ((probe_before + probe_after) / 2.0)


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile p among n values, in integers so
    that p90 of 100 values is exactly rank 90."""
    return max(1, -(-round(p * 10) * n // 1000))


def import_seconds() -> float:
    """Time to import the library in a fresh interpreter (started and
    waited for here)."""
    code = ("import sys, time; t = time.perf_counter(); "
            "sys.path.insert(0, sys.argv[1]); "
            "import stocenter, stocenter.verification; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def percentile(sorted_vals: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[_rank(len(sorted_vals), p) - 1]


def ops_beyond(n: int, p: float) -> int:
    """Number of the n ops ranked above percentile p."""
    return n - _rank(n, p)


def run_pass(wl, specs, seconds: float, tracer=None,
             state: dict | None = None) -> list[dict]:
    """Closed loop over the batch until the ops have taken ``seconds``.

    Only the library call is timed; each output is checked right after, and
    a raise or a failed check marks the op failed without stopping the run.
    ``state`` carries the checks' reference values from one pass to the next.
    """
    state = {} if state is None else state
    results = []
    busy = 0.0
    i = 0
    before = probe()
    while i == 0 or busy < seconds:
        spec = specs[i % len(specs)]
        error = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(spec)
            else:
                with tracer.operation(i):
                    out = wl.run(spec)
        except Exception:  # an op that raises is a failed op, not a crash
            error = traceback.format_exc()
        dur = time.perf_counter() - t0
        after = probe()
        busy += dur
        rec = {"label": spec.label, "raw_s": dur,
               "s": scaled(dur, before, after), "ok": False,
               "ratio": None, "mass_err": None, "z": None, "digest": None}
        before = after
        if error is None:
            try:
                chk = wl.check(spec, out, state)
                rec.update(ok=chk.ok, ratio=chk.ratio, mass_err=chk.mass_err,
                           z=chk.z, digest=wl.digest(out))
                if not chk.ok:
                    error = chk.detail
            except Exception:
                error = traceback.format_exc()
        rec["completed"] = rec["digest"] is not None
        if error is not None:
            print(f"op {i} ({spec.label}) failed: {error}", file=sys.stderr)
        results.append(rec)
        i += 1
    return results


def throughput(results: list[dict], window: int) -> float:
    """Median over consecutive windows of ``window`` ops of completed ops
    per second; a run shorter than one window gives its overall rate."""
    groups = [results[k:k + window]
              for k in range(0, len(results) - window + 1, window)] or [results]
    return statistics.median(sum(r["completed"] for r in g)
                             / sum(r["s"] for r in g) for g in groups)


def timing_metrics(results: list[dict], window: int) -> dict:
    times = sorted(r["s"] for r in results)
    done = sum(r["completed"] for r in results)
    ratios = [r["ratio"] for r in results if r["ratio"] is not None]
    return {
        "ops_per_s": throughput(results, window),
        "raw_ops_per_s": done / sum(r["raw_s"] for r in results),
        "raw_op_s_p50": percentile(sorted(r["raw_s"] for r in results), 50),
        "op_s_p50": percentile(times, 50),
        "op_s_tail": percentile(times, TAIL_PERCENTILE),
        "ops": len(times),
        "value_ratio_max": max(ratios) if ratios else math.nan,
        "value_ratio_mean": statistics.fmean(ratios) if ratios else math.nan,
    }


def quality_metrics(results: list[dict]) -> dict:
    def worst(key):
        vals = [r[key] for r in results if r[key] is not None]
        return max(vals) if vals else 0.0

    return {"fail_frac": sum(not r["ok"] for r in results) / len(results),
            "mass_err_max": worst("mass_err"), "mc_z_max": worst("z")}


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    import glob
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "lib*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_record(seed: int) -> dict:
    import numpy
    import scipy
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "stocenter").glob("*.py")))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads(), "git_commit": git_commit(),
            "seed": seed, "src_stocenter_lines": src_lines}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stocenter" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'stocenter'}; run from a "
              "stocenter source checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import stocenter
    if Path(stocenter.__file__).resolve().parent != SRC / "stocenter":
        print(f"error: imported stocenter from {stocenter.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import stocenter.verification  # noqa: F401  (the whole package is loaded)
    import tracer as tracing
    from workloads import WORKLOADS

    # Each set-up imports the library in a fresh interpreter, then
    # generates the batch, writes its files and warms up.
    wl = WORKLOADS[args.workload]
    workdir = OUT / "work" / wl.name
    before = probe()
    setups = []
    for _ in range(SETUP_REPEATS):
        fresh_import_s = import_seconds()
        t0 = time.perf_counter()
        specs = wl.setup(args.seed, workdir)
        wl.warmup(args.seed, specs)
        dur = time.perf_counter() - t0
        after = probe()
        setups.append(scaled(fresh_import_s + dur, before, after))
        before = after
    setup_s = statistics.median(setups)

    record = run_record(args.seed)
    record.update(workload=wl.name, seconds=args.seconds, trace=args.trace,
                  setup_repeats_s=setups)
    print("# run record " + repr(record))

    if args.trace == 0:
        results = run_pass(wl, specs, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tm = timing_metrics(results, wl.window)
        values = dict(tm, setup_s=setup_s, peak_rss_mb=peak_rss_mb)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        print(f"# {tm['ops']} ops; op_s_tail is p{TAIL_PERCENTILE} with "
              f"{ops_beyond(tm['ops'], TAIL_PERCENTILE)} ops beyond it; "
              f"raw wall: {tm['raw_ops_per_s']:.6g} ops/s, "
              f"p50 {tm['raw_op_s_p50']:.6g} s")
        all_results = results
        correct = all(r["ok"] for r in results)
    else:
        state: dict = {}
        plain = run_pass(wl, specs, args.seconds / 2, state=state)
        tr = tracing.Tracer()
        t_traced = time.perf_counter()
        OUT.mkdir(parents=True, exist_ok=True)
        with tr.installed():
            traced = run_pass(wl, specs, args.seconds / 2, tr, state)
        leftover = tracing.leftover_wrappers()
        if leftover:
            print(f"error: wrappers left after the traced pass: {leftover}",
                  file=sys.stderr)
        # Tracing must not change what the library returns.
        mismatched = [i for i, (a, b) in enumerate(zip(plain, traced))
                      if a["digest"] != b["digest"]]
        if mismatched:
            print(f"error: traced outputs differ from untraced at ops "
                  f"{mismatched}", file=sys.stderr)
        both = min(len(plain), len(traced))
        overhead = (sum(r["s"] for r in traced[:both])
                    / sum(r["s"] for r in plain[:both]) - 1.0)
        metrics = {name: {"value": v, "unit": layer_unit(name)}
                   for name, v in tracing.layer_metrics(tr, len(traced)).items()}
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        all_results = plain + traced
        for name, v in quality_metrics(all_results).items():
            metrics[name] = {"value": v, "unit": QUALITY_UNITS[name]}
        print("# largest self times (name, calls, self s, share of op time):")
        for name, calls, self_s, share in tracing.ranked_self_times(tr.spans):
            print(f"#   {name:48s} {calls:8d} {self_s:10.4f} {share:7.1%}")
        tr.write(OUT / f"spans-{wl.name}.jsonl", t_traced)
        correct = (all(r["ok"] for r in all_results) and not leftover
                   and not mismatched)

    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    if args.trace == 0:
        for name, v in quality_metrics(all_results).items():
            print(f"# {name} = {v:.6g} {QUALITY_UNITS[name]}")
    result = {"correct": correct, "attempted": len(all_results),
              "failed": sum(not r["ok"] for r in all_results),
              "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"run-{wl.name}.json", "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result,
                   "ops": [{k: r[k] for k in ("label", "raw_s", "s", "ok")}
                           for r in all_results]}, fh)
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s/op"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    if name.endswith("_mean"):
        return "count"
    return "count/op"


if __name__ == "__main__":
    sys.exit(main())
