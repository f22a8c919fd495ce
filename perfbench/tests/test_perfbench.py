"""Self-tests of the benchmark: smoke runs, tracer restore, tracer purity."""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SELF_TIME_TOL_S = 1e-6
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path("perfbench") / "run.py")]
                          + args, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def test_workload_names_match_the_spec():
    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted(names) == sorted(WORKLOADS) == sorted(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run(workload):
    p = _bench(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", "0"])
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(
        m["name"] for m in SPEC["end_to_end"])
    for spec in SPEC["end_to_end"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert result["metrics"][spec["name"]]["value"] > 0


def test_traced_smoke_run():
    p = _bench(["--workload", "image", "--seed", "3", "--seconds", "1",
                "--trace", "1"])
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert sorted(result["metrics"]) == sorted(
        m["name"] for m in SPEC["per_layer"])
    for spec in SPEC["per_layer"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    assert result["metrics"]["grid_coreset.build.calls"]["value"] > 0


def test_exits_without_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = _bench(["--workload", "skc", "--seed", "1", "--seconds", "1"],
               cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout.strip() == ""


def _bindings():
    """Every function or class attribute of every stocenter module/class."""
    snap = {}
    for name, mod in sys.modules.items():
        if mod is None or not name.startswith("stocenter"):
            continue
        for attr, value in vars(mod).items():
            snap[(name, attr)] = value
            if inspect.isclass(value) and value.__module__.startswith("stocenter"):
                for meth, fn in vars(value).items():
                    snap[(name, attr, meth)] = fn
    return snap


CHEAP = {"skc": ("L-3-4-1", "E-5-1", "L-4-4-2"), "sjfc": ("L-5-12",),
         "image": ("L-4-8-1", "L-5-7-2"),
         "evaluate-cli": ("E0-C0-exact", "E0-C0-mc", "L0-F0-exact")}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Per cheap op of every workload: untraced result, traced result and
    the tracer of that one op."""
    import stocenter
    import stocenter.gkm
    import stocenter.oracle
    before = _bindings()
    out = {}
    for name, wl in WORKLOADS.items():
        specs = wl.setup(5, tmp_path_factory.mktemp(name))
        specs = [s for s in specs[:len(wl.cycle())] if s.label in CHEAP[name]]
        out[name] = []
        for spec in specs:
            plain = run.run_pass(wl, [spec], 0.0)[0]
            tr = tracing.Tracer()
            with tr.installed():
                assert stocenter.gkm.gkm_cost is not before[
                    ("stocenter.gkm", "gkm_cost")]
                assert stocenter.gkm_cost is stocenter.gkm.gkm_cost
                assert stocenter.oracle.gkm_cost is stocenter.gkm.gkm_cost
                traced = run.run_pass(wl, [spec], 0.0, tr)[0]
            out[name].append((plain, traced, tr))
    return before, out


def test_tracer_restores_every_binding(traced_runs):
    before, _ = traced_runs
    after = _bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert changed == []
    assert tracing.leftover_wrappers() == []


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tracing_does_not_change_outputs(traced_runs, workload):
    assert len(traced_runs[1][workload]) == len(CHEAP[workload])
    for plain, traced, _ in traced_runs[1][workload]:
        assert plain["ok"] and traced["ok"]
        assert plain["digest"] == traced["digest"], plain["label"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_self_times_add_up_to_op_time(traced_runs, workload):
    for _, _, tr in traced_runs[1][workload]:
        roots = [s for s in tr.spans if s[0] == tracing.OP_SPAN]
        assert len(roots) == 1 and len(tr.spans) > 1
        _, start, end, _, _, _ = roots[0]
        assert abs(sum(tracing.self_times(tr.spans)) - (end - start)) \
            <= SELF_TIME_TOL_S


def test_nearest_rank_percentiles():
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 75) == 3.0
    assert run.ops_beyond(40, 75) == 10
    assert run.ops_beyond(100, 90) == 10
    assert run.ops_beyond(1000, 99.9) == 1
