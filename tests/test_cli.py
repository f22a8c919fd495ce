import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stocenter.cli import generate_instance, main
from stocenter.model import instance_to_dict, shape_to_dict
from stocenter.model import (CenterSet, ExistentialInstance,
                             LocationalInstance)
from stocenter.serialize import dumps_json, write_json


@pytest.fixture
def inst_file(tmp_path):
    inst = ExistentialInstance(points=[[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]],
                               probs=[0.5, 0.8, 0.9])
    path = tmp_path / "inst.json"
    write_json(path, instance_to_dict(inst))
    return str(path)


@pytest.fixture
def shape_file(tmp_path):
    path = tmp_path / "shape.json"
    write_json(path, shape_to_dict(CenterSet(centers=[[0.0, 0.0]])))
    return str(path)


def _run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_evaluate_exact(inst_file, shape_file, capsys):
    code, out = _run(["evaluate", "--instance", inst_file,
                      "--shape", shape_file], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "ExactSorted"
    assert data["value"] == pytest.approx(0.8 * 4 + 0.2 * 0.9 * 3)


def test_evaluate_mc(inst_file, shape_file, capsys):
    code, out = _run(["evaluate", "--instance", inst_file, "--shape",
                      shape_file, "--mc", "2000", "--seed", "4"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "MonteCarlo" and data["samples"] == 2000
    assert data["value"] == pytest.approx(0.8 * 4 + 0.2 * 0.9 * 3, abs=0.2)


def test_grid_coreset_command(inst_file, tmp_path, capsys):
    rfile = tmp_path / "real.json"
    rfile.write_text("[0, 1, 2]")
    code, out = _run(["grid-coreset", "--instance", inst_file,
                      "--realization", str(rfile), "--k", "1",
                      "--eps", "0.5"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["coreset"] == [0, 1, 2]  # grid finer than the spread
    assert data["size_bound"] >= len(data["coreset"])


@pytest.mark.parametrize("ids", ["[0, 7]", "[-1, 0]"])
def test_grid_coreset_rejects_ids_outside_instance(ids, tmp_path, capsys):
    inst = str(tmp_path / "inst.json")
    assert main(["generate", "--n", "5", "--seed", "0",
                 "--output", inst]) == 0
    rfile = tmp_path / "real.json"
    rfile.write_text(ids)
    code = main(["grid-coreset", "--instance", inst, "--realization",
                 str(rfile), "--k", "1", "--eps", "0.5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "[0, 5)" in captured.err


@pytest.mark.parametrize("ids, code", [("[0.7, 2.9]", 2), ("[0, 2.5]", 2),
                                       ("[true, 2]", 2), ("2", 2),
                                       ("[0.0, 2.0]", 0), ("[2, 0]", 0)])
def test_grid_coreset_ids_must_be_integral(ids, code, tmp_path, capsys):
    inst = str(tmp_path / "inst.json")
    assert main(["generate", "--n", "5", "--seed", "0",
                 "--output", inst]) == 0
    outputs = []
    for text in (ids, "[0, 2]"):
        rfile = tmp_path / "real.json"
        rfile.write_text(text)
        outputs.append((main(["grid-coreset", "--instance", inst,
                              "--realization", str(rfile), "--k", "1",
                              "--eps", "0.5"]), capsys.readouterr()))
    (got, captured), (_, integral) = outputs
    assert got == code
    if code == 0:
        assert captured.out == integral.out  # same as the integer ids
    else:
        assert captured.out == "" and "integer" in captured.err


def test_partition_command(inst_file, capsys):
    code, out = _run(["partition", "--instance", inst_file, "--k", "1",
                      "--eps", "0.5"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["total_weight"] == pytest.approx(1.0, abs=1e-9)


def test_solve_and_jflat_commands(inst_file, capsys):
    code, out = _run(["solve", "--instance", inst_file, "--k", "1",
                      "--eps", "0.5"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["value"] > 0 and data["polish_unconverged"] == 0
    code, out = _run(["jflat", "--instance", inst_file, "--j", "0",
                      "--eps", "0.4", "--samples", "50"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["flat"]["j"] == 0 and data["value"] > 0
    assert data["polish_unconverged"] == 0


def test_solve_enumerate_one_point(tmp_path, capsys):
    path = tmp_path / "one.json"
    write_json(path, instance_to_dict(
        ExistentialInstance(points=[[1.0, 2.0]], probs=[0.5])))
    code, out = _run(["solve", "--instance", str(path), "--k", "1",
                      "--eps", "0.5", "--strategy", "enumerate"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == 0.0


@pytest.mark.parametrize("k", ["1", "2"])
@pytest.mark.parametrize("flag", [["--M", "0"], ["--Lexp", "-1"]],
                         ids=["M=0", "Lexp=-1"])
def test_solve_enumerate_empty_stream_is_usage_error(k, flag, tmp_path,
                                                     capsys):
    # an empty candidate stream used to exit 0 with "value": 0 at k=2
    rng = np.random.default_rng(1)
    path = tmp_path / "inst.json"
    write_json(path, instance_to_dict(ExistentialInstance(
        points=rng.uniform(-10, 10, (5, 2)), probs=rng.uniform(0.2, 0.9, 5))))
    code = main(["solve", "--instance", str(path), "--k", k, "--eps", "0.5",
                 "--strategy", "enumerate", *flag])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "M >= 1 and L_exp >= 0" in captured.err


def test_oracle_command_with_golden(inst_file, shape_file, tmp_path, capsys):
    golden = tmp_path / "golden.json"
    code, out = _run(["oracle", "evaluate", "--instance", inst_file,
                      "--shape", shape_file, "--golden", str(golden)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "FullEnumeration"
    assert json.loads(golden.read_text())["value"] == data["value"]


def test_generate_deterministic(capsys):
    code, out1 = _run(["generate", "--kind", "clustered", "--n", "6",
                       "--seed", "5"], capsys)
    assert code == 0
    _, out2 = _run(["generate", "--kind", "clustered", "--n", "6",
                    "--seed", "5"], capsys)
    assert out1 == out2
    data = json.loads(out1)
    assert len(data["points"]) == 6 and len(data["points"][0]["coords"]) == 2


def test_generate_locational_rows(capsys):
    code, out = _run(["generate", "--model", "locational", "--kind",
                      "annulus", "--n", "4", "--m", "3", "--seed", "2"],
                     capsys)
    assert code == 0
    data = json.loads(out)
    for node in data["nodes"]:
        assert sum(node["probs"]) == pytest.approx(1.0, abs=1e-9)


def test_instance_kinds(capsys):
    for kind in ("uniform", "clustered", "annulus"):
        inst = generate_instance(kind, "existential", 5, 3, seed=1)
        assert inst.n == 5 and inst.d == 3


def test_annulus_needs_two_dimensions(capsys):
    # at d = 1 the sine overwrote the cosine and most points fell inside
    # the inner radius
    code = main(["generate", "--kind", "annulus", "--d", "1", "--n", "200",
                 "--seed", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "--d of at least 2" in captured.err


def test_annulus_d2_output_is_pinned():
    inst = generate_instance("annulus", "existential", 3, 2, seed=1)
    assert instance_to_dict(inst)["points"] == [
        {"coords": [-5.881038258010246, -0.4376337009770877],
         "p": 0.7949323344383975},
        {"coords": [4.40150883129733, -1.4159726897194211],
         "p": 0.4182792227322451},
        {"coords": [2.9907277507615238, 3.8138683556180926],
         "p": 0.5446343189057535}]
    inst = generate_instance("annulus", "locational", 2, 2, seed=1, m=2)
    assert inst.locations.tolist() == [
        [-4.276495032641863, -0.3182326429854572],
        [5.613950173870938, -1.8060170801256448]]
    assert inst.probs.tolist() == [[0.43366718040658814, 0.5663328195934118],
                                   [0.6559061264255717, 0.34409387357442844]]


def test_missing_instance_is_usage_error(capsys):
    code = main(["evaluate", "--instance", "/nonexistent.json",
                 "--shape", "/nonexistent.json"])
    capsys.readouterr()
    assert code == 2


EXISTENTIAL = ('{"model": "existential", "d": 2, "points": '
               '[{"coords": [0.0, 0.0], "p": 0.5}, '
               '{"coords": [1.0, 2.0], "p": 0.5}]}')
CENTERS = '{"kind": "centers", "points": [[0.0, 0.0]]}'


@pytest.mark.parametrize("instance, shape", [
    (EXISTENTIAL.replace("[1.0, 2.0]", "[null, 2.0]"), CENTERS),
    (EXISTENTIAL.replace('"d": 2, ', ""), CENTERS),
    (EXISTENTIAL.replace('"coords": [1.0, 2.0], ', ""), CENTERS),
    (EXISTENTIAL.replace('"p": 0.5}]', '"p": NaN}]'), CENTERS),
    ('{"model": "locational", "d": 2, "locations": [[0.0, 0.0], [1.0, 1.0]],'
     ' "nodes": [{"probs": [null, 1.0]}]}', CENTERS),
    (EXISTENTIAL, '{"kind": "centers", "points": [[null, 0.0]]}'),
    (EXISTENTIAL, '{"kind": "flat", "j": 0, "base": [null, 0.0]}'),
    (EXISTENTIAL.replace('"d": 2', '"d": true'), CENTERS),
    (EXISTENTIAL, '{"kind": "flat", "j": true, "base": [0.0, 0.0], '
                  '"basis": [[1.0, 0.0]]}'),
    (EXISTENTIAL, '{"kind": "flat", "j": 0.5, "base": [0.0, 0.0]}'),
    (EXISTENTIAL, '{"kind": "flat", "j": null, "base": [0.0, 0.0]}'),
], ids=["null-coord", "no-d", "no-coords", "nan-prob", "null-loc-prob",
        "null-center", "null-flat-base", "bool-d", "bool-flat-j",
        "fraction-flat-j", "null-flat-j"])
def test_malformed_json_is_usage_error(instance, shape, tmp_path, capsys):
    files = []
    for name, text in (("inst.json", instance), ("shape.json", shape)):
        files.append(tmp_path / name)
        files[-1].write_text(text)
    code, out = _run(["evaluate", "--instance", str(files[0]),
                      "--shape", str(files[1])], capsys)
    assert (code, out) == (2, "")


def test_integral_float_flat_j_reads_as_the_integer(tmp_path, capsys):
    # a flat with "j": 1.0 used to crash inside np.eye
    inst = tmp_path / "inst.json"
    inst.write_text(EXISTENTIAL.replace('"d": 2', '"d": 2.0'))
    outputs = []
    for j in ("1", "1.0"):
        shape = tmp_path / "shape.json"
        shape.write_text('{"kind": "flat", "j": %s, "base": [0.0, 0.0], '
                         '"basis": [[1.0, 0.0]]}' % j)
        outputs.append(_run(["evaluate", "--instance", str(inst),
                             "--shape", str(shape)], capsys))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


@pytest.mark.parametrize("args, flag", [
    (["--n", "0"], "--n"), (["--n", "-3"], "--n"),
    (["--n", "3", "--model", "locational", "--m", "0"], "--m"),
    (["--n", "3", "--kind", "annulus", "--d", "0"], "--d")],
    ids=["n=0", "n=-3", "m=0", "d=0"])
def test_generate_rejects_empty_sizes(args, flag, capsys):
    # --n 0 used to write an instance that load_instance rejects, and
    # --m 0 failed on the row sums
    code = main(["generate", "--seed", "1"] + args)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert f"{flag} must be at least 1" in captured.err


@pytest.mark.parametrize("flag, value", [
    ("--eps", "0"), ("--eps", "-0.5"), ("--eps", "1.5"), ("--net", "0"),
    ("--samples", "0"), ("--samples", "-2")])
def test_jflat_out_of_range_is_usage_error(flag, value, tmp_path, capsys):
    path = tmp_path / "inst.json"
    write_json(path, instance_to_dict(
        generate_instance("uniform", "existential", 12, 2, 3)))
    args = {"--eps": "0.3", "--net": "32", "--samples": "500", flag: value}
    code, out = _run(["jflat", "--instance", str(path), "--j", "0"]
                     + [item for pair in args.items() for item in pair],
                     capsys)
    assert (code, out) == (2, "")


def test_guard_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(0)
    inst = ExistentialInstance(points=rng.uniform(-5, 5, (30, 2)),
                               probs=np.full(30, 0.5))
    path = tmp_path / "big.json"
    write_json(path, instance_to_dict(inst))
    code = main(["partition", "--instance", str(path), "--k", "1",
                 "--eps", "0.5", "--mode", "exhaustive"])
    capsys.readouterr()
    assert code == 3


def test_locational_classes_past_the_count_guard(tmp_path, capsys):
    # 300 nodes on two locations: counting occupancies up to n took
    # 300 * 301^2 = 2.7e7 DP states for the class {0, 1}, over the guard
    inst = LocationalInstance(locations=[[0.0, 0.0], [1.0, 0.0]],
                              probs=np.full((300, 2), 0.5))
    path = tmp_path / "nodes.json"
    write_json(path, instance_to_dict(inst))
    common = ["--instance", str(path), "--k", "2", "--eps", "0.5"]
    code, out = _run(["partition", "--mode", "subsets"] + common, capsys)
    assert code == 0
    data = json.loads(out)
    assert [e["subset"] for e in data["entries"]] == [[0], [0, 1], [1]]
    assert data["total_weight"] == pytest.approx(1.0, abs=1e-12)
    code, out = _run(["solve"] + common, capsys)
    assert code == 0 and json.loads(out)["value"] == 0.0


def test_cli_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "stocenter.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for cmd in ("evaluate", "grid-coreset", "partition", "solve", "jflat",
                "oracle", "generate", "verify"):
        assert cmd in proc.stdout


def test_verify_detects_injected_perturbation():
    from stocenter import verification
    assert verification.criterion_4("quick", perturb=0.1).passed is False


def test_verify_exit_code_mapping(monkeypatch, capsys):
    import stocenter.verification as ver
    monkeypatch.setattr(ver, "run_all",
                        lambda scale, perturb: [ver.CheckResult("x", False,
                                                                "injected")])
    assert main(["verify"]) == 4
    monkeypatch.setattr(ver, "run_all",
                        lambda scale, perturb: [ver.CheckResult("x", True,
                                                                "ok")])
    assert main(["verify"]) == 0
    capsys.readouterr()


def test_float_serialization_round_trip():
    x = 0.1 + 0.2
    assert json.loads(dumps_json(x)).hex() == x.hex()
    text = dumps_json({"a": [1.5, 2], "b": "x,y", "c": None, "d": True})
    assert json.loads(text) == {"a": [1.5, 2], "b": "x,y", "c": None,
                                "d": True}
    pretty = dumps_json({"a": [1.0]}, indent=2)
    assert json.loads(pretty) == {"a": [1.0]}


def _same_floats(got, want):
    """``got`` holds the same floats as ``want`` bit for bit, still as
    floats, with ints and bools of the same type; arrays and tuples read
    back as lists."""
    if isinstance(want, (np.ndarray, tuple, list)):
        want = list(want)
        return isinstance(got, list) and len(got) == len(want) and all(
            _same_floats(g, w) for g, w in zip(got, want))
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            _same_floats(got[key], want[key]) for key in want)
    if isinstance(want, (float, np.floating)):
        return type(got) is float and got.hex() == float(want).hex()
    if isinstance(want, (bool, np.bool_)):
        return type(got) is bool and got == bool(want)
    return type(got) is int and got == int(want)


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, -3.0, 2.0 ** 60, 5e-324,
                     2.2250738585072014e-308, 0.1 + 0.2]))
LEAVES = st.one_of(
    FINITE, FINITE.map(np.float64), st.integers(-2 ** 62, 2 ** 62),
    st.integers(-2 ** 62, 2 ** 62).map(np.int64), st.booleans(),
    st.booleans().map(np.bool_),
    st.lists(FINITE, max_size=4).map(lambda xs: np.array(xs, dtype=float)))
VALUES = st.recursive(LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=3), inner, max_size=4)), max_leaves=12)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(VALUES, st.sampled_from([None, 2]))
def test_dumps_json_round_trips_bit_for_bit(value, indent):
    assert _same_floats(json.loads(dumps_json(value, indent=indent)), value)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                 np.float64("inf"), np.array([1.0, np.nan])])
def test_dumps_json_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        dumps_json({"a": [bad]})


@pytest.fixture
def overflow_files(tmp_path):
    # squared distances of coordinates near 1e200 overflow to inf
    inst = ExistentialInstance(points=[[1e200, 0.0], [-1e200, 0.0]],
                               probs=[0.5, 0.5])
    paths = tmp_path / "inst.json", tmp_path / "shape.json"
    write_json(paths[0], instance_to_dict(inst))
    write_json(paths[1], shape_to_dict(CenterSet(centers=[[-1e200, 0.0]])))
    return [str(p) for p in paths]


@pytest.mark.parametrize("command, flag", [
    (["evaluate"], "--output"), (["oracle", "evaluate"], "--output"),
    (["oracle", "evaluate"], "--golden")])
@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_output_is_usage_error(command, flag, existing,
                                          overflow_files, tmp_path, capsys):
    inst, shape = overflow_files
    base = command + ["--instance", inst, "--shape", shape]
    code, out = _run(base, capsys)
    assert (code, out) == (2, "")
    target = tmp_path / "out.json"
    if existing:
        target.write_text("kept\n")
    code = main(base + [flag, str(target)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ")
    if existing:
        assert target.read_text() == "kept\n"
    else:
        assert not target.exists()
