import numpy as np
import pytest

from stocenter.errors import InstanceTooLarge, SchemaError
from stocenter.model import (CenterSet, ExistentialInstance, Flat,
                             LocationalInstance, Realization,
                             enumerate_realizations, instance_from_dict,
                             instance_to_dict, realization_probability,
                             sample_realization, shape_from_dict,
                             shape_to_dict)


def test_existential_basic_properties():
    inst = ExistentialInstance(points=[[0.0, 0.0], [1.0, 2.0]],
                               probs=[0.3, 0.9])
    assert inst.n == 2 and inst.d == 2
    assert inst.model == "existential"
    assert inst.total_prob == pytest.approx(1.2)
    assert not inst.points.flags.writeable


def test_existential_rejects_bad_probs():
    with pytest.raises(SchemaError):
        ExistentialInstance(points=[[0.0]], probs=[1.5])
    with pytest.raises(SchemaError):
        ExistentialInstance(points=[[0.0], [1.0]], probs=[0.5])
    with pytest.raises(SchemaError):
        ExistentialInstance(points=[[0.0]], probs=[np.nan])


def test_locational_rows_must_sum_to_one():
    with pytest.raises(SchemaError):
        LocationalInstance(locations=[[0.0], [1.0]], probs=[[0.5, 0.4]])
    with pytest.raises(SchemaError):
        LocationalInstance(locations=[[0.0], [1.0]], probs=[[np.nan, 1.0]])
    inst = LocationalInstance(locations=[[0.0], [1.0]],
                              probs=[[0.5, 0.5], [0.2, 0.8]])
    assert inst.n == 2 and inst.m == 2


def test_enumerate_single_point():
    inst = ExistentialInstance(points=[[0.0]], probs=[0.3])
    out = enumerate_realizations(inst)
    assert [(r.ids, pytest.approx(p)) for r, p in out] == \
        [((), 0.7), ((0,), 0.3)]


def test_enumerate_deterministic_drops_zero_mass():
    inst = ExistentialInstance(points=[[0.0], [1.0]], probs=[1.0, 1.0])
    out = enumerate_realizations(inst)
    assert len(out) == 1
    assert out[0][0].ids == (0, 1) and out[0][1] == 1.0
    kept = enumerate_realizations(inst, keep_zero=True)
    assert len(kept) == 4


def test_enumerate_locational_product_probs():
    inst = LocationalInstance(locations=[[0.0], [1.0]],
                              probs=[[0.5, 0.5], [0.2, 0.8]])
    out = enumerate_realizations(inst)
    probs = sorted(p for _, p in out)
    assert probs == pytest.approx([0.1, 0.1, 0.4, 0.4])
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_enumeration_guards():
    big = ExistentialInstance(points=np.zeros((25, 1)), probs=np.full(25, 0.5))
    with pytest.raises(InstanceTooLarge):
        enumerate_realizations(big)
    # 4^13 = 2^26 assignments
    big = LocationalInstance(locations=np.zeros((4, 1)),
                             probs=np.full((13, 4), 0.25))
    with pytest.raises(InstanceTooLarge):
        enumerate_realizations(big)


def test_enumeration_mass_sums_to_one():
    rng = np.random.default_rng(5)
    inst = ExistentialInstance(points=rng.normal(size=(10, 2)),
                               probs=rng.uniform(0.0, 1.0, 10))
    total = sum(p for _, p in enumerate_realizations(inst, keep_zero=True))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_realization_probability_hand_values():
    inst = ExistentialInstance(points=np.zeros((3, 1)), probs=[0.1, 0.2, 0.3])
    pr = realization_probability(inst, Realization(ids=(1, 2)))
    assert pr == pytest.approx(0.9 * 0.2 * 0.3)
    full = ExistentialInstance(points=np.zeros((2, 1)), probs=[1.0, 1.0])
    assert realization_probability(full, Realization(ids=(0, 1))) == 1.0


def test_realization_probability_matches_enumeration():
    rng = np.random.default_rng(11)
    inst = ExistentialInstance(points=rng.normal(size=(6, 2)),
                               probs=rng.uniform(0.1, 0.9, 6))
    for real, pr in enumerate_realizations(inst):
        assert realization_probability(inst, real) == pr


def test_sample_realization_extremes():
    rng = np.random.default_rng(0)
    ones = ExistentialInstance(points=np.zeros((4, 1)), probs=np.ones(4))
    zeros = ExistentialInstance(points=np.zeros((4, 1)), probs=np.zeros(4))
    for _ in range(20):
        assert sample_realization(ones, rng).ids == (0, 1, 2, 3)
        assert sample_realization(zeros, rng).ids == ()


def test_sample_realization_marginal():
    rng = np.random.default_rng(123)
    inst = ExistentialInstance(points=[[0.0]], probs=[0.5])
    hits = sum(sample_realization(inst, rng).ids == (0,)
               for _ in range(100000))
    assert abs(hits / 100000 - 0.5) < 0.01


def test_center_set_sorted_and_flat_validation():
    F = CenterSet(centers=[[2.0, 0.0], [1.0, 5.0]])
    assert F.centers[0][0] == 1.0
    with pytest.raises(SchemaError):
        Flat(j=1, base=[0.0, 0.0], basis=[[2.0, 0.0]])  # not unit length
    line = Flat(j=1, base=[0.0, 0.0], basis=[[1.0, 0.0]])
    assert line.d == 2


def test_instance_json_round_trip():
    inst = ExistentialInstance(points=[[1.0, 2.0], [3.0, 4.0]],
                               probs=[0.25, 0.75])
    again = instance_from_dict(instance_to_dict(inst))
    assert np.array_equal(again.points, inst.points)
    assert np.array_equal(again.probs, inst.probs)

    loc = LocationalInstance(locations=[[0.0], [1.0]],
                             probs=[[0.5, 0.5]])
    again = instance_from_dict(instance_to_dict(loc))
    assert np.array_equal(again.probs, loc.probs)


def test_instance_json_rejects_unknown_fields():
    data = instance_to_dict(
        ExistentialInstance(points=[[0.0]], probs=[1.0]))
    data["extra"] = 1
    with pytest.raises(SchemaError):
        instance_from_dict(data)


def test_shape_json_round_trip():
    F = CenterSet(centers=[[0.0, 1.0]])
    assert np.array_equal(shape_from_dict(shape_to_dict(F)).centers, F.centers)
    line = Flat(j=1, base=[1.0, 0.0], basis=[[0.0, 1.0]])
    again = shape_from_dict(shape_to_dict(line))
    assert again.j == 1 and np.array_equal(again.basis, line.basis)
