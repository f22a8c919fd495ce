import numpy as np
import pytest

from stocenter.errors import InstanceTooLarge, SchemaError
from stocenter.model import (CenterSet, ExistentialInstance, Flat,
                             LocationalInstance, instance_from_dict,
                             instance_to_dict, realization_chunks,
                             realization_probabilities, realize,
                             shape_from_dict, shape_to_dict)


def enumerated(instance, rows=None):
    """Every row and probability of ``realization_chunks``, as lists."""
    chunks = list(realization_chunks(instance, rows))
    return ([row for block, _ in chunks for row in block.tolist()],
            [p for _, pr in chunks for p in pr.tolist()])


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
    rows, probs = enumerated(inst)
    assert rows == [[False], [True]]
    assert probs == pytest.approx([0.7, 0.3])


def test_enumerate_deterministic_drops_zero_mass():
    inst = ExistentialInstance(points=[[0.0], [1.0]], probs=[1.0, 1.0])
    assert enumerated(inst) == ([[True, True]], [1.0])
    loc = LocationalInstance(locations=[[0.0], [1.0]],
                             probs=[[1.0, 0.0], [0.5, 0.5]])
    # node 0 sits at location 0; node 1 adds nothing, or location 1
    assert enumerated(loc) == ([[True, False], [True, True]], [0.5, 0.5])


def test_enumerate_locational_product_probs():
    inst = LocationalInstance(locations=[[0.0], [1.0]],
                              probs=[[0.5, 0.5], [0.2, 0.8]])
    rows, probs = enumerated(inst)
    # the locations taken by the assignments (0, 0), (0, 1), (1, 0), (1, 1)
    assert rows == [[True, False], [True, True], [True, True], [False, True]]
    assert probs == pytest.approx([0.1, 0.4, 0.1, 0.4])
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("inst", [
    ExistentialInstance(points=np.zeros((5, 1)),
                        probs=[0.1, 0.0, 0.5, 1.0, 0.9]),
    LocationalInstance(locations=np.zeros((3, 1)),
                       probs=[[0.2, 0.8, 0.0], [0.3, 0.3, 0.4],
                              [1.0, 0.0, 0.0]])], ids=["existential",
                                                       "locational"])
@pytest.mark.parametrize("cap", [1, 2, 3, 7])
def test_enumeration_rows_cap(inst, cap):
    chunks = list(realization_chunks(inst, cap))
    assert all(len(block) <= cap for block, _ in chunks)
    assert enumerated(inst, cap) == enumerated(inst)


def test_enumeration_guards():
    # 2^25 masks, and 4^13 = 2^26 assignments: no row is built before the
    # guard raises
    for big in (ExistentialInstance(points=np.zeros((25, 1)),
                                    probs=np.full(25, 0.5)),
                LocationalInstance(locations=np.zeros((4, 1)),
                                   probs=np.full((13, 4), 0.25))):
        chunks = realization_chunks(big)
        with pytest.raises(InstanceTooLarge):
            next(chunks)


def test_enumeration_mass_sums_to_one():
    rng = np.random.default_rng(5)
    inst = ExistentialInstance(points=rng.normal(size=(10, 2)),
                               probs=rng.uniform(0.0, 1.0, 10))
    assert sum(enumerated(inst)[1]) == pytest.approx(1.0, abs=1e-12)
    rows = rng.uniform(0.0, 1.0, (4, 5))
    loc = LocationalInstance(locations=rng.normal(size=(5, 2)),
                             probs=rows / rows.sum(axis=1, keepdims=True))
    assert sum(enumerated(loc)[1]) == pytest.approx(1.0, abs=1e-12)


def test_realization_probabilities_hand_values():
    inst = ExistentialInstance(points=np.zeros((3, 1)), probs=[0.1, 0.2, 0.3])
    pr = realization_probabilities(inst, np.array([[False, True, True]]))
    assert pr.tolist() == [pytest.approx(0.9 * 0.2 * 0.3)]
    full = ExistentialInstance(points=np.zeros((2, 1)), probs=[1.0, 1.0])
    assert realization_probabilities(full, np.ones((1, 2), bool)).tolist() \
        == [1.0]
    loc = LocationalInstance(locations=[[0.0], [1.0]],
                             probs=[[0.5, 0.5], [0.2, 0.8]])
    assert realization_probabilities(loc, np.array([[1, 0]])).tolist() == \
        [pytest.approx(0.5 * 0.2)]


def test_realization_probabilities_one_row_matches_enumeration():
    rng = np.random.default_rng(11)
    inst = ExistentialInstance(points=rng.normal(size=(6, 2)),
                               probs=rng.uniform(0.1, 0.9, 6))
    for row, pr in zip(*enumerated(inst)):
        assert realization_probabilities(inst, np.array([row]))[0] == pr


def test_realize_extremes():
    rng = np.random.default_rng(0)
    ones = ExistentialInstance(points=np.zeros((4, 1)), probs=np.ones(4))
    zeros = ExistentialInstance(points=np.zeros((4, 1)), probs=np.zeros(4))
    assert realize(ones, rng.random((20, 4))).all()
    assert not realize(zeros, rng.random((20, 4))).any()


def test_realize_marginal():
    rng = np.random.default_rng(123)
    inst = ExistentialInstance(points=[[0.0]], probs=[0.5])
    hits = realize(inst, rng.random((100000, 1))).sum()
    assert abs(hits / 100000 - 0.5) < 0.01


def test_center_set_sorted_and_flat_validation():
    F = CenterSet(centers=[[2.0, 0.0], [1.0, 5.0]])
    assert F.centers[0][0] == 1.0
    with pytest.raises(SchemaError):
        Flat(j=1, base=[0.0, 0.0], basis=[[2.0, 0.0]])  # not unit length
    line = Flat(j=1, base=[0.0, 0.0], basis=[[1.0, 0.0]])
    assert line.d == 2


@pytest.mark.parametrize("base", [[[1.0, 2.0]], [[1.0], [2.0]]],
                         ids=["row", "column"])
def test_flat_base_must_be_a_vector(base):
    # a (1, 2) base would read as d = 1 and broadcast against the points
    with pytest.raises(SchemaError, match="base"):
        Flat(j=0, base=base)
    with pytest.raises(SchemaError, match="base"):
        shape_from_dict({"kind": "flat", "j": 0, "base": base})


@pytest.mark.parametrize("points", [[], [[]], np.zeros((0, 2)),
                                    [[[1.0]], [[2.0]]]],
                         ids=["no-centers", "no-coordinates", "no-rows", "3-d"])
def test_centers_must_form_a_k_by_d_array(points):
    # no centers would reach np.lexsort and raise TypeError, and the
    # (2, 1, 1) array would become (1, 2, 1, 1) centers
    with pytest.raises(SchemaError, match="centers"):
        CenterSet(centers=points)
    with pytest.raises(SchemaError, match="centers"):
        shape_from_dict({"kind": "centers", "points": points})


def test_a_center_vector_is_one_center():
    F = CenterSet(centers=[3.0, 1.0])
    assert (F.k, F.d, F.centers.tolist()) == (1, 2, [[3.0, 1.0]])


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


def test_flat_j_and_instance_d_follow_the_id_rule():
    flat = {"kind": "flat", "j": 1.0, "base": [0.0, 0.0],
            "basis": [[1.0, 0.0]]}
    again = shape_from_dict(flat)
    assert type(again.j) is int and again.j == 1
    for j in (True, 0.5, "1", None, float("nan")):
        with pytest.raises(SchemaError):
            shape_from_dict({**flat, "j": j})
    for j in (1.0, True, "1"):
        with pytest.raises(SchemaError):
            Flat(j=j, base=[0.0, 0.0], basis=[[1.0, 0.0]])
    data = {"model": "existential", "d": 2.0,
            "points": [{"coords": [0.0, 1.0], "p": 0.5}]}
    assert instance_from_dict(data).d == 2
    for d in (True, 2.5, "2", None):
        with pytest.raises(SchemaError):
            instance_from_dict({**data, "d": d})
