"""The farthest-point weight kernel behind ``expected_objective_exact``, and
metamorphic properties of the exact value.

``_farthest_weights`` gives w_l = Pr[support point l is the farthest
realized point, ties to the lowest id].  The checks: w is a distribution
over the nonempty realizations, w . dists is the enumeration oracle's
value, and, for a fixed assignment a of support points to centers,
sum_l w_l (c_a(l) - s_l) / ||c_a(l) - s_l|| is a subgradient of
g_a(C) = E[max_l ||s_l - c_a(l)||].  Integer-grid coordinates force ties
in distance; probabilities include 0 and 1.  gkm's Nelder-Mead objective
on the raw center vector equals ``expected_objective_exact`` bit for bit.
Against exact rational arithmetic on the same floats, with masses down to
1e-14, every weight is within a rounding bound that holds however close
to 1 the products of the cumulative masses are.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stocenter.gkm import _exact_objective
from stocenter.model import CenterSet, ExistentialInstance, LocationalInstance
from stocenter.objective import (_farthest_weights, expected_objective_exact,
                                 expected_objective_mc, shape_distances)
from stocenter.oracle import oracle_expected_values

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

grid = st.integers(-2, 2).map(float)
prob = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0))
coords = st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6)


@st.composite
def points(draw, max_n):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, max_n))
    return np.array(draw(st.lists(st.tuples(*[grid] * d), min_size=n,
                                  max_size=n)))


@st.composite
def existential_instances(draw):
    pts = draw(points(8))
    probs = draw(st.lists(prob, min_size=len(pts), max_size=len(pts)))
    return ExistentialInstance(points=pts, probs=np.array(probs))


@st.composite
def locational_instances(draw):
    locs = draw(points(6))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        w = draw(st.lists(st.integers(0, 3), min_size=len(locs),
                          max_size=len(locs)).filter(any))
        rows.append(np.array(w, dtype=float) / sum(w))
    return LocationalInstance(locations=locs, probs=np.array(rows))


instances = st.one_of(existential_instances(), locational_instances())
# Every realization empty: a locational instance with no nodes, and an
# existential one whose probabilities are all 0.
empty_instances = st.one_of(
    points(6).map(lambda locs: LocationalInstance(
        locations=locs, probs=np.zeros((0, len(locs))))),
    points(8).map(lambda pts: ExistentialInstance(
        points=pts, probs=np.zeros(len(pts)))))

# One node on (1, 0) or (-1, 0) with probability 1/2 each, center at the
# origin: both locations tie at distance 1.  Giving the whole CDF jump to
# the lowest id (w = (1, 0)) promises 1.1 at (-0.1, 0), where the value
# is 1.0.
TIE = LocationalInstance(locations=[[1.0, 0.0], [-1.0, 0.0]],
                         probs=[[0.5, 0.5]])


def _centers(flat, k, d):
    return np.array(flat[:k * d]).reshape(k, d)


def _assigned_dists(support, C, a):
    return np.sqrt(((support - C[a]) ** 2).sum(axis=1))


def _enumerated(inst, dists):
    return oracle_expected_values(inst, dists[:, None])[0][0]


@SETTINGS
@given(instances, coords)
def test_weights_are_the_farthest_point_distribution(inst, flat):
    C = CenterSet(centers=_centers(flat, 1, inst.d))
    dists = shape_distances(inst.support_points, C)
    w = _farthest_weights(inst, dists)
    assert (w >= 0.0).all()
    if isinstance(inst, ExistentialInstance):
        nonempty = 1.0 - np.prod(1.0 - inst.probs)
    else:
        nonempty = np.prod(inst.probs.sum(axis=1))
    assert w.sum() == pytest.approx(nonempty, abs=1e-12)
    value = _enumerated(inst, dists)
    assert w @ dists == pytest.approx(value, abs=1e-12 * max(1.0, value))
    assert expected_objective_exact(inst, C).value == \
        pytest.approx(value, abs=1e-12 * max(1.0, value))


@SETTINGS
@given(instances, st.integers(1, 2), coords, coords,
       st.lists(st.integers(0, 1), min_size=8, max_size=8))
@example(TIE, 1, [0.0] * 6, [-0.1] + [0.0] * 5, [0] * 8)
def test_weights_give_a_subgradient(inst, k, flat, moved, assign):
    support = inst.support_points
    a = np.array(assign[:len(support)]) % k
    C, C2 = _centers(flat, k, inst.d), _centers(moved, k, inst.d)
    dists = _assigned_dists(support, C, a)
    w = _farthest_weights(inst, dists)
    g = np.zeros_like(C)
    far = dists > 0.0  # a point on its center contributes nothing
    np.add.at(g, a[far], (w[far] / dists[far])[:, None]
              * (C[a[far]] - support[far]))
    here = _enumerated(inst, dists)
    there = _enumerated(inst, _assigned_dists(support, C2, a))
    assert there >= here + float((g * (C2 - C)).sum()) \
        - 1e-9 * max(1.0, there)


# ---------------------------------------------------------------------------
# Rounding against exact rational arithmetic

U = Fraction(1, 2 ** 53)
tiny = st.sampled_from([0.0, 1e-14, 3e-13, 1e-12, 1e-9, 1e-6, 1e-3])


def gamma(k):
    """The bound k u / (1 - k u) on the relative error of k roundings."""
    return k * U / (1 - k * U)


def rational_weights(inst, dists):
    """w_l in exact arithmetic on the floats of ``inst``: point l is the
    farthest realized one, ties to the lowest id."""
    key = [(-d, i) for i, d in enumerate(dists)]
    w = []
    for l in range(len(dists)):
        before = [i for i in range(len(dists)) if key[i] < key[l]]
        if isinstance(inst, ExistentialInstance):
            p = Fraction(inst.probs[l])
            for i in before:
                p *= 1 - Fraction(inst.probs[i])
        else:
            # every node lands on l or past it, less every node past it
            upto, past = Fraction(1), Fraction(1)
            for row in inst.probs:
                mass = sum(Fraction(row[i]) for i in range(len(dists))
                           if i not in before)
                upto *= mass
                past *= mass - Fraction(row[l])
            p = upto - past
        w.append(p)
    return w


@st.composite
def tiny_mass_instances(draw):
    """Rows of masses from 1e-14 up, with one or two large entries taking
    the rest; existential probabilities from the same masses, 1 - mass and
    1.  Distances are small integers, so they tie."""
    m = draw(st.integers(1, 6))
    dists = np.array(draw(st.lists(st.integers(0, 3), min_size=m,
                                   max_size=m)), dtype=float)
    locs = np.zeros((m, 1))
    if draw(st.booleans()):
        probs = np.array(draw(st.lists(
            st.one_of(tiny, tiny.map(lambda t: 1.0 - t)), min_size=m,
            max_size=m)))
        return ExistentialInstance(points=locs, probs=probs), dists
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = np.array(draw(st.lists(tiny, min_size=m, max_size=m)))
        big = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=2,
                            unique=True))
        row[big] = 0.0
        rest = 1.0 - row.sum()
        share = draw(st.sampled_from([1.0, 0.5, 1e-12])) if len(big) == 2 \
            else 1.0
        row[big[0]] = rest * share
        row[big[-1]] += rest - row[big[0]]
        rows.append(row)
    return LocationalInstance(locations=locs, probs=np.array(rows)), dists


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tiny_mass_instances())
def test_weights_are_within_a_rounding_bound_of_exact(case):
    """A locational weight is a sum over the n nodes of products of n - 1
    cumulative masses (each up to m - 1 additions) and one entry: at most
    (n - 1)(m + 1) roundings of non-negative terms.  An existential weight
    takes n - 1 differences 1 - p and n - 1 products: at most 2(n - 1)."""
    inst, dists = case
    n, m = inst.n, len(dists)
    bound = gamma((n - 1) * (m + 1)) \
        if isinstance(inst, LocationalInstance) else gamma(2 * (n - 1))
    w = _farthest_weights(inst, dists)
    for got, exact in zip(w.tolist(), rational_weights(inst, dists)):
        assert abs(Fraction(got) - exact) <= bound * exact


@pytest.mark.parametrize("delta", [1e-6, 1e-9, 1e-12, 1e-14])
def test_locational_value_with_a_far_location_of_little_mass(delta):
    """Three nodes, each at distance 0 with mass 1 - delta and at 10 with
    delta.  The value adds m = 2 products to the weights' bound."""
    row = [1.0 - delta, delta]
    inst = LocationalInstance(locations=[[0.0], [10.0]], probs=[row] * 3)
    got = expected_objective_exact(inst, CenterSet(centers=[[0.0]])).value
    a, b = Fraction(row[0]), Fraction(row[1])
    exact = ((a + b) ** 3 - a ** 3) * 10
    assert abs(Fraction(got) - exact) <= gamma(2 * 3 + 2) * exact


def test_zero_node_locational_weights_are_zero():
    inst = LocationalInstance(locations=[[0.0, 0.0], [3.0, 4.0]],
                              probs=np.zeros((0, 2)))
    assert _farthest_weights(inst, np.array([5.0, 0.0])).tolist() == [0.0, 0.0]
    assert expected_objective_exact(
        inst, CenterSet(centers=[[0.0, 0.0]])).value == 0.0


@SETTINGS
@given(st.one_of(instances, empty_instances), st.integers(1, 2),
       st.lists(st.one_of(grid, st.floats(-3.0, 3.0)), min_size=6,
                max_size=6))
def test_exact_objective_equals_the_evaluator(inst, k, flat):
    """Grid centers tie in distance; the rows are tried in both orders."""
    rows = _centers(flat, k, inst.d)
    value = _exact_objective(inst)
    for C in (rows, rows[::-1]):
        assert value(C.reshape(-1)) == \
            expected_objective_exact(inst, CenterSet(centers=C)).value


@SETTINGS
@given(instances, coords, st.integers(0, 2 ** 32 - 1), st.floats(0.1, 10.0))
def test_exact_value_is_euclidean_invariant(inst, flat, seed, scale):
    d = inst.d
    C = _centers(flat, 2, d)
    base = expected_objective_exact(inst, CenterSet(centers=C)).value
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.normal(size=(d, d)))[0]  # orthogonal
    t = rng.uniform(-10.0, 10.0, d)

    def moved(f):
        if isinstance(inst, ExistentialInstance):
            out = ExistentialInstance(points=f(inst.points), probs=inst.probs)
        else:
            out = LocationalInstance(locations=f(inst.locations),
                                     probs=inst.probs)
        return expected_objective_exact(
            out, CenterSet(centers=f(C))).value

    tol = 1e-12 * max(1.0, base)
    assert moved(lambda x: x @ Q.T + t) == pytest.approx(base, abs=tol)
    assert moved(lambda x: scale * x) == \
        pytest.approx(scale * base, abs=scale * tol)


@SETTINGS
@given(existential_instances(), coords, st.data())
def test_raising_a_probability_never_lowers_the_value(inst, flat, data):
    C = CenterSet(centers=_centers(flat, 1, inst.d))
    i = data.draw(st.integers(0, inst.n - 1))
    probs = inst.probs.copy()
    probs[i] = data.draw(st.floats(probs[i], 1.0))
    raised = ExistentialInstance(points=inst.points, probs=probs)
    base = expected_objective_exact(inst, C).value
    assert expected_objective_exact(raised, C).value >= \
        base - 1e-12 * max(1.0, base)


@SETTINGS
@given(points(8), st.data(), coords)
def test_one_hot_locational_is_existential_with_certain_points(locs, data,
                                                               flat):
    m = len(locs)
    visits = data.draw(st.lists(st.integers(0, m - 1), min_size=1,
                                max_size=6))
    rows = np.zeros((len(visits), m))
    rows[np.arange(len(visits)), visits] = 1.0
    probs = np.zeros(m)
    probs[visits] = 1.0
    C = CenterSet(centers=_centers(flat, 2, locs.shape[1]))
    loc = expected_objective_exact(
        LocationalInstance(locations=locs, probs=rows), C).value
    exist = expected_objective_exact(
        ExistentialInstance(points=locs, probs=probs), C).value
    assert loc == pytest.approx(exist, abs=1e-12 * max(1.0, exist))


def test_exact_agrees_with_seeded_monte_carlo():
    rng = np.random.default_rng(2024)
    for t in range(20):
        d = int(rng.integers(1, 4))
        if t % 2:
            rows = rng.uniform(0.0, 1.0, (int(rng.integers(1, 30)), 12))
            rows /= rows.sum(axis=1, keepdims=True)
            inst = LocationalInstance(locations=rng.uniform(-5, 5, (12, d)),
                                      probs=rows)
        else:
            n = int(rng.integers(1, 60))
            inst = ExistentialInstance(points=rng.uniform(-5, 5, (n, d)),
                                       probs=rng.uniform(0.0, 1.0, n))
        F = CenterSet(centers=rng.uniform(-5, 5, (int(rng.integers(1, 3)),
                                                  d)))
        exact = expected_objective_exact(inst, F).value
        mc = expected_objective_mc(inst, F, 4000, np.random.default_rng(t))
        assert abs(exact - mc.value) <= 4 * mc.stderr + 1e-12
