"""Acceptance gate: the twelve end-to-end checks at their stated scales.

Each test runs one check, prints a single PASS/FAIL line to the live
terminal, and asserts the verdict.  Set STOCENTER_ACCEPTANCE_SCALE=quick
for a fast reduced-count run during development.
"""

import os
from unittest import mock

import numpy as np
import pytest

from stocenter import partition, verification
from stocenter.gkm import WeightedCollection

SCALE = os.environ.get("STOCENTER_ACCEPTANCE_SCALE", "full")


@pytest.mark.parametrize("criterion", verification.CRITERIA,
                         ids=[fn.__name__ for fn in verification.CRITERIA])
def test_acceptance(criterion, capsys):
    result = criterion(SCALE)
    with capsys.disabled():
        print(f"{'PASS' if result.passed else 'FAIL'} "
              f"{result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_criterion_8_band_can_fail():
    # Five one-point sets at the unit vectors of R^5, probed at each: S
    # costs 4 sqrt(2) at every probe.  A candidate holds at most two sets,
    # each of weight at most 1.2^6 / 2 < 1.6, so at the probe on one of its
    # sets it costs under 1.6 sqrt(2), the band's lower edge at eps = 0.2.
    # At eps = 0.5 the lower edge is negative and any candidate under the
    # upper edge passes.
    S = WeightedCollection(sets=tuple(np.eye(5)[i:i + 1] for i in range(5)),
                           weights=np.ones(5))
    assert not verification._c8_found(S, np.eye(5), 0.2)
    assert verification._c8_found(S, np.eye(5), 0.5)


def _c5_halves():
    """Criterion 5's largest absolute mass error and largest share of the
    rounding bound, both on tiny-mass instances of 5 nodes and 4
    locations."""
    rng = np.random.default_rng(105)
    tiny = [verification._rand_loc(rng, 5, 4, 2, tiny=True) for _ in range(3)]
    return (max(verification._max_error(*verification._images(t, 1, 0.5))
                for t in tiny),
            max(map(verification._c5_margin, tiny)))


def test_criterion_5_rational_half_can_fail():
    # The first positive class mass below 1e-10 of each DP batch, scaled by
    # 1 + 1e-6: an absolute error under 1e-16, far inside the absolute
    # half's 1e-12, but a relative one far past the rounding bound.
    real = partition._occupied_masses

    def scaled(*args):
        w = real(*args)
        w[np.flatnonzero((w > 0.0) & (w < 1e-10))[:1]] *= 1.0 + 1e-6
        return w

    worst, margin = _c5_halves()
    assert worst <= 1e-12 and margin <= 1.0
    assert verification.criterion_5("quick").passed
    with mock.patch.object(partition, "_occupied_masses", scaled):
        worst, margin = _c5_halves()
        assert worst <= 1e-12 and margin > 1.0
        assert not verification.criterion_5("quick").passed
