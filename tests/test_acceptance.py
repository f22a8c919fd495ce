"""Acceptance gate: the twelve end-to-end checks at their stated scales.

Each test runs one check, prints a single PASS/FAIL line to the live
terminal, and asserts the verdict.  Set STOCENTER_ACCEPTANCE_SCALE=quick
for a fast reduced-count run during development.
"""

import os

import numpy as np
import pytest

from stocenter import verification
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
