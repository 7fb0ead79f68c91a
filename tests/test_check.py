"""The one pass rule of `Check`."""

import math

import pytest

from odofock import Check

TOL = 1e-10
RESIDUALS = [0.0, TOL, math.nextafter(TOL, math.inf), math.nan, math.inf, -math.inf, None]


@pytest.mark.parametrize("window", [None, -1, 0])
@pytest.mark.parametrize("residual", RESIDUALS)
def test_a_finite_residual_within_tolerance_passes_on_a_window_that_is_not_empty(residual, window):
    within = residual is not None and residual in (0.0, TOL)
    assert Check("relation", residual, TOL, window).passed is (within and window != -1)


@pytest.mark.parametrize("window", [None, -1, 0])
@pytest.mark.parametrize("verdict", [True, False])
def test_a_verdict_decides_unless_the_window_is_empty(verdict, window):
    # the residual would fail the residual rule, so only the verdict can pass it
    check = Check("expectation", math.nan, None, window, verdict=verdict)
    assert check.passed is (verdict and window != -1)
