"""Exact relations of the measures, checked on generated inputs.

The closed forms scale with the probe scale gamma by fixed powers, the
distance vanishes at zero shift, is even in the shift and depends on the
shift only through eps / gamma, and the mean error's raw moment does not
depend on the shift.  Quadrature values are compared within the sum of their
error estimates.  Hypothesis runs derandomized, so every run draws the same
examples.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from genfisher.measures import (
    fisher_closed,
    hellinger_distance,
    mean_error_closed,
    mean_error_quadrature,
    posterior_width_closed,
    sensitivity_closed,
)
from genfisher.probe import ProbeDistribution

ALPHAS = st.floats(0.6, 20.0)
ORDERS = st.floats(0.25, 4.0)
SCALES = st.floats(0.1, 10.0)
# Up to alpha = 5: at alpha >= 10, q = 4 and small shifts the distance
# quadrature runs out of its evaluation budget after seconds (the strict
# xfail in test_measures.py), which says nothing about these relations.
DISTANCE_ALPHAS = st.floats(0.6, 5.0)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(alpha=ALPHAS, q=ORDERS, gamma=SCALES, c=SCALES)
def test_closed_forms_scale_with_gamma(alpha, q, gamma, c):
    # gamma -> c gamma: F_q by c**(-1/q); eps_min, width and mean error by c
    assume(alpha > 1.0 - q and q != 1.0)
    base = ProbeDistribution.from_shape_scale(alpha, gamma)
    scaled = ProbeDistribution.from_shape_scale(alpha, c * gamma)
    assert fisher_closed(scaled, q).value == pytest.approx(
        c ** (-1.0 / q) * fisher_closed(base, q).value, rel=1e-12, abs=0.0
    )
    for closed_form in (sensitivity_closed, posterior_width_closed, mean_error_closed):
        assert closed_form(scaled, q).value == pytest.approx(
            c * closed_form(base, q).value, rel=1e-12, abs=0.0
        )


@settings(max_examples=15, derandomize=True, deadline=None)
@given(alpha=DISTANCE_ALPHAS, q=ORDERS, gamma=SCALES)
def test_distance_at_zero_shift_is_zero(alpha, q, gamma):
    dist = ProbeDistribution.from_shape_scale(alpha, gamma)
    assert hellinger_distance(dist, 0.0, q).value == 0.0


@settings(max_examples=20, derandomize=True, deadline=None)
@given(alpha=DISTANCE_ALPHAS, q=ORDERS, eps=st.floats(0.01, 3.0))
def test_distance_is_even_in_the_shift(alpha, q, eps):
    dist = ProbeDistribution.from_shape_scale(alpha, 1.0)
    plus = hellinger_distance(dist, eps, q)
    minus = hellinger_distance(dist, -eps, q)
    gap_tol = plus.quad_detail.abs_error_estimate + minus.quad_detail.abs_error_estimate
    assert abs(plus.value - minus.value) <= gap_tol


@settings(max_examples=60, derandomize=True, deadline=None)
@given(alpha=DISTANCE_ALPHAS, q=ORDERS, eps=st.floats(0.01, 3.0), c=SCALES)
def test_distance_is_unchanged_when_scale_and_shift_scale_together(alpha, q, eps, c):
    # (gamma, eps) -> (c gamma, c eps) leaves D_q unchanged
    base = hellinger_distance(ProbeDistribution.from_shape_scale(alpha, 1.0), eps, q)
    scaled = hellinger_distance(ProbeDistribution.from_shape_scale(alpha, c), c * eps, q)
    gap_tol = base.quad_detail.abs_error_estimate + scaled.quad_detail.abs_error_estimate
    assert abs(scaled.value - base.value) <= gap_tol


@settings(max_examples=40, derandomize=True, deadline=None)
@given(alpha=ALPHAS, q=ORDERS, gamma=SCALES, eps=st.floats(-3.0, 3.0))
def test_mean_error_moment_does_not_depend_on_the_shift(alpha, q, gamma, eps):
    dist = ProbeDistribution.from_shape_scale(alpha, gamma)
    centred = mean_error_quadrature(dist, 0.0, q).quad_detail
    shifted = mean_error_quadrature(dist, eps, q).quad_detail
    gap_tol = centred.abs_error_estimate + shifted.abs_error_estimate
    assert abs(shifted.value - centred.value) <= gap_tol
