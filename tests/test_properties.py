"""Exact relations of the measures, checked on generated inputs.

The closed forms scale with the probe scale gamma by fixed powers, the
distance vanishes at zero shift, is even in the shift and depends on the
shift only through eps / gamma, for scales from 1e-12 to 1e12, and the mean
error's raw moment does not depend on the shift, to the bit.  Distance
values are compared within the sum of their error estimates.  The distance
converges within a small evaluation budget, a gate against quadrature
stalls, and within the same budget the Fisher, width and mean-error routes
match their closed forms over wide shapes, orders and scales.
Hypothesis runs derandomized, so every run draws the same examples.
"""

import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from genfisher.measures import (
    fisher_closed,
    fisher_quadrature,
    hellinger_distance,
    mean_error_closed,
    mean_error_quadrature,
    posterior_width_closed,
    posterior_width_quadrature,
    sensitivity_closed,
)
from genfisher.numerics import QuadratureSpec
from genfisher.probe import ProbeDistribution

ALPHAS = st.floats(0.6, 20.0)
ORDERS = st.floats(0.25, 4.0)
SCALES = st.floats(0.1, 10.0)


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
@given(alpha=ALPHAS, q=ORDERS, gamma=SCALES)
def test_distance_at_zero_shift_is_zero(alpha, q, gamma):
    dist = ProbeDistribution.from_shape_scale(alpha, gamma)
    assert hellinger_distance(dist, 0.0, q).value == 0.0


@settings(max_examples=20, derandomize=True, deadline=None)
@given(alpha=ALPHAS, q=ORDERS, eps=st.floats(0.01, 3.0))
def test_distance_is_even_in_the_shift(alpha, q, eps):
    dist = ProbeDistribution.from_shape_scale(alpha, 1.0)
    plus = hellinger_distance(dist, eps, q)
    minus = hellinger_distance(dist, -eps, q)
    gap_tol = plus.quad_detail.abs_error_estimate + minus.quad_detail.abs_error_estimate
    assert abs(plus.value - minus.value) <= gap_tol


# The example is 2.7 % off when the tail beyond 4 gamma is mapped at absolute
# scale 1 instead of in units of gamma.
@settings(max_examples=60, derandomize=True, deadline=None)
@given(alpha=ALPHAS, q=ORDERS, eps=st.floats(0.01, 3.0), log10_c=st.floats(-12.0, 12.0))
@example(alpha=0.6, q=4.0, eps=0.01, log10_c=-6.0)
def test_distance_is_unchanged_when_scale_and_shift_scale_together(alpha, q, eps, log10_c):
    # (gamma, eps) -> (c gamma, c eps) leaves D_q unchanged
    c = 10.0**log10_c
    base = hellinger_distance(ProbeDistribution.from_shape_scale(alpha, 1.0), eps, q)
    scaled = hellinger_distance(ProbeDistribution.from_shape_scale(alpha, c), c * eps, q)
    gap_tol = base.quad_detail.abs_error_estimate + scaled.quad_detail.abs_error_estimate
    assert abs(scaled.value - base.value) <= gap_tol


# The distance's budget gate: over a wide range of shapes, orders, scales and
# shifts (eps / gamma log-uniform up to 1e50) it converges within 10 000
# evaluations, or raises ConvergenceError, so a stall fails here instead of
# costing the suite seconds.
@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    alpha=st.floats(0.3, 20.0),
    q=st.floats(0.1, 4.0),
    log10_gamma=st.floats(-3.0, 3.0),
    log10_ratio=st.floats(-3.0, 50.0),
)
def test_distance_converges_within_a_small_budget(alpha, q, log10_gamma, log10_ratio):
    gamma = 10.0**log10_gamma
    dist = ProbeDistribution.from_shape_scale(alpha, gamma)
    budget = QuadratureSpec(max_evaluations=10_000)
    d = hellinger_distance(dist, gamma * 10.0**log10_ratio, q, budget)
    assert 0.0 < d.value <= 1.0 + d.quad_detail.abs_error_estimate


# Converged is not enough: within 10 000 evaluations each value must agree
# with its closed form.  The closed Fisher form needs alpha > 1/2 as well as
# the route's alpha > 1 - q; the width's power 1/(1-q) multiplies the
# integral's error near q = 1 (ROADMAP item 9), so |1 - q| >= 0.05.  The two
# examples are small-shape, small-order mean errors whose mass lies far
# beyond the split at 4 gamma: an unfolded real-line route read them 3.8 %
# and 4.1 % low.
@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    log10_alpha=st.floats(math.log10(0.3), math.log10(200.0)),
    log10_q=st.floats(math.log10(0.05), math.log10(20.0)),
    log10_gamma=st.floats(-3.0, 3.0),
)
@example(log10_alpha=math.log10(0.308), log10_q=math.log10(0.056), log10_gamma=math.log10(0.068))
@example(log10_alpha=math.log10(0.307), log10_q=math.log10(0.060), log10_gamma=math.log10(0.0035))
def test_moment_routes_match_closed_forms(log10_alpha, log10_q, log10_gamma):
    alpha, q = 10.0**log10_alpha, 10.0**log10_q
    dist = ProbeDistribution.from_shape_scale(alpha, 10.0**log10_gamma)
    budget = QuadratureSpec(max_evaluations=10_000)
    if alpha > max(1.0 - q, 0.5):
        assert fisher_quadrature(dist, q, budget).value == pytest.approx(
            fisher_closed(dist, q).value, rel=1e-8, abs=0.0
        )
    if abs(1.0 - q) >= 0.05:
        assert posterior_width_quadrature(dist, q, budget).value == pytest.approx(
            posterior_width_closed(dist, q).value, rel=1e-8, abs=0.0
        )
    assert mean_error_quadrature(dist, 0.0, q, budget).value == pytest.approx(
        mean_error_closed(dist, q).value, rel=1e-8, abs=0.0
    )


@settings(max_examples=40, derandomize=True, deadline=None)
@given(alpha=ALPHAS, q=ORDERS, gamma=SCALES, eps=st.floats(-3.0, 3.0))
def test_mean_error_moment_does_not_depend_on_the_shift(alpha, q, gamma, eps):
    dist = ProbeDistribution.from_shape_scale(alpha, gamma)
    centred = mean_error_quadrature(dist, 0.0, q)
    shifted = mean_error_quadrature(dist, eps, q)
    assert shifted.value.hex() == centred.value.hex()
    assert shifted.quad_detail == centred.quad_detail
