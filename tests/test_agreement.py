"""Agreement gate: no quadrature route returns a converged but wrong value.

Moments: on a fixed log-spaced grid over shape, order and scale, with seven
small shapes from 0.05 to 0.2 below it, each moment route either meets a
closed form that raises (``DomainError`` outside its domain,
``OverflowError`` beyond double range) or agrees with it to 1e-8.
A route that raises, or converges to another value, fails the gate; the
failing points are listed by (alpha, q, gamma).  The width is left out
where ``|1 - q| < 0.05``: its power ``1/(1-q)`` multiplies the integral's
relative error (ROADMAP item 9).

Distance: on a log-spaced grid over shape and reduced shift ``r = eps/gamma``
(at gamma = 1; the route reads the scale only through r), the distance
either raises (``DomainError``, ``OverflowError``, ``ConvergenceError``) or
agrees to 1e-8 with an mpmath reference at 40 digits: the regularized lower
incomplete gamma ``P(1/alpha, 2 (r/2)**alpha)`` at q = 1, and four
elementary forms at q = 1/2 and 1.  Failures are listed by (alpha, q, r).
Small shifts, where the distance is of order r, are where a tolerance that
does not scale with the value shows.

Large shapes: past alpha ~ 1023, ``alpha ln 2`` leaves exp's range, and
each copy's edge is a cliff about ``1/alpha`` wide.  The q = 1 distance at
alpha in {2000, 1e4, 1e6} agrees with ``P`` to 0.15 and to 1e-8, the
second only since both cliffs are bracketed (before, a residual of about
``-0.049/(alpha r)`` was left at the cliff ``s ~ 1``).

Neither grid is ever narrowed to pass.
"""

import functools
import math

import mpmath
import pytest

from genfisher.measures import (
    fisher_closed,
    fisher_quadrature,
    hellinger_distance,
    mean_error_closed,
    mean_error_quadrature,
    posterior_width_closed,
    posterior_width_quadrature,
    sensitivity_closed,
    sensitivity_quadrature,
)
from genfisher.numerics import ConvergenceError, DomainError
from genfisher.probe import ProbeDistribution


def _log_grid(lo, hi, n):
    step = (math.log(hi) - math.log(lo)) / (n - 1)
    return [math.exp(math.log(lo) + i * step) for i in range(n)]


ALPHAS = _log_grid(0.3, 200.0, 11)
# small shapes, where the moment kernel's tail reaches far past its mass scale
MOMENT_ALPHAS = (0.05, 0.08, 0.1, 0.12, 0.13, 0.15, 0.2, *ALPHAS)
ORDERS = _log_grid(1e-3, 1e3, 19)
SCALES = _log_grid(1e-3, 1e3, 7)
SHIFTS = _log_grid(1e-12, 1e50, 63)  # reduced shift eps/gamma of the distance
REL = 1e-8

# route -> (closed form, quadrature), each taking (probe, q)
ROUTES = {
    "fisher": (fisher_closed, fisher_quadrature),
    "eps_min": (sensitivity_closed, sensitivity_quadrature),
    "posterior_width": (posterior_width_closed, posterior_width_quadrature),
    "mean_error": (mean_error_closed, lambda d, q: mean_error_quadrature(d, 0.0, q)),
}


@pytest.mark.parametrize("route", list(ROUTES))
def test_route_agrees_with_its_closed_form(route):
    closed_form, quadrature = ROUTES[route]
    checked, failures = 0, []
    for alpha in MOMENT_ALPHAS:
        for gamma in SCALES:
            dist = ProbeDistribution.from_shape_scale(alpha, gamma)
            for q in ORDERS:
                if route == "posterior_width" and abs(1.0 - q) < 0.05:
                    continue
                try:
                    closed = closed_form(dist, q).value
                except (DomainError, OverflowError):
                    continue
                checked += 1
                point = f"alpha={alpha:.6g} q={q:.6g} gamma={gamma:.6g}"
                try:
                    value = quadrature(dist, q).value
                except (ArithmeticError, RuntimeError, ValueError) as exc:
                    failures.append(f"{point}: {type(exc).__name__}: {exc}")
                    continue
                if not abs(value / closed - 1.0) <= REL:
                    failures.append(f"{point}: {value!r} against closed {closed!r}")
    assert checked > 0
    assert failures == [], f"{len(failures)} of {checked} points:\n" + "\n".join(failures)


def _q1_distance(alpha, r):
    """``P(1/alpha, x)``, ``x = 2 (r/2)**alpha``; mpmath's lower integral is
    slow at large x, so there it is taken as one minus the upper one."""
    a, x = 1 / mpmath.mpf(alpha), 2 * (mpmath.mpf(r) / 2) ** alpha
    if x < 1:
        return mpmath.gammainc(a, 0, x, regularized=True)
    return 1 - mpmath.gammainc(a, x, mpmath.inf, regularized=True)


# (alpha, q) -> D_q at reduced shift r, where the distance is elementary
DISTANCE_FORMS = {
    (1.0, 0.5): lambda r: -mpmath.expm1(mpmath.log1p(r) - r),
    (2.0, 0.5): lambda r: -mpmath.expm1(-r * r / 2),
    (1.0, 1.0): lambda r: -mpmath.expm1(-r),
    (2.0, 1.0): lambda r: mpmath.erf(r / mpmath.sqrt(2)),
}
DISTANCE_POINTS = [
    (alpha, 1.0, lambda r, alpha=alpha: _q1_distance(alpha, r)) for alpha in ALPHAS
] + [(alpha, q, form) for (alpha, q), form in DISTANCE_FORMS.items()]


def test_distance_agrees_with_its_reference():
    checked, failures = 0, []
    for alpha, q, reference in DISTANCE_POINTS:
        dist = ProbeDistribution.from_shape_scale(alpha, 1.0)
        for r in SHIFTS:
            point = f"alpha={alpha:.6g} q={q:g} r={r:.6g}"
            try:
                value = hellinger_distance(dist, r, q).value
            except (DomainError, OverflowError, ConvergenceError):
                continue
            except (ArithmeticError, RuntimeError, ValueError) as exc:
                failures.append(f"{point}: {type(exc).__name__}: {exc}")
                continue
            checked += 1
            with mpmath.workdps(40):
                expected = float(reference(mpmath.mpf(r)))
            if not abs(value / expected - 1.0) <= REL:
                failures.append(f"{point}: {value!r} against reference {expected!r}")
    assert checked > 0
    assert failures == [], f"{len(failures)} of {checked} points:\n" + "\n".join(failures)


LARGE_ALPHAS = (2000.0, 1e4, 1e6)
# at alpha = 2000 and r = 0.3 the nearer copy's power is subnormal where the
# farther one's edge sits, and its ratio's power overflows
LARGE_SHIFTS = (1e-4, 1e-2, 0.1, 0.3, 1.0)


@functools.cache
def _large_shape_errors():
    """(alpha, r) -> relative error of the q = 1 distance against ``P``."""
    errors = {}
    for alpha in LARGE_ALPHAS:
        dist = ProbeDistribution.from_shape_scale(alpha, 1.0)
        for r in LARGE_SHIFTS:
            value = hellinger_distance(dist, r, 1.0).value
            with mpmath.workdps(40):
                expected = float(_q1_distance(alpha, mpmath.mpf(r)))
            errors[alpha, r] = value / expected - 1.0
    return errors


@pytest.mark.parametrize("bound", [0.15, REL])
def test_distance_at_large_shapes(bound):
    failures = {point: e for point, e in _large_shape_errors().items() if not abs(e) <= bound}
    assert failures == {}
