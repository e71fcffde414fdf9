"""Agreement gate: no quadrature route returns a converged but wrong value.

Moments: on a fixed log-spaced grid over shape, order and scale, with seven
small shapes from 0.05 to 0.2 below it, each moment route either meets a
closed form that raises (``DomainError`` outside its domain,
``OverflowError`` beyond double range) or agrees with it to 1e-8.
A route that raises, or converges to another value, fails the gate; the
failing points are listed by (alpha, q, gamma).  The width is left out
where ``|1 - q| < 0.05``: its power ``1/(1-q)`` multiplies the integral's
relative error (ROADMAP item 9).  At shapes from 300 to 1e8 (gamma = 1)
the same check misses no cell.

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
``-0.049/(alpha r)`` was left at the cliff ``s ~ 1``); so does it from
alpha = 300 on, where the brackets start, and at alpha = 1000 from
overlapping copies to disjoint ones, to 1e-12.  At q > 1 the disjoint
copies' distance is 1 to 1e-12, which needs the near copy's bracket under
the crossing map, and at small shifts the distance sees each cliff's foot,
which is q times wider than the cliff.

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
from genfisher.numerics import ConvergenceError, DomainError, QuadratureSpec
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


def _route_misses(route, alphas, scales):
    """The number of points checked and ``{(alpha, gamma, i): message}``
    for each point where the route misses its closed form, ``i`` indexing
    ``ORDERS``."""
    closed_form, quadrature = ROUTES[route]
    checked, misses = 0, {}
    for alpha in alphas:
        for gamma in scales:
            dist = ProbeDistribution.from_shape_scale(alpha, gamma)
            for i, q in enumerate(ORDERS):
                if route == "posterior_width" and abs(1.0 - q) < 0.05:
                    continue
                try:
                    closed = closed_form(dist, q).value
                except (DomainError, OverflowError):
                    continue
                checked += 1
                try:
                    value = quadrature(dist, q).value
                except (ArithmeticError, RuntimeError, ValueError) as exc:
                    misses[alpha, gamma, i] = f"{type(exc).__name__}: {exc}"
                    continue
                if not abs(value / closed - 1.0) <= REL:
                    misses[alpha, gamma, i] = f"{value!r} against closed {closed!r}"
    return checked, misses


@pytest.mark.parametrize("route", list(ROUTES))
def test_route_agrees_with_its_closed_form(route):
    checked, misses = _route_misses(route, MOMENT_ALPHAS, SCALES)
    assert checked > 0
    assert misses == {}, f"{len(misses)} of {checked} points:\n" + "\n".join(
        f"alpha={alpha:.6g} q={ORDERS[i]:.6g} gamma={gamma:.6g}: {message}"
        for (alpha, gamma, i), message in misses.items()
    )


LARGE_MOMENT_ALPHAS = (300.0, 1e3, 3e3, 1e4, 1e5, 1e6, 1e7, 1e8)


def test_moment_routes_agree_at_large_shapes():
    """The box-like regime: each moment kernel's cliff, about 1/alpha wide
    in ``t``, is taken in ``u = t**alpha``, where it does not exist."""
    checked, missed = 0, {}
    for route in ROUTES:
        n, misses = _route_misses(route, LARGE_MOMENT_ALPHAS, (1.0,))
        checked += n
        missed |= {(route, alpha, ORDERS[i]): m for (alpha, _, i), m in misses.items()}
    assert checked == 545
    assert missed == {}


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
# alpha = 1000 lies just below the cliffs where alpha ln 2 leaves exp's
# range, from overlapping copies to disjoint ones.  From alpha = 300 on the
# cliffs are bracketed; at alpha = 700 four seed panels without the brackets
# read 3.7e-5 ... 2.3e-4 off, and without the far copy's bracket at s = r - 1
# (1 < r < 2) alpha = 383, r = 1.9 reads 1.9e-9 off, which only the bound
# 1e-12 sees
LARGE_POINTS = (
    [(alpha, r) for alpha in LARGE_ALPHAS for r in LARGE_SHIFTS]
    + [(1000.0, r) for r in (1.0, 1.9, 10.0)]
    + [(alpha, r) for alpha in (300.0, 500.0, 700.0) for r in (0.01, 0.3, 1.0, 1.5, 1.9, 10.0)]
    + [(383.0, 1.9)]
)


@functools.cache
def _large_shape_errors():
    """(alpha, r) -> relative error of the q = 1 distance against ``P``."""
    errors = {}
    for alpha, r in LARGE_POINTS:
        dist = ProbeDistribution.from_shape_scale(alpha, 1.0)
        value = hellinger_distance(dist, r, 1.0).value
        with mpmath.workdps(40):
            expected = float(_q1_distance(alpha, mpmath.mpf(r)))
        errors[alpha, r] = value / expected - 1.0
    return errors


@pytest.mark.parametrize("bound", [0.15, REL, 1e-12])
def test_distance_at_large_shapes(bound):
    failures = {point: e for point, e in _large_shape_errors().items() if not abs(e) <= bound}
    assert failures == {}


# Disjoint copies at q > 1: for 2 < r < 8 the crossing r/2 lies in (1, 4),
# and the near copy's edge s = 1 starts the crossing map's piece, whose
# boundary layer holds mass E1(2)/alpha.  Its bracket at 1 + 40q/alpha is
# taken into the map's variable; dropped, the distance read 2.45e-5 low at
# alpha = 2000 and 1.27e-6 above 1 at alpha = 1e6.
@pytest.mark.parametrize("q", [1.5, 2.0, 4.0])
@pytest.mark.parametrize("alpha", LARGE_ALPHAS)
def test_disjoint_copies_above_order_one_are_one_apart(alpha, q):
    dist = ProbeDistribution.from_shape_scale(alpha, 1.0)
    errors = {r: hellinger_distance(dist, r, q).value - 1.0 for r in (2.5, 3.0, 5.0)}
    assert {r: e for r, e in errors.items() if not abs(e) <= 1e-12} == {}


# Above order one each cliff's inner foot is the q-th root of the density
# ratio, ``s**(alpha/q)``: q times wider than the cliff, so the route's
# brackets sit ``40 q/alpha`` out.  At +-40/alpha the foot beyond them read
# 4.6e-3 low at alpha = 4.2e5, q = 10, r = 1e-4, against mpmath.  The
# reference is the same integrand under caller splits every ``2q/alpha``
# across both cliffs, from 60 foot widths inside to 10 outside (each above
# the crossing, so in ``s`` itself), and a 1e-11 tolerance.
@pytest.mark.parametrize("q", [2.0, 4.0, 10.0])
@pytest.mark.parametrize("alpha", [6.5e4, 4e5])
def test_distance_above_order_one_sees_the_cliffs_feet(alpha, q):
    dist = ProbeDistribution.from_shape_scale(alpha, 1.0)
    errors = {}
    for r in (1e-4, 0.01, 0.1):
        dense = [c + 2.0 * k * q / alpha for c in (1.0, 1.0 - r) for k in range(-30, 6)]
        spec = QuadratureSpec(rel_tol=1e-11, split_points=dense)
        expected = hellinger_distance(dist, r, q, spec).value
        errors[r] = hellinger_distance(dist, r, q).value / expected - 1.0
    assert {r: e for r, e in errors.items() if not abs(e) <= REL} == {}
