"""Agreement gate: no moment route returns a converged but wrong value.

On a fixed log-spaced grid over shape, order and scale, each quadrature
route either meets a closed form that raises (``DomainError`` outside its
domain, ``OverflowError`` beyond double range) or agrees with it to 1e-8.
A route that raises, or converges to another value, fails the gate; the
failing points are listed by (alpha, q, gamma).  The width is left out
where ``|1 - q| < 0.05``: its power ``1/(1-q)`` multiplies the integral's
relative error (ROADMAP item 9).  The grid is fixed, never narrowed to
pass.
"""

import math

import pytest

from genfisher.measures import (
    fisher_closed,
    fisher_quadrature,
    mean_error_closed,
    mean_error_quadrature,
    posterior_width_closed,
    posterior_width_quadrature,
    sensitivity_closed,
    sensitivity_quadrature,
)
from genfisher.numerics import DomainError
from genfisher.probe import ProbeDistribution


def _log_grid(lo, hi, n):
    step = (math.log(hi) - math.log(lo)) / (n - 1)
    return [math.exp(math.log(lo) + i * step) for i in range(n)]


ALPHAS = _log_grid(0.3, 200.0, 11)
ORDERS = _log_grid(1e-3, 1e3, 19)
SCALES = _log_grid(1e-3, 1e3, 7)
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
    for alpha in ALPHAS:
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
