"""Closed forms and the quadrature routes against mpmath at 30 digits, the
distance at 50.

These oracles share no code with the in-house Gauss-Kronrod engine: each
integral is taken by ``mpmath.quad`` (tanh-sinh), the moments on the
substituted variable ``u = x / gamma`` and the distance on ``x`` itself, and
the density's normalization is itself integrated, not taken from the
gamma-function constant.  Only ``alpha`` and ``gamma`` come from the probe.
The Fisher, width and mean-error quadrature routes are checked at E = 1 and
at the edges of double range, E = 1e-300 and 1e300; the distance at E = 1
and, at its first four points, at E = 1e12.
"""

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
from genfisher.probe import ProbeDistribution

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

# (alpha, q); (0.76, 1/4) is the Fisher hot point of the default sweep, where
# the score factor u**((alpha - 1)/q) = u**-0.96 is nearly non-integrable.
POINTS = [(0.76, 0.25), (2.0, 0.5), (1.5, 2.0), (5.0, 0.25), (0.9, 4.0)]
REL = 1e-13


def _half_line(f):
    """Integral of ``f`` over [0, inf), split where exp(-2 u**alpha) turns."""
    return mp.quad(f, [0, 1, 2, mp.inf])


def _oracles(alpha, q, gamma):
    """(F_q, posterior width, mean error) of P(x) = C exp(-2 |x/gamma|**alpha)."""
    a, q, g = mp.mpf(alpha), mp.mpf(q), mp.mpf(gamma)
    # P(gamma u) = C exp(-2 u**a), and 2 C gamma * int_0^inf exp(-2 u**a) du = 1
    norm = 1 / (2 * g * _half_line(lambda u: mp.exp(-2 * u**a)))
    # F_q = 2 C gamma (2a/gamma)**(1/q) int_0^inf u**p exp(-2 u**a) du with
    # p = (a - 1)/q; u = s**m, m = 1/(p + 1), makes the integrand exp(-2 s**(m a)),
    # free of the singular power at the origin.
    m = 1 / ((a - 1) / q + 1)
    fisher = (
        2 * norm * g * (2 * a / g) ** (1 / q)
        * m * _half_line(lambda s: mp.exp(-2 * s ** (m * a)))
    )
    renyi = 2 * norm**q * g * _half_line(lambda u: mp.exp(-2 * q * u**a))
    width = renyi ** (1 / (1 - q))
    moment = 2 * norm * g ** (1 + 1 / q) * _half_line(lambda u: u ** (1 / q) * mp.exp(-2 * u**a))
    return fisher, width, moment**q


@pytest.mark.parametrize("alpha, q", POINTS)
def test_closed_forms_match_mpmath(alpha, q):
    dist = ProbeDistribution.from_shape_energy(alpha, 1.0)
    with mp.workdps(30):
        fisher, width, error = _oracles(alpha, q, dist.gamma_scale)
        oracle = {
            "fisher": fisher,
            "eps_min": fisher ** -mp.mpf(q),
            "posterior_width": width,
            "mean_error": error,
        }
    closed = {
        "fisher": fisher_closed(dist, q).value,
        "eps_min": sensitivity_closed(dist, q).value,
        "posterior_width": posterior_width_closed(dist, q).value,
        "mean_error": mean_error_closed(dist, q).value,
    }
    for name, value in closed.items():
        assert abs(value / float(oracle[name]) - 1.0) <= REL, name


ROUTE_REL = 1e-9


@pytest.mark.parametrize("energy", [1.0, 1e-300, 1e300])
@pytest.mark.parametrize("alpha, q", POINTS)
def test_quadrature_routes_match_mpmath(alpha, q, energy):
    # F_q itself leaves double range at the edge energies for q < 1, so the
    # Fisher route is checked there through eps_min = F_q**(-q)
    dist = ProbeDistribution.from_shape_energy(alpha, energy)
    with mp.workdps(30):
        fisher, width, error = _oracles(alpha, q, dist.gamma_scale)
        oracle = {
            "fisher": fisher,
            "eps_min": fisher ** -mp.mpf(q),
            "posterior_width": width,
            "mean_error": error,
        }
        fisher_in_range = mp.mpf("1e-300") < fisher < mp.mpf("1e300")
    quadrature = {
        "eps_min": sensitivity_quadrature(dist, q).value,
        "posterior_width": posterior_width_quadrature(dist, q).value,
        "mean_error": mean_error_quadrature(dist, 0.0, q).value,
    }
    if fisher_in_range:
        quadrature["fisher"] = fisher_quadrature(dist, q).value
    assert energy != 1.0 or "fisher" in quadrature
    for name, value in quadrature.items():
        assert abs(value / float(oracle[name]) - 1.0) <= ROUTE_REL, name



def _at_reduced_shift(alpha, q, r):
    """(alpha, q, eps) for the reduced shift ``r = eps / gamma`` at E = 1."""
    return alpha, q, r * ProbeDistribution.from_shape_energy(alpha, 1.0).gamma_scale


# (alpha, q, eps) for the distance, either sign of the shift; the next four
# are large shapes and orders, where the two log densities differ by less than
# their own rounding near each bump's centre.  The last nine, at q > 1, put
# the crossing r/2 where the distance maps its singular piece [b, r/2):
# below 1 (b = 0), in (1, 4) (b = 1, one at non-integer q), on each side
# of the guard r/2 < 4, beyond which nothing is mapped, and at an order
# above the map's capped power 4, where a power ceil(q) crowded the whole
# piece next to b, between the Gauss-Kronrod nodes, and the piece read 0.
DISTANCE_POINTS = [
    (2.0, 0.5, 0.1), (0.8, 0.25, 0.7), (5.0, 2.0, 0.5), (1.0, 4.0, -0.3),
    (10.0, 4.0, 0.01), (20.0, 4.0, 0.01), (20.0, 4.0, 0.1), (17.009, 2.962, 0.01),
] + [
    _at_reduced_shift(*point)
    for point in [
        (0.6, 3.0, 0.4), (20.0, 4.0, 1.2),
        (2.0, 2.0, 3.0), (1.0, 1.5, 2.5), (0.8, 10.0, 3.0),
        (2.0, 2.0, 7.9), (2.0, 2.0, 8.5),
        (2.0, 1e5, 3.0), (2.0, 1e5, 0.7),
    ]
]
DISTANCE_REL = 1e-9


def _distance_oracle(alpha, q, eps, gamma):
    """D_q = (1/2) int |P^q(x - eps) - P^q(x)|**(1/q) dx on the real line."""
    a, q, e, g = mp.mpf(alpha), mp.mpf(q), mp.mpf(eps), mp.mpf(gamma)
    norm = 1 / (2 * g * _half_line(lambda u: mp.exp(-2 * u**a)))

    def p_q(x):
        return norm**q * mp.exp(-2 * q * abs(x / g) ** a)

    # cusps at 0 and eps, the crossing at eps/2, and the bulk 2 gamma beyond
    lo, hi = min(0, e), max(0, e)
    points = [-mp.inf, lo - 2 * g, lo, e / 2, hi, hi + 2 * g, mp.inf]
    return mp.quad(lambda x: abs(p_q(x - e) - p_q(x)) ** (1 / q), points) / 2


def _distance_case(alpha, q, eps, energy):
    suffix = "" if energy == 1.0 else f"-E{energy:g}"
    return pytest.param(alpha, q, eps, energy, id=f"{alpha}-{q}-{eps:.6g}{suffix}")


# At E = 1e12 the scale is near 1e-6, so the first four shifts lie 1e5 to 1e6
# widths apart and D is within 3e-10 of 1.  A tail beyond 4 gamma mapped at
# unit scale instead of in units of gamma read (0.8, 1/4, 0.7) 4.2e-3 low.
DISTANCE_CASES = [_distance_case(*point, 1.0) for point in DISTANCE_POINTS] + [
    _distance_case(*point, 1e12) for point in DISTANCE_POINTS[:4]
]


@pytest.mark.parametrize("alpha, q, eps, energy", DISTANCE_CASES)
def test_distance_matches_mpmath(alpha, q, eps, energy):
    dist = ProbeDistribution.from_shape_energy(alpha, energy)
    with mp.workdps(50):
        oracle = _distance_oracle(alpha, q, eps, dist.gamma_scale)
    value = hellinger_distance(dist, eps, q).value
    assert abs(value / float(oracle) - 1.0) <= DISTANCE_REL
