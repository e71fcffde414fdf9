"""Closed forms against mpmath quadrature at 30 digits.

These oracles share no code with the in-house Gauss-Kronrod engine: each
integral is taken by ``mpmath.quad`` (tanh-sinh) on the substituted variable
``u = x / gamma``, and the density's normalization is itself integrated, not
taken from the gamma-function constant.  Only ``alpha`` and ``gamma`` come
from the probe.
"""

import pytest

from genfisher.measures import fisher_closed, mean_error_closed, posterior_width_closed
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
    closed = {
        "fisher": fisher_closed(dist, q).value,
        "posterior_width": posterior_width_closed(dist, q).value,
        "mean_error": mean_error_closed(dist, q).value,
    }
    oracle = {"fisher": fisher, "posterior_width": width, "mean_error": error}
    for name, value in closed.items():
        assert abs(value / float(oracle[name]) - 1.0) <= REL, name
