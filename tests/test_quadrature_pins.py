"""Pinned quadrature results: every route evaluates the same integrand at the
same points as when these numbers were recorded.

Each row fixes, for one (alpha, q[, eps]) point of one quadrature route, the
reported value and ``quad_detail.value`` bit for bit (``float.hex``) and the
number of integrand evaluations exactly.  A change to split points, integrand
arithmetic, the first-panel power map, folding, the log-space scale or the
final power moves at least one of them.  Probes are
energy-normalized at E = 1.
"""

import pytest

from genfisher import measures
from genfisher.probe import ProbeDistribution

# (route, alpha, q, eps, value hex, quad_detail.value hex, evaluations)
PINS = [
    ("distance", 2.0, 0.5, 0.1, "0x1.46dcb6c16ba77p-8", "0x1.46dcb6c16ba77p-8", 480),
    ("distance", 0.8, 0.25, 0.7, "0x1.1a56b0625dc3bp-9", "0x1.1a56b0625dc3bp-9", 690),
    ("distance", 5.0, 2.0, 0.5, "0x1.8184ff6832cafp-2", "0x1.8184ff6832cafp-2", 810),
    ("fisher", 2.0, 0.5, None, "0x1.fffffffffffe4p+1", "0x1.fffffffffffe4p+1", 360),
    ("fisher", 1.5, 0.25, None, "0x1.b2b94e4481e14p+4", "0x1.b2b94e4481e14p+4", 360),
    ("fisher", 0.8, 2.0, None, "0x1.5cd6df642dfd4p+0", "0x1.5cd6df642dfd4p+0", 600),
    ("eps_min", 2.0, 2.0, None, "0x1.7ab5ddc633bdap-1", "0x1.29a91ba90e29dp+0", 360),
    ("eps_min", 1.0, 0.25, None, "0x1.0000000000004p-1", "0x1.fffffffffffe3p+3", 360),
    ("width", 2.0, 2.0, None, "0x1.c5bf891b4ef87p+0", "0x1.20dd750429b5bp-1", 360),
    ("width", 0.8, 0.25, None, "0x1.53ed53bcad724p+3", "0x1.789460d6b03dap+2", 660),
    ("width", 5.0, 0.5, None, "0x1.5d3f3495fc534p+1", "0x1.a6dd51d86f417p+0", 360),
    ("mean_error", 1.5, 0.25, 0.7, "0x1.7534c9eb800f5p-1", "0x1.21140d98a3114p-2", 720),
    ("mean_error", 2.0, 2.0, 0.0, "0x1.5a19d1e3cb0eap-2", "0x1.29a91ba90e29cp-1", 720),
    ("mean_error", 0.8, 0.5, -2.0, "0x1.07038dc53ee6dp+0", "0x1.0e384d57e860ap+0", 780),
    ("mean_energy", 0.8, None, None, "0x1.00000000006f6p+0", None, 510),
    ("mean_energy", 2.0, None, None, "0x1.fffffffffffe4p-1", None, 360),
    ("mean_energy", 5.0, None, None, "0x1.fffffffffffe6p-1", None, 420),
]

ROUTES = {
    "distance": lambda d, q, eps: measures.hellinger_distance(d, eps, q),
    "fisher": lambda d, q, eps: measures.fisher_quadrature(d, q),
    "eps_min": lambda d, q, eps: measures.sensitivity_quadrature(d, q),
    "width": lambda d, q, eps: measures.posterior_width_quadrature(d, q),
    "mean_error": lambda d, q, eps: measures.mean_error_quadrature(d, eps, q),
}


@pytest.mark.parametrize("route,alpha,q,eps,value_hex,detail_hex,evals", PINS)
def test_route_is_pinned(evaluations, route, alpha, q, eps, value_hex, detail_hex, evals):
    dist = ProbeDistribution.from_shape_energy(alpha, 1.0)
    if route == "mean_energy":
        value = dist.mean_energy_quadrature()
    else:
        measure = ROUTES[route](dist, q, eps)
        value = measure.value
        assert measure.quad_detail.value.hex() == detail_hex
        assert measure.quad_detail.evaluations == evals
    assert value.hex() == value_hex
    assert evaluations == [evals]
