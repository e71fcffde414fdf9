"""Pinned quadrature results: every route evaluates the same integrand at the
same points as when these numbers were recorded.

Each row fixes, for one (alpha, q[, eps]) point of one quadrature route, the
reported value and ``quad_detail.value`` bit for bit (``float.hex``) and the
number of integrand evaluations exactly.  A change to split points, integrand
arithmetic, the mass scale, the first-panel power map, folding, the log-space
scale or the route's root and scale moves at least one of them.  Probes are
energy-normalized at E = 1.
"""

import pytest

from genfisher import measures
from genfisher.probe import ProbeDistribution

# (route, alpha, q, eps, value hex, quad_detail.value hex, evaluations)
PINS = [
    ("distance", 2.0, 0.5, 0.1, "0x1.46dcb6c16ba7ap-8", "0x1.46dcb6c16ba7ap-8", 480),
    ("distance", 0.8, 0.25, 0.7, "0x1.1a56b0627a65ep-9", "0x1.1a56b0627a65ep-9", 780),
    ("distance", 5.0, 2.0, 0.5, "0x1.8184ff6832cb1p-2", "0x1.8184ff6832cb1p-2", 810),
    ("fisher", 2.0, 0.5, None, "0x1.fffffffffffe4p+1", "0x1.fffffffffffe4p+1", 270),
    ("fisher", 1.5, 0.25, None, "0x1.b2b94e4481e36p+4", "0x1.b2b94e4481e36p+4", 270),
    ("fisher", 0.8, 2.0, None, "0x1.5cd6df642e291p+0", "0x1.5cd6df642e291p+0", 480),
    ("eps_min", 2.0, 2.0, None, "0x1.7ab5ddc633bcfp-1", "0x1.29a91ba90e2a1p+0", 270),
    ("eps_min", 1.0, 0.25, None, "0x1.0000000000004p-1", "0x1.fffffffffffe3p+3", 270),
    ("width", 2.0, 2.0, None, "0x1.c5bf891b4ef85p+0", "0x1.20dd750429b5cp-1", 270),
    ("width", 0.8, 0.25, None, "0x1.53ed53bcae4e0p+3", "0x1.789460d6b0f45p+2", 540),
    ("width", 5.0, 0.5, None, "0x1.5d3f3495fc50bp+1", "0x1.a6dd51d86f3fep+0", 240),
    ("mean_error", 1.5, 0.25, 0.7, "0x1.7534c9eb800f6p-1", "0x1.21140d98a3115p-2", 240),
    ("mean_error", 2.0, 2.0, 0.0, "0x1.5a19d1e3cb0f4p-2", "0x1.29a91ba90e2a0p-1", 270),
    ("mean_error", 0.8, 0.5, -2.0, "0x1.07038dc53ef4ep+0", "0x1.0e384d57e87d7p+0", 270),
    # orders whose reciprocal is inexact: eps_min's root -1/q and the mean
    # error's 1/q round, so these rows fix the last bit of the map itself
    ("eps_min", 1.5, 0.3, None, "0x1.d209f14612cd0p-2", "0x1.b94f1b90ea085p+3", 270),
    ("eps_min", 1.5, 3.0, None, "0x1.323175775fea7p-1", "0x1.2fda973daa4bfp+0", 270),
    ("eps_min", 2.0, 0.3, None, "0x1.a3c6dbe20af2bp-2", "0x1.38a665dcdc330p+4", 270),
    ("eps_min", 2.0, 3.0, None, "0x1.95f50e4f7a084p-1", "0x1.14970c1558f15p+0", 270),
    ("width", 1.5, 0.3, None, "0x1.bb09236e2720ep+1", "0x1.314298596de31p+1", 390),
    ("width", 1.5, 3.0, None, "0x1.9600ccd22d439p+0", "0x1.971e68359ff47p-2", 390),
    ("width", 2.0, 0.3, None, "0x1.7b19cf7a2fb07p+1", "0x1.11b5dcc555891p+1", 270),
    ("width", 2.0, 3.0, None, "0x1.a642a0d406117p+0", "0x1.785fb53dcdc04p-2", 270),
    ("mean_error", 1.5, 0.3, 0.0, "0x1.542c344a06c53p-1", "0x1.060ef653532f7p-2", 240),
    ("mean_error", 1.5, 3.0, 0.0, "0x1.3a72b8c9442e2p-2", "0x1.596ca3e992925p-1", 270),
    ("mean_error", 2.0, 0.3, 0.0, "0x1.383dfc40ddc2ap-1", "0x1.89ea0ff3ec4b9p-3", 270),
    ("mean_error", 2.0, 3.0, 0.0, "0x1.42df16685ee67p-2", "0x1.5c7b4a0c3abf5p-1", 270),
    ("mean_energy", 0.8, None, None, "0x1.0000000000208p+0", None, 420),
    ("mean_energy", 2.0, None, None, "0x1.fffffffffffe4p-1", None, 270),
    ("mean_energy", 5.0, None, None, "0x1.fffffffffffe6p-1", None, 270),
]

ROUTES = {
    "distance": lambda d, q, eps: measures.hellinger_distance(d, eps, q),
    "fisher": lambda d, q, eps: measures.fisher_quadrature(d, q),
    "eps_min": lambda d, q, eps: measures.sensitivity_quadrature(d, q),
    "width": lambda d, q, eps: measures.posterior_width_quadrature(d, q),
    "mean_error": lambda d, q, eps: measures.mean_error_quadrature(d, eps, q),
}


def pin_id(route, alpha, q, eps, *pinned):
    """A row's route and point, not its pinned values, so a re-recorded row
    keeps its test id."""
    return "-".join(str(v) for v in (route, alpha, q, eps) if v is not None)


@pytest.mark.parametrize(
    "route,alpha,q,eps,value_hex,detail_hex,evals", PINS, ids=[pin_id(*row) for row in PINS]
)
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
