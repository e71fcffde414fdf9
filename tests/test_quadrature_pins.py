"""Pinned quadrature results: every route evaluates the same integrand at the
same points as when these numbers were recorded.

Each row fixes, for one (alpha, q[, eps]) point of one quadrature route, the
reported value and ``quad_detail.value`` bit for bit (``float.hex``) and the
number of integrand evaluations exactly.  A change to split points, integrand
arithmetic, the mass scale, the first-panel power map, folding, the
distance's crossing map, the log-space scale or the route's root and scale
moves at least one of them.  Probes are
energy-normalized at E = 1.
"""

import pytest

from genfisher import measures
from genfisher.probe import ProbeDistribution

# (route, alpha, q, eps, value hex, quad_detail.value hex, evaluations)
PINS = [
    ("distance", 2.0, 0.5, 0.1, "0x1.46dcb6c16ba7ap-8", "0x1.46dcb6c16ba7ap-8", 240),
    ("distance", 0.8, 0.25, 0.7, "0x1.1a56b0627a65ep-9", "0x1.1a56b0627a65ep-9", 600),
    # q > 1: the crossing's piece is integrated under its power map; at
    # alpha = 5 the integrand is exactly 0 past 4, so there is no tail piece
    ("distance", 5.0, 2.0, 0.5, "0x1.8184ff6832708p-2", "0x1.8184ff6832708p-2", 210),
    ("fisher", 2.0, 0.5, None, "0x1.0000000000298p+2", "0x1.0000000000298p+2", 210),
    ("fisher", 1.5, 0.25, None, "0x1.b2b94e4481e44p+4", "0x1.b2b94e4481e44p+4", 180),
    ("fisher", 0.8, 2.0, None, "0x1.5cd6df642f9adp+0", "0x1.5cd6df642f9adp+0", 180),
    ("eps_min", 2.0, 2.0, None, "0x1.7ab5ddc6335a2p-1", "0x1.29a91ba90e50fp+0", 360),
    ("eps_min", 1.0, 0.25, None, "0x1.0000000000004p-1", "0x1.fffffffffffe3p+3", 180),
    ("width", 2.0, 2.0, None, "0x1.c5bf891b4ef87p+0", "0x1.20dd750429b5bp-1", 180),
    ("width", 0.8, 0.25, None, "0x1.53ed53bcb09a4p+3", "0x1.789460d6b2dd0p+2", 180),
    ("width", 5.0, 0.5, None, "0x1.5d3f3495fc50ap+1", "0x1.a6dd51d86f3fdp+0", 150),
    ("mean_error", 1.5, 0.25, 0.7, "0x1.7534c9eb80104p-1", "0x1.21140d98a3140p-2", 150),
    ("mean_error", 2.0, 2.0, 0.0, "0x1.5a19d1e3cb699p-2", "0x1.29a91ba90e50dp-1", 360),
    ("mean_error", 0.8, 0.5, -2.0, "0x1.07038dc53ee00p+0", "0x1.0e384d57e8529p+0", 180),
    # orders whose reciprocal is inexact: eps_min's root -1/q and the mean
    # error's 1/q round, so these rows fix the last bit of the map itself
    ("eps_min", 1.5, 0.3, None, "0x1.d209f14612c89p-2", "0x1.b94f1b90ea162p+3", 210),
    ("eps_min", 1.5, 3.0, None, "0x1.323175775f2b2p-1", "0x1.2fda973daa8b4p+0", 360),
    ("eps_min", 2.0, 0.3, None, "0x1.a3c6dbe20b021p-2", "0x1.38a665dcdc0cep+4", 180),
    ("eps_min", 2.0, 3.0, None, "0x1.95f50e4f797f3p-1", "0x1.14970c1559107p+0", 330),
    ("width", 1.5, 0.3, None, "0x1.bb09236e2720ap+1", "0x1.314298596de30p+1", 330),
    ("width", 1.5, 3.0, None, "0x1.9600ccd22d439p+0", "0x1.971e68359ff45p-2", 330),
    ("width", 2.0, 0.3, None, "0x1.7b19cf7a2fb05p+1", "0x1.11b5dcc555890p+1", 180),
    ("width", 2.0, 3.0, None, "0x1.a642a0d406118p+0", "0x1.785fb53dcdc01p-2", 180),
    ("mean_error", 1.5, 0.3, 0.0, "0x1.542c344a06b5ep-1", "0x1.060ef65353081p-2", 150),
    ("mean_error", 1.5, 3.0, 0.0, "0x1.3a72b8c946b94p-2", "0x1.596ca3e99380bp-1", 360),
    ("mean_error", 2.0, 0.3, 0.0, "0x1.383dfc40ddb73p-1", "0x1.89ea0ff3ec1b8p-3", 180),
    ("mean_error", 2.0, 3.0, 0.0, "0x1.42df16685f537p-2", "0x1.5c7b4a0c3ae68p-1", 330),
    ("mean_energy", 0.8, None, None, "0x1.0000000000208p+0", None, 360),
    ("mean_energy", 2.0, None, None, "0x1.0000000000298p+0", None, 210),
    ("mean_energy", 5.0, None, None, "0x1.000000000007dp+0", None, 210),
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
