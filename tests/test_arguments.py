"""Invalid arguments raise DomainError, and nothing else, from every entry.

Each rule lives with the object it guards: the order and the shift in
``measures`` (``TrialPlan`` calls the same checks), the relative tolerance
in ``QuadratureSpec``.  The table calls every public measure function,
``TrialPlan`` and ``QuadratureSpec`` with each invalid value and valid
values elsewhere.
"""

import inspect
import math

import pytest

from genfisher import measures
from genfisher.estimation import TrialPlan
from genfisher.numerics import DomainError, QuadratureSpec
from genfisher.probe import ProbeDistribution

GAUSS = ProbeDistribution.from_shape_scale(2.0, 1.0)

# entry -> call at order q and shift eps
CALLS = {
    "hellinger_distance": lambda q, eps: measures.hellinger_distance(GAUSS, eps, q),
    "hellinger_linearized": lambda q, eps: measures.hellinger_linearized(GAUSS, eps, q),
    "fisher_quadrature": lambda q, eps: measures.fisher_quadrature(GAUSS, q),
    "fisher_closed": lambda q, eps: measures.fisher_closed(GAUSS, q),
    "sensitivity_closed": lambda q, eps: measures.sensitivity_closed(GAUSS, q),
    "sensitivity_quadrature": lambda q, eps: measures.sensitivity_quadrature(GAUSS, q),
    "posterior_width_closed": lambda q, eps: measures.posterior_width_closed(GAUSS, q),
    "posterior_width_quadrature": lambda q, eps: measures.posterior_width_quadrature(GAUSS, q),
    "mean_error_closed": lambda q, eps: measures.mean_error_closed(GAUSS, q),
    "mean_error_quadrature": lambda q, eps: measures.mean_error_quadrature(GAUSS, eps, q),
    "triangle_probe": lambda q, eps: measures.triangle_probe(GAUSS, q, (0.0, 0.5, eps)),
    "fisher_gamma_argument": lambda q, eps: measures.fisher_gamma_argument(2.0, q),
    "TrialPlan": lambda q, eps: TrialPlan(GAUSS, eps, q, 100, 0),
}
TAKES_SHIFT = ("hellinger_distance", "hellinger_linearized", "mean_error_quadrature",
               "triangle_probe", "TrialPlan")
BAD_ORDERS = (0.0, -0.0, -1.0, math.nan, math.inf, -math.inf)
BAD_SHIFTS = (math.nan, math.inf, -math.inf)


def test_table_names_every_public_measure_function():
    functions = {
        name for name in measures.__all__ if inspect.isfunction(getattr(measures, name))
    }
    assert functions == set(CALLS) - {"TrialPlan"}


@pytest.mark.parametrize("q", BAD_ORDERS, ids=repr)
@pytest.mark.parametrize("entry", list(CALLS))
def test_invalid_order_is_out_of_domain(entry, q):
    with pytest.raises(DomainError):
        CALLS[entry](q, 0.3)


@pytest.mark.parametrize("eps", BAD_SHIFTS, ids=repr)
@pytest.mark.parametrize("entry", TAKES_SHIFT)
def test_invalid_shift_is_out_of_domain(entry, eps):
    with pytest.raises(DomainError):
        CALLS[entry](0.5, eps)


# fisher_gamma_argument takes the shape itself: it must be positive and
# finite, and above 1 - q as for the closed Fisher form
@pytest.mark.parametrize("alpha", (0.0, -1.0, math.nan, math.inf, 0.5, 0.3), ids=repr)
def test_invalid_fisher_shape_is_out_of_domain(alpha):
    with pytest.raises(DomainError):
        measures.fisher_gamma_argument(alpha, 0.5)


@pytest.mark.parametrize("rel_tol", (0.0, -1.0, math.nan, math.inf), ids=repr)
def test_invalid_relative_tolerance_is_out_of_domain(rel_tol):
    with pytest.raises(DomainError):
        QuadratureSpec(rel_tol=rel_tol)
