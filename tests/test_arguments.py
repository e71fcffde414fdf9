"""Invalid arguments raise DomainError, and nothing else, from every entry.

Each rule lives with the object it guards: the order and the shift in
``measures`` (``TrialPlan`` calls the same checks), the relative tolerance
in ``QuadratureSpec``.  The table calls every public measure function,
``TrialPlan`` and ``QuadratureSpec`` with each invalid value and valid
values elsewhere, and every count's owner with a value that is not an
integer.  The package's public names are its modules' ``__all__``.
"""

import inspect
import math

import numpy as np
import pytest

import genfisher
from genfisher import estimation, measures, numerics, probe
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


PACKAGE_NAMES = [
    "ConvergenceError", "DomainError", "IntegrandError", "MeasureValue", "Method",
    "ProbeDistribution", "QuadratureResult", "QuadratureSpec", "Quantity", "TrialPlan",
    "TrialReport", "TriangleReport", "UnbiasednessReport", "fisher_closed",
    "fisher_gamma_argument", "fisher_quadrature", "hellinger_distance", "hellinger_linearized",
    "integrate_half_line", "integrate_real_line", "log_gamma", "mean_error_closed",
    "mean_error_quadrature", "posterior_width_closed", "posterior_width_quadrature",
    "run_trials", "sensitivity_closed", "sensitivity_quadrature", "three_sigma_check",
    "triangle_probe",
]


def test_package_exports_each_module_name_once():
    # each module's __all__ is the one list of its names; the package joins them
    assert sorted(genfisher.__all__) == PACKAGE_NAMES
    owners = (estimation, measures, numerics, probe)
    for name in PACKAGE_NAMES:
        (owner,) = [m for m in owners if name in m.__all__]
        assert getattr(genfisher, name) is getattr(owner, name)
    namespace = {}
    exec("from genfisher import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PACKAGE_NAMES
    from genfisher.numerics import safe_exp, tail_node_error  # internal helpers

    assert safe_exp(1e4) == math.inf
    assert isinstance(tail_node_error(0.5, 1.0), numerics.IntegrandError)


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


# a count is an integer, numpy's included and a bool not; each owner checks
# it before any quadrature or draw runs
COUNTS = {
    "max_evaluations": lambda n: QuadratureSpec(max_evaluations=n),
    "trials": lambda n: TrialPlan(GAUSS, 0.3, 0.5, n, 0),
    "master_seed": lambda n: TrialPlan(GAUSS, 0.3, 0.5, 100, n),
    "bootstrap_resamples": lambda n: TrialPlan(GAUSS, 0.3, 0.5, 100, 0, n),
    "sample": lambda n: GAUSS.sample(np.random.default_rng(0), n),
}


@pytest.mark.parametrize("n", (2.5, 150.0, math.nan, math.inf, True), ids=repr)
@pytest.mark.parametrize("entry", list(COUNTS))
def test_non_integer_count_is_out_of_domain(entry, n):
    with pytest.raises(DomainError):
        COUNTS[entry](n)
    COUNTS[entry](np.int64(150))
