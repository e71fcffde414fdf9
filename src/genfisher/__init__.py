"""Order-q uncertainty measures for exponential power probe distributions.

Core objects: the probe family (``ProbeDistribution``), the order-q measure
family (generalized Hellinger distance, generalized Fisher information,
sensitivity, posterior width, mean estimation error), Monte Carlo
single-shot estimation, and the quadrature engine that cross-checks every
closed form.
"""

from .estimation import (
    TrialPlan,
    TrialReport,
    UnbiasednessReport,
    run_trials,
    three_sigma_check,
)
from .measures import (
    MeasureValue,
    Method,
    Quantity,
    TriangleReport,
    fisher_closed,
    fisher_gamma_argument,
    fisher_quadrature,
    hellinger_distance,
    hellinger_linearized,
    mean_error_closed,
    mean_error_quadrature,
    posterior_width_closed,
    posterior_width_quadrature,
    sensitivity_closed,
    sensitivity_quadrature,
    triangle_probe,
)
from .numerics import (
    ConvergenceError,
    DomainError,
    IntegrandError,
    QuadratureResult,
    QuadratureSpec,
    integrate_half_line,
    integrate_real_line,
    log_gamma,
)
from .probe import ProbeDistribution

__version__ = "0.1.0"

__all__ = [
    "ProbeDistribution",
    "QuadratureSpec",
    "QuadratureResult",
    "DomainError",
    "IntegrandError",
    "ConvergenceError",
    "integrate_real_line",
    "integrate_half_line",
    "log_gamma",
    "Quantity",
    "Method",
    "MeasureValue",
    "TriangleReport",
    "fisher_gamma_argument",
    "hellinger_distance",
    "hellinger_linearized",
    "fisher_quadrature",
    "fisher_closed",
    "sensitivity_closed",
    "sensitivity_quadrature",
    "posterior_width_closed",
    "posterior_width_quadrature",
    "mean_error_closed",
    "mean_error_quadrature",
    "triangle_probe",
    "TrialPlan",
    "TrialReport",
    "UnbiasednessReport",
    "run_trials",
    "three_sigma_check",
]
