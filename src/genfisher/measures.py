"""Order-q uncertainty measures for shifted probe distributions.

Five quantities, each defined for any order ``q > 0``:

* generalized Hellinger distance between a density and its shifted copy,
      D_q = (1/2) * integral |P^q(x - eps) - P^q(x)|**(1/q) dx,
  the squared Hellinger construction at ``q = 1/2``;
* generalized Fisher information, the (1/q)-th absolute moment of the score,
      F_q = integral P(x) * |d/dx ln P(x)|**(1/q) dx,
  the classical Fisher information at ``q = 1/2``;
* sensitivity: the smallest shift that pushes ``D_q`` past a fixed,
  state-independent unit threshold, ``eps_min = F_q**(-q)``;
* posterior width, the order-q entropy length of the conditional
  distribution of the estimate,
      width = [integral P^q(x) dx]**(1/(1-q)),   q != 1;
* mean estimation error of the single-shot estimator "report the outcome",
      err = [integral P(x - eps) * |x - eps|**(1/q) dx]**q.

For the exponential power family every quantity has a closed form built
from gamma-function ratios; each closed form here is paired with an
independent quadrature route so they can be cross-checked.  The closed
Fisher form uses the gamma argument ``(alpha + q - 1) / (alpha * q)``,
which the quadrature confirms (see the verification report for the
rejected alternative).

Weak-signal behaviour: to first order in the shift,
``D_q ~ (q**(1/q) / 2) * |eps|**(1/q) * F_q``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

from .numerics import (
    LN2,
    ConvergenceError,
    DomainError,
    QuadratureResult,
    QuadratureSpec,
    integrate_half_line,
    integrate_real_line,
    log_gamma,
    safe_exp,
)
from .probe import ProbeDistribution

__all__ = [
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
]


class Quantity(str, Enum):
    DISTANCE = "distance"
    FISHER = "fisher"
    EPS_MIN = "eps_min"
    POSTERIOR_WIDTH = "posterior_width"
    MEAN_ERROR = "mean_error"


class Method(str, Enum):
    CLOSED_FORM = "closed_form"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class MeasureValue:
    """One evaluated measure.

    ``quad_detail`` carries the underlying quadrature for quadrature-backed
    values.  For the distance and Fisher quadratures it is on the same scale
    as ``value``; for the linearized distance, sensitivity, posterior width
    and mean error it holds the integral that ``value`` is a map of.
    """

    quantity: Quantity
    value: float
    method: Method
    quad_detail: QuadratureResult | None = None

    def __post_init__(self):
        if self.value < 0.0:
            raise ValueError(f"measure value must be nonnegative, got {self.value}")


@dataclass(frozen=True)
class TriangleReport:
    """Outcome of one triangle-inequality probe on D_q**q.

    ``legs`` holds (T12, T23, T13) for the sorted shifts; ``violated`` is
    True only when T13 exceeds T12 + T23 by more than the propagated
    quadrature error."""

    lhs: float
    rhs: float
    violated: bool
    legs: tuple[float, float, float]


def _require_order(q: float) -> float:
    if not (q > 0.0) or not math.isfinite(q):
        raise DomainError(f"order q must be a positive real, got {q}")
    return float(q)


def fisher_gamma_argument(alpha: float, q: float) -> float:
    """Gamma argument of the closed Fisher form: (alpha + q - 1) / (alpha * q)."""
    return (alpha + q - 1.0) / (alpha * q)


def _log_fisher_closed(
    dist: ProbeDistribution, q: float, gamma_argument: float | None = None
) -> float:
    """Log of the closed Fisher form, valid for alpha > max(1 - q, 1/2);
    ``gamma_argument`` replaces ``fisher_gamma_argument(alpha, q)`` to
    evaluate a rejected candidate."""
    bound = max(1.0 - q, 0.5)
    if dist.alpha <= bound:
        raise DomainError(
            f"closed Fisher form needs alpha > max(1 - q, 1/2) = {bound}; "
            f"got alpha = {dist.alpha}, q = {q}"
        )
    ln_scale = math.log(dist.alpha) + LN2 / dist.alpha - math.log(dist.gamma_scale)
    if gamma_argument is None:
        gamma_argument = fisher_gamma_argument(dist.alpha, q)
    return ln_scale / q + log_gamma(gamma_argument) - log_gamma(1.0 / dist.alpha)


def _quadrature(
    quantity: Quantity,
    integrand: Callable[[float], float],
    spec: QuadratureSpec | None,
    splits: Iterable[float],
    label: str,
    *,
    half_line: bool = False,
    fold: float = 1.0,
    transform: Callable[[float], float] | None = None,
) -> MeasureValue:
    """Integrate over the real line, or [0, inf) when ``half_line``, with
    ``splits`` merged into ``spec``; scale value and error by ``fold`` and
    report ``transform`` (which guards its own domain) of the folded integral.
    Raises ``ConvergenceError`` with the folded result and the mapped best
    estimate when the quadrature did not converge.  The engine is looked up
    in this module per call, so wrappers installed on it see every integral.
    """
    spec = (spec or QuadratureSpec()).with_splits(splits)
    raw = (integrate_half_line if half_line else integrate_real_line)(integrand, spec)
    result = QuadratureResult(
        fold * raw.value, fold * raw.abs_error_estimate, raw.converged, raw.evaluations
    )
    value = result.value if transform is None else transform(result.value)
    if not result.converged:
        raise ConvergenceError(f"{label} did not converge", result, value)
    return MeasureValue(quantity, value, Method.QUADRATURE, result)


# Each quadrature integrand reads its probe's constants into closure locals
# once per integral and evaluates log P (and log |score|) in place, with the
# operations of ProbeDistribution.log_pdf and log_score_magnitude in the same
# order: calling those methods per evaluation cost more than the quadrature
# engine itself, and inlining them keeps every result bit for bit
# (tests/test_measures.py compares each integrand with the methods).
def hellinger_distance(
    dist: ProbeDistribution,
    eps: float,
    q: float,
    spec: QuadratureSpec | None = None,
) -> MeasureValue:
    """Order-q distance between ``P(x - eps)`` and ``P(x)`` by quadrature.

    Split points: the two cusp locations 0 and eps, the crossing point
    eps/2 where the two densities coincide, and scale hints at ``+-gamma``
    so narrow high-alpha features are seeded with panels.
    """
    q = _require_order(q)
    eps = float(eps)
    log_c, g, alpha = dist.log_norm_const, dist.gamma_scale, dist.alpha
    splits = {0.0, 0.5 * eps, eps, g, -g, 2.0 * g, -2.0 * g, eps + g, eps - g}

    def integrand(x: float) -> float:
        try:
            a = q * (log_c - 2.0 * math.pow(abs(x - eps) / g, alpha))
        except OverflowError:
            a = -math.inf
        try:
            b = q * (log_c - 2.0 * math.pow(abs(x) / g, alpha))
        except OverflowError:
            b = -math.inf
        hi = a if a >= b else b
        if hi == -math.inf:
            return 0.0
        diff = -abs(a - b)
        if diff == 0.0:
            return 0.0
        return safe_exp((hi + math.log(-math.expm1(diff))) / q)

    label = f"distance quadrature (alpha={dist.alpha}, q={q}, eps={eps})"
    return _quadrature(Quantity.DISTANCE, integrand, spec, splits, label, fold=0.5)


def hellinger_linearized(
    dist: ProbeDistribution,
    eps: float,
    q: float,
    spec: QuadratureSpec | None = None,
) -> MeasureValue:
    """First-order weak-signal approximation (q**(1/q) / 2) |eps|**(1/q) F_q.

    A linear map of the Fisher route, so it inherits that domain
    (``alpha > 1 - q``); ``quad_detail`` holds the Fisher integral."""
    q = _require_order(q)
    prefactor = math.exp(math.log(q) / q - LN2)
    return _fisher_route(
        dist, q, spec, Quantity.DISTANCE, lambda fisher: prefactor * abs(eps) ** (1.0 / q) * fisher
    )


def _fisher_route(
    dist: ProbeDistribution,
    q: float,
    spec: QuadratureSpec | None,
    quantity: Quantity,
    transform: Callable[[float], float] | None = None,
) -> MeasureValue:
    """Quadrature of P * |score|**(1/q), reported as ``transform(F_q)``.

    The integrand is even, so it is folded onto [0, inf); the origin --
    where the factor |x|**((alpha-1)/q) is singular for alpha < 1 -- then
    sits on a panel boundary.  Needs ``alpha > 1 - q`` for integrability.
    """
    q = _require_order(q)
    if dist.alpha <= 1.0 - q:
        raise DomainError(
            f"Fisher integrand not integrable: needs alpha > 1 - q; "
            f"got alpha = {dist.alpha}, q = {q}"
        )
    log_c, g, alpha = dist.log_norm_const, dist.gamma_scale, dist.alpha
    log_2alpha, power, alpha_log_gamma = dist.score_terms
    splits = (g, 4.0 * g)

    def integrand(u: float) -> float:
        if u == 0.0:
            return 0.0
        try:
            log_p = log_c - 2.0 * math.pow(abs(u) / g, alpha)
        except OverflowError:
            log_p = -math.inf
        return safe_exp(log_p + (log_2alpha + power * math.log(u) - alpha_log_gamma) / q)

    label = f"Fisher quadrature (alpha={dist.alpha}, q={q})"
    return _quadrature(
        quantity, integrand, spec, splits, label, half_line=True, fold=2.0, transform=transform
    )


def fisher_quadrature(
    dist: ProbeDistribution,
    q: float,
    spec: QuadratureSpec | None = None,
) -> MeasureValue:
    """Order-q Fisher information by quadrature of P * |score|**(1/q),
    folded onto [0, inf); needs ``alpha > 1 - q`` for integrability."""
    return _fisher_route(dist, q, spec, Quantity.FISHER)


def fisher_closed(dist: ProbeDistribution, q: float) -> MeasureValue:
    """Closed-form order-q Fisher information,

        F_q = (alpha 2**(1/alpha) / gamma)**(1/q)
              * Gamma((alpha + q - 1) / (alpha q)) / Gamma(1/alpha),

    valid for alpha > max(1 - q, 1/2)."""
    q = _require_order(q)
    return MeasureValue(
        Quantity.FISHER, math.exp(_log_fisher_closed(dist, q)), Method.CLOSED_FORM
    )


def sensitivity_closed(dist: ProbeDistribution, q: float) -> MeasureValue:
    """Minimum detectable shift eps_min = F_q**(-q), closed form."""
    q = _require_order(q)
    return MeasureValue(
        Quantity.EPS_MIN, math.exp(-q * _log_fisher_closed(dist, q)), Method.CLOSED_FORM
    )


def _sensitivity_from_fisher(fisher: float, q: float) -> float:
    """eps_min = F_q**(-q) from a quadrature Fisher value; ``nan`` when that
    value is not positive (or is itself ``nan``)."""
    return math.exp(-q * math.log(fisher)) if fisher > 0.0 else math.nan


def sensitivity_quadrature(
    dist: ProbeDistribution,
    q: float,
    spec: QuadratureSpec | None = None,
) -> MeasureValue:
    """Minimum detectable shift F_q**(-q) through the quadrature Fisher
    route; ``quad_detail`` holds the Fisher integral."""
    return _fisher_route(
        dist, q, spec, Quantity.EPS_MIN, lambda fisher: _sensitivity_from_fisher(fisher, q)
    )


def posterior_width_closed(dist: ProbeDistribution, q: float) -> MeasureValue:
    """Order-q entropy length of the posterior shift distribution,

        width = q**(-1/(alpha (1-q))) * 2 Gamma(1/alpha) gamma / (alpha 2**(1/alpha)),

    undefined at q = 1 (exponent 1/(1-q))."""
    q = _require_order(q)
    if q == 1.0:
        raise DomainError("posterior width is undefined at q = 1")
    a, g = dist.alpha, dist.gamma_scale
    log_w = (
        -math.log(q) / (a * (1.0 - q))
        + LN2
        + log_gamma(1.0 / a)
        + math.log(g)
        - math.log(a)
        - LN2 / a
    )
    return MeasureValue(Quantity.POSTERIOR_WIDTH, math.exp(log_w), Method.CLOSED_FORM)


def posterior_width_quadrature(
    dist: ProbeDistribution,
    q: float,
    spec: QuadratureSpec | None = None,
) -> MeasureValue:
    """Posterior width by direct quadrature of the integral of P**q.

    ``quad_detail`` holds that raw integral; the width is its
    1/(1-q) power.  Shifting the density cannot change the result."""
    q = _require_order(q)
    if q == 1.0:
        raise DomainError("posterior width is undefined at q = 1")
    log_c, g, alpha = dist.log_norm_const, dist.gamma_scale, dist.alpha

    def integrand(u: float) -> float:
        try:
            log_p = log_c - 2.0 * math.pow(abs(u) / g, alpha)
        except OverflowError:
            log_p = -math.inf
        return safe_exp(q * log_p)

    def width(integral: float) -> float:
        return math.exp(math.log(integral) / (1.0 - q)) if integral > 0.0 else math.nan

    label = f"posterior width quadrature (alpha={dist.alpha}, q={q})"
    return _quadrature(
        Quantity.POSTERIOR_WIDTH,
        integrand,
        spec,
        (g, 4.0 * g),
        label,
        half_line=True,
        fold=2.0,
        transform=width,
    )


def mean_error_closed(dist: ProbeDistribution, q: float) -> MeasureValue:
    """Mean single-shot estimation error,

        err = 2**(-1/alpha) * [Gamma((1+q)/(alpha q)) / Gamma(1/alpha)]**q * gamma,

    defined for every q > 0 and independent of the true shift."""
    q = _require_order(q)
    a, g = dist.alpha, dist.gamma_scale
    log_e = (
        -LN2 / a
        + q * (log_gamma((1.0 + q) / (a * q)) - log_gamma(1.0 / a))
        + math.log(g)
    )
    return MeasureValue(Quantity.MEAN_ERROR, math.exp(log_e), Method.CLOSED_FORM)


def mean_error_quadrature(
    dist: ProbeDistribution,
    eps: float,
    q: float,
    spec: QuadratureSpec | None = None,
) -> MeasureValue:
    """Mean estimation error by quadrature of P(x - eps) |x - eps|**(1/q).

    Integrated over the real line with a split at the cusp ``x = eps`` (not
    folded), so the value's independence of ``eps`` is a genuine numerical
    check rather than true by construction.  ``quad_detail`` holds the raw
    moment integral; the error is its q-th power."""
    q = _require_order(q)
    eps = float(eps)
    log_c, g, alpha = dist.log_norm_const, dist.gamma_scale, dist.alpha
    splits = (eps, eps - g, eps + g, eps - 4.0 * g, eps + 4.0 * g)

    def integrand(x: float) -> float:
        au = abs(x - eps)
        if au == 0.0:
            return 0.0
        try:
            log_p = log_c - 2.0 * math.pow(au / g, alpha)
        except OverflowError:
            log_p = -math.inf
        return safe_exp(log_p + math.log(au) / q)

    def error(moment: float) -> float:
        return math.exp(q * math.log(moment)) if moment > 0.0 else math.nan

    label = f"mean error quadrature (alpha={dist.alpha}, q={q}, eps={eps})"
    return _quadrature(Quantity.MEAN_ERROR, integrand, spec, splits, label, transform=error)


def triangle_probe(
    dist: ProbeDistribution,
    q: float,
    shifts: Sequence[float],
    spec: QuadratureSpec | None = None,
) -> TriangleReport:
    """Test the triangle inequality for T = D_q**q on three shifted copies.

    The three shifts are sorted; coincident shifts give a zero-length leg,
    and each distinct separation is integrated once.  A violation is
    reported only when the long leg exceeds the sum of the short legs by
    more than the propagated quadrature error, so the probe never flags
    numerical noise.  T is a true metric at q = 1/2; elsewhere
    violations do occur (the scan in the verification report finds them).
    """
    q = _require_order(q)
    if len(shifts) != 3:
        raise DomainError(f"triangle probe needs exactly three shifts, got {len(shifts)}")
    s1, s2, s3 = sorted(float(s) for s in shifts)

    def leg(separation: float) -> tuple[float, float, float]:
        d = hellinger_distance(dist, separation, q, spec)
        err = d.quad_detail.abs_error_estimate
        t = d.value**q
        t_lo = max(d.value - err, 0.0) ** q
        t_hi = (d.value + err) ** q
        return t, t_lo, t_hi

    seps = (s2 - s1, s3 - s2, s3 - s1)
    legs = {sep: leg(sep) for sep in dict.fromkeys(seps)}
    (t12, _, t12_hi), (t23, _, t23_hi), (t13, t13_lo, _) = (legs[sep] for sep in seps)
    return TriangleReport(
        lhs=t13,
        rhs=t12 + t23,
        violated=t13_lo > t12_hi + t23_hi,
        legs=(t12, t23, t13),
    )
