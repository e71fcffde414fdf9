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

For the exponential power family every quantity but the distance has a
closed form built from gamma-function ratios; each closed form here is paired
with an independent quadrature route so they can be cross-checked.  The closed
Fisher form uses the gamma argument ``(alpha + q - 1) / (alpha * q)``, which
the quadrature confirms (see the verification report for the rejected
alternative).  Every quadrature integrates a unit-scale kernel on one
half-line of the reduced variable and adds the probe's prefactors in log
space, so the scale enters no integrand.  The Fisher, width and mean-error
routes integrate one moment kernel ``s**p exp(-c s**alpha)`` of the folded
``s = |x - eps|/gamma`` in units of its own mass scale, where it peaks at
``t = 1`` whatever the order, split there only and with an endpoint power
map on its first panel; the mass scale joins the prefactors in log space
(see ``_moment``).  The mean error is therefore independent of the shift by
construction.  The distance route folds the unit-scale probe's integrand
about the crossing ``e/2``, ``e = |eps|/gamma``, onto one half-line
measured from the copy at ``e``, and takes the gap between the two log
densities without cancellation (see ``hellinger_distance``).

Each quadrature route declares the map from its integral to the quantity
as two numbers, a root and a scale: for the scaled integral ``I`` the
value is ``scale * exp(ln I / root)``.

    route                        root       scale
    distance, Fisher             1          1
    sensitivity_quadrature       -1/q       1
    posterior_width_quadrature   1 - q      1
    mean_error_quadrature        1/q        1
    hellinger_linearized         1          (q**(1/q) / 2) |eps|**(1/q)
    mean_energy_quadrature       1          1/4

A closed value that leaves double range, by overflow or by underflow to 0,
raises OverflowError; a quadrature route's root of its integral ends in
``safe_exp`` instead, so beyond double range it reads 0 or inf.

Weak-signal behaviour: to first order in the shift,
``D_q ~ (q**(1/q) / 2) * |eps|**(1/q) * F_q``.  ``hellinger_linearized``
computes the factor in front of F_q before it integrates, so a non-finite
shift or a factor beyond double range raises before any quadrature runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterable, Sequence

from .numerics import (
    EXP_MAX,
    LN2,
    ConvergenceError,
    DomainError,
    QuadratureResult,
    QuadratureSpec,
    integrate_half_line,
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
    values: the unit-scale kernel's integral times the route's prefactors,
    ``I``.  The route's declared root and scale give
    ``value = scale * exp(ln I / root)``: for the distance and Fisher
    quadratures (root and scale 1) that is ``I`` itself.
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


def _require_shift(eps: float) -> float:
    if not math.isfinite(eps):
        raise DomainError(f"shift must be finite, got {eps}")
    return float(eps)


def fisher_gamma_argument(alpha: float, q: float) -> float:
    """Gamma argument of the closed Fisher form: (alpha + q - 1) / (alpha * q)."""
    return (alpha + q - 1.0) / (alpha * q)


def _require_fisher_domain(alpha: float, q: float) -> None:
    """F_q is finite only for alpha > 1 - q: below it ``P |score|**(1/q)``
    is not integrable at the origin."""
    if alpha <= 1.0 - q:
        raise DomainError(f"F_q needs alpha > 1 - q; got alpha = {alpha}, q = {q}")


def _log_fisher_closed(dist: ProbeDistribution, q: float) -> float:
    """Log of the closed Fisher form, valid for alpha > 1 - q."""
    a = dist.alpha
    _require_fisher_domain(a, q)
    ln_scale = math.log(a) + LN2 / a - math.log(dist.gamma_scale)
    return ln_scale / q + log_gamma(fisher_gamma_argument(a, q)) - log_gamma(1.0 / a)


def _closed(quantity: Quantity, log_value: float) -> MeasureValue:
    """The closed value ``exp(log_value)``; raises OverflowError when it
    leaves double range, by overflow or by underflow to 0."""
    value = math.exp(log_value)
    if value == 0.0:
        raise OverflowError(f"closed {quantity.value} underflows to 0")
    return MeasureValue(quantity, value, Method.CLOSED_FORM)


def _quadrature(
    quantity: Quantity,
    integrand: Callable[[float], float],
    spec: QuadratureSpec | None,
    splits: Iterable[float],
    label: str,
    log_scale: float,
    root: float = 1.0,
    scale: float = 1.0,
) -> MeasureValue:
    """Integrate the unit-scale kernel ``integrand`` over [0, inf) with
    ``splits`` merged into ``spec``; for its integral ``I`` and
    ``L = log_scale + log I`` the value is ``scale * exp(L / root)`` and
    ``quad_detail`` holds ``exp(L)``, its error estimate scaled the same
    way.  Raises ``ConvergenceError`` with that result and the same map of
    the best estimate when the quadrature did not converge.  The engine is
    looked up in this module per call, so wrappers installed on it see
    every integral.
    """
    spec = (spec or QuadratureSpec()).with_splits(splits)
    result = integrate_half_line(integrand, spec)
    log_value, log_error = (
        log_scale + math.log(v) if v > 0.0 else -math.inf
        for v in (result.value, result.abs_error_estimate)
    )
    value = scale * safe_exp(log_value / root)
    result = replace(result, value=safe_exp(log_value), abs_error_estimate=safe_exp(log_error))
    if not result.converged:
        raise ConvergenceError(f"{label} did not converge", result, value)
    return MeasureValue(quantity, value, Method.QUADRATURE, result)


def _moment(
    quantity: Quantity,
    alpha: float,
    p: float,
    c: float,
    log_scale: float,
    spec: QuadratureSpec | None,
    label: str,
    root: float = 1.0,
    scale: float = 1.0,
) -> MeasureValue:
    """``scale * exp((log_scale + log I) / root)`` for the moment kernel
    ``I = int_0^inf s**p exp(-c s**alpha)`` in the folded reduced variable
    ``s = |x - eps| / gamma``; ``_quadrature`` applies the map.

    Mass scale: with ``b = max(p / alpha, 1)`` and
    ``sigma = (b / c)**(1/alpha)``, ``s = sigma t`` gives
    ``I = sigma**(p+1) e**-b int_0^inf t**p exp(-b (t**alpha - 1)) dt``.
    The kernel in ``t`` peaks at ``t = 1`` (for ``p / alpha < 1`` that is
    its e-fold edge) at a value of order 1, whatever the order or the
    scale; it is split there only, and ``(p + 1) ln sigma - b`` joins
    ``log_scale``.

    On ``t < 1`` the kernel substitutes ``t = tau**m``, ``n = ceil(p + 1)``,
    ``m = n / (p + 1)``: the first panel integrates the integer power times
    smooth exponential ``m tau**(n-1) exp(-b (tau**(alpha m) - 1))``,
    bounded even where ``t**p`` is singular; where ``e**b`` overflows it is
    taken in log form, ``m exp((n-1) ln tau - b (tau**(alpha m) - 1))``.
    Beyond 1 it substitutes ``u = t**alpha`` (``u = 1`` at the split) and
    integrates the gamma integrand ``(1/alpha) u**e exp(-b (u - 1))``,
    ``e = (p + 1)/alpha - 1`` (DLMF 5.2.1), in log form: no power of the
    variable sits in the exponent, so nothing overflows before the
    exponential decays, and at small ``alpha`` the tail decays like
    ``e**-u``, where in ``t`` the same mass reaches out to ``t ~ 1e16``
    (``alpha = 0.1``).
    """
    b = max(p / alpha, 1.0)
    log_sigma = (math.log(b) - math.log(c)) / alpha
    n = math.ceil(p + 1.0)
    m = n / (p + 1.0)
    k, am = n - 1, alpha * m
    log_head = b > EXP_MAX
    e = (p + 1.0) / alpha - 1.0

    def kernel(t: float) -> float:
        if t < 1.0:
            if log_head:
                return m * math.exp(k * math.log(t) - b * (t**am - 1.0))
            return m * t**k * math.exp(-b * (t**am - 1.0))
        return safe_exp(e * math.log(t) - b * (t - 1.0)) / alpha

    log_scale += (p + 1.0) * log_sigma - b
    return _quadrature(quantity, kernel, spec, (1.0,), label, log_scale, root, scale)


# The distance integrand keeps its constants in closure locals and writes the
# folded gap out in place: a probe method call per evaluation cost more than
# the quadrature engine itself (tests/test_measures.py compares the integrand
# with its plain composition).
def hellinger_distance(
    dist: ProbeDistribution,
    eps: float,
    q: float,
    spec: QuadratureSpec | None = None,
) -> MeasureValue:
    """Order-q distance between ``P(x - eps)`` and ``P(x)`` by quadrature.

    Scale: in ``x / gamma`` this is the distance of the unit-scale probe
    shifted by ``e = |eps| / gamma``, so it depends on the scale only through
    ``eps / gamma``, by construction; the unit probe's constant ``C`` is
    added in log space.

    Fold: ``f(s) = |P^q(s - e) - P^q(s)|**(1/q)`` is symmetric about the
    crossing ``e/2``, so ``D_q = int_0^inf g(s) ds`` with
    ``g(s) = f(e + s) + f(e - s) [s < e/2]``: one half-line integral in the
    distance ``s`` from the copy at ``e``, and even in the shift by
    construction.  It splits at 1 and 4, plus the crossing when it lies
    below 4, so each bump sits on panels of its own width, whatever the
    size of the shift.

    Gap: at a point a distance ``s`` from the nearer copy and ``s + d``
    from the farther one, ``lo = s**alpha`` and the log-density gap is
    ``-2q lo expm1(alpha log1p(d/s))``, free of the cancellation in
    ``u**alpha - v**alpha``.  The term is
    ``exp(-2 lo + log(-expm1(gap))/q)``.  Where the farther copy is at
    least twice as far (``d >= s``) the gap is taken as the plain
    difference of the two powers, which then cancels at most
    ``1/(2**alpha - 1)`` and stays exact when ``lo`` underflows; a gap
    beyond double range leaves the nearer bump alone.  A non-finite shift
    raises DomainError before any evaluation.
    """
    q, eps = _require_order(q), _require_shift(eps)
    alpha, e = dist.alpha, abs(eps) / dist.gamma_scale
    half = 0.5 * e
    two_q = 2.0 * q
    splits = (1.0, 4.0, half) if half < 4.0 else (1.0, 4.0)

    def bump(s: float, d: float) -> float:
        try:
            lo = math.pow(s, alpha)
        except OverflowError:
            return 0.0
        try:
            if d < s:
                gap = -two_q * lo * math.expm1(alpha * math.log1p(d / s))
            else:
                gap = two_q * (lo - math.pow(s + d, alpha))
        except OverflowError:
            return safe_exp(-2.0 * lo)
        if gap == 0.0:
            return 0.0
        return safe_exp(-2.0 * lo + math.log(-math.expm1(gap)) / q)

    def integrand(s: float) -> float:
        if s < half:
            return bump(s, e) + bump(s, e - 2.0 * s)
        return bump(s, e)

    label = f"distance quadrature (alpha={alpha}, q={q}, eps={eps})"
    log_c = ProbeDistribution(alpha, 1.0).log_norm_const
    return _quadrature(Quantity.DISTANCE, integrand, spec, splits, label, log_c)


def hellinger_linearized(
    dist: ProbeDistribution,
    eps: float,
    q: float,
    spec: QuadratureSpec | None = None,
) -> MeasureValue:
    """First-order weak-signal approximation (q**(1/q) / 2) |eps|**(1/q) F_q.

    The Fisher route with that factor as its scale, so it inherits that
    domain (``alpha > 1 - q``); ``quad_detail`` holds the Fisher integral.  A
    non-finite shift raises DomainError, and a factor in front of F_q beyond
    double range OverflowError, before the quadrature runs."""
    q = _require_order(q)
    factor = math.exp(math.log(q) / q - LN2) * abs(_require_shift(eps)) ** (1.0 / q)
    return _fisher_route(dist, q, spec, Quantity.DISTANCE, scale=factor)


def _fisher_route(
    dist: ProbeDistribution,
    q: float,
    spec: QuadratureSpec | None,
    quantity: Quantity,
    root: float = 1.0,
    scale: float = 1.0,
) -> MeasureValue:
    """Quadrature of P * |score|**(1/q), reported as
    ``scale * exp(ln F_q / root)``.

    With ``x = gamma s`` and the even integrand folded onto [0, inf),
    ``F_q = 2 C gamma (2 alpha / gamma)**(1/q) int s**((alpha-1)/q) exp(-2 s**alpha)``:
    the moment kernel, whose first-panel map keeps the origin -- singular
    for alpha < 1 -- finite.  Needs ``alpha > 1 - q`` for integrability.
    """
    q = _require_order(q)
    a, g = dist.alpha, dist.gamma_scale
    _require_fisher_domain(a, q)
    log_g = math.log(g)
    log_scale = dist.log_norm_const + LN2 + log_g + (LN2 + math.log(a) - log_g) / q
    label = f"Fisher quadrature (alpha={a}, q={q})"
    return _moment(quantity, a, (a - 1.0) / q, 2.0, log_scale, spec, label, root, scale)


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

    valid for alpha > 1 - q."""
    q = _require_order(q)
    return _closed(Quantity.FISHER, _log_fisher_closed(dist, q))


def sensitivity_closed(dist: ProbeDistribution, q: float) -> MeasureValue:
    """Minimum detectable shift eps_min = F_q**(-q), closed form."""
    q = _require_order(q)
    return _closed(Quantity.EPS_MIN, -q * _log_fisher_closed(dist, q))


def sensitivity_quadrature(
    dist: ProbeDistribution,
    q: float,
    spec: QuadratureSpec | None = None,
) -> MeasureValue:
    """Minimum detectable shift F_q**(-q) through the quadrature Fisher
    route, its root ``-1/q`` taken from ln F_q so it stays in range where
    F_q does not; ``quad_detail`` holds the Fisher integral."""
    return _fisher_route(dist, q, spec, Quantity.EPS_MIN, root=-1.0 / q)


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
    return _closed(Quantity.POSTERIOR_WIDTH, log_w)


def posterior_width_quadrature(
    dist: ProbeDistribution,
    q: float,
    spec: QuadratureSpec | None = None,
) -> MeasureValue:
    """Posterior width by quadrature of the integral of P**q, which is
    ``2 gamma C**q int exp(-2q s**alpha)`` on the folded reduced variable;
    ``quad_detail`` holds it, and the width is its root ``1 - q`` taken from
    its logarithm.  Shifting the density cannot change the result."""
    q = _require_order(q)
    if q == 1.0:
        raise DomainError("posterior width is undefined at q = 1")
    log_scale = LN2 + math.log(dist.gamma_scale) + q * dist.log_norm_const
    label = f"posterior width quadrature (alpha={dist.alpha}, q={q})"
    return _moment(
        Quantity.POSTERIOR_WIDTH, dist.alpha, 0.0, 2.0 * q, log_scale, spec, label, 1.0 - q
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
    return _closed(Quantity.MEAN_ERROR, log_e)


def mean_error_quadrature(
    dist: ProbeDistribution,
    eps: float,
    q: float,
    spec: QuadratureSpec | None = None,
) -> MeasureValue:
    """Mean estimation error by quadrature of P(x - eps) |x - eps|**(1/q).

    In the folded ``s = |x - eps| / gamma`` the moment is
    ``2 C gamma**(1 + 1/q) int s**(1/q) exp(-2 s**alpha)``, so every finite
    ``eps`` gives the same bits; a non-finite one raises DomainError before
    any evaluation.  ``quad_detail`` holds the moment; the error is its
    root ``1/q``, taken from its logarithm."""
    q = _require_order(q)
    _require_shift(eps)
    a = dist.alpha
    log_scale = dist.log_norm_const + LN2 + (1.0 + 1.0 / q) * math.log(dist.gamma_scale)
    label = f"mean error quadrature (alpha={a}, q={q})"
    return _moment(Quantity.MEAN_ERROR, a, 1.0 / q, 2.0, log_scale, spec, label, 1.0 / q)


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
