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
alternative).  The Fisher, width and mean-error routes integrate one
unit-scale moment kernel ``s**p exp(-c s**alpha)`` in ``s = |x - eps|/gamma``,
with an endpoint power map on its first panel, and add the probe's prefactors
in log space (see ``_moment``).  The distance route folds its integrand about
the crossing ``eps/2`` onto one half-line measured from the copy at ``|eps|``,
and takes the gap between the two log densities without cancellation (see
``hellinger_distance``).  A closed value that leaves double range, by
overflow or by underflow to 0, raises OverflowError; a quadrature route's
power of its integral ends in ``safe_exp`` instead, so beyond double range
it reads 0 or inf.

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


def _log_fisher_closed(dist: ProbeDistribution, q: float) -> float:
    """Log of the closed Fisher form, valid for alpha > max(1 - q, 1/2)."""
    a = dist.alpha
    bound = max(1.0 - q, 0.5)
    if a <= bound:
        raise DomainError(
            f"closed Fisher form needs alpha > max(1 - q, 1/2) = {bound}; "
            f"got alpha = {a}, q = {q}"
        )
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
    *,
    half_line: bool = False,
    log_scale: float = 0.0,
    transform: Callable[[float], float] | None = None,
) -> MeasureValue:
    """Integrate over the real line, or [0, inf) when ``half_line``, with
    ``splits`` merged into ``spec``.  Without ``transform`` the integral is
    the value.  With it the integral ``I`` is a unit-scale kernel: the
    value is ``transform(log_scale + log I)`` and ``quad_detail`` holds
    ``exp(log_scale + log I)``, its error estimate scaled the same way.
    Raises ``ConvergenceError`` with that result and the mapped best
    estimate when the quadrature did not converge.  The engine is looked up
    in this module per call, so wrappers installed on it see every integral.
    """
    spec = (spec or QuadratureSpec()).with_splits(splits)
    result = (integrate_half_line if half_line else integrate_real_line)(integrand, spec)
    value = result.value
    if transform is not None:
        log_value, log_error = (
            log_scale + math.log(v) if v > 0.0 else -math.inf
            for v in (result.value, result.abs_error_estimate)
        )
        value = transform(log_value)
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
    transform: Callable[[float], float],
    spec: QuadratureSpec | None,
    label: str,
    shift: float | None = None,
) -> MeasureValue:
    """``transform(log_scale + log I)`` for the moment kernel
    ``I = int s**p exp(-c s**alpha)`` in the reduced variable
    ``s = |x - eps| / gamma``: over [0, inf), or over the real line in
    ``y = x / gamma`` about the reduced ``shift``.  Split at ``s = 1, 4``.

    On ``s < 1`` the kernel substitutes ``s = t**m``, ``n = ceil(p + 1)``,
    ``m = n / (p + 1)``: the first panel integrates the integer power times
    smooth exponential ``m t**(n-1) exp(-c t**(alpha m))``, bounded even
    where ``s**p`` is singular.  Beyond 1 the plain kernel is taken in log
    form, so a large ``p`` cannot overflow before the exponential decays.
    """
    n = math.ceil(p + 1.0)
    m = n / (p + 1.0)
    k, am = n - 1, alpha * m

    def kernel(s: float) -> float:
        if s < 1.0:
            return m * s**k * math.exp(-c * s**am)
        try:
            return safe_exp(p * math.log(s) - c * s**alpha)
        except OverflowError:  # s**alpha beyond double range: exp(-inf)
            return 0.0

    if shift is None:
        integrand, splits = kernel, (1.0, 4.0)
    else:
        integrand = lambda y: kernel(abs(y - shift))  # noqa: E731
        splits = (shift, shift - 1.0, shift + 1.0, shift - 4.0, shift + 4.0)
    return _quadrature(
        quantity, integrand, spec, splits, label,
        half_line=shift is None, log_scale=log_scale, transform=transform,
    )


# The distance integrand reads its probe's constants into closure locals once
# per integral and evaluates log P in place, with the operations of
# ProbeDistribution.log_pdf in the same order: calling that method per
# evaluation cost more than the quadrature engine itself
# (tests/test_measures.py compares the integrand with the method).
def hellinger_distance(
    dist: ProbeDistribution,
    eps: float,
    q: float,
    spec: QuadratureSpec | None = None,
) -> MeasureValue:
    """Order-q distance between ``P(x - eps)`` and ``P(x)`` by quadrature.

    Fold: the integrand ``f(x) = |P^q(x - e) - P^q(x)|**(1/q)``, with
    ``e = |eps|``, is symmetric about the crossing ``e/2``, so
    ``D_q = int_0^inf g(s) ds`` with ``g(s) = f(e + s) + f(e - s) [s < e/2]``:
    one half-line integral in the distance ``s`` from the copy at ``e``,
    and even in the shift by construction.  Each bump then sits where the
    half-line routes place their panels, whatever the size of the shift.

    Split points: ``gamma`` and ``4 gamma``, plus the crossing ``e/2`` when
    it lies below ``4 gamma``; beyond that the crossing sits in the tail.

    Gap: at a point a distance ``s`` from the nearer copy and ``s + d``
    from the farther one, ``lo = (s/gamma)**alpha`` and the log-density gap
    is ``-2q lo expm1(alpha log1p(d/s))``, free of the cancellation in
    ``u**alpha - v**alpha``.  The term is
    ``exp(log_c - 2 lo + log(-expm1(gap))/q)``.  Where the farther copy is
    at least twice as far (``d >= s``) the gap is taken as the plain
    difference of the two powers, which then cancels at most
    ``1/(2**alpha - 1)`` and stays exact when ``lo`` underflows; a gap
    beyond double range leaves the nearer bump alone.  A non-finite shift
    raises DomainError before any evaluation.
    """
    q = _require_order(q)
    if not math.isfinite(eps):
        raise DomainError(f"shift must be finite, got {eps}")
    e = abs(float(eps))
    half = 0.5 * e
    log_c, g, alpha = dist.log_norm_const, dist.gamma_scale, dist.alpha
    two_q = 2.0 * q
    splits = (g, 4.0 * g, half) if half < 4.0 * g else (g, 4.0 * g)

    def bump(s: float, d: float) -> float:
        try:
            lo = math.pow(s / g, alpha)
        except OverflowError:
            return 0.0
        try:
            if d < s:
                gap = -two_q * lo * math.expm1(alpha * math.log1p(d / s))
            else:
                gap = two_q * (lo - math.pow((s + d) / g, alpha))
        except OverflowError:
            return safe_exp(log_c - 2.0 * lo)
        if gap == 0.0:
            return 0.0
        return safe_exp(log_c - 2.0 * lo + math.log(-math.expm1(gap)) / q)

    def integrand(s: float) -> float:
        if s < half:
            return bump(s, e) + bump(s, e - 2.0 * s)
        return bump(s, e)

    label = f"distance quadrature (alpha={dist.alpha}, q={q}, eps={float(eps)})"
    return _quadrature(Quantity.DISTANCE, integrand, spec, splits, label, half_line=True)


def hellinger_linearized(
    dist: ProbeDistribution,
    eps: float,
    q: float,
    spec: QuadratureSpec | None = None,
) -> MeasureValue:
    """First-order weak-signal approximation (q**(1/q) / 2) |eps|**(1/q) F_q.

    A linear map of the Fisher route, so it inherits that domain
    (``alpha > 1 - q``); ``quad_detail`` holds the Fisher integral.  A
    non-finite shift raises DomainError, and a factor in front of F_q beyond
    double range OverflowError, before the quadrature runs."""
    q = _require_order(q)
    if not math.isfinite(eps):
        raise DomainError(f"shift must be finite, got {eps}")
    factor = math.exp(math.log(q) / q - LN2) * abs(eps) ** (1.0 / q)
    return _fisher_route(dist, q, spec, Quantity.DISTANCE, lambda log_f: factor * safe_exp(log_f))


def _fisher_route(
    dist: ProbeDistribution,
    q: float,
    spec: QuadratureSpec | None,
    quantity: Quantity,
    transform: Callable[[float], float] = safe_exp,
) -> MeasureValue:
    """Quadrature of P * |score|**(1/q), reported as ``transform(ln F_q)``.

    With ``x = gamma s`` and the even integrand folded onto [0, inf),
    ``F_q = 2 C gamma (2 alpha / gamma)**(1/q) int s**((alpha-1)/q) exp(-2 s**alpha)``:
    the moment kernel, whose first-panel map keeps the origin -- singular
    for alpha < 1 -- finite.  Needs ``alpha > 1 - q`` for integrability.
    """
    q = _require_order(q)
    a, g = dist.alpha, dist.gamma_scale
    if a <= 1.0 - q:
        raise DomainError(
            f"Fisher integrand not integrable: needs alpha > 1 - q; got alpha = {a}, q = {q}"
        )
    log_g = math.log(g)
    log_scale = dist.log_norm_const + LN2 + log_g + (LN2 + math.log(a) - log_g) / q
    label = f"Fisher quadrature (alpha={a}, q={q})"
    return _moment(quantity, a, (a - 1.0) / q, 2.0, log_scale, transform, spec, label)


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
    route, taken from ln F_q so it stays in range where F_q does not;
    ``quad_detail`` holds the Fisher integral."""
    return _fisher_route(dist, q, spec, Quantity.EPS_MIN, lambda log_f: safe_exp(-q * log_f))


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
    ``quad_detail`` holds it, and the width is its 1/(1-q) power taken from
    its logarithm.  Shifting the density cannot change the result."""
    q = _require_order(q)
    if q == 1.0:
        raise DomainError("posterior width is undefined at q = 1")
    log_scale = LN2 + math.log(dist.gamma_scale) + q * dist.log_norm_const
    label = f"posterior width quadrature (alpha={dist.alpha}, q={q})"
    return _moment(
        Quantity.POSTERIOR_WIDTH, dist.alpha, 0.0, 2.0 * q, log_scale,
        lambda log_i: safe_exp(log_i / (1.0 - q)), spec, label,
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

    In ``y = x / gamma`` the moment is ``C gamma**(1 + 1/q)`` times the
    kernel integral over the real line about ``eps / gamma``, split at the
    cusp there (not folded), so its independence of ``eps`` is a genuine
    numerical check.  ``quad_detail`` holds the moment; the error is its
    q-th power, taken from its logarithm."""
    q = _require_order(q)
    eps = float(eps)
    a, g = dist.alpha, dist.gamma_scale
    log_scale = dist.log_norm_const + (1.0 + 1.0 / q) * math.log(g)
    label = f"mean error quadrature (alpha={a}, q={q}, eps={eps})"
    return _moment(
        Quantity.MEAN_ERROR, a, 1.0 / q, 2.0, log_scale,
        lambda log_m: safe_exp(q * log_m), spec, label, shift=eps / g,
    )


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
