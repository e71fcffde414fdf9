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
``s = |x - eps|/gamma`` in units of its own mass scale ``t`` and in
``u = t**alpha``, where it peaks at ``u = 1`` whatever the order or the
shape, split there and with an endpoint power map on its first panel; the
mass scale joins the prefactors in log space (see ``_moment``).  The mean
error is therefore independent of the shift by construction.  The
distance route folds the unit-scale probe's integrand about the crossing
``e/2``, ``e = |eps|/gamma``, onto one half-line measured from the copy at
``e``, and takes the gap between the two log densities without
cancellation.  At q > 1 the folded term vanishes like
``(e - 2s)**(1/q)`` at the crossing, an endpoint singularity, so the piece
below a crossing that is a split point is integrated under a power map that
flattens it; at q <= 1 the map is the identity and is not applied (see
``hellinger_distance``).

Each quadrature route declares the map from its integral to the quantity
as a root: for its integral ``I``, every prefactor taken in log space, the
value is ``exp(ln I / root)``.  A route that reports a multiple of the
Fisher integral adds the log of that factor to the prefactors.

    route                        root       log factor
    distance, Fisher             1          0
    sensitivity_quadrature       -1/q       0
    posterior_width_quadrature   1 - q      0
    mean_error_quadrature        1/q        0
    hellinger_linearized         1          (ln q + ln |eps|) / q - ln 2
    mean_energy_quadrature       1          -2 ln 2

A closed value that leaves double range, by overflow or by underflow to 0,
raises OverflowError; a quadrature route's root of its integral ends in
``safe_exp`` instead, so beyond double range it reads 0 or inf.

Weak-signal behaviour: to first order in the shift,
``D_q ~ (q**(1/q) / 2) * |eps|**(1/q) * F_q``.  ``hellinger_linearized``
adds the log of the factor in front of F_q to the Fisher route's log
prefactor, so where the factor or F_q alone leaves double range the product
still reads its value, and beyond double range it reads 0 or inf.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Sequence

from .numerics import (
    EXP_MAX,
    LN2,
    ConvergenceError,
    DomainError,
    QuadratureResult,
    QuadratureSpec,
    _tail,
    integrate_half_line,
    log_gamma,
    safe_exp,
    tail_node_error,
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
    ``I``.  The route's declared root gives ``value = exp(ln I / root)``:
    for every route with root 1 that is ``I`` itself.
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
    """Gamma argument of the closed Fisher form: (alpha + q - 1) / (alpha * q).

    Raises ``DomainError`` under the closed form's rules: a positive finite
    order and shape, and alpha > 1 - q."""
    q = _require_order(q)
    if not (0.0 < alpha < math.inf):
        raise DomainError(f"shape alpha must be positive and finite, got {alpha}")
    _require_fisher_domain(alpha, q)
    return (alpha + q - 1.0) / (alpha * q)


def _require_fisher_domain(alpha: float, q: float) -> None:
    """F_q is finite only for alpha > 1 - q: below it ``P |score|**(1/q)``
    is not integrable at the origin."""
    if alpha <= 1.0 - q:
        raise DomainError(f"F_q needs alpha > 1 - q; got alpha = {alpha}, q = {q}")


def _require_width_order(q: float) -> float:
    """The width's exponent ``1/(1 - q)`` needs a positive order q != 1."""
    q = _require_order(q)
    if q == 1.0:
        raise DomainError("posterior width is undefined at q = 1")
    return q


def _log_fisher_closed(dist: ProbeDistribution, q: float) -> float:
    """Log of the closed Fisher form, valid for q > 0 and alpha > 1 - q."""
    a = dist.alpha
    argument = fisher_gamma_argument(a, q)  # checks the order and the domain
    ln_scale = math.log(a) + LN2 / a - math.log(dist.gamma_scale)
    return ln_scale / q + log_gamma(argument) - log_gamma(1.0 / a)


def _closed(quantity: Quantity, log_value: float) -> MeasureValue:
    """The closed value ``exp(log_value)``; raises OverflowError when it
    leaves double range, by overflow or by underflow to 0."""
    value = math.exp(log_value)
    if value == 0.0:
        raise OverflowError(f"closed {quantity.value} underflows to 0")
    return MeasureValue(quantity, value, Method.CLOSED_FORM)


# Engine outcomes of the running command, one per (kernel, merged spec);
# None outside ``shared_integrals``.
_RUNS: ContextVar[dict | None] = ContextVar("genfisher_runs", default=None)


@contextmanager
def shared_integrals() -> Iterator[None]:
    """Inside the block, each distinct named integral runs the engine once.

    The moment routes' integral depends on the shape and the power only
    (see ``_moment``), so ``fisher_quadrature`` and ``sensitivity_quadrature``
    at one point, the width at alpha = 1 and the Fisher route there, or the
    Fisher route at alpha = 2 and the mean error at the same order, read one
    run; the distance's depends on the shift only through ``|eps| / gamma``
    (see ``hellinger_distance``), so ``+-eps`` read one run.  The outcomes
    are dropped when the block exits, however it exits, so nothing outlives
    it; ``cli.run_sweep`` and ``cli.verify_report`` each run in one such
    block."""
    token = _RUNS.set({})
    try:
        yield
    finally:
        _RUNS.reset(token)


def _quadrature(
    quantity: Quantity,
    kernel: tuple,
    integrand: Callable[[float], float],
    tail: Callable[[float], Callable[[float], float] | None],
    splits: set[float],
    spec: QuadratureSpec | None,
    label: Callable[[], str],
    log_scale: float,
    root: float = 1.0,
) -> MeasureValue:
    """Integrate the unit-scale kernel ``integrand`` over [0, inf), its last
    piece built by ``tail`` (see ``integrate_half_line``), under ``spec``
    (the default when None) with the route's ``splits`` merged in; for its
    integral ``I`` and ``L = log_scale + log I`` the value is
    ``exp(L / root)`` and ``quad_detail`` holds ``exp(L)``, its error
    estimate scaled the same way.  Raises ``ConvergenceError`` with that
    result and the same map of the best estimate when the quadrature did
    not converge; ``label()`` names the integral there.

    Engine contract: ``integrate_half_line`` is looked up in this module
    when it runs, so wrappers installed on it see every integral that
    runs.  ``kernel`` names the integral, the identity of ``integrand`` and
    ``tail``: inside ``shared_integrals`` the engine's raw result, or the
    exception it raised, is kept under ``(kernel, merged spec)`` and handed
    to every later caller with that key, which then applies its own map and
    label.  Outside the block the integral takes the same path through a
    dict of its own, dropped on return.
    """
    spec = QuadratureSpec(split_points=sorted(splits)) if spec is None else spec.with_splits(splits)
    runs = _RUNS.get()
    if runs is None:
        runs = {}
    key = (kernel, spec)
    if key not in runs:
        try:
            runs[key] = integrate_half_line(integrand, spec, tail)
        except Exception as exc:
            runs[key] = exc
            raise
    result = runs[key]
    if isinstance(result, Exception):
        raise result.with_traceback(None)
    log_value, log_error = (
        log_scale + math.log(v) if v > 0.0 else -math.inf
        for v in (result.value, result.abs_error_estimate)
    )
    value = safe_exp(log_value / root)
    result = QuadratureResult(
        safe_exp(log_value), safe_exp(log_error), result.converged, result.evaluations
    )
    if not result.converged:
        raise ConvergenceError(f"{label()} did not converge", result, value)
    return MeasureValue(quantity, value, Method.QUADRATURE, result)


def _moment(
    quantity: Quantity,
    alpha: float,
    p: float,
    c: float,
    log_scale: float,
    spec: QuadratureSpec | None,
    label: Callable[[], str],
    root: float = 1.0,
) -> MeasureValue:
    """``exp((log_scale + log I) / root)`` for the moment kernel
    ``I = int_0^inf s**p exp(-c s**alpha)`` in the folded reduced variable
    ``s = |x - eps| / gamma``; ``_quadrature`` applies the map.

    Mass scale: with ``b = max(p / alpha, 1)`` and
    ``sigma = (b / c)**(1/alpha)``, ``s = sigma t`` gives
    ``I = sigma**(p+1) e**-b int_0^inf t**p exp(-b (t**alpha - 1)) dt``,
    and ``(p + 1) ln sigma - b`` joins ``log_scale``.  The whole integral
    is taken in ``u = t**alpha``, where the kernel is the gamma integrand
    ``(1/alpha) u**(lam - 1) exp(-b (u - 1))``, ``lam = (p + 1)/alpha``
    (DLMF 5.2.1).  It peaks at ``u = 1`` (for ``p / alpha < 1`` that is its
    e-fold edge) at a value of order 1, whatever the order, the shape or
    the scale, and it is split there; the integral thus depends on
    ``(alpha, p)`` and the spec alone, which ``_quadrature`` is given as its
    identity.  In ``t`` the same kernel has a cliff about ``1/alpha`` wide
    at ``t = 1``, which four seed panels cannot see at large shapes; in
    ``u`` it does not exist.

    The engine gets the kernel as two integrands, each chosen once per
    integral, so an evaluation is one Python call.  The head, on ``u < 1``,
    substitutes ``u = tau**m``, ``n = ceil(lam)``, ``m = n / lam``, and
    integrates the integer power times smooth exponential
    ``(m/alpha) tau**(n-1) exp(-b (tau**m - 1))``, bounded even where
    ``u**(lam - 1)`` is singular; where ``e**b`` overflows it is taken in
    log form, ``(m/alpha) exp((n-1) ln tau - b expm1(m ln tau))``, whose
    ``expm1`` keeps the digits of the exponent next to the spike.  Beyond 1
    the head is the gamma integrand itself, in log form: no power of the
    variable sits in the exponent, so nothing overflows before the
    exponential decays, and at small ``alpha`` it decays like ``e**-u``,
    where in ``t`` the same mass reaches out to ``t ~ 1e16``
    (``alpha = 0.1``).  The tail, from the last split ``a`` on, is written
    out in the half-line map's variable, ``u = a + r/(1 - r)`` with Jacobian
    ``1/(1 - r)**2`` and ``safe_exp``'s overflow to inf inline: the bits of
    the generic map composed with the gamma integrand.  A split beyond 1,
    the spike's or a caller's, puts part of the gamma side in the head's
    pieces.

    Narrow features sit on splits, so seed nodes never have to find them:
    at tiny orders the peak is a spike ``1/sqrt(b)`` wide on both sides of
    ``u = 1`` (``m`` is then near 1), bracketed by splits at ``1 +- w``,
    ``w = 8/sqrt(b)``, eight widths out, where ``w < 1/16``; where ``lam``
    is small (the width and the mean error at ``alpha >> p``), ``m = n/lam``
    is large and ``tau**m`` puts a cliff ``1/m`` wide below ``tau = 1``,
    bracketed by a split at ``1 - 40/m`` (a foot of ``e**-40``) where
    ``m > 1024``.
    """
    b = max(p / alpha, 1.0)
    log_sigma = (math.log(b) - math.log(c)) / alpha
    lam = (p + 1.0) / alpha
    n = math.ceil(lam)
    m = n / lam
    k, ma, nb = n - 1, m / alpha, -b
    e = lam - 1.0
    exp, expm1, log = math.exp, math.expm1, math.log

    def gamma_form(u: float) -> float:
        return safe_exp(e * log(u) + nb * (u - 1.0)) / alpha

    if b > EXP_MAX:
        def head(u: float) -> float:
            if u < 1.0:
                return ma * exp(k * log(u) + nb * expm1(m * log(u)))
            return gamma_form(u)
    else:
        def head(u: float) -> float:
            if u < 1.0:
                return ma * u**k * exp(nb * (u**m - 1.0))
            return gamma_form(u)

    def tail(a: float) -> Callable[[float], float]:
        def mapped(r: float) -> float:
            w = 1.0 - r
            try:
                u = a + r / w
            except ZeroDivisionError:
                raise tail_node_error(r, a) from None
            try:
                v = exp(e * log(u) + nb * (u - 1.0))
            except OverflowError:
                v = math.inf
            return v / alpha / (w * w)

        return mapped

    log_scale += (p + 1.0) * log_sigma - b
    w = 8.0 / math.sqrt(b)
    splits = {1.0, 1.0 - w, 1.0 + w} if w < 0.0625 else {1.0}
    if m > 1024.0:
        splits.add(1.0 - 40.0 / m)
    return _quadrature(quantity, (alpha, p), head, tail, splits, spec, label, log_scale, root)


# The distance integrand keeps its constants in closure locals and writes the
# folded gap out in place, one Python call per term (tests/test_measures.py
# compares it with its plain composition).
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
    added in log space, and the integral is named ``(alpha, q, e)``.

    Fold: ``f(s) = |P^q(s - e) - P^q(s)|**(1/q)`` is symmetric about the
    crossing ``e/2``, so ``D_q = int_0^inf g(s) ds`` with
    ``g(s) = f(e + s) + f(e - s) [s < e/2]``: one half-line integral in the
    distance ``s`` from the copy at ``e``, and even in the shift by
    construction.  It splits at 1 and 4, plus the crossing when it lies
    below 4, so each bump sits on panels of its own width, whatever the
    size of the shift.

    Cliffs: each copy's edge is a cliff about ``1/alpha`` wide, and past
    alpha = 256 the engine's four seed panels per piece cannot be trusted
    to see one, so each edge is a split: it is bracketed at ``+-k``,
    ``k = 40 max(q, 1)/alpha``, inside (0, 4).  That leaves a foot of
    ``e**-40``: inside a copy the term falls like ``s**(alpha/q)``, q times
    wider than the cliff above order one.  The edges are the near copy's at
    ``s = 1`` and, while e < 2, the far copy's at ``s = |1 - e|``:
    ``f(e + s)`` meets it at ``1 - e`` for e < 1, and ``f(e - s)`` at
    ``e - 1`` for 1 < e < 2.  A bracket point inside the crossing map's
    piece is taken into the map's variable, ``x = h - w ((h - s)/w)**(1/n)``
    (below).

    Crossing map: the fold's term ``f(e - s)`` vanishes like
    ``(e/2 - s)**(1/q)`` at the crossing, an endpoint singularity for
    q > 1.  When the crossing ``h = e/2`` is a split (``h < 4``), the piece
    ``[b, h)``, ``b = 1`` if ``h > 1`` else 0, is taken in ``x`` with
    ``h - s = w ((h - x)/w)**n``, ``w = h - b``, ``n = min(ceil(q), 4)``,
    and Jacobian ``n ((h - x)/w)**(n - 1)``: the term times the Jacobian
    goes like ``(h - x)**(n/q + n - 1)``, exponent at least 1, and the
    fold's distance ``d = 2 (h - s)`` is taken from the map, not from the
    cancelling ``e - 2s``.  The cap 4 keeps the piece's mass where the
    first panel's nodes see it (``r**n`` crowds it into ``x - b < w/n``).
    The map is a bijection of ``[b, h)`` that fixes both ends, so the
    integral is that of ``s``; at q <= 1, ``n = 1`` and it is not applied.

    Gap: at a point a distance ``s`` from the nearer copy and ``s + d``
    from the farther one, ``lo = s**alpha`` (taken once for both terms) and
    the log-density gap is ``-2q lo expm1(alpha log1p(d/s))``, free of the
    cancellation in ``u**alpha - v**alpha``.  The term is
    ``exp(-2 lo + log(-expm1(gap))/q)``.  Where ``d >= s``, ``lo``
    underflows to 0 or the ``expm1`` overflows (only past alpha = 1024),
    the gap is the plain difference of the two powers, which then cancels
    at most ``1/(2**alpha - 1)``.  A power beyond double range leaves the
    nearer bump alone, ``exp(-2 lo)``, 0 where ``lo`` itself overflows.
    A non-finite shift raises DomainError before any evaluation.

    Support: both terms are at most ``exp(-2 s**alpha)``, and past the last
    split ``a`` the folded variable is ``s`` itself, so the integrand is
    exactly +0.0 there once ``a**alpha >= 373`` (``exp(-746.0) == 0.0``;
    alpha > 4.27 at ``a = 4``).  The tail piece is then left out, which
    moves no bit; otherwise it is the engine's generic tail map of the
    integrand.
    """
    q, eps = _require_order(q), _require_shift(eps)
    alpha, e = dist.alpha, abs(eps) / dist.gamma_scale
    half = 0.5 * e
    two_q = 2.0 * q
    splits = {1.0, 4.0, half} if half < 4.0 else {1.0, 4.0}
    n = min(math.ceil(q), 4) if half < 4.0 else 1
    base = 1.0 if half > 1.0 else 0.0
    w = half - base
    if alpha > 256.0:
        k = 40.0 * max(q, 1.0) / alpha
        for c in (1.0, abs(1.0 - e)) if e < 2.0 else (1.0,):
            for s in (c - k, c + k):
                if n > 1 and base <= s < half:
                    s = half - w * ((half - s) / w) ** (1.0 / n)
                if 0.0 < s < 4.0:
                    splits.add(s)
    exp, expm1, log, log1p = math.exp, math.expm1, math.log, math.log1p

    # One folded term; neither exponent is positive, so exp cannot overflow.
    def bump(s: float, lo: float, d: float) -> float:
        try:
            if d < s and lo > 0.0:
                try:
                    gap = -two_q * lo * expm1(alpha * log1p(d / s))
                except OverflowError:  # only past alpha = 1024
                    gap = two_q * (lo - (s + d) ** alpha)
            else:
                gap = two_q * (lo - (s + d) ** alpha)
        except OverflowError:
            return exp(-2.0 * lo)
        # nan where -2q lo overflows at d == 0; exp(-2 lo) is 0 there too
        if not gap < 0.0:
            return 0.0
        return exp(-2.0 * lo + log(-expm1(gap)) / q)

    # Both terms are 0 where ``s**alpha`` leaves double range.
    def integrand(x: float) -> float:
        if n > 1 and base <= x < half:
            r = (half - x) / w
            t = w * r**n  # half - s, whose double is the fold's d
            s = half - t
            try:
                lo = s**alpha
            except OverflowError:
                return 0.0
            return n * r ** (n - 1) * (bump(s, lo, e) + bump(s, lo, 2.0 * t))
        try:
            lo = x**alpha
        except OverflowError:
            return 0.0
        if x >= half:
            return bump(x, lo, e)
        return bump(x, lo, e) + bump(x, lo, e - 2.0 * x)

    def tail(a: float) -> Callable[[float], float] | None:
        try:
            if a**alpha >= 373.0:
                return None
        except OverflowError:
            return None
        return _tail(integrand, a, 1.0)

    label = lambda: f"distance quadrature (alpha={alpha}, q={q}, eps={eps})"
    log_c = ProbeDistribution(alpha, 1.0).log_norm_const
    kernel = ("distance", alpha, q, e)
    return _quadrature(Quantity.DISTANCE, kernel, integrand, tail, splits, spec, label, log_c)


def hellinger_linearized(
    dist: ProbeDistribution,
    eps: float,
    q: float,
    spec: QuadratureSpec | None = None,
) -> MeasureValue:
    """First-order weak-signal approximation (q**(1/q) / 2) |eps|**(1/q) F_q.

    The Fisher route with the log of that factor (-inf at zero shift) among
    its prefactors, so it inherits that domain (``alpha > 1 - q``) and reads
    0 or inf beyond double range; ``quad_detail`` holds the value.  A
    non-finite shift raises DomainError before the quadrature runs."""
    q, eps = _require_order(q), _require_shift(eps)
    log_factor = (math.log(q) + math.log(abs(eps))) / q - LN2 if eps else -math.inf
    return _fisher_route(dist, q, spec, Quantity.DISTANCE, log_factor=log_factor)


def _fisher_route(
    dist: ProbeDistribution,
    q: float,
    spec: QuadratureSpec | None,
    quantity: Quantity,
    root: float = 1.0,
    log_factor: float = 0.0,
) -> MeasureValue:
    """Quadrature of P * |score|**(1/q), reported as
    ``exp((log_factor + ln F_q) / root)``.

    With ``x = gamma s`` and the even integrand folded onto [0, inf),
    ``F_q = 2 C gamma (2 alpha / gamma)**(1/q) int s**((alpha-1)/q) exp(-2 s**alpha)``:
    the moment kernel, whose first-panel map keeps the origin -- singular
    for alpha < 1 -- finite.  Needs ``alpha > 1 - q`` for integrability.
    """
    q = _require_order(q)
    a, g = dist.alpha, dist.gamma_scale
    _require_fisher_domain(a, q)
    log_g = math.log(g)
    log_scale = dist.log_norm_const + LN2 + log_g + (LN2 + math.log(a) - log_g) / q + log_factor
    label = lambda: f"Fisher quadrature (alpha={a}, q={q})"
    return _moment(quantity, a, (a - 1.0) / q, 2.0, log_scale, spec, label, root)


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
    return _closed(Quantity.FISHER, _log_fisher_closed(dist, q))


def sensitivity_closed(dist: ProbeDistribution, q: float) -> MeasureValue:
    """Minimum detectable shift eps_min = F_q**(-q), closed form."""
    return _closed(Quantity.EPS_MIN, -q * _log_fisher_closed(dist, q))


def sensitivity_quadrature(
    dist: ProbeDistribution,
    q: float,
    spec: QuadratureSpec | None = None,
) -> MeasureValue:
    """Minimum detectable shift F_q**(-q) through the quadrature Fisher
    route, its root ``-1/q`` taken from ln F_q so it stays in range where
    F_q does not; ``quad_detail`` holds the Fisher integral."""
    q = _require_order(q)
    return _fisher_route(dist, q, spec, Quantity.EPS_MIN, root=-1.0 / q)


def posterior_width_closed(dist: ProbeDistribution, q: float) -> MeasureValue:
    """Order-q entropy length of the posterior shift distribution,

        width = q**(-1/(alpha (1-q))) * 2 Gamma(1/alpha) gamma / (alpha 2**(1/alpha)),

    undefined at q = 1 (exponent 1/(1-q))."""
    q = _require_width_order(q)
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
    q = _require_width_order(q)
    log_scale = LN2 + math.log(dist.gamma_scale) + q * dist.log_norm_const
    label = lambda: f"posterior width quadrature (alpha={dist.alpha}, q={q})"
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
    q, eps = _require_order(q), _require_shift(eps)
    a = dist.alpha
    log_scale = dist.log_norm_const + LN2 + (1.0 + 1.0 / q) * math.log(dist.gamma_scale)
    label = lambda: f"mean error quadrature (alpha={a}, q={q})"
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
