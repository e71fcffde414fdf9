"""Adaptive Gauss-Kronrod quadrature on unbounded domains, plus log-gamma.

Integration strategy
--------------------
The integration domain is cut at every caller-declared split point, so no
quadrature panel ever straddles a point where the integrand is singular or
non-smooth.  Each unbounded tail piece ``[a, inf)`` is mapped onto the finite
cell ``[0, 1)`` by the rational change of variable

    x = a + t / (1 - t),        dx = dt / (1 - t)**2,

and ``(-inf, b]`` by its mirror image ``x = b - t / (1 - t)``.  This map is
fixed (never tuned per integrand) so that results are reproducible.  A
half-line caller may give its last piece already in the map's variable
(``integrate_half_line``'s ``tail``), written out in one function instead
of composed through the generic map.

Every piece is seeded with ``INITIAL_PANELS`` uniform panels (fewer when the
budget is short, never fewer than one per piece), evaluated with the embedded
7/15-point Gauss-Kronrod pair, and refined globally: the panel carrying the
largest error estimate is bisected until

    total_error <= rel_tol * |value|,

the evaluation budget is exhausted, or no further bisection can help (panels
narrower than ``MIN_PANEL_WIDTH`` are frozen but keep contributing their
error estimate, so an intractable singularity is reported as non-convergence
rather than silently dropped).

The Kronrod weights are all positive, so the estimate of a nonnegative
integrand is itself nonnegative.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Sequence

__all__ = [
    "DomainError",
    "IntegrandError",
    "ConvergenceError",
    "QuadratureSpec",
    "QuadratureResult",
    "log_gamma",
    "integrate_real_line",
    "integrate_half_line",
]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class IntegrandError(ValueError):
    """The integrand produced a non-finite value away from any split point."""


class ConvergenceError(RuntimeError):
    """A quadrature did not reach the requested tolerance.

    The best available ``QuadratureResult`` is attached as ``result`` and
    the best estimate of the measured quantity as ``value``.
    """

    def __init__(self, message: str, result: "QuadratureResult", value: float | None = None):
        super().__init__(message)
        self.result = result
        self.value = result.value if value is None else value


# Embedded 7-point Gauss / 15-point Kronrod pair on [-1, 1]:
# (abscissa, Gauss weight, Kronrod weight); Gauss weight 0 marks
# Kronrod-only nodes.  The center node is listed separately.
_GK_NODES = (
    (0.991455371120813, 0.0, 0.022935322010529),
    (0.949107912342759, 0.129484966168870, 0.063092092629979),
    (0.864864423359769, 0.0, 0.104790010322250),
    (0.741531185599394, 0.279705391489277, 0.140653259715525),
    (0.586087235467691, 0.0, 0.169004726639267),
    (0.405845151377397, 0.381830050505119, 0.190350578064785),
    (0.207784955007898, 0.0, 0.204432940075298),
)
_GAUSS_CENTER_W = 0.417959183673469
_KRONROD_CENTER_W = 0.209482141084728
# The same table by column, for the unrolled panel kernel.
_GK_XI = tuple(xi for xi, _, _ in _GK_NODES)
_GK_WG = tuple(wg for _, wg, _ in _GK_NODES if wg)
_GK_WK = tuple(wk for _, _, wk in _GK_NODES)

_EVALS_PER_PANEL = 15
_MACHINE_EPS = 2.220446049250313e-16

LN2 = math.log(2.0)
#: exp() overflow threshold for double precision, rounded down; the sampling
#: checks bound their logarithms by it.
EXP_MAX = 709.0

#: Uniform panels each piece is seeded with before adaptive refinement.
#: Four are enough because no route leaves a narrow feature for the seed
#: nodes to find: every cliff and spike is a split point (``measures``).
#: Three are not: the distance at alpha = 0.3, q = 0.1, eps/gamma = 1e-4
#: converges 3.1e-4 low.
INITIAL_PANELS = 4

#: Panels narrower than this are frozen instead of bisected further.
MIN_PANEL_WIDTH = 1e-300


@dataclass(frozen=True)
class QuadratureSpec:
    """Relative tolerance, budget, and split points for one integration.

    ``split_points`` lists interior locations where the integrand may be
    singular or non-smooth; the domain is always subdivided there.
    """

    rel_tol: float = 1e-9
    max_evaluations: int = 2_000_000
    split_points: tuple[float, ...] = ()

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf):
            raise DomainError(f"rel_tol must be positive and finite, got {self.rel_tol}")
        if not is_count(self.max_evaluations, 1):
            raise DomainError(
                f"max_evaluations must be at least 1 and an integer, got {self.max_evaluations}"
            )
        pts = tuple(float(p) for p in self.split_points)
        if any(not math.isfinite(p) for p in pts):
            raise DomainError("split points must be finite")
        object.__setattr__(self, "split_points", pts)

    def with_splits(self, extra: Sequence[float]) -> "QuadratureSpec":
        """Copy of this spec with additional split points merged in."""
        merged = tuple(sorted(set(self.split_points) | {float(p) for p in extra}))
        return QuadratureSpec(self.rel_tol, self.max_evaluations, merged)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    converged: bool
    evaluations: int


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for strictly positive argument."""
    if not (x > 0.0):
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def is_count(n, least: int) -> bool:
    """Whether ``n`` is an integer (numpy's included, a bool not) of at least ``least``."""
    return isinstance(n, Integral) and not isinstance(n, bool) and n >= least


def safe_exp(x: float) -> float:
    """``exp(x)``, inf where it overflows (``math.exp`` already underflows
    to 0); integrands built in log space end with it."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _gk_panel(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Gauss-Kronrod estimate and scaled error estimate for one panel.

    The error estimate follows the usual practice of scaling the raw
    Gauss/Kronrod difference against the panel's variation, which sharpens
    it for smooth panels and keeps it honest next to singular endpoints.

    Written out node by node: the integrand is called at the center, then
    at ``center -+ half * xi`` for each abscissa in ``_GK_NODES`` order, and
    every sum is a fixed left-to-right chain (never ``sum()``, whose
    rounding changed in Python 3.12), so the bits do not depend on the
    Python version.
    """
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x0, x1, x2, x3, x4, x5, x6 = _GK_XI
    g1, g3, g5 = _GK_WG
    k0, k1, k2, k3, k4, k5, k6 = _GK_WK
    kc = _KRONROD_CENTER_W
    fc = f(center)
    l0 = f(center - half * x0)
    h0 = f(center + half * x0)
    l1 = f(center - half * x1)
    h1 = f(center + half * x1)
    l2 = f(center - half * x2)
    h2 = f(center + half * x2)
    l3 = f(center - half * x3)
    h3 = f(center + half * x3)
    l4 = f(center - half * x4)
    h4 = f(center + half * x4)
    l5 = f(center - half * x5)
    h5 = f(center + half * x5)
    l6 = f(center - half * x6)
    h6 = f(center + half * x6)
    s1 = l1 + h1
    s3 = l3 + h3
    s5 = l5 + h5
    gauss = _GAUSS_CENTER_W * fc + g1 * s1 + g3 * s3 + g5 * s5
    kron = (
        kc * fc + k0 * (l0 + h0) + k1 * s1 + k2 * (l2 + h2) + k3 * s3
        + k4 * (l4 + h4) + k5 * s5 + k6 * (l6 + h6)
    )
    resabs = (
        kc * abs(fc) + k0 * (abs(l0) + abs(h0)) + k1 * (abs(l1) + abs(h1))
        + k2 * (abs(l2) + abs(h2)) + k3 * (abs(l3) + abs(h3))
        + k4 * (abs(l4) + abs(h4)) + k5 * (abs(l5) + abs(h5))
        + k6 * (abs(l6) + abs(h6))
    )
    # A nan or inf node value makes resabs non-finite; finite values
    # near the top of the double range can too, so only then look closer.
    if not math.isfinite(resabs) and not all(
        map(math.isfinite, (fc, l0, h0, l1, h1, l2, h2, l3, h3, l4, h4, l5, h5, l6, h6))
    ):
        raise IntegrandError(
            f"integrand returned a non-finite value inside panel [{a!r}, {b!r}]; "
            "declare the offending location as a split point or tighten the domain"
        )
    mean = 0.5 * kron
    resasc = math.fsum((
        kc * abs(fc - mean),
        k0 * abs(l0 - mean), k0 * abs(h0 - mean), k1 * abs(l1 - mean), k1 * abs(h1 - mean),
        k2 * abs(l2 - mean), k2 * abs(h2 - mean), k3 * abs(l3 - mean), k3 * abs(h3 - mean),
        k4 * abs(l4 - mean), k4 * abs(h4 - mean), k5 * abs(l5 - mean), k5 * abs(h5 - mean),
        k6 * abs(l6 - mean), k6 * abs(h6 - mean),
    ))
    err = abs(kron - gauss) * half
    resabs *= half
    resasc *= half
    if resasc != 0.0 and err != 0.0:
        ratio = 200.0 * err / resasc
        err = resasc * ratio**1.5 if ratio < 1.0 else resasc
    err = max(err, 50.0 * _MACHINE_EPS * resabs)
    return kron * half, err


def _adaptive(pieces, spec: QuadratureSpec) -> QuadratureResult:
    """Globally adaptive refinement over transformed pieces.

    ``pieces`` is a list of ``(integrand, lo, hi)`` with finite bounds; the
    integrands already include any change-of-variable Jacobian.  A budget
    below one panel per piece raises DomainError before any evaluation.
    """
    budget = spec.max_evaluations
    minimum = _EVALS_PER_PANEL * len(pieces)
    if budget < minimum:
        raise DomainError(
            f"max_evaluations = {budget} is below the minimum {minimum}: one "
            f"{_EVALS_PER_PANEL}-point panel for each of {len(pieces)} pieces"
        )
    n_init = min(INITIAL_PANELS, budget // minimum)
    heap: list = []
    total = 0.0
    total_err = 0.0
    frozen_err = 0.0
    evals = 0
    counter = 0
    for fn, lo, hi in pieces:
        width = hi - lo
        for i in range(n_init):
            pa = lo + width * i / n_init
            pb = lo + width * (i + 1) / n_init
            value, err = _gk_panel(fn, pa, pb)
            evals += _EVALS_PER_PANEL
            total += value
            total_err += err
            heap.append((-err, counter, pa, pb, value, fn))
            counter += 1
    # Keys are unique: heapify pops as pushing one panel at a time would.
    heapq.heapify(heap)
    while True:
        target = spec.rel_tol * abs(total)
        if total_err <= target:
            return QuadratureResult(total, total_err, True, evals)
        if frozen_err > target or not heap or evals + 2 * _EVALS_PER_PANEL > budget:
            return QuadratureResult(total, total_err, False, evals)
        neg_err, _, pa, pb, value, fn = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if pb - pa < MIN_PANEL_WIDTH or not (pa < mid < pb):
            frozen_err += -neg_err
            continue
        v_lo, e_lo = _gk_panel(fn, pa, mid)
        v_hi, e_hi = _gk_panel(fn, mid, pb)
        evals += 2 * _EVALS_PER_PANEL
        total += v_lo + v_hi - value
        total_err += e_lo + e_hi + neg_err
        heapq.heappush(heap, (-e_lo, counter, pa, mid, v_lo, fn))
        counter += 1
        heapq.heappush(heap, (-e_hi, counter, mid, pb, v_hi, fn))
        counter += 1


def tail_node_error(t: float, anchor: float) -> IntegrandError:
    """The error for a tail node ``t`` that rounds onto 1, which the map
    sends to infinity: refinement has chased the integrand's mass past what
    the map can resolve."""
    return IntegrandError(
        f"tail node t = {t!r} maps to infinity beyond anchor {anchor!r}: the "
        "integrand's mass lies beyond the tail map's resolution"
    )


def _tail(f: Callable[[float], float], anchor: float, sign: float) -> Callable[[float], float]:
    """``f`` on ``anchor + sign * [0, inf)``, mapped onto [0, 1).

    A node that rounds onto t = 1 raises ``tail_node_error``; a
    ZeroDivisionError raised by ``f`` itself passes through."""

    def transformed(t: float) -> float:
        u = 1.0 - t
        try:
            return f(anchor + sign * (t / u)) / (u * u)
        except ZeroDivisionError:
            if u != 0.0:
                raise
            raise tail_node_error(t, anchor) from None

    return transformed


def integrate_real_line(
    f: Callable[[float], float], spec: QuadratureSpec | None = None
) -> QuadratureResult:
    """Integrate ``f`` over the whole real line.

    The line is cut at every split point (at 0 when none are given), the two
    unbounded tails are mapped onto [0, 1), and all pieces are refined under
    a single shared budget and error target.
    """
    spec = spec or QuadratureSpec()
    points = sorted(set(spec.split_points)) or [0.0]
    pieces = [(_tail(f, points[0], -1.0), 0.0, 1.0)]
    for lo, hi in zip(points, points[1:]):
        pieces.append((f, lo, hi))
    pieces.append((_tail(f, points[-1], 1.0), 0.0, 1.0))
    return _adaptive(pieces, spec)


def integrate_half_line(
    f: Callable[[float], float],
    spec: QuadratureSpec | None = None,
    tail: Callable[[float], Callable[[float], float] | None] | None = None,
) -> QuadratureResult:
    """Integrate ``f`` over [0, inf); ``f`` may be singular at 0.

    The origin is always a panel endpoint, so the integrand is never
    evaluated exactly there unless a node rounds onto it.

    ``tail``, when given, builds the last piece ``[a, inf)``, ``a`` the
    last split point (0 when there is none), in the map's variable:
    ``tail(a)(t)`` must equal ``f(a + t / (1 - t)) / (1 - t)**2`` on
    [0, 1) and raise ``tail_node_error(t, a)`` where a node rounds onto
    t = 1.  ``f`` is then evaluated below ``a`` only.  ``tail(a)`` may
    return None instead where ``f`` is exactly 0 on ``[a, inf)``, ``a > 0``:
    no tail piece is integrated, so where the budget seeds every piece
    with ``INITIAL_PANELS`` the value and its error estimate keep their
    bits.
    """
    spec = spec or QuadratureSpec()
    if any(p < 0.0 for p in spec.split_points):
        raise DomainError("half-line split points must be nonnegative")
    points = sorted({0.0, *spec.split_points})
    pieces = []
    for lo, hi in zip(points, points[1:]):
        pieces.append((f, lo, hi))
    last = tail(points[-1]) if tail else _tail(f, points[-1], 1.0)
    if last is not None:
        pieces.append((last, 0.0, 1.0))
    return _adaptive(pieces, spec)
