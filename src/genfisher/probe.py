"""Exponential power (generalized normal) probe distributions.

The family is

    P(x) = C * exp(-2 |x / gamma|**alpha),
    C    = alpha * 2**(1/alpha) / (2 * gamma * Gamma(1/alpha)),

with shape ``alpha > 0`` and scale ``gamma > 0``: a two-sided exponential at
``alpha = 1``, a Gaussian with standard deviation ``gamma / 2`` at
``alpha = 2``, and approaching a square pulse of width ``~gamma`` as
``alpha`` grows.  All quantities are dimensionless.

A probe can alternatively be constructed from its mean energy ``<E>``, the
mean of ``p**2`` for the real wave function ``sqrt(P)``.  That mean equals
one quarter of the classical Fisher information of the location family, and
fixing it pins the scale to

    gamma = alpha * 2**(1/alpha) / (2 * sqrt(E)) * sqrt(Gamma(2 - 1/alpha) / Gamma(1/alpha)),

which is only finite for ``alpha > 1/2``.  Narrower shapes still define a
valid density; they simply cannot be normalized by energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .numerics import (
    EXP_MAX,
    LN2,
    DomainError,
    QuadratureSpec,
    is_count,
    log_gamma,
    safe_exp,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = ["ProbeDistribution"]


@dataclass(frozen=True)
class ProbeDistribution:
    """Immutable exponential power density; safe to share across threads."""

    alpha: float
    gamma_scale: float

    def __post_init__(self):
        if not (self.alpha > 0.0) or not math.isfinite(self.alpha):
            raise DomainError(f"shape alpha must be positive, got {self.alpha}")
        if not (self.gamma_scale > 0.0) or not math.isfinite(self.gamma_scale):
            raise DomainError(f"scale gamma must be positive, got {self.gamma_scale}")

    @classmethod
    def from_shape_scale(cls, alpha: float, gamma_scale: float) -> "ProbeDistribution":
        """Build from shape and scale."""
        return cls(float(alpha), float(gamma_scale))

    @classmethod
    def from_shape_energy(cls, alpha: float, mean_energy: float) -> "ProbeDistribution":
        """Build from shape and mean energy; requires ``alpha > 1/2``."""
        if not (0.5 < alpha < math.inf):
            raise DomainError(f"energy normalization needs a finite alpha > 1/2; got {alpha}")
        if not (0.0 < mean_energy < math.inf):
            raise DomainError(f"mean energy must be positive and finite, got {mean_energy}")
        gamma_scale = (
            alpha
            * 2.0 ** (1.0 / alpha)
            / (2.0 * math.sqrt(mean_energy))
            * math.sqrt(math.exp(log_gamma(2.0 - 1.0 / alpha) - log_gamma(1.0 / alpha)))
        )
        return cls.from_shape_scale(alpha, gamma_scale)

    @cached_property
    def log_norm_const(self) -> float:
        return (
            math.log(self.alpha)
            + LN2 / self.alpha
            - math.log(2.0 * self.gamma_scale)
            - log_gamma(1.0 / self.alpha)
        )

    @cached_property
    def norm_const(self) -> float:
        """The prefactor ``C`` of the density."""
        return math.exp(self.log_norm_const)

    def log_pdf(self, x: float) -> float:
        """Log density, computed directly so large ``|x/gamma|`` cannot underflow.

        Returns ``-inf`` only when the true value lies below double range.
        """
        try:
            return self.log_norm_const - 2.0 * math.pow(abs(x) / self.gamma_scale, self.alpha)
        except OverflowError:
            return -math.inf

    def pdf(self, x: float) -> float:
        return safe_exp(self.log_pdf(x))

    def score(self, x: float) -> float:
        """Logarithmic derivative of the density,

            d/dx ln P(x) = -sign(x) * 2 * alpha * |x|**(alpha-1) / gamma**alpha.

        Zero at the origin for ``alpha > 1`` (true derivative); for fainter
        shapes the origin is a cusp and the score is undefined there.
        """
        if x == 0.0:
            if self.alpha > 1.0:
                return 0.0
            raise DomainError(
                f"score undefined at x = 0 for alpha = {self.alpha} <= 1 (cusp)"
            )
        return -math.copysign(safe_exp(self.log_score_magnitude(abs(x))), x)

    def log_score_magnitude(self, ax: float) -> float:
        """log |score| at ``|x| = ax > 0``."""
        return (
            math.log(2.0 * self.alpha)
            + (self.alpha - 1.0) * math.log(ax)
            - self.alpha * math.log(self.gamma_scale)
        )

    def mean_energy_quadrature(self, spec: QuadratureSpec | None = None) -> float:
        """Mean energy by quadrature: one quarter of the classical Fisher
        information, the q = 1/2 Fisher route with scale ``1/4``.

        The energy diverges for ``alpha <= 1/2``, where that route raises
        ``DomainError``.  A non-converged quadrature raises
        ``ConvergenceError`` whose ``value`` is the best estimate of the
        energy.
        """
        from .measures import Quantity, _fisher_route  # measures imports this module

        return _fisher_route(self, 0.5, spec, Quantity.FISHER, scale=0.25).value

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` independent values; DomainError if one would pass
        ``exp(EXP_MAX)``, or its power ``(y / 2)**(1/alpha)`` would before the
        scale joins it.

        Uses the exact uniform scale mixture x = gamma * v * (y / 2)**(1/alpha)
        with ``y`` a standard gamma variate of shape ``1 + 1/alpha`` and ``v``
        uniform on (-1, 1).  It holds because
        ``exp(-|w|**alpha) = integral of 1{|w| < y**(1/alpha)} exp(-y) dy``:
        given ``y``, ``w`` is uniform on ``+-y**(1/alpha)``, and ``y`` has the
        Gamma(1 + 1/alpha) law (Walker & Gutierrez-Pena 1999).  A shape of at
        least 1 keeps numpy's gamma sampler off its slow small-shape path, and
        ``y`` cannot underflow.  The gamma draw happens before the uniform
        draw; keep that order for stream-for-stream reproducibility.  The
        transform is ``_from_gamma``, which callers that draw ``y`` themselves
        (the Monte Carlo partitions) share.
        """
        if not is_count(n, 1):
            raise DomainError(f"sample count must be at least 1 and an integer, got {n}")
        return self._from_gamma(rng, rng.standard_gamma(1.0 + 1.0 / self.alpha, size=n))

    def _from_gamma(
        self, rng: np.random.Generator, y: np.ndarray, v: np.ndarray | None = None
    ) -> np.ndarray:
        """The draws for standard gamma variates ``y`` of shape ``1 + 1/alpha``,
        written over ``y``; the uniforms ``u`` come from ``rng``, one per draw,
        into ``v`` if given (it must have ``y``'s size and is left holding
        ``gamma * (2u - 1)``), and each draw is ``gamma * (2u - 1) * (y / 2)**(1/alpha)``."""
        # the largest |draw| is at most gamma * (top / 2)**(1/alpha), and the
        # power is taken before gamma joins it: neither may pass exp(EXP_MAX)
        top = float(y.max())
        if top > 0.0:
            log_power = math.log(0.5 * top) / self.alpha
            if log_power + max(math.log(self.gamma_scale), 0.0) >= EXP_MAX:
                raise DomainError(
                    f"shape alpha = {self.alpha} is too small to sample at gamma = "
                    f"{self.gamma_scale}: a draw overflows double range"
                )
        v = rng.random(y.size, out=v)
        v *= 2.0
        v -= 1.0
        v *= self.gamma_scale
        # in place, the same roundings as (gamma * (2u - 1)) * (0.5 * y)**(1/alpha):
        # the ** operator keeps numpy's sqrt and square paths
        y *= 0.5
        y **= 1.0 / self.alpha
        y *= v
        return y
