"""Monte Carlo single-shot estimation of a location shift.

One trial draws a single outcome ``x`` from the shifted probe and reports
it as the estimate of the shift.  The estimator is unbiased (the probe is
symmetric), and the order-q generalized error of a batch of trials,

    [mean of |x - shift|**(1/q)] ** q,

estimates the closed-form mean error, which these simulations exist to
cross-check.

Its 99% interval is analytic and takes one pass over the sample: a normal
interval for the mean of ``|x - shift|**(1/q)``, shifted by the one-term
Cornish-Fisher skewness correction, then raised to the q-th power.  To
O(1/n) this is the percentile-bootstrap interval of the same statistic
(Hall 1992, *The Bootstrap and Edgeworth Expansion*), without its B
resamples of n values each.

Reproducibility: trials are split into fixed-size partitions and partition
k draws from ``SeedSequence(master_seed).spawn(...)[k]``.  The partitioning
depends only on the trial count, never on worker count or scheduling, so a
plan's report is bit-for-bit reproducible.

The report carries the batch mean and its standard error, so the 3-sigma
unbiasedness rule is ``three_sigma_check(report.empirical_mean,
report.mean_std_error, plan.true_shift)``, with no second draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import mean_error_closed
from .numerics import EXP_MAX, DomainError
from .probe import ProbeDistribution

__all__ = [
    "TrialPlan",
    "TrialReport",
    "UnbiasednessReport",
    "run_trials",
    "three_sigma_check",
]

#: Trials per random substream; fixed so stream layout never depends on workers.
PARTITION_SIZE = 250_000

#: Two-sided coverage of the generalized-error interval.
CI_COVERAGE = 0.99

#: Standard normal quantile at (1 + CI_COVERAGE) / 2, i.e. Phi^-1(0.995).
CI_Z = 2.5758293035489004

#: Unbiasedness rule: the batch mean lies within this many standard errors
#: of the true shift.
BIAS_SIGMAS = 3.0


@dataclass(frozen=True)
class TrialPlan:
    """One Monte Carlo experiment.

    ``bootstrap_resamples`` is deprecated and ignored: the interval is
    analytic.  It is still validated (at least 100) so existing plans keep
    their meaning.
    """

    distribution: ProbeDistribution
    true_shift: float
    q: float
    trials: int
    master_seed: int
    bootstrap_resamples: int = 500

    def __post_init__(self):
        if not (self.q > 0.0) or not math.isfinite(self.q):
            raise DomainError(f"order q must be positive, got {self.q}")
        if self.trials < 1:
            raise DomainError(f"trials must be at least 1, got {self.trials}")
        if self.master_seed < 0:
            raise DomainError(f"master_seed must be nonnegative, got {self.master_seed}")
        if self.bootstrap_resamples < 100:
            raise DomainError(
                f"bootstrap_resamples must be at least 100, got {self.bootstrap_resamples}"
            )
        if not math.isfinite(self.true_shift):
            raise DomainError("true_shift must be finite")


@dataclass(frozen=True)
class TrialReport:
    trials: int
    empirical_mean: float
    mean_std_error: float
    empirical_generalized_error: float
    generalized_error_ci_low: float
    generalized_error_ci_high: float
    predicted_mean_error: float
    max_abs_deviation: float
    seed: int


@dataclass(frozen=True)
class UnbiasednessReport:
    bias: float
    std_error: float
    passed: bool


def _draw_outcomes(plan: TrialPlan) -> np.ndarray:
    """All trial outcomes in partition order."""
    n = plan.trials
    n_parts = (n + PARTITION_SIZE - 1) // PARTITION_SIZE
    children = np.random.SeedSequence(plan.master_seed).spawn(n_parts)
    chunks = []
    remaining = n
    for k in range(n_parts):
        m = min(PARTITION_SIZE, remaining)
        rng = np.random.default_rng(children[k])
        chunks.append(plan.distribution.sample(rng, m) + plan.true_shift)
        remaining -= m
    return np.concatenate(chunks)


def _mean_interval(y: np.ndarray, m: float) -> tuple[float, float]:
    """Cornish-Fisher interval for the mean ``m`` of ``y``, lower end >= 0.

    With standard error se and sample skewness g1, the ``CI_COVERAGE``
    quantiles of the bootstrap distribution of the mean are
    m + se * (-+z + g1 * (z**2 - 1) / (6 sqrt(n))) to O(1/n).
    """
    n = y.size
    d = y - m
    d2 = d * d
    m2 = float(np.mean(d2))
    if m2 == 0.0:  # a single trial, or every trial alike
        return m, m
    se = math.sqrt(m2 / (n - 1))
    g1 = float(np.dot(d2, d)) / n / m2**1.5
    kappa = g1 * (CI_Z * CI_Z - 1.0) / (6.0 * math.sqrt(n))
    return max(m + se * (-CI_Z + kappa), 0.0), m + se * (CI_Z + kappa)


def three_sigma_check(
    empirical_mean: float, std_error: float, true_shift: float
) -> UnbiasednessReport:
    """The unbiasedness rule: |mean - shift| <= ``BIAS_SIGMAS`` standard errors."""
    bias = empirical_mean - true_shift
    return UnbiasednessReport(
        bias=bias, std_error=std_error, passed=abs(bias) <= BIAS_SIGMAS * std_error
    )


def run_trials(plan: TrialPlan) -> TrialReport:
    """Run the plan and summarize, with an analytic ``CI_COVERAGE`` interval.

    The interval is the Cornish-Fisher interval for the mean of the
    per-trial values |x - shift|**(1/q), mapped through t -> t**q (monotone,
    so the ends stay ends) and widened, if ever necessary, to contain the
    plug-in estimate.  ``plan.bootstrap_resamples`` is ignored.
    ``max_abs_deviation`` is the largest single deviation seen; for q < 1/2
    the statistic averages a high power of it, so a large value flags slow
    convergence.  Raises ``DomainError`` when, judged from that largest
    deviation, the sum of cubes of |x - shift|**(1/q), which the interval
    needs, overflows double range, or when those cubes or the squares that
    the standard error sums underflow it.
    """
    x = _draw_outcomes(plan)
    deviations = np.abs(x - plan.true_shift)
    max_deviation = float(np.max(deviations))
    log_max = math.log(max_deviation) if max_deviation > 0.0 else -math.inf
    if 3.0 * log_max / plan.q + math.log(x.size) >= EXP_MAX:
        raise DomainError(
            f"order q = {plan.q} is too small: |x - shift|**(1/q) overflows at the largest "
            f"|x - shift| = {max_deviation:.3g}"
        )
    p = max(2.0, 3.0 / plan.q)
    if p * log_max - math.log(x.size) <= -EXP_MAX:
        raise DomainError(f"|x - shift| <= {max_deviation:.3g}: |x - shift|**{p:g} underflows")
    y = deviations ** (1.0 / plan.q)

    empirical_mean = float(np.mean(x))
    mean_std_error = float(np.std(x, ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0
    y_mean = float(np.mean(y))
    generalized_error = y_mean**plan.q
    mean_low, mean_high = _mean_interval(y, y_mean)
    ci_low = min(mean_low**plan.q, generalized_error)
    ci_high = max(mean_high**plan.q, generalized_error)

    return TrialReport(
        trials=plan.trials,
        empirical_mean=empirical_mean,
        mean_std_error=mean_std_error,
        empirical_generalized_error=generalized_error,
        generalized_error_ci_low=ci_low,
        generalized_error_ci_high=ci_high,
        predicted_mean_error=mean_error_closed(plan.distribution, plan.q).value,
        max_abs_deviation=max_deviation,
        seed=plan.master_seed,
    )
