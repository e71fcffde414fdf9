"""Monte Carlo single-shot estimation of a location shift.

One trial draws a single outcome ``x`` from the shifted probe and reports
it as the estimate of the shift.  The estimator is unbiased (the probe is
symmetric), and the order-q generalized error of a batch of trials,

    [mean of |x - shift|**(1/q)] ** q,

estimates the closed-form mean error, which these simulations exist to
cross-check.

Its 99% interval is analytic and needs only the first three moments of
``|x - shift|**(1/q)``: a normal interval for their mean, shifted by the
one-term Cornish-Fisher skewness correction, then raised to the q-th power.
To O(1/n) this is the percentile-bootstrap interval of the same statistic
(Hall 1992, *The Bootstrap and Edgeworth Expansion*), without its B
resamples of n values each.

Trials are split into fixed-size partitions, and memory holds one block
plus one prefetched gamma buffer: while a partition is transformed and
reduced, one helper thread draws the next partition's Gamma(1 + 1/alpha)
variates; the transform draws one uniform per trial (see
``ProbeDistribution.sample``).
Each partition's moments come from its unshifted draws ``x - shift``, as a
mean followed by a centred pass, and are merged into the running totals
with the pairwise update of Chan, Golub & LeVeque (1979) and Pebay (2008).
Memory therefore does not grow with the trial count, and the deviations
``|x - shift|`` are exact at any shift: the shift is added only to the
reported mean.

Reproducibility: partition k draws from
``SeedSequence(master_seed).spawn(...)[k]``.  The partitioning depends only
on the trial count, never on worker count or scheduling, so a plan's report
is bit-for-bit reproducible.

The report carries the batch mean and its standard error, so the 3-sigma
unbiasedness rule is ``three_sigma_check(report.empirical_mean,
report.mean_std_error, plan.true_shift)``, with no second draw.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .measures import _require_order, _require_shift, mean_error_closed
from .numerics import EXP_MAX, DomainError
from .probe import ProbeDistribution

if TYPE_CHECKING:
    import numpy as np

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
        _require_order(self.q)
        if self.trials < 1:
            raise DomainError(f"trials must be at least 1, got {self.trials}")
        if self.master_seed < 0:
            raise DomainError(f"master_seed must be nonnegative, got {self.master_seed}")
        if self.bootstrap_resamples < 100:
            raise DomainError(
                f"bootstrap_resamples must be at least 100, got {self.bootstrap_resamples}"
            )
        _require_shift(self.true_shift)


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


def _partitions(plan: TrialPlan) -> Iterator[np.ndarray]:
    """Each partition's unshifted draws, in partition order.

    Partition k's gamma variates, then its transform, fill one of two
    buffers allocated here on the calling thread (so no block lives in a
    helper's malloc arena); each yielded array is valid until the next one
    is requested.  While partition k is transformed here and reduced by the
    caller, one helper thread draws partition k + 1's gamma variates into
    the other buffer; partition 1's draw also overlaps partition 0's, which
    is drawn here.  The draw releases the GIL and cannot fail for a valid
    probe, whose gamma shape ``1 + 1/alpha`` is at least 1.  Each partition
    keeps its own stream, so every value has the bits of ``sample(rng_k, m)``.
    Closing the generator waits for the helper.
    """
    import threading

    import numpy as np  # only sampling needs numpy; keep it off the import path

    dist = plan.distribution
    shape = 1.0 + 1.0 / dist.alpha
    n_parts = (plan.trials + PARTITION_SIZE - 1) // PARTITION_SIZE
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(plan.master_seed).spawn(n_parts)]
    sizes = [min(PARTITION_SIZE, plan.trials - k * PARTITION_SIZE) for k in range(n_parts)]
    bufs = [np.empty(m) for m in sizes[:2]]

    def draw_ahead(k):
        thread = threading.Thread(
            target=rngs[k].standard_gamma, args=(shape,), kwargs={"out": bufs[k % 2][: sizes[k]]}
        )
        thread.start()
        return thread

    helper = draw_ahead(1) if n_parts > 1 else None
    try:
        rngs[0].standard_gamma(shape, out=bufs[0])
        for k in range(n_parts):
            yield dist._from_gamma(rngs[k], bufs[k % 2][: sizes[k]])
            if helper is not None:
                helper.join()
                helper = draw_ahead(k + 2) if k + 2 < n_parts else None
    finally:
        if helper is not None:
            helper.join()


def _moments(v: np.ndarray, third: bool) -> tuple[float, ...]:
    """``(n, mean, M2)`` of ``v``, and ``M3`` if ``third``: the mean, then a
    centred pass (M_k is the sum of k-th powers of deviations from the mean)."""
    import numpy as np

    m = float(np.mean(v))
    d = v - m
    if not third:
        d *= d
        return v.size, m, float(np.sum(d))
    d2 = d * d
    s2 = float(np.sum(d2))
    d2 *= d  # numpy's pairwise sum, not a BLAS dot, so M3 ignores the thread count
    return v.size, m, s2, float(np.sum(d2))


def _merge(a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, ...]:
    """The moments of ``a`` and ``b`` joined: Chan, Golub & LeVeque (1979) for
    the mean and M2, Pebay (2008, SAND2008-6212) for M3 when both carry it.

    ``a`` is the running total and ``b`` one partition, so ``b``'s sums and
    the cross terms, the smaller parts, are added first.
    """
    na, ma, m2a, *m3a = a
    nb, mb, m2b, *m3b = b
    n = na + nb
    delta = mb - ma
    merged = (n, ma + delta * nb / n, m2a + (m2b + delta * delta * na * nb / n))
    if not m3a:
        return merged
    cross = delta**3 * na * nb * (na - nb) / (n * n) + 3.0 * delta * (na * m2b - nb * m2a) / n
    return merged + (m3a[0] + (m3b[0] + cross),)


def _mean_interval(moments: tuple[float, ...]) -> tuple[float, float]:
    """Cornish-Fisher interval for the mean in ``moments = (n, m, M2, M3)``,
    lower end >= 0.

    With standard error se and sample skewness g1, the ``CI_COVERAGE``
    quantiles of the bootstrap distribution of the mean are
    m + se * (-+z + g1 * (z**2 - 1) / (6 sqrt(n))) to O(1/n).
    """
    n, m, s2, s3 = moments
    m2 = s2 / n
    if m2 == 0.0:  # a single trial, or every trial alike
        return m, m
    se = math.sqrt(m2 / (n - 1))
    g1 = s3 / n / m2**1.5
    kappa = g1 * (CI_Z * CI_Z - 1.0) / (6.0 * math.sqrt(n))
    return max(m + se * (-CI_Z + kappa), 0.0), m + se * (CI_Z + kappa)


def _accumulate(plan: TrialPlan) -> tuple[tuple[float, ...], tuple[float, ...], float]:
    """One pass over the partitions: the merged ``(n, mean, M2)`` of the
    draws ``x - shift``, ``(n, mean, M2, M3)`` of ``|x - shift|**(1/q)`` and
    the largest ``|x - shift|``.

    Raises ``DomainError`` before a partition's powers are taken if, at the
    largest deviation so far, the trials' sum of cubes would overflow.
    """
    import numpy as np

    log_n = math.log(plan.trials)
    x_moments = y_moments = None
    top = 0.0
    with closing(_partitions(plan)) as partitions:
        for x in partitions:
            xm = _moments(x, third=False)
            np.abs(x, out=x)  # from here on x holds |x - shift|, then its 1/q-th power
            top = max(top, float(np.max(x)))
            if top > 0.0 and 3.0 * math.log(top) / plan.q + log_n >= EXP_MAX:
                raise DomainError(
                    f"order q = {plan.q} is too small: |x - shift|**(1/q) overflows at the largest "
                    f"|x - shift| = {top:.3g}"
                )
            x **= 1.0 / plan.q
            ym = _moments(x, third=True)
            x_moments = xm if x_moments is None else _merge(x_moments, xm)
            y_moments = ym if y_moments is None else _merge(y_moments, ym)
    return x_moments, y_moments, top


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
    convergence.  Raises ``DomainError`` when, judged from the largest
    deviation, the sum of cubes of |x - shift|**(1/q), which the interval
    needs, would overflow double range (checked as each partition is drawn,
    see ``_accumulate``), or when those cubes or the squares that the
    standard error sums underflow it.
    """
    x_moments, y_moments, top = _accumulate(plan)
    p = max(2.0, 3.0 / plan.q)
    if top == 0.0 or p * math.log(top) - math.log(plan.trials) <= -EXP_MAX:
        raise DomainError(f"|x - shift| <= {top:.3g}: |x - shift|**{p:g} underflows")

    n, x_mean, x_s2 = x_moments
    mean_std_error = math.sqrt(x_s2 / (n - 1)) / math.sqrt(n) if n > 1 else 0.0
    generalized_error = y_moments[1] ** plan.q
    mean_low, mean_high = _mean_interval(y_moments)
    ci_low = min(mean_low**plan.q, generalized_error)
    ci_high = max(mean_high**plan.q, generalized_error)

    return TrialReport(
        trials=plan.trials,
        empirical_mean=x_mean + plan.true_shift,
        mean_std_error=mean_std_error,
        empirical_generalized_error=generalized_error,
        generalized_error_ci_low=ci_low,
        generalized_error_ci_high=ci_high,
        predicted_mean_error=mean_error_closed(plan.distribution, plan.q).value,
        max_abs_deviation=top,
        seed=plan.master_seed,
    )
