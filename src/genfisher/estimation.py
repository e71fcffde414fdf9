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

Trials are split into fixed-size partitions, each drawn (see
``ProbeDistribution.sample``) and reduced to the moments of its unshifted
draws ``x - shift``, a mean followed by a centred pass, by the caller for
even partitions and one helper thread for odd ones; memory holds two
partitions' draws and scratch, so it does not grow with the trial count.  The
moments are merged in partition order with the pairwise update of Chan,
Golub & LeVeque (1979) and Pebay (2008).  The deviations ``|x - shift|``
are exact at any shift: the shift is added only to the reported mean.

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
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .measures import _require_order, _require_shift, mean_error_closed
from .numerics import EXP_MAX, DomainError, is_count
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
        if not is_count(self.trials, 1):
            raise DomainError(f"trials must be at least 1 and an integer, got {self.trials}")
        if not is_count(self.master_seed, 0):
            raise DomainError(
                f"master_seed must be nonnegative and an integer, got {self.master_seed}"
            )
        if not is_count(self.bootstrap_resamples, 100):
            raise DomainError(
                "bootstrap_resamples must be at least 100 and an integer, "
                f"got {self.bootstrap_resamples}"
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


def _moments(v: np.ndarray, d: np.ndarray, third: bool) -> tuple[float, ...]:
    """``(n, mean, M2)`` of ``v``, and ``M3`` if ``third``: the mean, then a
    centred pass (M_k is the sum of k-th powers of deviations from the mean)
    into ``d``, of ``v``'s size; with ``third`` it overwrites ``v`` too."""
    import numpy as np

    m = float(np.mean(v))
    np.subtract(v, m, out=d)
    if not third:
        d *= d
        return v.size, m, float(np.sum(d))
    np.multiply(d, d, out=v)
    s2 = float(np.sum(v))
    v *= d  # numpy's pairwise sum, not a BLAS dot, so M3 ignores the thread count
    return v.size, m, s2, float(np.sum(v))


def _partition(
    plan: TrialPlan, rng: np.random.Generator, x: np.ndarray, scratch: np.ndarray
) -> tuple[tuple[float, ...], tuple[float, ...], float]:
    """``x.size`` trials from ``rng``: ``(n, mean, M2)`` of the draws
    ``x - shift``, ``(n, mean, M2, M3)`` of ``|x - shift|**(1/q)`` and the
    largest ``|x - shift|``.  The draws have the bits of ``sample(rng,
    x.size)``; ``x`` and ``scratch`` (the uniforms, then the deviations) are
    overwritten.  Raises ``DomainError`` before the powers are taken if, at
    this largest deviation, the trials' sum of cubes would overflow."""
    import numpy as np

    dist = plan.distribution
    rng.standard_gamma(1.0 + 1.0 / dist.alpha, out=x)
    dist._from_gamma(rng, x, scratch)
    xm = _moments(x, scratch, third=False)
    np.abs(x, out=x)  # from here on x holds |x - shift|, then its 1/q-th power
    top = float(np.max(x))
    if top > 0.0 and 3.0 * math.log(top) / plan.q + math.log(plan.trials) >= EXP_MAX:
        raise DomainError(
            f"order q = {plan.q} is too small: |x - shift|**(1/q) overflows at the largest "
            f"|x - shift| = {top:.3g}"
        )
    x **= 1.0 / plan.q
    return xm, _moments(x, scratch, third=True), top


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
    """Every ``_partition``, merged in partition order.

    The caller runs the even partitions and one helper thread the odd ones,
    each in its own block (numpy's draws and ufuncs release the GIL).  A
    thread stops at its own failure and starts no partition after one known
    to have failed, so the earliest failure, as a serial pass raises it, is
    raised once the helper is joined."""
    import threading

    import numpy as np  # only sampling needs numpy; keep it off the import path

    n_parts = (plan.trials + PARTITION_SIZE - 1) // PARTITION_SIZE
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(plan.master_seed).spawn(n_parts)]
    sizes = [min(PARTITION_SIZE, plan.trials - k * PARTITION_SIZE) for k in range(n_parts)]
    results: list = [None] * n_parts
    failed = [n_parts, n_parts]  # where each thread failed, written by that thread only

    def run(t: int) -> None:
        x, scratch = blocks[t]
        for k in range(t, n_parts, 2):
            if failed[1 - t] < k:
                return
            try:
                results[k] = _partition(plan, rngs[k], x[: sizes[k]], scratch[: sizes[k]])
            except Exception as exc:
                results[k], failed[t] = exc, k
                return

    # Made before the blocks: its Event's deque block, made after them, would
    # sit above them on the heap and keep them from rejoining the free top.
    helper = threading.Thread(target=run, args=(1,))
    blocks = [np.empty((2, m)) for m in sizes[:2]]  # a thread's draws and scratch
    if n_parts > 1:
        helper.start()
    try:
        run(0)
    except BaseException:  # an interrupt: the helper starts no more partitions
        failed[0] = -1
        raise
    finally:
        if n_parts > 1:
            helper.join()
    for result in results:
        if isinstance(result, Exception):
            raise result
    x_moments, y_moments, _ = results[0]
    for xm, ym, _ in results[1:]:
        x_moments, y_moments = _merge(x_moments, xm), _merge(y_moments, ym)
    return x_moments, y_moments, max(top for _, _, top in results)


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
    see ``_partition``), or when those cubes or the squares that the
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
