"""Monte Carlo single-shot estimation: reproducibility and statistical checks."""

import dataclasses
import math
import os
import statistics
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import genfisher
from genfisher.estimation import (
    CI_COVERAGE,
    CI_Z,
    PARTITION_SIZE,
    TrialPlan,
    TrialReport,
    _accumulate,
    run_trials,
    three_sigma_check,
)
from genfisher.measures import mean_error_closed
from genfisher.numerics import EXP_MAX, DomainError
from genfisher.probe import ProbeDistribution


def plan(alpha=2.0, energy=1.0, shift=0.3, q=0.5, trials=1_000_000, seed=42, boots=200):
    return TrialPlan(
        distribution=ProbeDistribution.from_shape_energy(alpha, energy),
        true_shift=shift,
        q=q,
        trials=trials,
        master_seed=seed,
        bootstrap_resamples=boots,
    )


def draws(plan):
    """Oracle: every unshifted draw ``x - shift`` of the plan in one array,
    one serial ``sample`` call per partition stream, with no helper thread."""
    n_parts = (plan.trials + PARTITION_SIZE - 1) // PARTITION_SIZE
    children = np.random.SeedSequence(plan.master_seed).spawn(n_parts)
    return np.concatenate([
        plan.distribution.sample(
            np.random.default_rng(child), min(PARTITION_SIZE, plan.trials - k * PARTITION_SIZE)
        )
        for k, child in enumerate(children)
    ])


def percentile_bootstrap(plan, resamples, seed):
    """Reference oracle: the percentile-bootstrap interval that ``run_trials``
    once computed, resampling ``|x - shift|**(1/q)`` from its own generator."""
    y = np.abs(draws(plan)) ** (1.0 / plan.q)
    n = y.size
    rng = np.random.default_rng(seed)
    boot = np.empty(resamples)
    for b in range(resamples):
        boot[b] = np.mean(y[rng.integers(0, n, size=n)])
    boot **= plan.q
    tail = 100.0 * (1.0 - CI_COVERAGE) / 2.0
    low, high = np.percentile(boot, [tail, 100.0 - tail])
    estimate = float(np.mean(y)) ** plan.q
    return min(float(low), estimate), max(float(high), estimate)


def src_env():
    src = str(Path(genfisher.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def peak_rss_mb(trials):
    """Peak resident memory, in MB, of a fresh interpreter that runs the
    Gaussian q = 1/2 plan at ``trials`` trials."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import resource\n"
         "from genfisher.estimation import TrialPlan, run_trials\n"
         "from genfisher.probe import ProbeDistribution\n"
         f"run_trials(TrialPlan(ProbeDistribution.from_shape_energy(2.0, 1.0), 0.3, 0.5, {trials}, 1))\n"
         "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # ru_maxrss is in bytes on macOS and in KiB elsewhere
    return int(proc.stdout) / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def coverage(alpha, q, shift):
    """Share of seeds 0-999 (2000 trials each) whose 99% interval covers the
    closed mean error."""
    dist = ProbeDistribution.from_shape_energy(alpha, 1.0)
    covered = 0
    for seed in range(1000):
        r = run_trials(TrialPlan(dist, shift, q, 2_000, seed, 100))
        covered += r.generalized_error_ci_low <= r.predicted_mean_error <= r.generalized_error_ci_high
    return covered / 1000


class TestValidation:
    def test_rejects_zero_trials(self):
        with pytest.raises(DomainError):
            plan(trials=0)

    def test_rejects_small_bootstrap(self):
        with pytest.raises(DomainError):
            plan(boots=50)

    def test_rejects_nonpositive_order(self):
        with pytest.raises(DomainError):
            plan(q=0.0)

    def test_rejects_negative_seed(self):
        # SeedSequence takes nonnegative entropy only
        with pytest.raises(DomainError, match="master_seed"):
            plan(seed=-1)
        assert plan(seed=0).master_seed == 0


class TestRunTrials:
    @pytest.mark.parametrize("q", [1e-9, 1e-3, 1.5e-3])
    def test_overflowing_order_is_a_domain_error(self, q):
        # |x - shift|**(1/q) (1e-9) or the sum of its squares (1e-3) or cubes
        # (1.5e-3) leaves double range: a typed error, not Infinity or NaN in
        # the report, and no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="too small"):
                run_trials(plan(q=q, trials=1000, seed=0))

    def test_overflow_message_states_the_largest_deviation(self):
        p = plan(q=1e-9, trials=1000, seed=0)
        largest = float(np.max(np.abs(draws(p))))
        with pytest.raises(DomainError, match="^order q = 1e-09 is too small") as info:
            run_trials(p)
        assert str(info.value).endswith(f"largest |x - shift| = {largest:.3g}")

    @pytest.mark.parametrize(
        "gamma, q",
        # the interval's cubes (q = 1/2, 1/4) or the standard error's squares
        # (q = 4) of |x - shift| fall below double range; 1e-30 at q = 1/4
        # used to divide by a zero second moment
        [(1e-300, 0.5), (1e-100, 0.25), (1e-30, 0.25), (1e-200, 4.0)],
    )
    def test_underflowing_deviation_is_a_domain_error(self, gamma, q):
        tiny = TrialPlan(ProbeDistribution(2.0, gamma), 0.0, q, 1000, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="underflows"):
                run_trials(tiny)

    def test_small_scale_within_range_keeps_its_error(self):
        # gamma = 1e-25 at q = 1/4: |x - shift|**12 stays in range, and the
        # report scales with gamma like the closed prediction
        report = run_trials(TrialPlan(ProbeDistribution(2.0, 1e-25), 0.0, 0.25, 1000, 0))
        assert report.mean_std_error > 0.0
        assert report.generalized_error_ci_low < report.generalized_error_ci_high
        assert report.empirical_generalized_error == pytest.approx(
            report.predicted_mean_error, rel=0.05
        )

    def test_gaussian_half_order_megatrial(self):
        # predicted error is the standard deviation gamma / 2 = 1/2
        report = run_trials(plan())
        assert abs(report.empirical_mean - 0.3) <= 3.0 * report.mean_std_error
        assert report.predicted_mean_error == mean_error_closed(
            ProbeDistribution.from_shape_energy(2.0, 1.0), 0.5
        ).value
        assert report.predicted_mean_error == pytest.approx(0.5, rel=1e-12)
        assert (
            report.generalized_error_ci_low
            <= report.predicted_mean_error
            <= report.generalized_error_ci_high
        )

    def test_two_sided_exponential_first_order(self):
        report = run_trials(plan(alpha=1.0, shift=0.0, q=1.0, seed=7))
        assert report.predicted_mean_error == pytest.approx(0.5, rel=1e-12)
        assert (
            report.generalized_error_ci_low
            <= report.predicted_mean_error
            <= report.generalized_error_ci_high
        )
        assert report.empirical_generalized_error == pytest.approx(0.5, rel=5e-3)

    def test_single_trial_degenerates_gracefully(self):
        report = run_trials(plan(trials=1, boots=100))
        assert report.trials == 1
        assert report.mean_std_error == 0.0
        assert report.generalized_error_ci_low == report.empirical_generalized_error
        assert report.generalized_error_ci_high == report.empirical_generalized_error

    def test_ci_brackets_point_estimate(self):
        report = run_trials(plan(trials=500, seed=3))
        assert (
            report.generalized_error_ci_low
            <= report.empirical_generalized_error
            <= report.generalized_error_ci_high
        )

    def test_heavy_moment_reports_sample_maximum(self):
        report = run_trials(plan(q=0.25, trials=10_000, seed=5))
        assert report.max_abs_deviation > 0.0
        assert math.isfinite(report.max_abs_deviation)

    def test_bitwise_reproducible(self):
        a = run_trials(plan(trials=300_000, seed=314))
        b = run_trials(plan(trials=300_000, seed=314))
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_seed_changes_outcome(self):
        a = run_trials(plan(trials=10_000, seed=1))
        b = run_trials(plan(trials=10_000, seed=2))
        assert a.empirical_mean != b.empirical_mean

    def test_partition_boundary_consistency(self):
        # crossing the substream boundary must not break determinism
        a = run_trials(plan(trials=250_001, seed=6, boots=100))
        b = run_trials(plan(trials=250_001, seed=6, boots=100))
        assert a == b


class TestSampleBits:
    # The last bits depend on the arithmetic of the pass: the moments of each
    # partition's unshifted draws, merged in partition order, and the shift
    # added to the mean only.
    @pytest.mark.parametrize(
        "alpha, q, shift, trials, seed, expected",
        [
            (2.0, 0.5, 0.3, 300_000, 314, {
                "empirical_mean": "0x1.3566c73ba6f92p-2",
                "mean_std_error": "0x1.de0752702a5bep-11",
                "empirical_generalized_error": "0x1.ff6284df1dd43p-2",
                "predicted_mean_error": "0x1.ffffffffffffbp-2",
                "max_abs_deviation": "0x1.46da32ffb1229p+1",
            }),
            (1.5, 0.25, -0.2, 1_000, 5, {
                "empirical_mean": "-0x1.ee75a9cb43d51p-3",
                "mean_std_error": "0x1.0f0048aa5e3ebp-6",
                "empirical_generalized_error": "0x1.7675567efbb4ap-1",
                "predicted_mean_error": "0x1.7534c9eb800fap-1",
                "max_abs_deviation": "0x1.224d44a0d565ep+1",
            }),
        ],
    )
    def test_point_estimates_keep_their_bits(self, alpha, q, shift, trials, seed, expected):
        report = run_trials(plan(alpha=alpha, q=q, shift=shift, trials=trials, seed=seed))
        got = {name: getattr(report, name).hex() for name in expected}
        assert got == expected
        assert report.trials == trials and report.seed == seed


class TestStreaming:
    @pytest.mark.parametrize("trials", [250_001, 600_000])
    def test_merged_moments_match_one_array(self, trials):
        # 250 000 + 1 and 250 000 + 250 000 + 100 000 draws: uneven blocks
        # exercise the (na - nb) term of the third-moment update
        p = plan(trials=trials, seed=9)
        x_moments, y_moments, top = _accumulate(p)
        x = draws(p)
        y = np.abs(x) ** (1.0 / p.q)
        dx, dy = x - np.mean(x), y - np.mean(y)
        assert x_moments[0] == y_moments[0] == trials
        assert x_moments[1:] == pytest.approx((np.mean(x), np.sum(dx**2)), rel=1e-12, abs=0.0)
        assert y_moments[1:] == pytest.approx(
            (np.mean(y), np.sum(dy**2), np.sum(dy**3)), rel=1e-12, abs=0.0
        )
        assert top == np.max(np.abs(x))

    def test_peak_memory_does_not_grow_with_trials(self):
        # one partition is held at a time, so 4e6 trials peak within 10 MB
        # of 1e6; whole arrays would take about 39 MB more per 1e6 trials
        peak_1m, peak_4m = peak_rss_mb(1_000_000), peak_rss_mb(4_000_000)
        assert peak_4m - peak_1m <= 10.0, (peak_1m, peak_4m)


class TestHelperThread:
    def test_overflow_on_a_later_partition_leaves_no_thread(self):
        # Seed 0, 600 000 trials: the first partition's largest deviation
        # (2.17) keeps the sum of cubes in range at q = 0.0037 and the
        # second's (2.54) does not, so the error is raised while the third
        # partition's gamma variates may still be drawn on the helper.
        p = plan(q=0.0037, trials=600_000, seed=0)
        deviations = np.abs(draws(p))
        first = float(deviations[:PARTITION_SIZE].max())
        top = max(first, float(deviations[PARTITION_SIZE : 2 * PARTITION_SIZE].max()))
        log_n = math.log(p.trials)
        assert 3.0 * math.log(first) / p.q + log_n < EXP_MAX <= 3.0 * math.log(top) / p.q + log_n
        before = threading.active_count()
        with pytest.raises(DomainError) as info:
            run_trials(p)
        assert str(info.value) == (
            "order q = 0.0037 is too small: |x - shift|**(1/q) overflows at the largest "
            f"|x - shift| = {top:.3g}"
        )
        assert threading.active_count() == before

    def test_run_leaves_no_thread(self):
        before = threading.active_count()
        run_trials(plan(trials=600_000, seed=0))
        assert threading.active_count() == before


class TestInterval:
    def test_z_is_the_normal_quantile(self):
        assert CI_Z == pytest.approx(
            statistics.NormalDist().inv_cdf(0.5 + CI_COVERAGE / 2.0), rel=1e-15, abs=0.0
        )

    def test_bootstrap_resamples_are_ignored(self):
        a = run_trials(plan(trials=5_000, seed=8, boots=100))
        b = run_trials(plan(trials=5_000, seed=8, boots=5_000))
        assert a == b

    # (alpha, q, sample seed); the q = 1/4 and alpha = 0.8 points have a
    # strongly skewed |x - shift|**(1/q), where the skewness term matters.
    ORACLE_POINTS = ((2.0, 0.5, 11), (1.0, 1.0, 12), (1.5, 0.25, 13), (0.8, 0.5, 14))

    @pytest.mark.parametrize("alpha, q, seed", ORACLE_POINTS)
    def test_matches_percentile_bootstrap(self, alpha, q, seed):
        # 4000 resamples put the bootstrap's own 0.5% quantile noise near 1.5%
        # of the interval width; agreement is asserted to 8%.
        p = plan(alpha=alpha, q=q, shift=0.1, trials=1_000, seed=seed)
        report = run_trials(p)
        low, high = percentile_bootstrap(p, 4_000, seed=1_000 + seed)
        width = high - low
        assert abs(report.generalized_error_ci_low - low) <= 0.08 * width
        assert abs(report.generalized_error_ci_high - high) <= 0.08 * width

    def test_skewness_term_moves_toward_bootstrap(self):
        # At q = 1/4 the plain normal interval misses the bootstrap by more
        # than the skew-corrected one does.
        p = plan(alpha=1.5, q=0.25, shift=0.1, trials=1_000, seed=13)
        report = run_trials(p)
        low, high = percentile_bootstrap(p, 4_000, seed=1_013)
        y = np.abs(draws(p)) ** (1.0 / p.q)
        half = CI_Z * np.std(y, ddof=1) / math.sqrt(y.size)
        normal = (max(y.mean() - half, 0.0) ** p.q, (y.mean() + half) ** p.q)
        corrected = (report.generalized_error_ci_low, report.generalized_error_ci_high)

        def miss(interval):
            return max(abs(interval[0] - low), abs(interval[1] - high))

        assert miss(corrected) < miss(normal)

    @pytest.mark.parametrize(
        "alpha, q, shift", [(2.0, 0.5, 0.3), (1.0, 1.0, 0.0), (1.5, 0.25, -0.2)]
    )
    def test_coverage_calibration(self, alpha, q, shift):
        # 1000 fixed seeds of 2000 trials each: the 99% interval must cover
        # the closed mean error on at least 95% of them (a 300-resample
        # percentile bootstrap scores 0.96-0.98 here) and must not be so wide
        # that it covers nearly always.
        assert 0.95 <= coverage(alpha, q, shift) <= 0.998

    @pytest.mark.xfail(
        raises=AssertionError,
        reason="q = 1/4: the Cornish-Fisher interval covers on 96.9% of seeds; "
        "Hall's transformation should lift it above 98%",
    )
    def test_coverage_at_quarter_order_reaches_the_three_sigma_floor(self):
        # 0.98 is three binomial sigmas below 0.99 over 1000 seeds
        assert coverage(1.5, 0.25, -0.2) >= 0.98


def test_import_path_stays_light():
    # The interval's z is a constant, so no statistics package is imported,
    # only sampling imports numpy, and the gamma prefetch uses ``threading``
    # (already loaded), not ``concurrent.futures``, whose import is slow.
    # ``genfisher.estimation`` itself stays on the import path: ``from
    # genfisher import run_trials`` and the benchmark's tracer look it up in
    # ``sys.modules``.
    env = src_env()
    for module in ("genfisher", "genfisher.cli"):
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, {module}; "
             "print(sorted({'numpy', 'scipy', 'statistics', 'concurrent.futures'} & set(sys.modules)), "
             "'genfisher.estimation' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[] True", module


class TestUnbiasedness:
    @staticmethod
    def verdict(p):
        """The 3-sigma rule on one run's report, as ``simulate`` applies it."""
        report = run_trials(p)
        return three_sigma_check(report.empirical_mean, report.mean_std_error, p.true_shift)

    def test_three_sigma_edge(self):
        assert three_sigma_check(1.75, 0.25, 1.0).passed  # exactly 3 sigma
        assert not three_sigma_check(1.875, 0.25, 1.0).passed

    def test_gaussian_probe(self):
        rep = self.verdict(plan(shift=1.5, seed=21))
        assert rep.passed
        assert abs(rep.bias) <= 3.0 * rep.std_error

    def test_heavy_tailed_probe(self):
        rep = self.verdict(
            TrialPlan(
                distribution=ProbeDistribution.from_shape_scale(0.8, 1.0),
                true_shift=-0.2,
                q=0.5,
                trials=1_000_000,
                master_seed=22,
                bootstrap_resamples=100,
            )
        )
        assert rep.passed

    def test_three_sigma_rule_calibration(self):
        # with 10 trials per batch the 3-sigma criterion should pass for
        # nearly every seed (t_9 tails put ~1.5% outside)
        passes = 0
        for seed in range(200):
            rep = self.verdict(plan(trials=10, seed=seed, boots=100))
            passes += rep.passed
        assert passes / 200 >= 0.97


class TestConvergence:
    def test_generalized_error_converges_with_trials(self):
        target = mean_error_closed(ProbeDistribution.from_shape_energy(2.0, 1.0), 0.5).value
        medians = []
        for trials in (10_000, 100_000, 1_000_000):
            gaps = []
            for seed in range(20):
                report = run_trials(plan(trials=trials, seed=1000 + seed, boots=100))
                gaps.append(abs(report.empirical_generalized_error - target))
            medians.append(float(np.median(gaps)))
        assert medians[0] > medians[1] > medians[2]


class TestReportShape:
    def test_fields_are_complete(self):
        report = run_trials(plan(trials=100, boots=100))
        names = {f.name for f in dataclasses.fields(TrialReport)}
        assert names == {
            "trials",
            "empirical_mean",
            "mean_std_error",
            "empirical_generalized_error",
            "generalized_error_ci_low",
            "generalized_error_ci_high",
            "predicted_mean_error",
            "max_abs_deviation",
            "seed",
        }
        assert report.seed == 42
