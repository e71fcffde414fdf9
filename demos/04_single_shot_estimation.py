"""Monte Carlo single-shot estimation against the closed mean error.

A single observation of the shifted probe, reported as-is, is an unbiased
estimate of the shift.  Repeating the experiment many times lets the
empirical order-q error be compared with its closed form, with a 99%
interval saying how seriously to take the agreement.  The interval is
analytic: a normal interval for the mean of |x - shift|**(1/q), shifted by
its Cornish-Fisher skewness term and raised to the q-th power, which is
what a percentile bootstrap would give, without the resampling.
"""

from genfisher import ProbeDistribution, TrialPlan, run_trials, three_sigma_check

CONFIGS = (
    (2.0, 0.5, 0.30),   # Gaussian probe, classical error = standard deviation
    (1.0, 1.0, 0.00),   # two-sided exponential, first-moment error
    (1.5, 0.25, -0.20),  # heavy fractional moment (1/q = 4)
)

for alpha, q, shift in CONFIGS:
    dist = ProbeDistribution.from_shape_energy(alpha, 1.0)
    plan = TrialPlan(
        distribution=dist, true_shift=shift, q=q,
        trials=400_000, master_seed=2024,
    )
    report = run_trials(plan)
    bias = three_sigma_check(report.empirical_mean, report.mean_std_error, shift)
    print(f"alpha = {alpha}, q = {q}, true shift = {shift}")
    print(f"  empirical mean      {report.empirical_mean:+.6f} "
          f"(+- {report.mean_std_error:.6f}); unbiased: {bias.passed}")
    print(f"  generalized error   {report.empirical_generalized_error:.6f}")
    print(f"  99% interval        [{report.generalized_error_ci_low:.6f}, "
          f"{report.generalized_error_ci_high:.6f}]")
    print(f"  closed prediction   {report.predicted_mean_error:.6f}  "
          f"(inside interval: {report.generalized_error_ci_low <= report.predicted_mean_error <= report.generalized_error_ci_high})")
    print(f"  largest |x - shift| {report.max_abs_deviation:.4f} "
          f"(watch this for q < 1/2: the statistic averages its 4th power)")
    print()

print("identical plans reproduce bit for bit:")
plan = TrialPlan(ProbeDistribution.from_shape_energy(2.0, 1.0), 0.3, 0.5, 100_000, 99)
print(" ", run_trials(plan) == run_trials(plan))
