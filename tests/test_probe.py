"""Probe distribution: construction, density, score, energy, sampling."""

import hashlib
import math

import numpy as np
import pytest

from genfisher.measures import mean_error_closed
from genfisher.numerics import ConvergenceError, DomainError, QuadratureSpec, integrate_real_line
from genfisher.probe import ProbeDistribution

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


class TestConstruction:
    def test_gaussian_case_norm_const(self):
        d = ProbeDistribution.from_shape_scale(2.0, 1.0)
        assert d.norm_const == pytest.approx(SQRT_2_OVER_PI, rel=1e-12)

    def test_gaussian_matches_quarter_variance_normal(self):
        # exp(-2 x^2) against exp(-x^2 / (2 sigma^2)) gives sigma = 1/2
        d = ProbeDistribution.from_shape_scale(2.0, 1.0)
        sigma = 0.5
        for x in (0.0, 0.3, -1.2, 2.0):
            normal = math.exp(-(x**2) / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))
            assert d.pdf(x) == pytest.approx(normal, rel=1e-12)

    def test_two_sided_exponential_norm_const(self):
        d = ProbeDistribution.from_shape_scale(1.0, 1.0)
        assert d.norm_const == pytest.approx(1.0, rel=1e-12)
        assert d.pdf(0.0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ProbeDistribution(0.8, 1.7),
            lambda: ProbeDistribution.from_shape_scale(0.8, 1.7),
            lambda: ProbeDistribution.from_shape_energy(3.0, 2.5),
        ],
    )
    def test_norm_const_follows_log_norm_const(self, make):
        d = make()
        assert d.norm_const == math.exp(d.log_norm_const)

    def test_norm_const_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            ProbeDistribution(2.0, 1.0, 123.0)

    @pytest.mark.parametrize("alpha,gamma", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_rejects_nonpositive_parameters(self, alpha, gamma):
        with pytest.raises(DomainError):
            ProbeDistribution.from_shape_scale(alpha, gamma)

    @pytest.mark.parametrize("alpha,expected_gamma", [(2.0, 1.0), (1.0, 1.0)])
    def test_energy_construction_anchors(self, alpha, expected_gamma):
        d = ProbeDistribution.from_shape_energy(alpha, 1.0)
        assert d.gamma_scale == pytest.approx(expected_gamma, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 0.4, 0.2])
    def test_energy_construction_rejects_narrow_shapes(self, alpha):
        with pytest.raises(DomainError):
            ProbeDistribution.from_shape_energy(alpha, 1.0)

    def test_energy_construction_rejects_bad_energy(self):
        with pytest.raises(DomainError):
            ProbeDistribution.from_shape_energy(2.0, 0.0)


class TestDensity:
    @pytest.mark.parametrize("alpha", [0.6, 0.8, 1.0, 2.0, 5.0, 20.0])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 3.0])
    def test_normalization(self, alpha, gamma):
        d = ProbeDistribution.from_shape_scale(alpha, gamma)
        spec = QuadratureSpec(split_points=(0.0, gamma, -gamma))
        res = integrate_real_line(d.pdf, spec)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_pdf_is_even(self):
        d = ProbeDistribution.from_shape_scale(1.4, 0.7)
        for x in (0.1, 1.0, 3.7):
            assert d.pdf(x) == d.pdf(-x)
            assert d.log_pdf(x) == d.log_pdf(-x)

    def test_log_pdf_anchors(self):
        laplace = ProbeDistribution.from_shape_scale(1.0, 1.0)
        assert laplace.log_pdf(3.0) == pytest.approx(-6.0, rel=1e-12)
        gauss = ProbeDistribution.from_shape_scale(2.0, 1.0)
        assert gauss.log_pdf(0.0) == pytest.approx(math.log(SQRT_2_OVER_PI), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.8, 1.0, 2.0])
    def test_log_pdf_far_tail_no_underflow(self, alpha):
        d = ProbeDistribution.from_shape_scale(alpha, 1.0)
        x = 1.0e4
        expected = d.log_norm_const - 2.0 * x**alpha
        assert math.isfinite(d.log_pdf(x))
        assert d.log_pdf(x) == pytest.approx(expected, rel=1e-12)
        assert d.pdf(x) == 0.0  # too small for a double, but the log survives

    def test_extreme_shape_is_stable(self):
        d = ProbeDistribution.from_shape_scale(1000.0, 1.0)
        assert d.pdf(0.9) == pytest.approx(d.norm_const, rel=1e-6)
        assert d.pdf(1.1) == 0.0
        assert d.log_pdf(5.0) == float("-inf")
        assert d.pdf(5.0) == 0.0


class TestScore:
    def test_gaussian_score_is_linear(self):
        d = ProbeDistribution.from_shape_scale(2.0, 1.0)
        assert d.score(0.5) == pytest.approx(-2.0, rel=1e-12)
        assert d.score(-0.5) == pytest.approx(2.0, rel=1e-12)
        assert d.score(0.0) == 0.0

    def test_two_sided_exponential_score_is_constant(self):
        d = ProbeDistribution.from_shape_scale(1.0, 1.0)
        for x in (0.1, 1.0, 17.0):
            assert d.score(x) == pytest.approx(-2.0, rel=1e-12)
            assert d.score(-x) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("alpha", [1.0, 0.8, 0.6])
    def test_score_undefined_at_origin_for_cusped_shapes(self, alpha):
        d = ProbeDistribution.from_shape_scale(alpha, 1.0)
        with pytest.raises(DomainError):
            d.score(0.0)

    @pytest.mark.parametrize("x", [0.3, -0.3, 1.7, -1.7])
    def test_score_matches_finite_difference(self, x):
        d = ProbeDistribution.from_shape_scale(1.6, 1.2)
        h = 1e-6 * max(1.0, abs(x))
        fd = (d.log_pdf(x + h) - d.log_pdf(x - h)) / (2.0 * h)
        assert d.score(x) == pytest.approx(fd, abs=1e-6)

    def test_score_matches_finite_difference_random_points(self):
        rng = np.random.default_rng(2718)
        for _ in range(20):
            alpha = float(rng.uniform(0.7, 4.0))
            gamma = float(rng.uniform(0.5, 2.0))
            x = float(rng.uniform(0.05, 3.0)) * (1 if rng.random() < 0.5 else -1)
            d = ProbeDistribution.from_shape_scale(alpha, gamma)
            h = 1e-6 * max(1.0, abs(x))
            fd = (d.log_pdf(x + h) - d.log_pdf(x - h)) / (2.0 * h)
            assert d.score(x) == pytest.approx(fd, abs=1e-5)


class TestMeanEnergy:
    @pytest.mark.parametrize("alpha", [2.0, 1.0])
    def test_unit_scale_anchors(self, alpha):
        d = ProbeDistribution.from_shape_scale(alpha, 1.0)
        assert d.mean_energy_quadrature() == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize("alpha", [0.55, 0.75, 1.0, 2.0, 10.0])
    @pytest.mark.parametrize("energy", [0.5, 1.0, 4.0])
    def test_energy_round_trip(self, alpha, energy):
        d = ProbeDistribution.from_shape_energy(alpha, energy)
        assert d.mean_energy_quadrature() == pytest.approx(energy, rel=1e-6)

    def test_round_trip_spec_example(self):
        d = ProbeDistribution.from_shape_energy(5.0, 3.0)
        assert d.mean_energy_quadrature() == pytest.approx(3.0, rel=1e-6)

    def test_rejects_half_and_below(self):
        d = ProbeDistribution.from_shape_scale(0.5, 1.0)
        with pytest.raises(DomainError):
            d.mean_energy_quadrature()

    def test_non_converged_estimate_is_an_energy(self):
        starved = QuadratureSpec(rel_tol=1e-15, max_evaluations=100)
        with pytest.raises(ConvergenceError) as info:
            ProbeDistribution.from_shape_energy(2.0, 3.0).mean_energy_quadrature(starved)
        assert info.value.value == pytest.approx(3.0, rel=1e-2)

    def test_value_bits(self):
        # the log factor -2 ln 2 maps the value and the best estimate of a
        # starved quadrature
        d = ProbeDistribution.from_shape_energy(2.0, 3.0)
        assert d.mean_energy_quadrature().hex() == "0x1.80000000003dfp+1"
        starved = QuadratureSpec(rel_tol=1e-15, max_evaluations=100)
        with pytest.raises(ConvergenceError) as info:
            d.mean_energy_quadrature(starved)
        assert info.value.value.hex() == "0x1.8000007890a44p+1"

    def test_linear_map_keeps_an_underflowing_integral(self):
        # At E = 1e-300 the Fisher integral is 4e-300: the unit-scale kernel
        # keeps the probe's scale in log space, so nothing underflows, and the
        # energy is that integral / 4, its factor taken in log space too.
        from genfisher.measures import fisher_quadrature

        d = ProbeDistribution.from_shape_energy(2.0, 1e-300)
        energy = d.mean_energy_quadrature()
        assert energy == pytest.approx(1e-300, rel=1e-12, abs=0.0)
        assert energy == pytest.approx(fisher_quadrature(d, 0.5).value / 4.0, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("alpha,gamma", [(0.8, 1.0), (2.0, 0.7), (5.0, 2.0)])
    def test_quarter_of_classical_fisher(self, alpha, gamma):
        from genfisher.measures import fisher_quadrature

        d = ProbeDistribution.from_shape_scale(alpha, gamma)
        fisher = fisher_quadrature(d, 0.5).value
        assert d.mean_energy_quadrature() == pytest.approx(fisher / 4.0, rel=1e-6)


class TestSampling:
    def test_gaussian_variance(self):
        d = ProbeDistribution.from_shape_scale(2.0, 1.0)
        n = 1_000_000
        x = d.sample(np.random.default_rng(7), n)
        # sigma^2 = gamma^2 / 4; std error of the sample variance of a
        # Gaussian is sigma^2 sqrt(2 / (n - 1))
        var = x.var(ddof=1)
        se = 0.25 * math.sqrt(2.0 / (n - 1))
        assert abs(var - 0.25) <= 3.0 * se

    @pytest.mark.parametrize("alpha,gamma", [(0.8, 1.0), (1.0, 1.0), (2.0, 3.0)])
    def test_mean_is_zero(self, alpha, gamma):
        d = ProbeDistribution.from_shape_scale(alpha, gamma)
        n = 1_000_000
        x = d.sample(np.random.default_rng(11), n)
        se = x.std(ddof=1) / math.sqrt(n)
        assert abs(x.mean()) <= 3.0 * se

    def test_kolmogorov_smirnov_against_analytic_cdf(self):
        # alpha = 1: CDF(x) = (1 + sign(x) (1 - exp(-2|x|))) / 2 by direct
        # integration of exp(-2|x|)
        d = ProbeDistribution.from_shape_scale(1.0, 1.0)
        n = 100_000
        x = np.sort(d.sample(np.random.default_rng(23), n))
        cdf = 0.5 * (1.0 + np.sign(x) * (1.0 - np.exp(-2.0 * np.abs(x))))
        i = np.arange(1, n + 1)
        stat = max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))
        critical_1pct = 1.62762 / math.sqrt(n)
        assert stat < critical_1pct

    def test_reproducible_for_equal_seeds(self):
        d = ProbeDistribution.from_shape_scale(1.3, 2.0)
        a = d.sample(np.random.default_rng(99), 1000)
        b = d.sample(np.random.default_rng(99), 1000)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("alpha", [1000.0, 1e5])
    def test_large_shape_draws_do_not_collapse(self, alpha):
        # a direct transform of standard_gamma(1/alpha) would see it underflow
        # to 0 for about half the draws at alpha = 1000 and nearly all at 1e5;
        # no draw may be 0, and the generalized error of order 1/2 must still
        # match its closed form
        d = ProbeDistribution.from_shape_energy(alpha, 1.0)
        n, q = 200_000, 0.5
        x = d.sample(np.random.default_rng(3), n)
        assert np.count_nonzero(x == 0.0) == 0
        y = np.abs(x) ** (1.0 / q)
        y_mean = y.mean()
        se = q * y_mean ** (q - 1.0) * y.std(ddof=1) / math.sqrt(n)
        assert abs(y_mean**q - mean_error_closed(d, q).value) <= 5.0 * se

    # sha256 of the draws' bytes: the in-place transform rounds as
    # (gamma * (2u - 1)) * (y / 2)**(1/alpha) does.  At alpha = 300 the
    # exponent 1/alpha is far from numpy's sqrt and square paths, and the
    # gamma shape 1 + 1/alpha sits just above 1
    @pytest.mark.parametrize(
        "alpha, sha256",
        [
            (2.0, "c60dc4600d494c02a474d24dd6c56d069fee5a6493198b656cbe711b06bc3d98"),
            (300.0, "1c286b000c90f6d5558a3a2d93851090cdfbc3faa0372de969c368c6436d2f37"),
        ],
    )
    def test_draws_keep_their_bits(self, alpha, sha256):
        x = ProbeDistribution.from_shape_scale(alpha, 1.0).sample(np.random.default_rng(7), 100_000)
        assert hashlib.sha256(x.tobytes()).hexdigest() == sha256

    @pytest.mark.parametrize("alpha", [0.6, 1.0, 2.0, 300.0, 1e5])
    def test_draws_are_the_uniform_scale_mixture(self, alpha):
        # one Gamma(1 + 1/alpha) variate, then one uniform, per draw: a twin
        # generator rebuilds every bit, so no shape below 1 is ever drawn
        gamma, n = 1.3, 10_001
        x = ProbeDistribution.from_shape_scale(alpha, gamma).sample(np.random.default_rng(5), n)
        twin = np.random.default_rng(5)
        y = twin.standard_gamma(1.0 + 1.0 / alpha, n)
        u = twin.random(n)
        assert np.array_equal(x, (gamma * (2.0 * u - 1.0)) * (0.5 * y) ** (1.0 / alpha))

    def test_rejects_empty_draw(self):
        d = ProbeDistribution.from_shape_scale(1.0, 1.0)
        with pytest.raises(DomainError):
            d.sample(np.random.default_rng(0), 0)

    @pytest.mark.parametrize("alpha, gamma", [(0.001, 1.0), (2.0, 1e308), (0.005, 1e-300)])
    def test_overflowing_draw_is_a_domain_error(self, alpha, gamma):
        # at alpha = 0.001 every draw is (g/2)**1000 with g near 1000; at
        # gamma = 1e308 the scale alone is at the edge.  At alpha = 0.005 and
        # gamma = 1e-300 a draw near gamma * 100**200 = 1e100 is in range, but
        # the power (g/2)**200 overflows before gamma joins it.  A typed
        # error, not inf draws and a numpy warning (warnings are errors here).
        d = ProbeDistribution.from_shape_scale(alpha, gamma)
        with pytest.raises(DomainError, match="too small to sample") as info:
            d.sample(np.random.default_rng(0), 1000)
        assert f"shape alpha = {alpha} " in str(info.value)
        assert f"gamma = {gamma}:" in str(info.value)
