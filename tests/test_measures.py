"""Closed forms vs quadrature oracles for the five order-q measures."""

import math
from types import SimpleNamespace

import pytest

from genfisher import measures, numerics
from genfisher.measures import (
    MeasureValue,
    Method,
    Quantity,
    TriangleReport,
    fisher_closed,
    fisher_gamma_argument,
    fisher_quadrature,
    hellinger_distance,
    hellinger_linearized,
    mean_error_closed,
    mean_error_quadrature,
    posterior_width_closed,
    posterior_width_quadrature,
    sensitivity_closed,
    sensitivity_quadrature,
    triangle_probe,
)
from genfisher.numerics import (
    EXP_MAX,
    ConvergenceError,
    DomainError,
    IntegrandError,
    QuadratureResult,
    QuadratureSpec,
    integrate_real_line,
    safe_exp,
)
from genfisher.probe import ProbeDistribution


def energy_probe(alpha, energy=1.0):
    return ProbeDistribution.from_shape_energy(alpha, energy)


GAUSS = ProbeDistribution.from_shape_scale(2.0, 1.0)
LAPLACE = ProbeDistribution.from_shape_scale(1.0, 1.0)


class TestHellingerDistance:
    def test_zero_shift_is_zero(self):
        assert hellinger_distance(GAUSS, 0.0, 0.5).value == 0.0

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 10.0])
    def test_zero_shift_is_zero_where_the_power_nears_overflow(self, q):
        # At alpha = 500 the split 6 puts nodes where s**alpha lies within a
        # factor 2q of the largest double: -2q s**alpha overflows, and times
        # the gap's expm1(0) = 0 it once gave nan (IntegrandError at q >= 2).
        dist = ProbeDistribution.from_shape_scale(500.0, 1.0)
        for spec in (None, QuadratureSpec(split_points=(6.0,))):
            got = hellinger_distance(dist, 0.0, q, spec)
            assert got.value == 0.0 and got.quad_detail.converged

    def test_gaussian_hellinger_anchor(self):
        # affinity of two sigma = 1/2 Gaussians shifted by eps is
        # exp(-eps^2 / (8 sigma^2)), so D = 1 - exp(-eps^2 / 2)
        expected = 1.0 - math.exp(-0.005)
        got = hellinger_distance(GAUSS, 0.1, 0.5).value
        assert got == pytest.approx(expected, abs=1e-9)

    def test_symmetric_in_shift_sign(self):
        plus = hellinger_distance(LAPLACE, 0.3, 2.0).value
        minus = hellinger_distance(LAPLACE, -0.3, 2.0).value
        assert plus == pytest.approx(minus, rel=1e-9)
        assert plus > 0.0

    def test_nonnegative_and_tagged(self):
        mv = hellinger_distance(LAPLACE, 0.7, 0.25)
        assert mv.value >= 0.0
        assert mv.quantity is Quantity.DISTANCE
        assert mv.method is Method.QUADRATURE
        assert mv.quad_detail is not None and mv.quad_detail.converged

    def test_rejects_nonpositive_order(self):
        with pytest.raises(DomainError):
            hellinger_distance(GAUSS, 0.1, 0.0)

    @pytest.mark.parametrize(
        "alpha, q, eps",
        [(10.0, 4.0, 0.01), (20.0, 4.0, 0.01), (20.0, 4.0, 0.1), (17.009, 2.962, 0.01)],
    )
    def test_converges_at_large_shape_and_order(self, alpha, q, eps):
        # near each bump's centre the two log densities differ by less than
        # the rounding of log P itself: only a gap taken from the powers, not
        # from the difference of the two log densities, resolves it
        dist = ProbeDistribution.from_shape_scale(alpha, 1.0)
        detail = hellinger_distance(dist, eps, q).quad_detail
        assert detail.converged and detail.evaluations <= 1000


class TestLinearization:
    def test_gaussian_weak_signal_anchor(self):
        # (q^(1/q)/2) |eps|^(1/q) F_q = (1/8)(0.01)(4) for these settings
        got = hellinger_linearized(GAUSS, 0.1, 0.5).value
        assert got == pytest.approx(0.005, rel=1e-8)

    def test_zero_shift_is_zero(self):
        assert hellinger_linearized(GAUSS, 0.0, 0.5).value == 0.0

    def test_ratio_approaches_one_monotonically(self):
        tight = QuadratureSpec(rel_tol=1e-9)
        ratios = []
        for eps in (0.1, 0.01, 0.001):
            d = hellinger_distance(LAPLACE, eps, 2.0, tight).value
            lin = hellinger_linearized(LAPLACE, eps, 2.0).value
            ratios.append(d / lin)
        assert ratios[0] < ratios[1] < ratios[2] < 1.0
        assert abs(1 - ratios[0]) > abs(1 - ratios[1]) > abs(1 - ratios[2])

    @pytest.mark.parametrize("alpha,q", [(1.0, 0.5), (2.0, 0.5), (2.0, 2.0), (1.5, 0.25)])
    def test_ratio_within_one_percent_at_weak_signal(self, alpha, q):
        dist = ProbeDistribution.from_shape_scale(alpha, 1.0)
        tight = QuadratureSpec(rel_tol=1e-7)
        ratio = (
            hellinger_distance(dist, 1e-3, q, tight).value
            / hellinger_linearized(dist, 1e-3, q).value
        )
        assert 0.99 <= ratio <= 1.01

    def test_factor_beyond_double_range_raises_before_integrating(self, evaluations):
        # |eps|**(1/q) = 1e400 overflows; the Fisher quadrature never runs
        with pytest.raises(OverflowError):
            hellinger_linearized(GAUSS, 1e200, 0.5)
        assert evaluations == []

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_shift_is_out_of_domain(self, evaluations, eps):
        # as for the distance and mean error quadratures at the same shift
        for route in (hellinger_linearized, hellinger_distance):
            with pytest.raises(DomainError):
                route(GAUSS, eps, 0.5)
        with pytest.raises(DomainError):
            mean_error_quadrature(GAUSS, eps, 0.5)
        assert evaluations == []


class TestClosedRange:
    """A closed value outside double range raises OverflowError, whether it
    overflows or underflows to 0; it never reads 0.0."""

    CASES = {
        # F_{1/2} = 4e-300 here, so F_{1/4} is about 1.6e-599
        "fisher_underflow": (fisher_closed, energy_probe(1.5, 1e-300), 0.25),
        # eps_min = gamma / 2 at q = 1/2
        "eps_min_underflow": (
            sensitivity_closed, ProbeDistribution.from_shape_scale(2.0, 5e-324), 0.5
        ),
        "mean_error_underflow": (
            mean_error_closed, ProbeDistribution.from_shape_scale(10.0, 5e-324), 10.0
        ),
        "fisher_overflow": (fisher_closed, energy_probe(2.0), 1e-3),
        "posterior_width_overflow": (posterior_width_closed, energy_probe(0.6), 1e-300),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_raises_overflow_error(self, case):
        closed_form, dist, q = self.CASES[case]
        with pytest.raises(OverflowError):
            closed_form(dist, q)

    def test_smallest_subnormal_is_a_value(self):
        # exp of the log value is 5e-324, not 0: inside double range
        dist = ProbeDistribution.from_shape_scale(2.0, 1e-323)
        assert sensitivity_closed(dist, 0.5).value == 5e-324


class TestPowerRange:
    """A quadrature route's power of its integral ends in safe_exp, as every
    integrand does: beyond double range it reads inf or 0, never
    OverflowError."""

    # eps_min and the mean error raise a logarithm near 0 to an exponent near
    # 1e300; the width of the Gaussian probe at gamma = 8e307 is 2.0e308
    ROUTES = {
        "eps_min": lambda: sensitivity_quadrature(GAUSS, 1e300),
        "posterior_width": lambda: posterior_width_quadrature(
            ProbeDistribution.from_shape_scale(2.0, 8e307), 0.5
        ),
        "mean_error": lambda: mean_error_quadrature(energy_probe(100.0, 1e-300), 0.0, 1e300),
    }

    @pytest.mark.parametrize("name", list(ROUTES))
    def test_power_beyond_double_range_is_inf_or_zero(self, name):
        assert self.ROUTES[name]().value in (0.0, math.inf)


# A 100-evaluation spec: every Fisher route stops at 90 evaluations, within
# 2e-8 of the converged integral, and raises ConvergenceError.
STARVED = QuadratureSpec(rel_tol=1e-15, max_evaluations=100)


class TestFisherMaps:
    """Each route's declared root and scale map its integral to the value
    and to the best estimate a ConvergenceError carries, with unchanged
    bits: the Fisher maps and the width and mean-error roots."""

    def test_non_converged_linearization_is_a_distance(self):
        # (q^(1/q)/2) |eps|^(1/q) F_q = (1/8)(1e-6)(4), not F_q = 4 itself:
        # the starved estimate of F_q times the factor, bit for bit
        with pytest.raises(ConvergenceError) as info:
            hellinger_linearized(GAUSS, 1e-3, 0.5, STARVED)
        factor = math.exp(math.log(0.5) / 0.5 - math.log(2.0)) * 1e-3 ** (1.0 / 0.5)
        assert info.value.result.value.hex() == "0x1.00000050606d8p+2"
        assert info.value.value == factor * info.value.result.value

    # name -> (route, bits at the default spec, bits of the starved estimate)
    PINS = {
        "eps_min": (
            lambda spec: sensitivity_quadrature(GAUSS, 0.5, spec),
            "0x1.ffffffffffd6cp-2",
            "0x1.ffffffaf9f92ap-2",
        ),
        "eps_min_quarter": (
            lambda spec: sensitivity_quadrature(energy_probe(0.8), 0.25, spec),
            "0x1.a4f4a3f5d446cp-2",
            "0x1.a4f4a3f5cfeb8p-2",
        ),
        "linearized": (
            lambda spec: hellinger_linearized(GAUSS, 1e-3, 0.5, spec),
            "0x1.0c6f7a0b5f042p-21",
            "0x1.0c6f7a5fa6cbap-21",
        ),
        "width": (
            lambda spec: posterior_width_quadrature(energy_probe(2.0), 0.25, spec),
            "0x1.943e619f9c477p+1",
            "0x1.943e61a15f320p+1",
        ),
        "mean_error": (
            lambda spec: mean_error_quadrature(energy_probe(2.0), 0.3, 2.0, spec),
            "0x1.5a19d1e3cb699p-2",
            "0x1.5a19d21aff47ap-2",
        ),
    }

    @pytest.mark.parametrize("name", list(PINS))
    def test_value_bits(self, name):
        route, converged, starved = self.PINS[name]
        assert route(None).value.hex() == converged
        with pytest.raises(ConvergenceError) as info:
            route(STARVED)
        assert info.value.value.hex() == starved


class TestFisher:
    @pytest.mark.parametrize(
        "dist,q,expected",
        [(GAUSS, 0.5, 4.0), (LAPLACE, 0.5, 4.0), (LAPLACE, 1.0, 2.0)],
    )
    def test_quadrature_anchors(self, dist, q, expected):
        assert fisher_quadrature(dist, q).value == pytest.approx(expected, rel=1e-9)

    def test_closed_gaussian_anchor_discriminates_argument(self):
        # classical Fisher information of the sigma = 1/2 Gaussian is 4;
        # only the argument (alpha + q - 1)/(alpha q) = 3/2 delivers it,
        # the candidate (alpha + q - 1)/alpha = 3/4 gives ~5.53
        assert fisher_gamma_argument(2.0, 0.5) == pytest.approx(1.5)
        assert fisher_closed(GAUSS, 0.5).value == pytest.approx(4.0, rel=1e-12)

    def test_closed_two_sided_exponential_anchor(self):
        assert fisher_closed(LAPLACE, 2.0).value == pytest.approx(math.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("q,boundary", [(0.25, 0.75), (0.9, 0.1), (0.5, 0.5)])
    def test_closed_domain_boundary(self, q, boundary):
        ok = ProbeDistribution.from_shape_scale(boundary + 1e-9, 1.0)
        assert fisher_closed(ok, q).value > 0.0
        bad = ProbeDistribution.from_shape_scale(boundary - 1e-9, 1.0)
        with pytest.raises(DomainError):
            fisher_closed(bad, q)

    def test_quadrature_domain_is_the_closed_one(self):
        # both need alpha > 1 - q, and nothing more
        d = ProbeDistribution.from_shape_scale(0.9, 1.0)
        for route in (fisher_quadrature, fisher_closed):
            with pytest.raises(DomainError):
                route(d, 0.05)
            assert route(d, 0.2).value > 0.0

    @pytest.mark.parametrize("alpha", [0.7501, 0.751, 0.755, 0.76])
    def test_converges_beside_the_pole(self, evaluations, alpha):
        # at q = 1/4 the score moment s**((alpha-1)/q) tends to s**-1 as alpha
        # falls to 3/4, and F_q to the Gamma pole; the first-panel power map
        # turns it into the bounded m exp(-2 t**(alpha m)), m = 1/(1 + (alpha-1)/q)
        dist = energy_probe(alpha)
        value = fisher_quadrature(dist, 0.25).value
        assert value == pytest.approx(fisher_closed(dist, 0.25).value, rel=1e-9, abs=0.0)
        assert len(evaluations) == 1 and evaluations[0] < 1_000


class TestSensitivity:
    @pytest.mark.parametrize("alpha", [0.6, 1.0, 2.0, 7.0, 50.0])
    @pytest.mark.parametrize("energy", [0.25, 1.0, 9.0])
    def test_half_order_law(self, alpha, energy):
        # at q = 1/2 the sensitivity is 1 / (2 sqrt(E)) for every shape
        got = sensitivity_closed(energy_probe(alpha, energy), 0.5).value
        assert got == pytest.approx(0.5 / math.sqrt(energy), rel=1e-9)

    @pytest.mark.parametrize("q", [2.0, 0.25])
    def test_unit_energy_collapse_at_alpha_one(self, q):
        # all gamma factors are Gamma(1) at alpha = 1
        assert sensitivity_closed(energy_probe(1.0), q).value == pytest.approx(0.5, rel=1e-12)

    def test_quadrature_route_matches(self):
        d = energy_probe(1.7)
        closed = sensitivity_closed(d, 2.0).value
        quad = sensitivity_quadrature(d, 2.0).value
        assert quad == pytest.approx(closed, rel=1e-7)


class TestPosteriorWidth:
    @pytest.mark.parametrize(
        "dist,q,expected",
        [
            (GAUSS, 0.5, math.sqrt(2.0 * math.pi)),
            (LAPLACE, 0.5, 4.0),
            (LAPLACE, 2.0, 2.0),
        ],
    )
    def test_closed_anchors(self, dist, q, expected):
        assert posterior_width_closed(dist, q).value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "dist,q",
        [(GAUSS, 0.5), (LAPLACE, 0.5), (LAPLACE, 2.0)],
    )
    def test_quadrature_parity(self, dist, q):
        closed = posterior_width_closed(dist, q).value
        quad = posterior_width_quadrature(dist, q).value
        assert quad == pytest.approx(closed, rel=1e-8)

    def test_quadrature_just_below_overflow_is_finite(self):
        # the width 1.0027e308 is inside double range, though the log of
        # its power is above 709
        dist = ProbeDistribution.from_shape_scale(2.0, 4e307)
        closed = posterior_width_closed(dist, 0.5).value
        assert closed == pytest.approx(1.0027e308, rel=1e-4)
        assert posterior_width_quadrature(dist, 0.5).value == pytest.approx(closed, rel=1e-8)

    def test_rejects_order_one(self):
        with pytest.raises(DomainError):
            posterior_width_closed(GAUSS, 1.0)
        with pytest.raises(DomainError):
            posterior_width_quadrature(GAUSS, 1.0)

    def test_shift_invariance(self):
        # integral of P^q is unchanged by shifting the density
        q, eps = 0.5, 0.7
        d = LAPLACE
        spec = QuadratureSpec(split_points=(eps, eps - 1.0, eps + 1.0))
        shifted = integrate_real_line(lambda x: d.pdf(x - eps) ** q, spec)
        assert shifted.converged
        width_shifted = shifted.value ** (1.0 / (1.0 - q))
        assert width_shifted == pytest.approx(
            posterior_width_quadrature(d, q).value, rel=1e-8
        )


class TestMeanError:
    def test_gaussian_half_order_is_standard_deviation(self):
        assert mean_error_closed(GAUSS, 0.5).value == pytest.approx(0.5, rel=1e-12)

    def test_two_sided_exponential_first_order(self):
        assert mean_error_closed(LAPLACE, 1.0).value == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize(
        "dist,q,eps,expected",
        [
            (LAPLACE, 1.0, 0.0, 0.5),
            (LAPLACE, 1.0, 2.3, 0.5),
            (GAUSS, 0.5, -0.4, 0.5),
        ],
    )
    def test_quadrature_anchors_any_shift(self, dist, q, eps, expected):
        got = mean_error_quadrature(dist, eps, q).value
        assert got == pytest.approx(expected, rel=1e-8)

    def test_translation_invariance(self):
        # the folded route never sees the shift: every finite one gives the
        # bits of eps = 0
        d = energy_probe(1.5)
        centred = mean_error_quadrature(d, 0.0, 0.25)
        for eps in (-2.0, 0.7, 5e-324, -1e300, 1.7e308):
            shifted = mean_error_quadrature(d, eps, 0.25)
            assert shifted.value.hex() == centred.value.hex()
            assert shifted.quad_detail == centred.quad_detail

    def test_closed_quadrature_parity(self):
        for q in (0.25, 0.5, 2.0, 4.0):
            d = energy_probe(3.0)
            assert mean_error_quadrature(d, 0.0, q).value == pytest.approx(
                mean_error_closed(d, q).value, rel=1e-8
            )


class TestParityGrid:
    @pytest.mark.parametrize("alpha", [0.8, 2.0, 20.0])
    @pytest.mark.parametrize("q", [0.25, 2.0])
    def test_all_quantities_agree(self, alpha, q):
        d = energy_probe(alpha)
        pairs = [
            (fisher_closed(d, q).value, fisher_quadrature(d, q).value),
            (sensitivity_closed(d, q).value, sensitivity_quadrature(d, q).value),
            (posterior_width_closed(d, q).value, posterior_width_quadrature(d, q).value),
            (mean_error_closed(d, q).value, mean_error_quadrature(d, 0.0, q).value),
        ]
        for closed, quad in pairs:
            assert abs(closed - quad) / closed <= 1e-6


class TestNonConvergedEstimate:
    """A starved quadrature still reports a correctly scaled best estimate."""

    STARVED = QuadratureSpec(rel_tol=1e-15, max_evaluations=100)

    @pytest.mark.parametrize(
        "quadrature,closed,q",
        [
            (fisher_quadrature, fisher_closed, 0.5),
            (sensitivity_quadrature, sensitivity_closed, 2.0),
            (posterior_width_quadrature, posterior_width_closed, 2.0),
            (posterior_width_quadrature, posterior_width_closed, 0.25),
            (lambda d, q, spec: mean_error_quadrature(d, 0.3, q, spec), mean_error_closed, 2.0),
        ],
    )
    def test_best_estimate_is_near_closed_form(self, quadrature, closed, q):
        d = energy_probe(2.0)
        with pytest.raises(ConvergenceError) as info:
            quadrature(d, q, self.STARVED)
        assert not info.value.result.converged
        assert info.value.value == pytest.approx(closed(d, q).value, rel=1e-2)

    def test_error_carries_folded_result(self):
        with pytest.raises(ConvergenceError) as info:
            fisher_quadrature(GAUSS, 0.5, self.STARVED)
        assert info.value.value == info.value.result.value
        assert info.value.value == pytest.approx(4.0, rel=1e-2)


class TestCramerRao:
    @pytest.mark.parametrize("alpha", [0.8, 1.0, 2.0, 5.0, 20.0])
    def test_product_bounded_below_by_one(self, alpha):
        d = energy_probe(alpha)
        product = mean_error_closed(d, 0.5).value * math.sqrt(fisher_closed(d, 0.5).value)
        assert product >= 1.0 - 1e-9
        if alpha == 2.0:
            assert product == pytest.approx(1.0, abs=1e-9)
        else:
            assert product > 1.0 + 1e-6


class TestTriangleProbe:
    def test_half_order_is_a_metric(self):
        for triple in ((0.0, 0.5, 1.0), (-1.0, 0.2, 0.6), (0.0, 2.0, 4.0)):
            rep = triangle_probe(GAUSS, 0.5, triple)
            assert not rep.violated

    def test_degenerate_triple(self):
        rep = triangle_probe(GAUSS, 0.5, (0.3, 0.3, 1.1))
        assert not rep.violated
        assert rep.legs[0] == 0.0
        assert rep.lhs == pytest.approx(rep.legs[1], rel=1e-12)

    def test_violation_found_above_half_order(self):
        # this combination genuinely breaks the triangle inequality for
        # D_q^q; the margin (~30%) dwarfs the quadrature error
        d = ProbeDistribution.from_shape_scale(5.0, 1.0)
        rep = triangle_probe(d, 2.0, (0.0, 0.5, 1.0))
        assert rep.violated
        assert rep.lhs > rep.rhs

    def test_rejects_wrong_arity(self):
        with pytest.raises(DomainError):
            triangle_probe(GAUSS, 0.5, (0.0, 1.0))

    @pytest.mark.parametrize(
        "q, shifts, calls",
        [(2.0, (0.0, 0.5, 1.0), 2), (0.5, (0.3, 0.3, 1.1), 2), (0.25, (0.0, 0.2, 2.0), 3)],
    )
    def test_each_distinct_separation_is_integrated_once(self, evaluations, q, shifts, calls):
        d = ProbeDistribution.from_shape_scale(5.0, 1.0)
        rep = triangle_probe(d, q, shifts)
        assert len(evaluations) == calls

        def leg(separation):
            dv = hellinger_distance(d, separation, q)
            err = dv.quad_detail.abs_error_estimate
            return dv.value**q, max(dv.value - err, 0.0) ** q, (dv.value + err) ** q

        s1, s2, s3 = sorted(shifts)
        (t12, _, t12_hi), (t23, _, t23_hi), (t13, t13_lo, _) = leg(s2 - s1), leg(s3 - s2), leg(s3 - s1)
        expected = TriangleReport(t13, t12 + t23, t13_lo > t12_hi + t23_hi, (t12, t23, t13))

        def bits(r):
            return [float.hex(x) for x in (r.lhs, r.rhs, *r.legs)], r.violated

        assert bits(rep) == bits(expected)


class TestSharedIntegrals:
    """Inside ``shared_integrals`` a moment integral runs the engine once
    per (shape, power, spec); every reader maps the one raw result itself."""

    @staticmethod
    def widths(d, spec=None):
        return [posterior_width_quadrature(d, q, spec) for q in (0.25, 0.5, 2.0)]

    @staticmethod
    def bits(m):
        r = m.quad_detail
        return [float.hex(x) for x in (m.value, r.value, r.abs_error_estimate)], r.evaluations

    def test_widths_at_one_shape_share_one_run(self, evaluations):
        d = energy_probe(1.7)
        alone = self.widths(d)
        assert len(evaluations) == 3
        with measures.shared_integrals():
            shared = self.widths(d)
            assert len(evaluations) == 4
            # a caller's own spec is another integral
            tight = self.widths(d, QuadratureSpec(rel_tol=1e-12))
            assert len(evaluations) == 5
        assert [self.bits(m) for m in shared] == [self.bits(m) for m in alone]
        assert [self.bits(m) for m in tight] != [self.bits(m) for m in alone]

    @pytest.mark.parametrize("alpha, runs", [(2.0, 1), (3.0, 2)])
    def test_fisher_and_mean_error_share_a_run_only_at_one_power(
        self, evaluations, alpha, runs
    ):
        # the Fisher power (alpha - 1)/q equals the mean error's 1/q at alpha = 2
        d = energy_probe(alpha)
        with measures.shared_integrals():
            shared = [fisher_quadrature(d, 0.5), mean_error_quadrature(d, 0.0, 0.5)]
        assert len(evaluations) == runs
        alone = [fisher_quadrature(d, 0.5), mean_error_quadrature(d, 0.0, 0.5)]
        assert [self.bits(m) for m in shared] == [self.bits(m) for m in alone]

    def test_an_engine_failure_runs_once_and_reaches_every_reader(self, monkeypatch):
        # below one 15-point panel per piece the engine raises DomainError
        starved, d = QuadratureSpec(max_evaluations=20), energy_probe(2.0)
        with pytest.raises(DomainError) as fresh:
            posterior_width_quadrature(d, 0.5, starved)
        engine, calls = measures.integrate_half_line, []

        def counting(*args):
            calls.append(args)
            return engine(*args)

        monkeypatch.setattr(measures, "integrate_half_line", counting)
        with measures.shared_integrals():
            for q in (0.25, 2.0):
                with pytest.raises(DomainError) as shared:
                    posterior_width_quadrature(d, q, starved)
                assert str(shared.value) == str(fresh.value)
        assert len(calls) == 1


class TestMeasureValue:
    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            MeasureValue(Quantity.FISHER, -1.0, Method.CLOSED_FORM)


def _reference_distance(dist, eps, q):
    # the folded integrand of the unit-scale probe without its constant, in the
    # reduced variable s: g(s) = f(e + s) + f(e - s) [s < e/2] with
    # e = |eps| / gamma; each term sits a distance s from the nearer copy and
    # s + d from the farther.  For q > 1 and a crossing h = e/2 below 4, the
    # piece [b, h), b = 1 if h > 1 else 0, is taken in x with
    # h - s = (h - b) ((h - x) / (h - b))**n, n = min(ceil(q), 4), times the
    # Jacobian n ((h - x) / (h - b))**(n - 1), and the fold's d = e - 2s is
    # 2 (h - s)
    e, a = abs(eps) / dist.gamma_scale, dist.alpha
    h = 0.5 * e
    n = min(math.ceil(q), 4)
    b = 1.0 if h > 1.0 else 0.0

    def log_gap(lo, s, d):
        # the expm1 form while the ratio's power (2**a at most) is in range
        if d < s:
            try:
                return -2.0 * q * lo * math.expm1(a * math.log1p(d / s))
            except OverflowError:
                pass
        return 2.0 * q * (lo - (s + d) ** a)

    def term(s, d):
        try:
            lo = s**a
        except OverflowError:
            return 0.0
        try:
            gap = log_gap(lo, s, d)
        except OverflowError:
            return safe_exp(-2.0 * lo)
        return 0.0 if gap == 0.0 else safe_exp(-2.0 * lo + math.log(-math.expm1(gap)) / q)

    def f(x):
        if q > 1.0 and h < 4.0 and b <= x < h:
            r = (h - x) / (h - b)
            t = (h - b) * r**n
            return n * r ** (n - 1) * (term(h - t, e) + term(h - t, 2.0 * t))
        near = term(x, e)
        return near + term(x, e - 2.0 * x) if x < h else near

    return f


def _reference_kernel(p, alpha):
    # the moment kernel s**p exp(-c s**alpha) in t = s / sigma, at its mass
    # scale sigma = (b / c)**(1/alpha) with b = max(p / alpha, 1), so free of
    # c: t**p exp(-b (t**alpha - 1)).  In u = t**alpha it is the gamma
    # integrand (1/alpha) u**(lam - 1) exp(-b (u - 1)), lam = (p + 1)/alpha,
    # taken in log form on u >= 1.  On u < 1 the substitution u = tau**m,
    # n = ceil(lam), m = n / lam, gives (m/alpha) tau**(n-1) exp(-b (tau**m - 1)),
    # in log form with expm1 where e**b overflows
    b = max(p / alpha, 1.0)
    lam = (p + 1.0) / alpha
    n = math.ceil(lam)
    m = n / lam

    def f(u):
        if u < 1.0 and b > EXP_MAX:
            return m / alpha * math.exp((n - 1) * math.log(u) - b * math.expm1(m * math.log(u)))
        if u < 1.0:
            return m / alpha * u ** (n - 1) * math.exp(-b * (u**m - 1.0))
        return safe_exp((lam - 1.0) * math.log(u) - b * (u - 1.0)) / alpha

    return f


_SHIFT = 0.7


def _seed_nodes(panels=numerics.INITIAL_PANELS):
    """Every Gauss-Kronrod node of the engine's seed panels on [0, 1)."""
    nodes = []
    for i in range(panels):
        a, b = i / panels, (i + 1) / panels
        center, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes.append(center)
        nodes += [center + sign * half * xi for xi in numerics._GK_XI for sign in (-1, 1)]
    return nodes


class TestDistanceZeroTail:
    """Past the last split ``a`` both folded terms of the distance are at
    most ``exp(-2 a**alpha)``, which is exactly 0.0 once ``a**alpha >= 373``
    (``a = 4`` from alpha ~ 4.27 on): the route then builds no tail piece,
    and the engine's value and error keep the generic map's bits."""

    NODES = _seed_nodes() + [1.0 - 1e-12]

    @staticmethod
    def _run(monkeypatch, alpha, q, shift):
        """What the distance hands the engine, and the engine's result."""
        runs = []

        def engine(f, spec, tail=None):
            runs.append((f, spec, tail, numerics.integrate_half_line(f, spec, tail)))
            return runs[-1][-1]

        monkeypatch.setattr(measures, "integrate_half_line", engine)
        dist = energy_probe(alpha)
        hellinger_distance(dist, shift * dist.gamma_scale, q)
        (run,) = runs
        return run + (_reference_distance(dist, shift * dist.gamma_scale, q),)

    # at the shift 8.5 the crossing 4.25 lies past the last split 4
    @pytest.mark.parametrize("shift", [0.7, 8.5])
    @pytest.mark.parametrize("q", [0.25, 2.0])
    @pytest.mark.parametrize("alpha", [4.3, 5.0, 20.0, 100.0, 2000.0])
    def test_no_tail_piece_where_the_integrand_is_zero(self, monkeypatch, alpha, q, shift):
        f, spec, tail, result, reference = self._run(monkeypatch, alpha, q, shift)
        anchor = spec.split_points[-1]
        assert tail(anchor) is None
        plain = numerics._tail(reference, anchor, 1.0)
        assert {plain(t).hex() for t in self.NODES} == {"0x0.0p+0"}
        generic = numerics.integrate_half_line(f, spec)
        assert (result.value.hex(), result.abs_error_estimate.hex(), result.converged) == (
            generic.value.hex(), generic.abs_error_estimate.hex(), generic.converged)
        seed_panels = numerics.INITIAL_PANELS * numerics._EVALS_PER_PANEL
        assert result.evaluations == generic.evaluations - seed_panels

    def test_tail_is_kept_below_the_threshold(self, monkeypatch):
        # 4**4.2 ~ 337: the tail's first nodes read exp(-674) > 0
        _, spec, tail, _, reference = self._run(monkeypatch, 4.2, 2.0, 0.7)
        anchor = spec.split_points[-1]
        assert tail(anchor) is not None
        assert any(numerics._tail(reference, anchor, 1.0)(t) > 0.0 for t in self.NODES)


class TestIntegrandBits:
    """Each route's integrand equals, bit for bit, its plain composition in
    the folded reduced variable: the distance's with its gap written out,
    the Fisher, width and mean-error routes' of the moment kernel at its
    mass scale, first-panel power map and its log form included.  The
    moment routes hand the engine their tail as well, already in the
    half-line map's variable; it equals the generic map of the plain
    kernel.  So does the distance's, or it is None where the plain
    integrand is exactly 0 past the last split (``TestDistanceZeroTail``)."""

    # 0, tiny and moderate arguments, the cusp at the reduced shift 0.7, and
    # far tails; for alpha = 100 the power s**alpha overflows from s ~ 1.2e3 on
    HALF_LINE = (0.0, 1e-300, 1e-12, 0.3, 0.7, 0.7 + 1e-12, 1.0, 2.5, 40.0, 1e4, 1e300)
    # the folded distance also at its crossing 0.35 and just below it
    FOLDED = HALF_LINE + (0.35, 0.35 - 1e-12)
    # the moment kernel also just below its split at t = 1
    REDUCED = HALF_LINE + (1.0 - 2.0**-53,)

    # (route, reference integrand, arguments of the probe)
    ROUTES = {
        "distance": (
            lambda d, q: hellinger_distance(d, _SHIFT * d.gamma_scale, q),
            lambda d, q: _reference_distance(d, _SHIFT * d.gamma_scale, q),
            lambda d: TestIntegrandBits.FOLDED,
        ),
        "fisher": (
            fisher_quadrature,
            lambda d, q: _reference_kernel((d.alpha - 1.0) / q, d.alpha),
            lambda d: TestIntegrandBits.REDUCED,
        ),
        "eps_min": (
            sensitivity_quadrature,
            lambda d, q: _reference_kernel((d.alpha - 1.0) / q, d.alpha),
            lambda d: TestIntegrandBits.REDUCED,
        ),
        "width": (
            posterior_width_quadrature,
            lambda d, q: _reference_kernel(0.0, d.alpha),
            lambda d: TestIntegrandBits.REDUCED,
        ),
        "mean_error": (
            lambda d, q: mean_error_quadrature(d, _SHIFT, q),
            lambda d, q: _reference_kernel(1.0 / q, d.alpha),
            lambda d: TestIntegrandBits.REDUCED,
        ),
    }

    def _assert_matches(self, monkeypatch, route, alpha, q, points):
        measure, reference, _ = self.ROUTES[route]
        self._assert_integrand(monkeypatch, measure, reference, alpha, q, points)

    @staticmethod
    def _capture(monkeypatch, measure, alpha, q):
        """What ``measure`` hands the engine: integrand, spec and tail."""
        captured = []

        def capture(f, spec, tail=None):
            captured.append((f, spec, tail))
            return QuadratureResult(1.0, 0.0, True, 0)

        monkeypatch.setattr(measures, "integrate_half_line", capture)
        measure(energy_probe(alpha), q)
        (handed,) = captured
        return handed

    def _assert_integrand(self, monkeypatch, measure, reference, alpha, q, points):
        integrand, spec, tail = self._capture(monkeypatch, measure, alpha, q)
        expected = reference(energy_probe(alpha), q)
        for x in points:
            assert integrand(x).hex() == expected(x).hex(), x
        # the tail at the last split, against the generic map of the plain
        # kernel, on the grid's points below 1 and next to 1; a tail of None
        # stands for +0.0 there
        anchor = spec.split_points[-1]
        mapped, plain = tail(anchor), numerics._tail(expected, anchor, 1.0)
        for t in [x for x in points if x < 1.0] + [1.0 - 1e-12]:
            assert (0.0 if mapped is None else mapped(t)).hex() == plain(t).hex(), t
        return mapped

    @pytest.mark.parametrize("alpha", [0.8, 2.0, 100.0])
    @pytest.mark.parametrize("q", [0.25, 0.5, 2.0])
    @pytest.mark.parametrize("route", list(ROUTES))
    def test_integrand_matches_reference(self, monkeypatch, route, alpha, q):
        points = self.ROUTES[route][2](energy_probe(alpha))
        measure, reference, _ = self.ROUTES[route]
        mapped = self._assert_integrand(monkeypatch, measure, reference, alpha, q, points)
        # only the distance drops its tail, and only where 4**alpha >= 373
        assert (mapped is None) == (route == "distance" and alpha == 100.0)

    # the distance's mapped piece [b, h) at q > 1: below the crossing
    # h = 0.35 (b = 0) and h = 1.5 (b = 1), and past both; at h = 4.25 the
    # guard h < 4 leaves the same arguments unmapped
    MAPPED = (1e-300, 1e-12, 0.1, 0.3, 0.35 - 1e-12, 0.5, 1.0, 1.2, 1.5 - 1e-12, 1.5, 2.0, 3.9, 4.2)

    @pytest.mark.parametrize("alpha", [0.8, 2.0, 100.0])
    @pytest.mark.parametrize("q", [2.0, 4.0, 10.0])
    @pytest.mark.parametrize("shift", [0.7, 3.0, 8.5])
    def test_distance_mapped_piece_matches_reference(self, monkeypatch, shift, q, alpha):
        self._assert_integrand(
            monkeypatch,
            lambda d, q: hellinger_distance(d, shift * d.gamma_scale, q),
            lambda d, q: _reference_distance(d, shift * d.gamma_scale, q),
            alpha, q, self.MAPPED,
        )

    # e**b overflows for the mean error at b = 1/(alpha q) = 1250 and for the
    # Fisher route at b = (alpha - 1)/(alpha q) = 5000; the log form needs
    # t > 0, and no Gauss-Kronrod node lies on a panel end
    @pytest.mark.parametrize("route, alpha, q", [("mean_error", 0.8, 1e-3), ("fisher", 2.0, 1e-4)])
    def test_log_form_first_panel_matches_reference(self, monkeypatch, route, alpha, q):
        self._assert_matches(monkeypatch, route, alpha, q, self.REDUCED[1:])

    # a tail node that rounds onto t = 1 maps to infinity: the route's tail
    # raises the generic map's IntegrandError, text and all
    @pytest.mark.parametrize("route", ["distance", "fisher", "width", "mean_error"])
    def test_tail_node_at_infinity_raises_the_generic_error(self, monkeypatch, route):
        measure, reference, _ = self.ROUTES[route]
        _, _, tail = self._capture(monkeypatch, measure, 2.0, 0.5)
        with pytest.raises(IntegrandError) as got:
            tail(1.0)(1.0)
        with pytest.raises(IntegrandError) as want:
            numerics._tail(reference(energy_probe(2.0), 0.5), 1.0, 1.0)(1.0)
        assert str(got.value) == str(want.value)

    # only the map's own division by zero becomes IntegrandError; one raised
    # by the kernel's arithmetic, here a stand-in exp, passes through
    def test_kernel_division_by_zero_passes_through_the_tail(self, monkeypatch):
        def exp(x):
            raise ZeroDivisionError("raised by the kernel")

        fake = {name: getattr(math, name) for name in dir(math) if not name.startswith("_")}
        monkeypatch.setattr(measures, "math", SimpleNamespace(**{**fake, "exp": exp}))
        _, _, tail = self._capture(monkeypatch, posterior_width_quadrature, 2.0, 0.5)
        with pytest.raises(ZeroDivisionError, match="raised by the kernel"):
            tail(1.0)(0.5)

    # a caller's split beyond 1 puts part of the kernel's gamma side in the
    # head's pieces and moves the tail's anchor there
    def test_split_beyond_one_moves_the_tail_anchor(self, monkeypatch):
        spec = QuadratureSpec(split_points=(3.0,))
        measure = lambda d, q: fisher_quadrature(d, q, spec)
        head, merged, tail = self._capture(monkeypatch, measure, 0.8, 0.25)
        assert merged.split_points == (1.0, 3.0)
        reference = _reference_kernel((0.8 - 1.0) / 0.25, 0.8)
        plain = numerics._tail(reference, 3.0, 1.0)
        for t in self.HALF_LINE[:6] + (1.0 - 1e-12,):
            assert tail(3.0)(t).hex() == plain(t).hex(), t
        for x in (1.0, 1.5, 3.0 - 1e-12):
            assert head(x).hex() == reference(x).hex(), x

    def test_split_beyond_one_keeps_the_value(self):
        dist = energy_probe(0.8)
        got = fisher_quadrature(dist, 0.25, QuadratureSpec(split_points=(3.0,)))
        assert got.value == pytest.approx(fisher_closed(dist, 0.25).value, rel=1e-9)

    def test_grid_reaches_the_overflowing_power(self):
        with pytest.raises(OverflowError):
            math.pow(1e4, 100.0)
