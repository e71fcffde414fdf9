"""The measures at the edges of double range; open defects as strict xfails.

Each test asserts the correct behaviour.  An open defect's test is a strict
xfail that names the one exception the defect raises today, so an unrelated
error still fails it.  Every quadrature route integrates a unit-scale
kernel and adds the probe's scale in log space, so the routes keep their
digits at E = 1e-300 and 1e300.  The moment routes integrate their kernel
in units of its own mass scale and add that scale in log space too, so at
q = 1e-3, where the kernel integral itself leaves double range, and at
q = 1e-300 they read their closed forms, and ``hellinger_linearized`` adds
the log of its factor in front of F_q to the Fisher route's prefactors, so
it reads its value where the factor underflows to 0 and F_q overflows to
inf.  The file holds one xfail, the mapped width: a mapped route certifies
its integral, not the quantity, so just above q = 1 the width reads a
converged wrong value.  An unexpected pass fails the suite
(``xfail_strict``).  At
tiny orders the Fisher and mean-error kernels are spikes narrower than the
seed panels' node spacing; the routes bracket them, so down to q = 1e-14
they read their closed forms and their integrals hold their whole mass.
"""

import math

import mpmath
import pytest

from genfisher import measures
from genfisher.cli import main
from genfisher.estimation import TrialPlan, run_trials
from genfisher.measures import (
    fisher_closed,
    fisher_quadrature,
    hellinger_distance,
    hellinger_linearized,
    mean_error_closed,
    mean_error_quadrature,
    posterior_width_closed,
    posterior_width_quadrature,
    sensitivity_closed,
    sensitivity_quadrature,
)
from genfisher.probe import ProbeDistribution


def test_fisher_quadrature_at_tiny_energy():
    dist = ProbeDistribution.from_shape_energy(1.5, 1e-300)
    closed = fisher_closed(dist, 0.5).value
    assert closed == pytest.approx(4e-300, rel=1e-9, abs=0.0)
    assert fisher_quadrature(dist, 0.5).value == pytest.approx(closed, rel=1e-6, abs=0.0)


def test_fisher_quadrature_at_huge_energy():
    dist = ProbeDistribution.from_shape_energy(1.5, 1e300)
    closed = fisher_closed(dist, 0.5).value
    assert fisher_quadrature(dist, 0.5).value == pytest.approx(closed, rel=1e-6, abs=0.0)


def test_verify_tiny_order_parity_has_finite_quadrature(tmp_path, capsys):
    # F^-q and M^q are finite at q = 1e-3, though the mean error's moment
    # int s**1000 exp(-2 s**2) is not: its kernel is integrated at its mass
    # scale, where it peaks at 1, and that scale is added in log space
    out = tmp_path / "report.txt"
    main(["verify", "--alphas", "2", "--qs", "1e-3", "--out", str(out)])
    capsys.readouterr()
    lines = out.read_text(encoding="utf-8").splitlines()
    for quantity in ("eps_min", "mean_error"):
        (line,) = [l for l in lines if l.startswith(f"parity {quantity} alpha=2 q=0.001:")]
        assert "nan" not in line and line.endswith(" PASS"), line


@pytest.mark.parametrize("quantity", ["eps_min", "posterior_width", "mean_error"])
def test_sweep_at_huge_energy_converges(tmp_path, capsys, quantity):
    # the default 60-point grid, three orders: 180 rows
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--quantity", quantity, "--energy", "1e300", "--out", str(out)])
    capsys.readouterr()
    rows = [r.split(",") for r in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert len(rows) == 180
    assert [r for r in rows if r[-1] == "no_converge"] == []
    assert rc == 0


# The distance_closed lines check the distance on the run's probes, so here
# off unit scale: gamma is near 1e-6 at E = 1e12.
@pytest.mark.parametrize("energy", ["1e12", "1e30", "1e100", "1e300"])
def test_verify_at_huge_energy_passes(tmp_path, capsys, energy):
    out = tmp_path / "report.txt"
    rc = main(["verify", "--energy", energy, "--out", str(out)])
    capsys.readouterr()
    assert out.read_text(encoding="utf-8").endswith("overall: PASS\n")
    assert rc == 0


# At q = 1/2 the distance of two copies of a unit-scale Gaussian probe tends to
# 1 as the shift grows (D = 0.9999999999999968 at eps = 10).  The folded
# quadrature keeps its split points 1 and 4 widths from the nearer copy, so no
# shift moves the bumps out of reach of its panels.
@pytest.mark.parametrize("eps", [10.0, 1e4, 1e8, 1e16, 1e20, 1e50])
def test_distance_at_large_shift_is_one(eps):
    dist = ProbeDistribution.from_shape_scale(2.0, 1.0)
    assert hellinger_distance(dist, eps, 0.5).value == pytest.approx(1.0, rel=0.0, abs=1e-9)


# The distance integrates the unit-scale probe shifted by eps / gamma, so the
# scale enters nowhere else.  At E = 1e-300 (gamma = 1e150, r = eps / gamma =
# 1e-151) the Gaussian distance 1 - exp(-r**2 / 2) = 5e-303 is resolved,
# although the physical integrand lies below double range; at gamma = 1e308,
# where 2 gamma overflows and the probe's log C reads -inf, the distance is
# the unit-scale one.
def test_distance_at_tiny_energy_is_the_gaussian_closed_form():
    dist = ProbeDistribution.from_shape_energy(2.0, 1e-300)
    r = 0.1 / dist.gamma_scale
    expected = -math.expm1(-0.5 * r * r)
    assert hellinger_distance(dist, 0.1, 0.5).value == pytest.approx(expected, rel=1e-9, abs=0.0)


def test_distance_at_the_largest_scale_is_the_unit_scale_value():
    unit = hellinger_distance(ProbeDistribution.from_shape_scale(2.0, 1.0), 0.7, 0.5).value
    dist = ProbeDistribution.from_shape_scale(2.0, 1e308)
    value = hellinger_distance(dist, 0.7 * dist.gamma_scale, 0.5).value
    assert value == pytest.approx(unit, rel=1e-12, abs=0.0)


# At alpha = 20 and eps = 1e50 the gap between the two copies overflows: the
# farther copy then adds nothing, and the term is the nearer bump alone.
@pytest.mark.parametrize("alpha", [0.6, 2.0, 20.0])
@pytest.mark.parametrize("ratio", [1e3, 1e8, 1e50])
def test_distance_far_beyond_the_scale_is_one_to_1e_12(alpha, ratio):
    gamma = 0.37
    dist = ProbeDistribution.from_shape_scale(alpha, gamma)
    value = hellinger_distance(dist, ratio * gamma, 0.5).value
    assert 0.0 <= 1.0 - value < 1e-12


# At q = 1e-300 the width integrand exp(q log P) stays near 1 out to
# |x| ~ 1e296.  In units of its mass scale sigma = gamma (2q)**(-1/alpha) it
# is exp(-(t**alpha - 1)) at every order, and the width is 1e297 here.  In
# the folded s = |x|/gamma refinement chased that mass onto the tail node
# that maps to infinity, and the route raised IntegrandError.
def test_width_at_tiny_order_is_the_closed_form():
    dist = ProbeDistribution.from_shape_energy(1.01, 1.0)
    for q in (1e-15, 1e-300):
        closed = posterior_width_closed(dist, q).value
        assert posterior_width_quadrature(dist, q).value == pytest.approx(closed, rel=1e-10, abs=0.0)


# The width is I**(1/(1-q)), which multiplies the integral's relative error by
# 1/|1-q| = 1e15 here; only the integral's convergence is checked, so an
# integral 3.4e-13 below 1 reads as a converged width of 8.66e132.
@pytest.mark.xfail(raises=AssertionError, reason="reads a converged 8.66e132")
def test_posterior_width_just_above_order_one():
    dist = ProbeDistribution.from_shape_energy(0.51, 1.0)
    q = 1.000000000000001
    closed = posterior_width_closed(dist, q).value
    assert closed == pytest.approx(35.21198, rel=1e-6, abs=0.0)
    assert posterior_width_quadrature(dist, q).value == pytest.approx(closed, rel=1e-6, abs=0.0)


# The linearized distance is (q**(1/q) / 2) |eps|**(1/q) F_q.  At gamma = 1e-200
# and eps = 1e-300 it is (1/8) 1e-600 4e400 = 5e-201, where the distance route
# reads 5.0000000000001645e-201, and at zero shift it is 0.  The factor
# underflows to 0 and F_q overflows to inf; their logs are finite.
def test_linearized_distance_with_factor_and_fisher_beyond_double_range():
    tiny = ProbeDistribution.from_shape_scale(2.0, 1e-200)
    assert hellinger_linearized(tiny, 1e-300, 0.5).value == pytest.approx(5e-201, rel=1e-9)
    tinier = ProbeDistribution.from_shape_scale(2.0, 1e-300)
    assert hellinger_linearized(tinier, 0.0, 0.5).value == 0.0


# At tiny orders the Fisher kernel (p = (alpha - 1)/q) and the mean-error
# kernel (p = 1/q), t**p exp(-b (t**alpha - 1)) with b = p / alpha, are spikes
# of width about 1/(alpha sqrt(b)) at t = 1.  Seed nodes that miss one side
# of it read half the integral, which the q-th root hides as a relative error
# of q ln 2; nodes that miss both read 0.  The routes bracket the spike.
@pytest.mark.parametrize(
    "q, expected", [(1e-10, 8.243606e-6), (1e-12, 8.243606e-7), (1e-14, 8.243606e-8)]
)
def test_sensitivity_at_tiny_order_reads_the_closed_form(q, expected):
    dist = ProbeDistribution.from_shape_energy(2.0, 1.0)
    closed = sensitivity_closed(dist, q).value
    assert closed == pytest.approx(expected, rel=1e-6, abs=0.0)
    assert sensitivity_quadrature(dist, q).value == pytest.approx(closed, rel=1e-6, abs=0.0)


@pytest.mark.parametrize(
    "q, expected", [(1e-10, 30326.53), (1e-12, 303265.33), (1e-14, 3032653.3)]
)
def test_mean_error_at_tiny_order_reads_the_closed_form(q, expected):
    dist = ProbeDistribution.from_shape_energy(2.0, 1.0)
    closed = mean_error_closed(dist, q).value
    assert closed == pytest.approx(expected, rel=1e-6, abs=0.0)
    value = mean_error_quadrature(dist, 0.0, q).value
    assert value == pytest.approx(closed, rel=1e-6, abs=0.0)


# The engine's own integral in t, before any root, against
# I = e**b Gamma(s) / (alpha b**s), s = (p + 1)/alpha, at 40 digits: half the
# mass reads ln(I_quad / I) = -ln 2, whatever q.  At alpha = 2 the Fisher and
# mean-error kernels are one, p = 1/q.
@pytest.mark.parametrize("q", [1e-8, 1e-9, 1e-10, 1e-11, 1e-12])
@pytest.mark.parametrize(
    "route",
    [sensitivity_quadrature, lambda d, q: mean_error_quadrature(d, 0.0, q)],
    ids=["eps_min", "mean_error"],
)
def test_tiny_order_integral_holds_its_whole_mass(monkeypatch, route, q):
    runs = []
    engine = measures.integrate_half_line

    def spy(f, spec, tail=None):
        runs.append(engine(f, spec, tail))
        return runs[-1]

    monkeypatch.setattr(measures, "integrate_half_line", spy)
    route(ProbeDistribution.from_shape_energy(2.0, 1.0), q)
    (result,) = runs
    p = 1.0 / q
    b = p / 2.0
    with mpmath.workdps(40):
        s = (mpmath.mpf(p) + 1) / 2
        log_exact = b + mpmath.loggamma(s) - mpmath.log(2) - s * mpmath.log(b)
        assert abs(float(mpmath.log(result.value) - log_exact)) < 1e-9


@pytest.mark.parametrize("q", ["1e-10", "1e-12", "1e-14"])
def test_verify_at_tiny_order_passes(tmp_path, capsys, q):
    out = tmp_path / "report.txt"
    rc = main(["verify", "--alphas", "2", "--qs", q, "--out", str(out)])
    capsys.readouterr()
    assert out.read_text(encoding="utf-8").endswith("overall: PASS\n")
    assert rc == 0


# The deviations |x - shift| come from the unshifted draws, so they are
# exact at any shift.  Rebuilt as |(sample + shift) - shift|, each deviation
# at a shift of 1e16 would be a multiple of the shift's ulp, 2.
def test_trials_at_large_shift_bracket_the_mean_error():
    probe = ProbeDistribution.from_shape_energy(2.0, 1.0)
    r = run_trials(TrialPlan(probe, 1e16, 0.5, 100_000, 1))
    assert r.predicted_mean_error == pytest.approx(0.5, rel=1e-12)
    assert r.generalized_error_ci_low <= r.predicted_mean_error <= r.generalized_error_ci_high
