"""The measures at the edges of double range; open defects as strict xfails.

Each test asserts the correct behaviour.  An open defect's test is a strict
xfail that names the one exception the defect raises today, so an unrelated
error still fails it.  Every quadrature route integrates a unit-scale
kernel and adds the probe's scale in log space, so the routes keep their
digits at E = 1e-300 and 1e300.  The moment routes integrate their kernel
in units of its own mass scale and add that scale in log space too, so at
q = 1e-3, where the kernel integral itself leaves double range, and at
q = 1e-300 they read their closed forms.  The two xfails are not about
double range: a mapped route certifies its integral, not the quantity, and
the Monte Carlo deviations lose their digits at a large shift.  An
unexpected pass fails the suite (``xfail_strict``).
"""

import math

import pytest

from genfisher.cli import main
from genfisher.estimation import TrialPlan, run_trials
from genfisher.measures import (
    fisher_closed,
    fisher_quadrature,
    hellinger_distance,
    posterior_width_closed,
    posterior_width_quadrature,
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


# The deviations |x - shift| come from the unshifted draws, so they are
# exact at any shift.  Rebuilt as |(sample + shift) - shift|, each deviation
# at a shift of 1e16 would be a multiple of the shift's ulp, 2.
def test_trials_at_large_shift_bracket_the_mean_error():
    probe = ProbeDistribution.from_shape_energy(2.0, 1.0)
    r = run_trials(TrialPlan(probe, 1e16, 0.5, 100_000, 1))
    assert r.predicted_mean_error == pytest.approx(0.5, rel=1e-12)
    assert r.generalized_error_ci_low <= r.predicted_mean_error <= r.generalized_error_ci_high
