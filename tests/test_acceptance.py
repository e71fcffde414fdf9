"""Acceptance suite: one test per release criterion, with a printed verdict.

Run ``pytest tests/test_acceptance.py -v -s`` to see one line per criterion.
"""

import json
import math
import time
from contextlib import contextmanager

import pytest

from genfisher.cli import AlphaGrid, SweepConfig, main, run_sweep
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
from genfisher.numerics import QuadratureSpec
from genfisher.probe import ProbeDistribution

PARITY_ALPHAS = (0.8, 1.0, 2.0, 5.0, 20.0)
PARITY_QS = (0.25, 0.5, 2.0, 4.0)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE CRITERION {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE CRITERION {number} ({label}): PASS")


def nearest_to_one(alphas):
    return min(range(len(alphas)), key=lambda k: abs(math.log(alphas[k])))


def test_criterion_1_closed_form_quadrature_parity():
    with criterion(1, "closed-form/quadrature parity at 1e-6"):
        start = time.monotonic()
        for alpha in PARITY_ALPHAS:
            dist = ProbeDistribution.from_shape_energy(alpha, 1.0)
            for q in PARITY_QS:
                pairs = (
                    (fisher_closed(dist, q).value, fisher_quadrature(dist, q).value),
                    (sensitivity_closed(dist, q).value, sensitivity_quadrature(dist, q).value),
                    (
                        posterior_width_closed(dist, q).value,
                        posterior_width_quadrature(dist, q).value,
                    ),
                    (
                        mean_error_closed(dist, q).value,
                        mean_error_quadrature(dist, 0.0, q).value,
                    ),
                )
                for closed, quad in pairs:
                    rel = abs(closed - quad) / abs(closed)
                    assert rel <= 1e-6, (alpha, q, closed, quad, rel)
        assert time.monotonic() - start < 60.0


def test_criterion_2_half_order_universality():
    with criterion(2, "q = 1/2 sensitivity independent of shape"):
        for alpha in (0.6, 1.0, 2.0, 7.0, 50.0):
            for energy in (0.25, 1.0, 9.0):
                dist = ProbeDistribution.from_shape_energy(alpha, energy)
                expected = 0.5 / math.sqrt(energy)
                got = sensitivity_closed(dist, 0.5).value
                assert abs(got - expected) <= 1e-9 * expected, (alpha, energy, got)


def test_criterion_3_sensitivity_sweep_shape():
    # Grid bounds: 60 log-spaced points on [0.751, 100].  The lower bound
    # sits just inside the q = 1/4 validity domain (alpha > 3/4), where the
    # sensitivity collapses toward zero; starting even slightly higher
    # (e.g. 0.76) leaves the left end above half the peak.
    with criterion(3, "sensitivity sweep reproduces the contradiction"):
        config = SweepConfig(
            quantity="eps_min",
            q_list=(0.25, 0.5, 2.0),
            energy=1.0,
            alpha_grid=AlphaGrid(0.751, 100.0, 60, "log"),
        )
        rows = run_sweep(config)
        assert len(rows) == 180
        columns = {q: [r for r in rows if r.q == q] for q in config.q_list}
        alphas = [r.alpha for r in columns[2.0]]
        k_one = nearest_to_one(alphas)

        high = [r.closed_value for r in columns[2.0]]
        assert min(range(60), key=lambda k: high[k]) == k_one
        assert all(high[k] > high[k + 1] for k in range(k_one))
        assert all(high[k] < high[k + 1] for k in range(k_one, 59))

        low = [r.closed_value for r in columns[0.25]]
        assert max(range(60), key=lambda k: low[k]) == k_one
        assert all(low[k] < low[k + 1] for k in range(k_one))
        assert all(low[k] > low[k + 1] for k in range(k_one, 59))
        peak = sensitivity_closed(ProbeDistribution.from_shape_energy(1.0, 1.0), 0.25).value
        assert low[0] < 0.5 * peak
        assert low[-1] < 0.5 * peak

        # flat q = 1/2 reference curve
        assert all(abs(r.closed_value - 0.5) <= 1e-9 for r in columns[0.5])


def test_criterion_4_width_and_error_sweeps():
    with criterion(4, "posterior width and mean error sweeps"):
        grid = AlphaGrid(0.76, 100.0, 60, "log")
        for quantity in ("posterior_width", "mean_error"):
            config = SweepConfig(
                quantity=quantity,
                q_list=(0.25, 0.5, 2.0),
                energy=1.0,
                alpha_grid=grid,
            )
            rows = run_sweep(config)
            assert len(rows) == 180
            assert all(r.status == "ok" for r in rows), quantity
            for q in config.q_list:
                vals = [r.closed_value for r in rows if r.q == q]
                k_min = min(range(60), key=lambda k: vals[k])
                assert 0 < k_min < 59, (quantity, q, k_min)
                assert vals[k_min] < vals[0] and vals[k_min] < vals[-1]


def test_criterion_5_weak_signal_linearization():
    with criterion(5, "linearized distance within 1% at eps = 1e-3"):
        tight = QuadratureSpec(rel_tol=1e-7)
        for alpha, q in ((1.0, 0.5), (2.0, 0.5), (2.0, 2.0), (1.5, 0.25)):
            dist = ProbeDistribution.from_shape_scale(alpha, 1.0)
            ratio = (
                hellinger_distance(dist, 1e-3, q, tight).value
                / hellinger_linearized(dist, 1e-3, q).value
            )
            assert 0.99 <= ratio <= 1.01, (alpha, q, ratio)


def test_criterion_6_cramer_rao_saturation():
    with criterion(6, "Cramer-Rao bound saturated only by the Gaussian"):
        def product(dist):
            return mean_error_closed(dist, 0.5).value * math.sqrt(
                fisher_closed(dist, 0.5).value
            )

        for alpha in AlphaGrid(0.76, 100.0, 60, "log").points():
            p = product(ProbeDistribution.from_shape_energy(alpha, 1.0))
            assert p >= 1.0 - 1e-9, (alpha, p)
            assert abs(p - 1.0) > 1e-9, (alpha, p)  # no grid point fakes equality
        p_gauss = product(ProbeDistribution.from_shape_energy(2.0, 1.0))
        assert abs(p_gauss - 1.0) <= 1e-9


def test_criterion_7_monte_carlo_consistency():
    with criterion(7, "Monte Carlo matches the closed mean error"):
        start = time.monotonic()
        configs = (
            (2.0, 0.5, 0.3, 20260808),
            (1.0, 1.0, 0.0, 20260809),
            (1.5, 0.25, -0.2, 20260810),
        )
        for alpha, q, shift, seed in configs:
            dist = ProbeDistribution.from_shape_energy(alpha, 1.0)
            report = run_trials(TrialPlan(dist, shift, q, 1_000_000, seed, 500))
            assert abs(report.empirical_mean - shift) <= 3.0 * report.mean_std_error
            predicted = mean_error_closed(dist, q).value
            assert report.predicted_mean_error == predicted
            assert (
                report.generalized_error_ci_low
                <= predicted
                <= report.generalized_error_ci_high
            ), (alpha, q)
        assert time.monotonic() - start < 120.0


def test_criterion_8_gamma_argument_resolution(tmp_path):
    with criterion(8, "Fisher gamma argument confirmed against the oracle"):
        out = tmp_path / "verify_report.txt"
        rc = main(["verify", "--out", str(out)])
        assert rc == 0
        report = out.read_text(encoding="utf-8")
        assert "eq6_argument: (alpha+q-1)/(alpha*q) CONFIRMED" in report
        assert "eq6_argument_rejected: (alpha+q-1)/alpha" in report
        assert "REJECTED" in report
        parity_lines = [l for l in report.splitlines() if l.startswith("parity fisher")]
        assert parity_lines and all(
            l.endswith("PASS") or l.endswith("out_of_domain") for l in parity_lines
        )
        assert "overall: PASS" in report


def test_criterion_9_byte_identical_outputs(tmp_path):
    with criterion(9, "repeated runs are byte-identical"):
        sweep_args = [
            "sweep", "--quantity", "eps_min", "--q", "0.25,0.5,2", "--energy", "1",
            "--alpha-min", "0.76", "--alpha-max", "100", "--alpha-count", "60",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(sweep_args + ["--out", str(a)])
        main(sweep_args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

        sim_args = [
            "simulate", "--alpha", "2", "--energy", "1", "--eps", "0.3",
            "--q", "0.5", "--trials", "100000", "--seed", "7",
        ]
        ja, jb = tmp_path / "a.json", tmp_path / "b.json"
        assert main(sim_args + ["--out", str(ja)]) == 0
        assert main(sim_args + ["--out", str(jb)]) == 0
        assert ja.read_bytes() == jb.read_bytes()
        json.loads(ja.read_text(encoding="utf-8"))  # valid JSON
