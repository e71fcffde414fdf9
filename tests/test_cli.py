"""Command-line interface: schemas, exit codes, determinism, config handling."""

import functools
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import genfisher
from genfisher import cli, measures
from genfisher.cli import (
    AlphaGrid,
    ConfigError,
    SweepConfig,
    main,
    run_sweep,
    surface_to_csv,
    sweep_to_csv,
    verify_report,
)
from genfisher.numerics import ConvergenceError, IntegrandError, QuadratureSpec
from genfisher.probe import ProbeDistribution

SWEEP_HEADER = "alpha,q,energy,gamma,closed,quadrature,rel_dev,status"


def read(path):
    return path.read_text(encoding="utf-8")


@pytest.fixture
def fisher_routes(monkeypatch):
    """(probe, q) of every Fisher-route quadrature run by the test."""
    calls = []
    route = measures._fisher_route

    def recording(dist, q, *args, **kwargs):
        calls.append((dist, q))
        return route(dist, q, *args, **kwargs)

    monkeypatch.setattr(measures, "_fisher_route", recording)
    return calls


class TestVerifyCommand:
    def test_default_small_grid_passes(self, tmp_path):
        out = tmp_path / "report.txt"
        rc = main(["verify", "--alphas", "1,2", "--qs", "0.5,2", "--out", str(out)])
        assert rc == 0
        report = read(out)
        assert "eq6_argument: (alpha+q-1)/(alpha*q) CONFIRMED" in report
        assert "eq6_argument_rejected: (alpha+q-1)/alpha" in report
        assert "overall: PASS" in report

    def test_unreachable_tolerance_fails(self, tmp_path):
        out = tmp_path / "report.txt"
        rc = main(["verify", "--alphas", "1,2", "--qs", "0.5", "--tol", "1e-15", "--out", str(out)])
        assert rc == 1
        assert "overall: FAIL" in read(out)

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        # a line without '=', a file that is not UTF-8, a NUL byte in a value
        cfg = tmp_path / "bad.cfg"
        for text in (b"this line has no equals sign\n", b"\xff\xfe q = 1\n", b"out = a\x00b\n"):
            cfg.write_bytes(text)
            assert main(["verify", "--config", str(cfg)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(cfg) in err and "Traceback" not in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_bad_tolerance_is_usage_error(self, tmp_path, tol):
        out = tmp_path / "report.txt"
        assert main(["verify", "--tol", tol, "--out", str(out)]) == 2
        assert not out.exists()

    def test_numeric_failure_is_a_fail_line(self, tmp_path, capsys, monkeypatch):
        # a distance route that meets a non-finite integrand: the distance
        # lines say so instead of stopping with a traceback
        def non_finite(*args):
            raise IntegrandError("integrand returned a non-finite value inside panel")

        monkeypatch.setattr(measures, "hellinger_distance", non_finite)
        out = tmp_path / "report.txt"
        assert main(["verify", "--alphas", "0.8", "--qs", "0.5", "--out", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        failed = [l for l in read(out).splitlines() if "error=IntegrandError" in l]
        assert failed and all(l.endswith(" FAIL") for l in failed)
        assert read(out).endswith("overall: FAIL\n")

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_key = 3\n", encoding="utf-8")
        assert main(["verify", "--config", str(cfg)]) == 2

    def test_narrow_shape_reads_out_of_domain(self, tmp_path):
        # alpha = 0.4 cannot be energy-normalized; its Cramer-Rao lines say
        # so like its parity lines, and the alpha = 1 checks still run
        out = tmp_path / "report.txt"
        assert main(["verify", "--alphas", "0.4,1", "--qs", "0.5", "--out", str(out)]) == 0
        lines = read(out).splitlines()
        assert "cr_product alpha=0.4 q=0.5: out_of_domain" in lines
        assert "generalized_cr_product alpha=0.4 q=0.5: out_of_domain" in lines
        assert "cr_product alpha=1 q=0.5: product=1.41421356237e+00 PASS" in lines
        assert lines[-1] == "overall: PASS"


    @pytest.mark.parametrize("alphas, rc", [("0.4", 1), ("0.4,1", 0)])
    def test_grid_without_a_parity_verdict_fails(self, tmp_path, alphas, rc):
        # at alpha = 0.4 every parity line is out_of_domain: that grid
        # checked no closed form, like a sweep with no value
        out = tmp_path / "report.txt"
        assert main(["verify", "--alphas", alphas, "--qs", "0.5", "--out", str(out)]) == rc
        lines = read(out).splitlines()
        grid_line = "parity_grid: no point has a closed and a quadrature value FAIL"
        assert (grid_line in lines) == (rc == 1)
        assert lines[-1] == ("overall: FAIL" if rc else "overall: PASS")

    @pytest.mark.parametrize("scale, verdict", [(1.0, "PASS"), (1.0 + 1e-5, "FAIL")])
    def test_distance_closed_lines(self, monkeypatch, scale, verdict):
        # four closed forms of D_q (Laplace and Gaussian, q = 1/2 and 1): a
        # distance 1e-5 off them fails each line and the report
        route = measures.hellinger_distance

        def scaled(*args):
            distance = route(*args)
            return replace(distance, value=scale * distance.value)

        monkeypatch.setattr(measures, "hellinger_distance", scaled)
        report, ok = verify_report(alphas=(2.0,), qs=(0.5,))
        lines = [l for l in report.splitlines() if l.startswith("distance_closed ")]
        assert len(lines) == 4 and all(l.endswith(f" {verdict}") for l in lines)
        assert ok == (verdict == "PASS")

    def test_eps_min_and_fisher_lines_share_one_fisher_quadrature(self, monkeypatch):
        # Both lines read the Fisher route at the point; the engine runs
        # once, under the first of them.  The mean error line reads the same
        # kernel (alpha, p) = (2, 4), p = (alpha - 1)/q = 1/q, which no other
        # check of this report integrates.
        route, engine = measures._fisher_route, measures.integrate_half_line
        reads, inside, runs = [], [], []

        def reading(dist, q, *args, **kwargs):
            reads.append((dist, q))
            inside.append((dist, q))
            try:
                return route(dist, q, *args, **kwargs)
            finally:
                inside.pop()

        def counting(*args):
            runs.extend(inside[-1:])
            return engine(*args)

        monkeypatch.setattr(measures, "_fisher_route", reading)
        monkeypatch.setattr(measures, "integrate_half_line", counting)
        report, ok = verify_report(alphas=(2.0,), qs=(0.25,))
        assert ok
        point = (ProbeDistribution.from_shape_energy(2.0, 1.0), 0.25)
        assert reads.count(point) == 2 and runs.count(point) == 1
        parity = [l for l in report.splitlines() if l.startswith("parity ")]
        assert len(parity) == 4 and all(l.endswith(" PASS") for l in parity)

    def test_fisher_value_is_the_sensitivity_route_integral(self):
        # What the shared run relies on: the fisher line's value, converged
        # or not, is the integral the eps_min line's route holds, bit for bit.
        for alpha in cli._VERIFY_ALPHAS:
            for q in cli._VERIFY_QS:
                dist = ProbeDistribution.from_shape_energy(alpha, 1.0)
                fisher = measures.fisher_quadrature(dist, q)
                eps_min = measures.sensitivity_quadrature(dist, q)
                assert fisher.value.hex() == eps_min.quad_detail.value.hex()
        spec = QuadratureSpec(rel_tol=1e-15, max_evaluations=30)
        for alpha, q in ((0.8, 0.25), (2.0, 0.5), (20.0, 4.0)):
            dist = ProbeDistribution.from_shape_energy(alpha, 1.0)
            with pytest.raises(ConvergenceError) as fisher:
                measures.fisher_quadrature(dist, q, spec)
            with pytest.raises(ConvergenceError) as eps_min:
                measures.sensitivity_quadrature(dist, q, spec)
            assert fisher.value.value.hex() == eps_min.value.result.value.hex()

    def test_eps_min_runs_the_fisher_quadrature_of_an_out_of_range_fisher_line(
        self, fisher_routes
    ):
        # F_q leaves double range at q = 1e-3, F_q**(-q) does not
        report, _ = verify_report(alphas=(2.0,), qs=(1e-3,))
        lines = report.splitlines()
        assert "parity fisher alpha=2 q=0.001: out_of_range" in lines
        (eps_min,) = [l for l in lines if l.startswith("parity eps_min alpha=2 q=0.001: ")]
        assert "closed=" in eps_min and "quadrature=" in eps_min
        assert fisher_routes.count((ProbeDistribution.from_shape_energy(2.0, 1.0), 1e-3)) == 1

    def test_a_report_that_raises_drops_its_integrals(self, monkeypatch):
        seen = []

        def failing(*args):
            seen.append(measures._RUNS.get())
            raise RuntimeError("triangle scan broke")

        monkeypatch.setattr(measures, "triangle_probe", failing)
        with pytest.raises(RuntimeError, match="triangle scan broke"):
            verify_report(alphas=(2.0,), qs=(0.5,))
        assert seen[0] and measures._RUNS.get() is None

    @pytest.mark.parametrize("key", ["energy", "tolerance"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_library_rejects_bad_scalars_before_any_quadrature(self, evaluations, key, value):
        with pytest.raises(ConfigError):
            verify_report(**{key: value})
        assert evaluations == []


class TestSweepCommand:
    def test_csv_schema_and_row_count(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(
            ["sweep", "--quantity", "eps_min", "--q", "0.25,0.5,2", "--energy", "1",
             "--alpha-min", "0.76", "--alpha-max", "100", "--alpha-count", "8",
             "--out", str(out)]
        )
        assert rc == 0
        lines = read(out).splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 1 + 8 * 3

    def test_half_order_column_is_constant(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(
            ["sweep", "--quantity", "eps_min", "--q", "0.5", "--energy", "1",
             "--alpha-min", "0.76", "--alpha-max", "100", "--alpha-count", "10",
             "--out", str(out)]
        )
        rows = read(out).splitlines()[1:]
        for row in rows:
            cells = row.split(",")
            assert cells[-1] == "ok"
            assert float(cells[4]) == pytest.approx(0.5, rel=1e-9)

    def test_out_of_domain_rows_are_explicit(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(
            ["sweep", "--quantity", "fisher", "--q", "2", "--energy", "1",
             "--alpha-min", "0.2", "--alpha-max", "0.8", "--alpha-count", "4",
             "--alpha-spacing", "linear", "--out", str(out)]
        )
        assert rc == 0
        rows = [r.split(",") for r in read(out).splitlines()[1:]]
        # linear grid 0.2, 0.4, 0.6, 0.8: the first two cannot be
        # energy-normalized (alpha <= 1/2)
        assert [r[-1] for r in rows] == ["out_of_domain", "out_of_domain", "ok", "ok"]
        assert rows[0][3] == "" and rows[0][4] == ""
        assert len(rows) == 4

    def test_width_at_order_one_is_out_of_domain(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(
            ["sweep", "--quantity", "posterior_width", "--q", "1", "--energy", "1",
             "--alpha-min", "1", "--alpha-max", "2", "--alpha-count", "2",
             "--out", str(out)]
        )
        rows = [r.split(",") for r in read(out).splitlines()[1:]]
        assert all(r[-1] == "out_of_domain" for r in rows)
        # gamma is still reported: the probe itself exists
        assert all(r[3] != "" for r in rows)

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--quantity", "mean_error", "--q", "0.25,2", "--energy", "1",
                "--alpha-min", "0.8", "--alpha-max", "20", "--alpha-count", "6"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "quantity = eps_min\nq = 0.5\nenergy = 1\n"
            "alpha_min = 1\nalpha_max = 4\nalpha_count = 3\n",
            encoding="utf-8",
        )
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--config", str(cfg), "--alpha-count", "5", "--out", str(out)])
        assert rc == 0
        assert len(read(out).splitlines()) == 1 + 5  # flag wins over config

    def test_bad_quantity_is_usage_error(self, tmp_path):
        rc = main(["sweep", "--quantity", "nonsense", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize(
        "flags",
        [["--energy", "inf"], ["--alpha-max", "inf"], ["--q", "0.5,inf"], ["--tol", "nan"]],
    )
    def test_non_finite_config_is_usage_error(self, tmp_path, flags):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--quantity", "fisher", *flags, "--out", str(out)]) == 2
        assert not out.exists()

    def test_default_grid_reproduces_sensitivity_shapes(self, tmp_path):
        # defaults: q = (0.25, 0.5, 2), 60 log-spaced alphas on [0.76, 100]
        out = tmp_path / "sweep.csv"
        main(["sweep", "--quantity", "eps_min", "--out", str(out)])
        lines = read(out).splitlines()
        assert len(lines) == 1 + 60 * 3
        rows = [r.split(",") for r in lines[1:]]
        assert float(rows[0][0]) == pytest.approx(0.76, rel=1e-12)
        assert float(rows[-1][0]) == pytest.approx(100.0, rel=1e-12)
        by_q = {}
        for r in rows:
            by_q.setdefault(float(r[1]), []).append(r)
        closed = {q: [float(r[4]) for r in col] for q, col in by_q.items()}
        alphas = [float(r[0]) for r in by_q[0.5]]
        near_one = min(range(60), key=lambda k: abs(math.log(alphas[k])))
        assert all(abs(v - 0.5) < 1e-9 for v in closed[0.5])
        assert min(range(60), key=lambda k: closed[2.0][k]) == near_one
        low = closed[0.25]
        assert max(range(60), key=lambda k: low[k]) == near_one
        assert all(low[k] < low[k + 1] for k in range(near_one))
        assert all(low[k] > low[k + 1] for k in range(near_one, 59))
        # status contract: ok rows carry a relative deviation within tolerance
        for r in rows:
            if r[-1] == "ok":
                assert float(r[6]) <= 1e-6

    def test_no_integral_outlives_a_sweep(self, evaluations):
        # the width's power is 0 at every order: one run per shape, and
        # again in the next sweep
        qs = (0.25, 0.5, 2.0)
        config = SweepConfig("posterior_width", qs, 1.0, cli.default_alpha_grid(qs))
        first = run_sweep(config)
        assert len(evaluations) == 60
        assert run_sweep(config) == first and len(evaluations) == 120
        assert measures._RUNS.get() is None

    @pytest.mark.parametrize("quantity", ["eps_min", "posterior_width", "mean_error", "fisher"])
    def test_no_converge_row_records_best_estimate(self, monkeypatch, quantity):
        # a starved default spec, from which the runner builds each route's
        # own, makes every quadrature stop short; the row still carries the
        # correctly folded and powered best estimate
        starved = functools.partial(QuadratureSpec, rel_tol=1e-15, max_evaluations=100)
        monkeypatch.setattr(measures, "QuadratureSpec", starved)
        config = SweepConfig(quantity, (0.25, 2.0), 1.0, AlphaGrid(1.0, 2.0, 2))
        rows = run_sweep(config)
        assert [r.status for r in rows] == ["no_converge"] * 4
        assert all(r.relative_deviation < 1e-2 for r in rows)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--quantity", "fisher", "--q", "0.25", "--alpha-min", "0.751",
             "--alpha-max", "0.752", "--alpha-count", "2"],
            ["--quantity", "eps_min", "--alpha-min", "0.7501"],
        ],
        ids=["fisher", "eps_min"],
    )
    def test_rows_beside_the_fisher_pole_converge(self, tmp_path, argv):
        # at alpha - 1 + q ~ 1e-4 the score moment s**((alpha-1)/q) is nearly
        # non-integrable at the origin; the first-panel power map makes it an
        # integer power, so every row converges to its closed value
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *argv, "--out", str(out)]) == 0
        rows = [r.split(",") for r in read(out).splitlines()[1:]]
        assert rows and all(r[-1] == "ok" for r in rows)


class TestRunSweepLibrary:
    def test_alpha_major_row_order(self):
        config = SweepConfig(
            quantity="mean_error",
            q_list=(0.5, 2.0),
            energy=1.0,
            alpha_grid=AlphaGrid(1.0, 2.0, 2, "linear"),
        )
        rows = run_sweep(config)
        assert [(r.alpha, r.q) for r in rows] == [
            (1.0, 0.5), (1.0, 2.0), (2.0, 0.5), (2.0, 2.0)
        ]
        csv_text = sweep_to_csv(rows)
        assert csv_text.startswith(SWEEP_HEADER + "\n")
        assert csv_text.endswith("\n")

    @pytest.mark.parametrize("alpha, q", [(2.0, 0.5), (0.8, 0.25), (20.0, 2.0), (0.751, 0.25)])
    def test_eps_min_row_has_the_bits_of_sensitivity_quadrature(self, alpha, q):
        # the eps_min row reads the Fisher route's value F_q**(-q); that is
        # bit for bit sensitivity_quadrature, converged or not (beside the
        # Fisher pole, alpha = 0.751 at q = 1/4, it converges)
        row = cli._sweep_row("eps_min", alpha, q, 1.0, cli._PARITY_TOL)
        dist = ProbeDistribution.from_shape_energy(alpha, 1.0)
        try:
            expected, status = measures.sensitivity_quadrature(dist, q).value, "ok"
        except ConvergenceError as exc:
            expected, status = exc.value, "no_converge"
        assert row.quadrature_value.hex() == expected.hex()
        assert row.status == status
        if alpha == 0.751:
            assert (status, expected.hex()) == ("ok", "0x1.4afeb20ee8992p-3")

    def test_rejects_bad_grid(self):
        with pytest.raises(ConfigError):
            AlphaGrid(0.0, 2.0, 5)
        with pytest.raises(ConfigError):
            AlphaGrid(1.0, 2.0, 1)
        with pytest.raises(ConfigError):
            AlphaGrid(1.0, 2.0, 5, "cubic")
        with pytest.raises(ConfigError):
            AlphaGrid(1.0, 2.0, 2.5)
        with pytest.raises(ConfigError):
            AlphaGrid(1.0, 2.0, True)
        with pytest.raises(ConfigError):
            surface_to_csv(1.0, AlphaGrid(1.0, 2.0, 2), -1.0, 1.0, 2.5)

    def test_rejects_bad_config(self):
        grid = AlphaGrid(1.0, 2.0, 3)
        with pytest.raises(ConfigError):
            SweepConfig("eps_min", (), 1.0, grid)
        with pytest.raises(ConfigError):
            SweepConfig("eps_min", (0.5,), -1.0, grid)
        with pytest.raises(ConfigError):
            SweepConfig("wrong", (0.5,), 1.0, grid)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
    def test_rejects_bad_parity_tolerance(self, tol):
        # as verify_report does, before any row is computed
        config = SweepConfig("eps_min", (0.5,), 1.0, AlphaGrid(1.0, 2.0, 2))
        with pytest.raises(ConfigError):
            run_sweep(config, tol)
        with pytest.raises(ConfigError):
            verify_report(tolerance=tol)


class TestSimulateCommand:
    ARGS = ["simulate", "--alpha", "2", "--energy", "1", "--eps", "0.3",
            "--q", "0.5", "--trials", "200000", "--seed", "42"]

    def test_gaussian_run_passes_checks(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(self.ARGS + ["--out", str(out)])
        assert rc == 0
        payload = json.loads(read(out))
        assert payload["predicted_mean_error"] == pytest.approx(0.5, rel=1e-12)
        assert set(payload) == {
            "trials", "empirical_mean", "mean_std_error",
            "empirical_generalized_error", "generalized_error_ci_low",
            "generalized_error_ci_high", "predicted_mean_error",
            "max_abs_deviation", "seed",
        }
        assert payload["trials"] == 200000 and payload["seed"] == 42

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(self.ARGS + ["--out", str(a)]) == 0
        assert main(self.ARGS + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_trials_is_usage_error(self, tmp_path):
        rc = main(["simulate", "--alpha", "2", "--trials", "0",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_single_trial_is_usage_error(self, tmp_path, capsys):
        # one trial has a standard error of 0 and an interval of one point,
        # so neither check could pass on any seed
        out = tmp_path / "x.json"
        assert main(["simulate", "--alpha", "2", "--trials", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: simulate needs at least 2 trials")
        assert not out.exists()

    def test_energy_and_gamma_conflict(self, tmp_path):
        # argparse enforces the exclusion for flags
        rc = main(["simulate", "--alpha", "2", "--energy", "1", "--gamma", "1",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_gamma_parameterization(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["simulate", "--alpha", "1", "--gamma", "1", "--eps", "0",
                   "--q", "1", "--trials", "100000", "--seed", "11", "--out", str(out)])
        assert rc == 0
        assert json.loads(read(out))["predicted_mean_error"] == pytest.approx(0.5, rel=1e-12)

    def test_missing_alpha_is_usage_error(self, tmp_path):
        assert main(["simulate", "--trials", "10", "--out", str(tmp_path / "x.json")]) == 2

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["simulate", "--alpha", "2", "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: master_seed must be nonnegative")
        assert not out.exists()

    @pytest.mark.parametrize("extra", [["--gamma", "1e-300"], ["--gamma", "1e-100", "--q", "0.25"]])
    def test_underflowing_deviation_is_usage_error(self, tmp_path, capsys, extra):
        # the report would read a generalized error of 0.0
        out = tmp_path / "x.json"
        rc = main(["simulate", "--alpha", "2", "--trials", "1000", *extra, "--out", str(out)])
        assert rc == 2
        assert "underflows" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_draw_is_usage_error(self, tmp_path, capsys):
        # every draw at alpha = 0.001 overflows: one error line, no numpy warning
        out = tmp_path / "x.json"
        assert main(["simulate", "--alpha", "0.001", "--gamma", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: shape alpha = 0.001 is too small to sample at gamma = 1.0: "
            "a draw overflows double range\n"
        )
        assert not out.exists()

    def test_bootstrap_flag_is_deprecated_and_ignored(self, tmp_path, capsys):
        args = ["simulate", "--alpha", "2", "--trials", "2000", "--seed", "3"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert "deprecated" not in capsys.readouterr().err
        assert main(args + ["--bootstrap", "100", "--out", str(b)]) == 0
        captured = capsys.readouterr()
        assert "deprecated" in captured.err
        assert json.loads(captured.out) == json.loads(read(a))
        assert a.read_bytes() == b.read_bytes()
        assert main(args + ["--bootstrap", "50", "--out", str(b)]) == 2


class TestSurfaceCommand:
    def test_density_values_on_known_grid(self, tmp_path):
        out = tmp_path / "surface.csv"
        rc = main(["surface", "--energy", "1", "--alpha-min", "1", "--alpha-max", "2",
                   "--alpha-count", "2", "--alpha-spacing", "linear",
                   "--x-min", "-1", "--x-max", "1", "--x-count", "3", "--out", str(out)])
        assert rc == 0
        lines = read(out).splitlines()
        assert lines[0] == "ln_alpha,x,pdf"
        assert len(lines) == 1 + 2 * 3
        rows = [r.split(",") for r in lines[1:]]
        # alpha = 1 at x = 0: density is exactly 1; alpha = 2 at x = 0: sqrt(2/pi)
        assert float(rows[1][0]) == 0.0
        assert float(rows[1][2]) == pytest.approx(1.0, rel=1e-12)
        assert float(rows[4][0]) == pytest.approx(math.log(2.0), rel=1e-12)
        assert float(rows[4][2]) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)
        assert all(float(r[2]) >= 0.0 for r in rows)

    def test_narrow_shapes_rejected(self, tmp_path):
        rc = main(["surface", "--alpha-min", "0.4", "--out", str(tmp_path / "s.csv")])
        assert rc == 2


def _as_config(flags):
    """The config-file form of a ``--flag value`` list."""
    return "".join(f"{k[2:].replace('-', '_')} = {v}\n" for k, v in zip(flags[::2], flags[1::2]))


class TestConfigFile:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--alphas", "1,2", "--qs", "0.5,2"],
            ["sweep", "--quantity", "mean_error", "--q", "0.25,2", "--energy", "1",
             "--alpha-min", "0.8", "--alpha-max", "20", "--alpha-count", "6"],
            TestSimulateCommand.ARGS + ["--bootstrap", "100"],
            ["surface", "--energy", "1", "--alpha-min", "1", "--alpha-max", "2",
             "--alpha-count", "2", "--alpha-spacing", "linear",
             "--x-min", "-1", "--x-max", "1", "--x-count", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_file_gives_the_same_output_as_flags(self, tmp_path, capsys, argv):
        a = tmp_path / "flags.out"
        rc = main(argv + ["--out", str(a)])
        by_flags = capsys.readouterr().err
        # "utf-8-sig" starts the file with a byte-order mark, as Windows Notepad does
        for encoding in ("utf-8", "utf-8-sig"):
            cfg, b = tmp_path / f"{encoding}.cfg", tmp_path / f"{encoding}.out"
            cfg.write_text(_as_config(argv[1:]), encoding=encoding)
            assert main([argv[0], "--config", str(cfg), "--out", str(b)]) == rc == 0
            assert capsys.readouterr().err == by_flags
            assert a.read_bytes() == b.read_bytes()

    def test_bootstrap_key_is_deprecated_and_validated(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        out = ["--out", str(tmp_path / "x.json")]
        cfg.write_text("alpha = 2\ntrials = 2000\nseed = 3\nbootstrap = 100\n", encoding="utf-8")
        assert main(["simulate", "--config", str(cfg), *out]) == 0
        assert "deprecated" in capsys.readouterr().err
        cfg.write_text("alpha = 2\ntrials = 2000\nseed = 3\nbootstrap = 50\n", encoding="utf-8")
        assert main(["simulate", "--config", str(cfg), *out]) == 2

    def test_energy_in_file_clashes_with_gamma_flag(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("energy = 2\n", encoding="utf-8")
        out = tmp_path / "x.json"
        argv = ["simulate", "--alpha", "2", "--gamma", "1", "--trials", "100"]
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
        assert "error: --energy and --gamma are mutually exclusive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "sweep", "simulate", "surface"])
    def test_malformed_value_names_its_flag(self, tmp_path, capsys, command):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("energy = abc\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "--energy" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, text",
        [("sweep", "alpha_spacing = cubic"), ("surface", "alpha_spacing = cubic"),
         ("sweep", "quantity = nope"), ("sweep", "x_min = 0")],
    )
    def test_bad_choice_or_foreign_key_is_usage_error(self, tmp_path, command, text):
        # argparse checks choices on flags only; the value objects reject
        # the rest.  x_min belongs to surface, not sweep.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text + "\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command, key", [("verify", "qs"), ("verify", "alphas"), ("sweep", "q")])
@pytest.mark.parametrize("entry", ["nan", "inf", "0", "-1"])
def test_list_entries_must_be_positive_and_finite(tmp_path, via, command, key, entry):
    out = tmp_path / "out"
    if via == "flag":
        argv = [command, f"--{key}", f"2,{entry}"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 2,{entry}\n", encoding="utf-8")
        argv = [command, "--config", str(cfg)]
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()


def test_help_shows_defaults(capsys):
    assert main(["sweep", "--help"]) == 0
    help_text = capsys.readouterr().out
    assert "parity tolerance (default: 1e-06)" in help_text
    assert "output file path (default: sweep.csv)" in help_text


def _module_env():
    src = str(Path(genfisher.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_runs_as_module(tmp_path):
    out = tmp_path / "surface.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "genfisher.cli", "surface", "--alpha-count", "2",
         "--x-count", "3", "--out", str(out)],
        env=_module_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(read(out).splitlines()) == 1 + 2 * 3


# small, fast runs of each command
QUICK = {
    "verify": ["verify", "--alphas", "2", "--qs", "0.5"],
    "sweep": ["sweep", "--q", "0.5", "--alpha-min", "1", "--alpha-max", "2", "--alpha-count", "2"],
    "simulate": ["simulate", "--alpha", "2", "--trials", "1000"],
    "surface": ["surface", "--alpha-count", "2", "--x-count", "3"],
}


@pytest.mark.parametrize("target", ["missing_dir", "directory"])
@pytest.mark.parametrize("command", list(QUICK))
def test_unwritable_out_is_usage_error(tmp_path, capsys, command, target):
    out = tmp_path / "missing" / "out.txt" if target == "missing_dir" else tmp_path
    assert main(QUICK[command] + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize(
    "command, key",
    [("verify", "tol"), ("sweep", "tol"), ("simulate", "gamma"),
     ("verify", "energy"), ("sweep", "energy"), ("simulate", "energy"), ("surface", "energy")],
)
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_scalars_must_be_positive_and_finite(tmp_path, capsys, via, command, key, value):
    out = tmp_path / "out"
    if via == "flag":
        argv = QUICK[command] + [f"--{key}={value}"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        argv = QUICK[command] + ["--config", str(cfg)]
    assert main(argv + ["--out", str(out)]) == 2
    assert f"argument --{key}: must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("key, value", [("x_min", "-inf"), ("x_max", "inf"), ("x_min", "nan")])
def test_surface_x_range_must_be_finite(tmp_path, via, key, value):
    out = tmp_path / "surface.csv"
    argv = QUICK["surface"]
    if via == "flag":
        argv = argv + [f"--{key.replace('_', '-')}={value}"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        argv = argv + ["--config", str(cfg)]
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "spaced, joined",
    [
        (QUICK["simulate"] + ["--eps", "-1e-3"], QUICK["simulate"] + ["--eps=-1e-3"]),
        (QUICK["surface"] + ["--x-min", "-3e0", "--x-max", "3e0"], QUICK["surface"]),
    ],
    ids=["simulate", "surface"],
)
def test_negative_value_in_exponent_notation_is_a_value(tmp_path, spaced, joined):
    # argparse's own negative-number pattern has no exponent: "-1e-3" would
    # read as an option and leave the flag without its value
    a, b = tmp_path / "spaced", tmp_path / "joined"
    assert main(spaced + ["--out", str(a)]) == 0
    assert main(joined + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_overflowing_simulate_order_is_usage_error(tmp_path, capsys):
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["simulate", "--alpha", "2", "--q", "1e-9", "--trials", "100", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: order q = 1e-09 is too small")
    assert not out.exists()


# Arguments outside the domain of the object they build: the probe owns
# alpha > 1/2 (energy normalization), measures the order and the shift.
DOMAIN_EDGES = {
    "surface_alpha_half": ["surface", "--alpha-min", "0.5"],
    "simulate_zero_order": ["simulate", "--alpha", "2", "--q", "0"],
    "simulate_nan_shift": ["simulate", "--alpha", "2", "--eps", "nan"],
}


@pytest.mark.parametrize("case", list(DOMAIN_EDGES))
def test_argument_outside_its_domain_is_usage_error(tmp_path, capsys, case):
    out = tmp_path / "out"
    assert main(DOMAIN_EDGES[case] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_sweep_with_no_row_in_domain_fails(tmp_path):
    # every shape is at or below 1/2, so no row can be energy-normalized; the
    # CSV still says so row by row
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--alpha-min", "0.1", "--alpha-max", "0.4", "--alpha-count", "3",
               "--out", str(out)])
    assert rc == 1
    rows = [r.split(",") for r in read(out).splitlines()[1:]]
    assert len(rows) == 3 * 3 and all(r[-1] == "out_of_domain" for r in rows)


# Closed values that leave double range: (argv, exit code) of runs that must
# show out_of_range lines or cells.  Fisher at q = 1e-3 is a 1000th power at
# E = 1; at E = 1e-300 the q = 1/4 Fisher value underflows to 0, at 1e300 it
# overflows.  out_of_range is a status, not a failure: the tiny-q sweep exits
# 1 because no row has a value, and the tiny-q verify and the energy runs pass.
OUT_OF_RANGE = {
    "verify_tiny_q": (["verify", "--alphas", "2", "--qs", "1e-3"], 0),
    "verify_tiny_energy": (["verify", "--energy", "1e-300"], 0),
    "sweep_tiny_q": (["sweep", "--quantity", "fisher", "--q", "1e-3"], 1),
    "sweep_huge_energy": (["sweep", "--quantity", "fisher", "--energy", "1e300"], 0),
}


@pytest.mark.parametrize("case", list(OUT_OF_RANGE))
def test_closed_value_out_of_double_range_is_a_status(tmp_path, capsys, case):
    out = tmp_path / "out"
    argv, code = OUT_OF_RANGE[case]
    rc = main(argv + ["--out", str(out)])
    assert "Traceback" not in capsys.readouterr().err
    assert rc == code
    text = read(out)
    if case.startswith("verify"):
        lines = text.splitlines()
        assert lines[-1] == ("overall: FAIL" if code else "overall: PASS")
        fisher = [line for line in lines if line.startswith("parity fisher")]
        q_low = "q=0.001" if case == "verify_tiny_q" else "q=0.25"
        assert fisher and all(line.endswith(": out_of_range") for line in fisher if q_low in line)
        generalized = [line for line in lines if line.startswith("generalized_cr_product")]
        assert any(line.endswith(": out_of_range") for line in generalized)
        # every line is a value, a verdict or a status; no silent 0 or nan product
        for line in generalized:
            assert line.endswith(": out_of_range") or float(line.rsplit(" ", 1)[1]) > 0.0
        return
    rows = [r.split(",") for r in text.splitlines()[1:]]
    statuses = {r[-1] for r in rows}
    assert "out_of_range" in statuses
    assert statuses <= {"ok", "no_converge", "out_of_range"}
    for r in rows:
        gamma, values = r[3], r[4:7]
        assert gamma != ""
        if r[-1] == "out_of_range":
            assert values == ["", "", ""]
        else:
            assert math.isfinite(float(values[0]))
    if case == "sweep_tiny_q":
        assert statuses == {"out_of_range"}


def test_out_of_range_rows_run_no_quadrature(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("quadrature ran for an out_of_range row")

    # the fisher route is sensitivity_quadrature -> _fisher_route
    monkeypatch.setattr(measures, "_fisher_route", forbidden)
    config = SweepConfig("fisher", (1e-3,), 1.0, AlphaGrid(1.5, 3.0, 2))
    rows = run_sweep(config)
    assert [r.status for r in rows] == ["out_of_range", "out_of_range"]
    assert all(r.gamma_scale is not None and r.closed_value is None for r in rows)


def test_sweep_summary_counts_out_of_range_rows(tmp_path, capsys):
    # every Fisher value at q = 1e-3 leaves double range, so the summary
    # must name that status to explain the exit 1
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--quantity", "fisher", "--q", "1e-3", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().out == (
        f"wrote {out}: 60 rows, 0 no_converge, 0 out_of_domain, 60 out_of_range\n"
    )


# Sweeps whose quadrature route fails numerically at points where the closed
# value is in range: the power of the integral leaves double range (eps_min,
# the posterior width just above q = 1, the mean error).  Each used to end in
# a traceback.
ROUTE_FAILURES = {
    "eps_min_huge_q": ["--quantity", "eps_min", "--q", "1e300"],
    "width_q_above_one": ["--quantity", "posterior_width", "--q", "1.0000000000000002"],
    "mean_error_huge_q": ["--quantity", "mean_error", "--q", "1e300", "--energy", "1e-300"],
}


@pytest.mark.parametrize("case", list(ROUTE_FAILURES))
def test_failed_route_is_a_no_converge_row(tmp_path, capsys, case):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", *ROUTE_FAILURES[case], "--alpha-count", "4", "--out", str(out)])
    capsys.readouterr()
    assert rc == 1
    rows = [r.split(",") for r in read(out).splitlines()[1:]]
    in_range = [r for r in rows if r[-1] not in ("out_of_domain", "out_of_range")]
    assert len(rows) == 4 and any(r[-1] == "no_converge" for r in in_range)
    for r in in_range:
        # a closed value and a quadrature cell, inf or nan included; ok only
        # where the quadrature really agrees
        assert r[4] != "" and r[5] != ""
        assert r[-1] == ("ok" if float(r[6]) <= cli._PARITY_TOL else "no_converge")


def test_width_at_tiny_order_is_an_ok_row(tmp_path, capsys):
    # in t = s / sigma, sigma = (2q)**(-1/alpha), the width kernel is
    # exp(-(t**alpha - 1)) at every order; at q = 1e-300 its mass lay beyond
    # the tail map's resolution in s, and each row but alpha = 100 read
    # no_converge
    out = tmp_path / "sweep.csv"
    argv = ["--quantity", "posterior_width", "--q", "1e-300", "--alpha-count", "4"]
    assert main(["sweep", *argv, "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [r.split(",") for r in read(out).splitlines()[1:]]
    assert len(rows) == 4 and all(r[-1] == "ok" for r in rows)


def test_eps_min_at_huge_energy_is_taken_from_the_log(tmp_path, capsys):
    # F_q = exp(ln F_q) overflows at q = 1e6 and E = 1e300, but F_q**(-q) is
    # exp(-q ln F_q), which does not
    out = tmp_path / "sweep.csv"
    argv = ["--quantity", "eps_min", "--q", "1e6", "--energy", "1e300", "--alpha-count", "4"]
    assert main(["sweep", *argv, "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [r.split(",") for r in read(out).splitlines()[1:]]
    assert len(rows) == 4 and all(r[-1] == "ok" for r in rows)


def test_failed_power_is_a_fail_line(tmp_path):
    # the closed eps_min is in range, the power of its Fisher integral is
    # not: ln F_q times -q leaves double range, here below (ROADMAP item 16)
    out = tmp_path / "report.txt"
    assert main(["verify", "--alphas", "0.8", "--qs", "1e300", "--out", str(out)]) == 1
    (line,) = [line for line in read(out).splitlines() if line.startswith("parity eps_min")]
    assert line.startswith("parity eps_min alpha=0.8 q=1e+300: closed=")
    assert line.endswith(" quadrature=0.00000000000e+00 rel_dev=1.000e+00 FAIL")
