"""Command-line front end: verify, sweep, simulate, surface.

Commands
--------
verify    cross-check every closed form against its quadrature oracle on a
          parameter grid, resolve the Fisher gamma-argument question, check
          the q = 1/2 sensitivity law, Cramer-Rao products, the distance
          against its Laplace and Gaussian closed forms at the run's energy,
          weak-signal linearization, and scan for triangle-inequality
          violations; writes a line-per-check text report.
sweep     tabulate one quantity over an alpha grid for several orders q,
          with closed and quadrature values side by side (CSV).
simulate  Monte Carlo single-shot estimation run (JSON report).
surface   tabulate the probe density over (ln alpha, x) at fixed energy (CSV).

Exit codes: 0 success, 1 check failure (a failed verify or simulate check, a
verify grid with no parity verdict, a non-converged sweep row, or no sweep row
with a value), 2 usage or configuration error, an unwritable ``--out``
included.  ``main`` alone writes the output file and stdout, so a run that
fails writes no file.

Each sweep quantity has one closed form and one quadrature route, and each
row reads its own route's value.  Each command runs each distinct moment
integral once: its kernel depends on the shape and the power alone
(``measures.shared_integrals``), so the ``eps_min`` and ``fisher`` lines at one
point, whose routes are F_q**(-q) and F_q of one Fisher integral, share a run,
as do the width's integrals at one shape, or the Fisher route's and the mean
error's at alpha = 2; nothing is kept once the command returns.
Every quadrature route integrates a unit-scale kernel on one folded
half-line, so by construction the distance is even in the shift and depends
on the scale only through eps / gamma, and the mean error is independent of
the shift; ``verify`` does not check these.

Where no value can be given, a sweep row or verify line carries a status
instead: ``out_of_domain`` when the point lies outside the probe family or the
closed form's validity, ``out_of_range`` only when the closed value overflows
double range or underflows to 0 (its quadrature is then not run).  Any numeric
failure of a quadrature route reads ``no_converge`` with a ``nan`` cell in a
sweep row and FAIL on a verify line; a quadrature power beyond double range
reads ``inf`` or ``0``.

A flat ``key = value`` config file can supply any flag of its command (keys
are the flag names with ``-`` replaced by ``_``); explicit flags override the
file.  The file's values become the command parser's defaults, so they go
through the same conversion as the flags, and a bad value is reported as the
flag it stands for (exit 2).  ``--energy``, ``--tol`` and ``--gamma``, and
every entry of a shape or order list, must be positive and finite; the surface
x range must be finite.
Report and CSV floats are written in scientific notation with 12
significant digits, and the simulate JSON writes ``repr`` floats with sorted
keys, so identical inputs produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from collections import Counter
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import measures
from .estimation import TrialPlan, run_trials, three_sigma_check
from .numerics import ConvergenceError, DomainError, is_count, log_gamma
from .probe import ProbeDistribution

__all__ = [
    "AlphaGrid",
    "SweepConfig",
    "SweepRow",
    "ConfigError",
    "run_sweep",
    "sweep_to_csv",
    "surface_to_csv",
    "verify_report",
    "main",
    "entrypoint",
]

# Closed form and quadrature route of each sweep quantity at (dist, q).
# eps_min's route takes F_q**(-q) from ln F_q, so it stays in range where
# F_q does not.  The lambdas look the functions up in `measures` at call
# time, so wrappers installed on that module see every call.
_ROUTES = {
    "eps_min": (
        lambda d, q: measures.sensitivity_closed(d, q),
        lambda d, q: measures.sensitivity_quadrature(d, q),
    ),
    "posterior_width": (
        lambda d, q: measures.posterior_width_closed(d, q),
        lambda d, q: measures.posterior_width_quadrature(d, q),
    ),
    "mean_error": (
        lambda d, q: measures.mean_error_closed(d, q),
        lambda d, q: measures.mean_error_quadrature(d, 0.0, q),
    ),
    "fisher": (
        lambda d, q: measures.fisher_closed(d, q),
        lambda d, q: measures.fisher_quadrature(d, q),
    ),
}
QUANTITIES = tuple(_ROUTES)

# defaults of `verify` (the parity tolerance is also `sweep`'s) and its fixed
# check sets
_PARITY_TOL = 1e-6
_VERIFY_ALPHAS = (0.8, 1.0, 2.0, 5.0, 20.0)
_VERIFY_QS = (0.25, 0.5, 1.0, 2.0, 4.0)
_LAW_ALPHAS = (0.6, 1.0, 2.0, 7.0, 50.0)
_LAW_ENERGIES = (0.25, 1.0, 9.0)
_LINEARIZATION_PAIRS = ((1.0, 0.5), (2.0, 0.5), (2.0, 2.0), (1.5, 0.25))
_TRIANGLE_QS = (0.25, 0.5, 2.0, 4.0)
_TRIANGLE_TRIPLES = ((0.0, 0.5, 1.0), (0.0, 0.2, 2.0))
_TRIANGLE_ALPHAS = (1.0, 5.0)
# D_q in closed form as a function of r = eps / gamma, at (alpha, q):
# 1 - (1 + r) e^-r, 1 - e^(-r^2/2), 1 - e^-r and erf(r / sqrt 2).
_DISTANCE_CLOSED = {
    (1.0, 0.5): lambda r: -math.expm1(math.log1p(r) - r),
    (2.0, 0.5): lambda r: -math.expm1(-0.5 * r * r),
    (1.0, 1.0): lambda r: -math.expm1(-r),
    (2.0, 1.0): lambda r: math.erf(r / math.sqrt(2.0)),
}
_DISTANCE_SHIFTS = (0.1, 0.7)
_SPACINGS = ("log", "linear")


class ConfigError(ValueError, argparse.ArgumentTypeError):
    """Bad config file or inconsistent option values.

    Raised by a flag's ``type``, argparse reports it with its own text under
    that flag's name."""


def _fmt(x: float) -> str:
    """12 significant digits, scientific; the one float format in all files."""
    return f"{x:.11e}"


@dataclass(frozen=True)
class AlphaGrid:
    min: float
    max: float
    count: int
    spacing: str = "log"

    def __post_init__(self):
        if not (self.min > 0.0):
            raise ConfigError(f"alpha grid minimum must be positive, got {self.min}")
        if not (self.min < self.max < math.inf):
            raise ConfigError("alpha grid maximum must be finite and exceed the minimum")
        if not is_count(self.count, 2):
            raise ConfigError(f"alpha grid needs at least 2 points (an integer), got {self.count}")
        if self.spacing not in _SPACINGS:
            raise ConfigError(f"alpha grid spacing must be one of {_SPACINGS}, got {self.spacing!r}")

    def points(self) -> list[float]:
        lo, hi, n = self.min, self.max, self.count
        if self.spacing == "log":
            llo, lhi = math.log(lo), math.log(hi)
            return [math.exp(llo + (lhi - llo) * k / (n - 1)) for k in range(n)]
        return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def default_alpha_grid(q_list) -> AlphaGrid:
    """Default sweep grid: 60 log-spaced points from just inside the widest
    validity domain of the requested orders up to alpha = 100."""
    lo = max(0.51, 1.0 - min(q_list) + 0.01)
    return AlphaGrid(lo, 100.0, 60, "log")


@dataclass(frozen=True)
class SweepConfig:
    quantity: str
    q_list: tuple[float, ...]
    energy: float
    alpha_grid: AlphaGrid

    def __post_init__(self):
        if self.quantity not in QUANTITIES:
            raise ConfigError(
                f"quantity must be one of {', '.join(QUANTITIES)}; got {self.quantity!r}"
            )
        if not self.q_list:
            raise ConfigError("at least one order q is required")
        if any(not (0.0 < q < math.inf) for q in self.q_list):
            raise ConfigError("every order q must be positive and finite")
        if not (0.0 < self.energy < math.inf):
            raise ConfigError(f"energy must be positive and finite, got {self.energy}")


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    q: float
    energy: float
    gamma_scale: float | None
    closed_value: float | None
    quadrature_value: float | None
    relative_deviation: float | None
    # ok | no_converge | out_of_domain | out_of_range, as the module docstring
    # says; only ok and no_converge rows carry values.
    status: str


# Failures that give a point a status (``_status``), caught first; then the
# numeric failures that read no_converge in a sweep row and FAIL in verify.
_STATUS_ERRORS = (DomainError, OverflowError)
_NUMERIC_ERRORS = (ConvergenceError, ValueError, ArithmeticError)


def _status(exc: Exception) -> str:
    """out_of_domain for a DomainError, out_of_range for an OverflowError."""
    return "out_of_domain" if isinstance(exc, DomainError) else "out_of_range"


def _sweep_row(
    quantity: str, alpha: float, q: float, energy: float, parity_tol: float
) -> SweepRow:
    """Closed and quadrature values of ``quantity`` at one (alpha, q) point.

    A failure of the probe or the closed value gives the row its
    ``_status`` and runs no quadrature route.  The row reads its own
    route's value; inside ``measures.shared_integrals`` the eps_min and
    fisher rows at one point read one Fisher run.  A non-converged
    quadrature reads its best estimate and no_converge, any other numeric
    failure ``nan`` and no_converge.
    """
    closed_form, route = _ROUTES[quantity]
    gamma = None
    try:
        dist = ProbeDistribution.from_shape_energy(alpha, energy)
        gamma = dist.gamma_scale
        closed = closed_form(dist, q).value
    except _STATUS_ERRORS as exc:
        return SweepRow(alpha, q, energy, gamma, None, None, None, _status(exc))
    try:
        quad, converged = route(dist, q).value, True
    except ConvergenceError as exc:
        quad, converged = exc.value, False
    except _NUMERIC_ERRORS:
        quad, converged = math.nan, False
    rel = abs(closed - quad) / abs(closed)
    status = "ok" if converged and rel <= parity_tol else "no_converge"
    return SweepRow(alpha, q, energy, gamma, closed, quad, rel, status)


@measures.shared_integrals()
def run_sweep(config: SweepConfig, parity_tol: float = _PARITY_TOL) -> list[SweepRow]:
    """One row per (alpha, q), alpha-major; out-of-domain points are explicit
    rows, never skipped.  Raises ConfigError, as ``verify_report`` does, for a
    parity tolerance that is not positive and finite."""
    if not (0.0 < parity_tol < math.inf):
        raise ConfigError(f"parity tolerance must be positive and finite, got {parity_tol}")
    return [
        _sweep_row(config.quantity, alpha, q, config.energy, parity_tol)
        for alpha in config.alpha_grid.points()
        for q in config.q_list
    ]


def sweep_to_csv(rows: list[SweepRow]) -> str:
    out = ["alpha,q,energy,gamma,closed,quadrature,rel_dev,status"]
    for r in rows:
        cells = [_fmt(r.alpha), _fmt(r.q), _fmt(r.energy)]
        for v in (r.gamma_scale, r.closed_value, r.quadrature_value, r.relative_deviation):
            cells.append("" if v is None else _fmt(v))
        cells.append(r.status)
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def surface_to_csv(
    energy: float,
    alpha_grid: AlphaGrid,
    x_min: float,
    x_max: float,
    x_count: int,
) -> str:
    """Density surface rows (ln alpha, x, pdf), alpha-major; a shape at or
    below 1/2 raises the probe's DomainError (energy normalization)."""
    if not is_count(x_count, 2) or not (-math.inf < x_min < x_max < math.inf):
        raise ConfigError(
            "surface x range needs finite x_min < x_max and at least 2 points (an integer)"
        )
    lines = ["ln_alpha,x,pdf"]
    for alpha in alpha_grid.points():
        dist = ProbeDistribution.from_shape_energy(alpha, energy)
        ln_alpha = math.log(alpha)
        for k in range(x_count):
            x = x_min + (x_max - x_min) * k / (x_count - 1)
            lines.append(f"{_fmt(ln_alpha)},{_fmt(x)},{_fmt(dist.pdf(x))}")
    return "\n".join(lines) + "\n"


def _check(label: str, evaluate, *args) -> tuple[bool | None, str]:
    """(ok, line) of ``label`` from the check ``evaluate(*args)``'s (ok,
    detail), ok None for a line without a PASS/FAIL verdict.  A failure
    reads its ``_status``; another numeric failure is a FAIL line carrying
    the exception text."""
    try:
        ok, detail = evaluate(*args)
    except _STATUS_ERRORS as exc:
        ok, detail = None, _status(exc)
    except _NUMERIC_ERRORS as exc:
        ok, detail = False, f"error={type(exc).__name__}: {exc}"
    verdict = "" if ok is None else " PASS" if ok else " FAIL"
    return ok, f"{label}: {detail}{verdict}"


def _eq6_argument(tolerance: float) -> tuple[bool, list[str]]:
    """Gamma-argument resolution at the Gaussian anchor, whose classical
    Fisher information is 4 / gamma**2: (confirmed, report lines)."""
    anchor = ProbeDistribution.from_shape_scale(2.0, 1.0)
    quad = measures.fisher_quadrature(anchor, 0.5).value
    confirmed = measures.fisher_closed(anchor, 0.5).value
    # the candidate gamma argument (alpha+q-1)/alpha, which the quadrature rules out
    a, q = anchor.alpha, 0.5
    swap = log_gamma((a + q - 1.0) / a) - log_gamma(measures.fisher_gamma_argument(a, q))
    rejected = confirmed * math.exp(swap)
    ok = (
        abs(quad - 4.0) <= 1e-6 * 4.0
        and abs(confirmed - quad) <= tolerance * abs(quad)
        and abs(rejected - quad) > 1e3 * tolerance * abs(quad)
    )
    return ok, [
        f"eq6_argument: (alpha+q-1)/(alpha*q) {'CONFIRMED' if ok else 'NOT CONFIRMED'}",
        f"eq6_argument_anchor: alpha=2 gamma=1 q=0.5 quadrature={_fmt(quad)} "
        f"closed={_fmt(confirmed)} expected_classical_fisher={_fmt(4.0)}",
        f"eq6_argument_rejected: (alpha+q-1)/alpha gives {_fmt(rejected)} "
        f"vs quadrature {_fmt(quad)} REJECTED",
    ]


def _parity(
    quantity: str, alpha: float, q: float, energy: float, tol: float
) -> tuple[bool | None, str]:
    row = _sweep_row(quantity, alpha, q, energy, tol)
    if row.status in ("out_of_domain", "out_of_range"):
        return None, row.status
    return row.status == "ok", (
        f"closed={_fmt(row.closed_value)} quadrature={_fmt(row.quadrature_value)} "
        f"rel_dev={row.relative_deviation:.3e}"
    )


def _sensitivity_law(alpha: float, energy: float) -> tuple[bool, str]:
    dist = ProbeDistribution.from_shape_energy(alpha, energy)
    got = measures.sensitivity_closed(dist, 0.5).value
    expect = 0.5 / math.sqrt(energy)
    return abs(got - expect) <= 1e-9 * expect, f"got={_fmt(got)} expected={_fmt(expect)}"


def _cr_product(alpha: float, energy: float) -> tuple[bool, str]:
    dist = ProbeDistribution.from_shape_energy(alpha, energy)
    error = measures.mean_error_closed(dist, 0.5).value
    p = error * math.sqrt(measures.fisher_closed(dist, 0.5).value)
    expected_saturation = abs(alpha - 2.0) < 1e-12
    ok = (abs(p - 1.0) <= 1e-9) == expected_saturation and p >= 1.0 - 1e-9
    return ok, f"product={_fmt(p)}"


def _generalized_cr_product(alpha: float, q: float, energy: float) -> tuple[None, str]:
    dist = ProbeDistribution.from_shape_energy(alpha, energy)
    p = measures.mean_error_closed(dist, q).value * measures.fisher_closed(dist, q).value ** q
    return None, _fmt(p)


def _distance_invariants(alpha: float, q: float, eps: float, energy: float) -> tuple[bool, str]:
    dist = ProbeDistribution.from_shape_energy(alpha, energy)
    at_zero = measures.hellinger_distance(dist, 0.0, q).value
    value = measures.hellinger_distance(dist, eps, q).value
    return at_zero == 0.0 and value >= 0.0, f"zero_shift={_fmt(at_zero)} value={_fmt(value)}"


def _distance_closed(alpha: float, q: float, closed, energy: float, tol: float) -> tuple[bool, str]:
    dist = ProbeDistribution.from_shape_energy(alpha, energy)
    worst = max(
        abs(measures.hellinger_distance(dist, r * dist.gamma_scale, q).value / closed(r) - 1.0)
        for r in _DISTANCE_SHIFTS
    )
    return worst <= tol, f"max_rel_dev={worst:.3e}"


def _linearization(alpha: float, q: float) -> tuple[bool, str]:
    dist = ProbeDistribution.from_shape_scale(alpha, 1.0)
    ratio = (
        measures.hellinger_distance(dist, 1e-3, q).value
        / measures.hellinger_linearized(dist, 1e-3, q).value
    )
    return 0.99 <= ratio <= 1.01, f"ratio={ratio:.6f}"


def _triangle(alpha: float, q: float, triple, energy: float) -> tuple[None, str]:
    rep = measures.triangle_probe(ProbeDistribution.from_shape_energy(alpha, energy), q, triple)
    tag = "VIOLATED" if rep.violated else "held"
    return None, f"lhs={_fmt(rep.lhs)} rhs={_fmt(rep.rhs)} {tag}"


@measures.shared_integrals()
def verify_report(
    alphas=_VERIFY_ALPHAS,
    qs=_VERIFY_QS,
    energy: float = 1.0,
    tolerance: float = _PARITY_TOL,
) -> tuple[str, bool]:
    """Full cross-validation report; returns (text, all_checks_passed).

    Raises ConfigError, before any quadrature runs, for an energy or
    tolerance that is not positive and finite."""
    if not (0.0 < energy < math.inf and 0.0 < tolerance < math.inf):
        raise ConfigError(
            f"energy and tolerance must be positive and finite, got {energy}, {tolerance}"
        )
    anchor_ok, eq6_lines = _eq6_argument(tolerance)

    # Closed-form / quadrature parity over the grid.  A grid where no line
    # has a verdict checked no closed form and fails, as a sweep with no
    # value does.
    checks = [
        _check(
            f"parity {quantity} alpha={alpha:g} q={q:g}",
            _parity, quantity, alpha, q, energy, tolerance,
        )
        for quantity in QUANTITIES
        for alpha in alphas
        for q in qs
    ]
    if all(ok is None for ok, _ in checks):
        checks.append((False, "parity_grid: no point has a closed and a quadrature value FAIL"))

    # q = 1/2 sensitivity law: eps_min = 1 / (2 sqrt(E)) for every shape.
    for alpha in _LAW_ALPHAS:
        for e in _LAW_ENERGIES:
            label = f"sensitivity_q_half alpha={alpha:g} energy={e:g}"
            checks.append(_check(label, _sensitivity_law, alpha, e))

    # Cramer-Rao products; the classical bound is asserted at q = 1/2
    # (saturated only by the Gaussian shape), other orders are reported
    # without assertion.
    for alpha in alphas:
        checks.append(_check(f"cr_product alpha={alpha:g} q=0.5", _cr_product, alpha, energy))
    for alpha in alphas:
        for q in qs:
            label = f"generalized_cr_product alpha={alpha:g} q={q:g}"
            checks.append(_check(label, _generalized_cr_product, alpha, q, energy))

    # Distance invariants: D(0) = 0, D >= 0.  D(eps) = D(-eps), like the
    # mean error's independence of the shift, holds by construction of the
    # folded quadrature, so it is not checked here.
    for alpha, q, eps in ((1.0, 2.0, 0.3), (2.0, 0.5, 0.1), (0.8, 0.25, 0.7)):
        label = f"distance_invariants alpha={alpha:g} q={q:g} eps={eps:g}"
        checks.append(_check(label, _distance_invariants, alpha, q, eps, energy))

    # The distance against its closed forms on the run's Laplace and Gaussian
    # probes at the reduced shifts r = eps / gamma, within the parity tolerance.
    for (alpha, q), closed in _DISTANCE_CLOSED.items():
        label = f"distance_closed alpha={alpha:g} q={q:g} r={_DISTANCE_SHIFTS}"
        checks.append(_check(label, _distance_closed, alpha, q, closed, energy, tolerance))

    # Weak-signal linearization at eps = 1e-3.
    for alpha, q in _LINEARIZATION_PAIRS:
        label = f"linearization alpha={alpha:g} q={q:g} eps=0.001"
        checks.append(_check(label, _linearization, alpha, q))

    # Triangle-inequality scan on D_q**q (informational: violations are a
    # finding, not a failure; a triangle that cannot be computed is one).
    triangles = [
        _check(f"triangle q={q:g} alpha={a:g} shifts={triple}", _triangle, a, q, triple, energy)
        for q in _TRIANGLE_QS
        for a in _TRIANGLE_ALPHAS
        for triple in _TRIANGLE_TRIPLES
    ]
    n_violations = sum(line.endswith(" VIOLATED") for _, line in triangles)
    checks += [*triangles, (None, f"triangle_scan_summary: {n_violations} violation(s) found")]

    all_ok = anchor_ok and all(ok is not False for ok, _ in checks)
    lines = [*eq6_lines, *(line for _, line in checks), f"overall: {'PASS' if all_ok else 'FAIL'}"]
    return "\n".join(lines) + "\n", all_ok


# ---------------------------------------------------------------------------
# configuration file and flag plumbing


def _load_config(path: str) -> dict[str, str]:
    """The file's ``key = value`` pairs; a leading byte-order mark is
    dropped.  A file that cannot be read as UTF-8, a line without ``=`` or
    with a NUL byte (which no flag given in argv can carry) raises
    ConfigError."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        if "\0" in line:
            raise ConfigError(f"{path}:{lineno}: NUL byte in {line!r}")
        key, _, value = line.partition("=")
        out[key.strip().lower().replace("-", "_")] = value.strip()
    return out


def _apply_config(parser: argparse.ArgumentParser, args) -> None:
    """Make the ``--config`` file's values the defaults of ``args.command``.

    Parsed again, a flag beats the file and the file beats the built-in
    default; argparse converts a string default with its flag's type, so a
    bad value exits 2 under that flag's name.
    """
    command = parser._subparsers._group_actions[0].choices[args.command]
    cfg = _load_config(args.config)
    unknown = set(cfg) - ({a.dest for a in command._actions} - {"help", "config"})
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    command.set_defaults(**cfg)


def _positive(text: str) -> float:
    """A positive, finite number."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"invalid float value: {text!r}") from exc
    if not (0.0 < value < math.inf):
        raise ConfigError(f"must be positive and finite, got {text!r}")
    return value


def _parse_q_list(text: str) -> tuple[float, ...]:
    """A comma-separated list of positive, finite shapes or orders."""
    values = tuple(_positive(part) for part in text.split(",") if part.strip())
    if not values:
        raise ConfigError("list is empty")
    return values


def _probe_from_flags(alpha: float, energy, gamma) -> ProbeDistribution:
    if energy is not None and gamma is not None:
        raise ConfigError("--energy and --gamma are mutually exclusive")
    if gamma is not None:
        return ProbeDistribution.from_shape_scale(alpha, gamma)
    return ProbeDistribution.from_shape_energy(alpha, 1.0 if energy is None else energy)


# ---------------------------------------------------------------------------
# commands: each returns (output file text, stdout text, exit code)


def _cmd_verify(args) -> tuple[str, str, int]:
    report, ok = verify_report(args.alphas, args.qs, args.energy, args.tol)
    return report, report, 0 if ok else 1


def _cmd_sweep(args) -> tuple[str, str, int]:
    alpha_min = default_alpha_grid(args.q).min if args.alpha_min is None else args.alpha_min
    config = SweepConfig(
        quantity=args.quantity,
        q_list=args.q,
        energy=args.energy,
        alpha_grid=AlphaGrid(alpha_min, args.alpha_max, args.alpha_count, args.alpha_spacing),
    )
    rows = run_sweep(config, args.tol)
    n = Counter(r.status for r in rows)
    summary = (
        f"wrote {args.out}: {len(rows)} rows, {n['no_converge']} no_converge, "
        f"{n['out_of_domain']} out_of_domain, {n['out_of_range']} out_of_range\n"
    )
    return sweep_to_csv(rows), summary, 1 if n["no_converge"] or not n["ok"] else 0


def _cmd_simulate(args) -> tuple[str, str, int]:
    if args.alpha is None:
        raise ConfigError("simulate requires --alpha")
    plan = TrialPlan(
        distribution=_probe_from_flags(args.alpha, args.energy, args.gamma),
        true_shift=args.eps,
        q=args.q,
        trials=args.trials,
        master_seed=args.seed,
    )
    if plan.trials < 2:
        raise ConfigError("simulate needs at least 2 trials: one trial has no spread to check")
    if args.bootstrap is not None:
        print("note: --bootstrap is deprecated and ignored (analytic interval)", file=sys.stderr)
        plan = replace(plan, bootstrap_resamples=args.bootstrap)  # still validated
    r = run_trials(plan)
    payload = json.dumps(asdict(r), sort_keys=True, indent=2) + "\n"
    unbiased = three_sigma_check(r.empirical_mean, r.mean_std_error, plan.true_shift)
    ci_ok = r.generalized_error_ci_low <= r.predicted_mean_error <= r.generalized_error_ci_high
    return payload, payload, 0 if (unbiased.passed and ci_ok) else 1


def _cmd_surface(args) -> tuple[str, str, int]:
    grid = AlphaGrid(args.alpha_min, args.alpha_max, args.alpha_count, args.alpha_spacing)
    csv_text = surface_to_csv(args.energy, grid, args.x_min, args.x_max, args.x_count)
    return csv_text, f"wrote {args.out}\n", 0


def build_parser() -> argparse.ArgumentParser:
    """Every flag with its type and default; ``run`` is the command's function."""
    parser = argparse.ArgumentParser(
        prog="genfisher",
        description="Order-q uncertainty measures for exponential power probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, run, out: str, about: str):
        p = sub.add_parser(name, help=about, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p._negative_number_matcher = re.compile(r"-\.?\d")  # argparse's misses -1e-3
        p.set_defaults(run=run)
        p.add_argument("--config", help="flat key = value file; flags override it")
        p.add_argument("--out", default=out, help="output file path")
        return p

    def add_alpha_grid(p, alpha_min, grid: AlphaGrid, min_help: str = "smallest shape"):
        """--energy and the alpha grid flags of sweep and surface."""
        p.add_argument("--energy", type=_positive, default=1.0, help="probe mean energy")
        p.add_argument("--alpha-min", type=float, default=alpha_min, help=min_help)
        p.add_argument("--alpha-max", type=float, default=grid.max, help="largest shape")
        p.add_argument("--alpha-count", type=int, default=grid.count, help="number of shapes")
        p.add_argument(
            "--alpha-spacing", choices=_SPACINGS, default=grid.spacing, help="shape spacing"
        )

    p = add_command(
        "verify", _cmd_verify, "verify_report.txt", "cross-validate closed forms against quadrature"
    )
    p.add_argument(
        "--alphas", type=_parse_q_list, default=_VERIFY_ALPHAS, help="comma-separated shapes"
    )
    p.add_argument("--qs", type=_parse_q_list, default=_VERIFY_QS, help="comma-separated orders")
    p.add_argument("--energy", type=_positive, default=1.0, help="probe mean energy")
    p.add_argument("--tol", type=_positive, default=_PARITY_TOL, help="parity tolerance")

    p = add_command("sweep", _cmd_sweep, "sweep.csv", "tabulate a quantity over an alpha grid")
    p.add_argument("--quantity", choices=QUANTITIES, default="eps_min", help="tabulated quantity")
    sweep_qs = (0.25, 0.5, 2.0)
    p.add_argument("--q", type=_parse_q_list, default=sweep_qs, help="comma-separated orders")
    grid = default_alpha_grid(sweep_qs)
    add_alpha_grid(p, None, grid, "smallest shape; unset: just inside the domain of every --q")
    p.add_argument("--tol", type=_positive, default=_PARITY_TOL, help="parity tolerance")

    p = add_command(
        "simulate", _cmd_simulate, "trial_report.json", "Monte Carlo single-shot estimation"
    )
    p.add_argument("--alpha", type=float, help="probe shape (required)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--energy", type=_positive, help="probe mean energy; 1 without --gamma")
    group.add_argument("--gamma", type=_positive, help="probe scale")
    p.add_argument("--q", type=float, default=0.5, help="error order")
    p.add_argument("--eps", type=float, default=0.0, help="true shift")
    p.add_argument("--trials", type=int, default=100_000, help="number of trials")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--bootstrap", type=int, help="deprecated, ignored (still must be >= 100)")

    p = add_command("surface", _cmd_surface, "surface.csv", "density surface over (ln alpha, x)")
    grid = AlphaGrid(0.6, 20.0, 40, "log")
    add_alpha_grid(p, grid.min, grid)
    p.add_argument("--x-min", type=float, default=-3.0, help="smallest x")
    p.add_argument("--x-max", type=float, default=3.0, help="largest x")
    p.add_argument("--x-count", type=int, default=61, help="number of x points")

    return parser


def main(argv=None) -> int:
    """Parse, compute, then write ``--out`` and stdout: the one place that
    writes either and turns failures into exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _apply_config(parser, args)
            args = parser.parse_args(argv)
        text, stdout, code = args.run(args)
        Path(args.out).write_text(text, encoding="utf-8")
        sys.stdout.write(stdout)
        return code
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    except (ConfigError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
