"""Quadrature engine and log-gamma checks against hand-computable integrals."""

import heapq
import math
import random

import pytest

from genfisher import measures, numerics
from genfisher.numerics import (
    DomainError,
    IntegrandError,
    QuadratureResult,
    QuadratureSpec,
    integrate_half_line,
    integrate_real_line,
    log_gamma,
)
from genfisher.probe import ProbeDistribution

SQRT_PI = math.sqrt(math.pi)


def reference_gk_panel(f, a, b):
    """Reference oracle: the loop form of ``numerics._gk_panel`` that the
    unrolled kernel replaced, kept to pin the kernel's bits."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(center)
    gauss = numerics._GAUSS_CENTER_W * fc
    kron = numerics._KRONROD_CENTER_W * fc
    resabs = numerics._KRONROD_CENTER_W * abs(fc)
    pairs = [(fc, numerics._KRONROD_CENTER_W)]
    finite = math.isfinite(fc)
    for xi, wg, wk in numerics._GK_NODES:
        f_lo = f(center - half * xi)
        f_hi = f(center + half * xi)
        finite = finite and math.isfinite(f_lo) and math.isfinite(f_hi)
        if wg:
            gauss += wg * (f_lo + f_hi)
        kron += wk * (f_lo + f_hi)
        resabs += wk * (abs(f_lo) + abs(f_hi))
        pairs.append((f_lo, wk))
        pairs.append((f_hi, wk))
    if not finite:
        raise IntegrandError(f"non-finite value inside panel [{a!r}, {b!r}]")
    mean = 0.5 * kron
    resasc = math.fsum(wk * abs(fv - mean) for fv, wk in pairs)
    err = abs(kron - gauss) * half
    resabs *= half
    resasc *= half
    if resasc != 0.0 and err != 0.0:
        ratio = 200.0 * err / resasc
        err = resasc * ratio**1.5 if ratio < 1.0 else resasc
    err = max(err, 50.0 * numerics._MACHINE_EPS * resabs)
    return kron * half, err


class TestLogGamma:
    def test_integer_and_half_integer_anchors(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(0.5) == pytest.approx(math.log(SQRT_PI), rel=1e-13)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_rejects_nonpositive(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)

    @pytest.mark.parametrize("x", [0.6, 1.3, 7.5, 41.0])
    def test_recurrence(self, x):
        # Gamma(x+1) = x Gamma(x)
        assert log_gamma(x + 1.0) - log_gamma(x) - math.log(x) == pytest.approx(
            0.0, abs=1e-12
        )

    @pytest.mark.parametrize("n", [3, 7, 10, 15, 40, 100, 170])
    def test_relative_accuracy_against_factorials(self, n):
        # Gamma(n) = (n-1)!, an exact independent oracle
        assert log_gamma(float(n)) == pytest.approx(
            math.log(math.factorial(n - 1)), rel=1e-13
        )


class TestRealLine:
    def test_gaussian(self):
        res = integrate_real_line(lambda x: math.exp(-x * x))
        assert res.converged
        assert res.value == pytest.approx(SQRT_PI, rel=1e-10)

    def test_two_sided_exponential_with_split(self):
        spec = QuadratureSpec(split_points=(0.0,))
        res = integrate_real_line(lambda x: math.exp(-2.0 * abs(x)), spec)
        assert res.converged
        assert res.value == pytest.approx(1.0, rel=1e-10)

    def test_integrable_singularity_at_origin(self):
        # oracle: int |x|^(-1/2) e^(-2|x|) dx = 2 Gamma(1/2) 2^(-1/2)
        expected = 2.0 * math.exp(log_gamma(0.5)) / math.sqrt(2.0)
        spec = QuadratureSpec(split_points=(0.0,))
        res = integrate_real_line(
            lambda x: abs(x) ** -0.5 * math.exp(-2.0 * abs(x)), spec
        )
        assert res.converged
        assert res.value == pytest.approx(expected, rel=1e-9)
        assert res.value == pytest.approx(2.5066282746, abs=1e-9)

    def test_converged_meets_requested_tolerance(self):
        spec = QuadratureSpec(rel_tol=1e-11)
        res = integrate_real_line(lambda x: math.exp(-x * x), spec)
        assert res.converged
        assert res.abs_error_estimate <= spec.rel_tol * abs(res.value)
        assert res.evaluations > 0

    def test_budget_exhaustion_returns_best_estimate(self):
        spec = QuadratureSpec(rel_tol=1e-14, max_evaluations=100)
        res = integrate_real_line(lambda x: math.exp(-x * x), spec)
        assert not res.converged
        assert res.value == pytest.approx(SQRT_PI, rel=1e-3)

    def test_nan_integrand_raises(self):
        with pytest.raises(IntegrandError):
            integrate_real_line(lambda x: float("nan"))

    def test_inf_integrand_raises(self):
        # a spike 0.02 wide about the center t = 1/8 of the right tail's first
        # seed panel [0, 1/4), which the tail map sends to x = 1/7
        def f(x):
            return float("inf") if abs(x - 1.0 / 7.0) < 0.01 else math.exp(-x * x)

        with pytest.raises(IntegrandError):
            integrate_real_line(f)

    def test_linearity_on_test_pair(self):
        spec = QuadratureSpec(split_points=(0.0,))
        f = lambda x: math.exp(-x * x)
        g = lambda x: math.exp(-2.0 * abs(x))
        a, b = 2.5, -1.3
        combo = integrate_real_line(lambda x: a * f(x) + b * g(x), spec)
        vf = integrate_real_line(f, spec)
        vg = integrate_real_line(g, spec)
        assert combo.converged and vf.converged and vg.converged
        assert combo.value == pytest.approx(
            a * vf.value + b * vg.value, rel=10.0 * spec.rel_tol
        )

    @pytest.mark.parametrize(
        "f,splits",
        [
            (lambda x: math.exp(-x * x), ()),
            (lambda x: math.exp(-2.0 * abs(x)), (0.0,)),
            (lambda x: abs(x) ** 1.5 * math.exp(-abs(x) ** 3), (0.0,)),
        ],
    )
    def test_symmetry_fold_matches_half_line(self, f, splits):
        full = integrate_real_line(f, QuadratureSpec(split_points=splits))
        half = integrate_half_line(f)
        assert full.converged and half.converged
        tol = full.abs_error_estimate + 2.0 * half.abs_error_estimate + 1e-12
        assert abs(full.value - 2.0 * half.value) <= tol


class TestHalfLine:
    @pytest.mark.parametrize(
        "f,expected",
        [
            (lambda t: math.exp(-t), 1.0),
            (lambda t: t * t * math.exp(-t), 2.0),
            (lambda t: t**-0.5 * math.exp(-t), SQRT_PI),
        ],
    )
    def test_gamma_integrals(self, f, expected):
        res = integrate_half_line(f)
        assert res.converged
        assert res.value == pytest.approx(expected, rel=1e-9)

    def test_rejects_negative_split(self):
        with pytest.raises(DomainError):
            integrate_half_line(lambda t: math.exp(-t), QuadratureSpec(split_points=(-1.0,)))

    @pytest.mark.parametrize("c", [2.0**-40, 2.0**-600], ids=["2^-40", "2^-600"])
    def test_scaled_integrand_takes_the_same_path(self, c):
        # The stopping rule is relative only: an integrand scaled by a power
        # of two refines the same panels and returns the scaled value exactly.
        unit = integrate_half_line(lambda t: t**-0.5 * math.exp(-t))
        scaled = integrate_half_line(lambda t: c * (t**-0.5 * math.exp(-t)))
        assert unit.converged and scaled.converged
        assert scaled.value == c * unit.value
        assert scaled.evaluations == unit.evaluations
        assert scaled.value == pytest.approx(c * SQRT_PI, rel=1e-9)

    def test_interior_split_accepted(self):
        res = integrate_half_line(
            lambda t: math.exp(-t), QuadratureSpec(split_points=(0.0, 1.0, 10.0))
        )
        assert res.converged
        assert res.value == pytest.approx(1.0, rel=1e-10)

    def test_frozen_panels_stop_far_below_the_budget(self):
        # 1/x diverges at the origin: bisection reaches panels narrower than
        # MIN_PANEL_WIDTH, which are frozen with their error, and once that
        # error alone exceeds the target the engine stops unconverged
        spec = QuadratureSpec(split_points=(1.0,))
        res = integrate_half_line(lambda x: 1.0 / x if x < 1.0 else 0.0, spec)
        assert not res.converged
        assert res.evaluations < spec.max_evaluations // 10

    def test_tail_node_at_infinity_is_an_integrand_error(self):
        tail = numerics._tail(lambda x: 1.0, 2.0, 1.0)
        with pytest.raises(IntegrandError, match="beyond the tail map's resolution"):
            tail(1.0)

    def test_integrand_division_by_zero_passes_through_the_tail(self):
        tail = numerics._tail(lambda x: 1.0 / 0.0, 2.0, 1.0)
        with pytest.raises(ZeroDivisionError):
            tail(0.5)

    def test_caller_tail_is_built_at_the_last_split(self):
        # a hand-written tail with the generic map's bits: the same result,
        # and the builder is called with the last split only
        def f(x):
            return math.exp(-x) * (1.0 + x * x)

        anchors = []

        def tail(a):
            anchors.append(a)

            def mapped(t):
                u = 1.0 - t
                return f(a + t / u) / (u * u)

            return mapped

        spec = QuadratureSpec(split_points=(2.0, 0.5))
        assert integrate_half_line(f, spec, tail) == integrate_half_line(f, spec)
        assert anchors == [2.0]

    def test_caller_tail_none_drops_a_zero_tail(self):
        # f is exactly 0 past its last split: without the tail piece the
        # value and error bits are the generic map's, and its seed panels
        # are never evaluated
        def f(x):
            return (1.0 - x) ** 2 * math.exp(x) if x < 1.0 else 0.0

        spec = QuadratureSpec(split_points=(0.5, 1.0))
        got, want = integrate_half_line(f, spec, lambda a: None), integrate_half_line(f, spec)
        assert (got.value.hex(), got.abs_error_estimate.hex()) == (
            want.value.hex(), want.abs_error_estimate.hex())
        seed_panels = numerics.INITIAL_PANELS * numerics._EVALS_PER_PANEL
        assert got.evaluations == want.evaluations - seed_panels

    def test_caller_tail_errors_pass_through(self):
        def tail(a):
            return lambda t: 1.0 / 0.0

        with pytest.raises(ZeroDivisionError):
            integrate_half_line(lambda x: math.exp(-x), None, tail)


class TestQuadratureSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": -1e-9},
            {"rel_tol": float("nan")},
            {"rel_tol": 0.0},
            {"max_evaluations": 0},
            {"split_points": (float("inf"),)},
            {"split_points": (float("nan"),)},
            {"max_evaluations": 30.5},
            {"max_evaluations": 2.5e6},
            {"max_evaluations": float("nan")},
            {"max_evaluations": float("inf")},
            {"max_evaluations": True},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(DomainError):
            QuadratureSpec(**kwargs)

    def test_with_splits_merges_and_sorts(self):
        spec = QuadratureSpec(rel_tol=1e-6, max_evaluations=500, split_points=(1.0, -2.0))
        merged = spec.with_splits((0.0, 1.0))
        assert merged == QuadratureSpec(1e-6, 500, (-2.0, 0.0, 1.0))


def _panels(seed, lo, hi, count):
    """Seeded panels inside [lo, hi): log-uniform widths from 1e-12 of the
    interval up to all of it, plus the panel ending at ``hi``."""
    rng = random.Random(seed)
    span = hi - lo
    panels = [(lo, hi), (hi - span / 1024.0, hi)]
    for _ in range(count):
        width = span * 10.0 ** rng.uniform(-12.0, 0.0)
        a = lo + rng.random() * (span - width)
        panels.append((a, a + width))
    return panels


def _capture_integrand(route, alpha, q):
    """The integrand a measure route hands to the quadrature engine, and
    its tail builder (None when the engine maps ``integrand`` itself)."""
    captured = []

    def capture(f, spec, tail=None):
        captured.append((f, tail))
        return QuadratureResult(1.0, 0.0, True, 0)

    dist = ProbeDistribution.from_shape_energy(alpha, 1.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "integrate_half_line", capture)
        route(dist, q)
    (pair,) = captured
    return pair


class TestPanelKernel:
    """The unrolled ``_gk_panel`` returns the loop form's bits."""

    # name -> (integrand, panels); the cusp sits at 0.37
    PLAIN = {
        "signed": (
            lambda x: math.sin(3.0 * x) * math.exp(-0.25 * x * x), _panels(1, -6.0, 6.0, 40)
        ),
        "cubic": (lambda x: x**3 - 2.0 * x, _panels(2, -3.0, 3.0, 40)),
        "zero": (lambda x: 0.0, _panels(3, -1.0, 1.0, 10)),
        "negative_zero": (lambda x: -0.0, _panels(4, -1.0, 1.0, 10)),
        "cusp": (
            lambda x: abs(x - 0.37) ** 0.3, _panels(5, 0.0, 1.0, 40) + [(0.3, 0.37), (0.37, 0.5)]
        ),
        "endpoint_singular": (
            lambda x: abs(x - 0.37) ** -0.5, [(0.37, 0.5), (0.2, 0.37), (0.37, 0.37 + 1e-9)]
        ),
        "tail": (
            numerics._tail(lambda x: math.exp(-x * x), 0.3, -1.0), _panels(6, 0.0, 1.0, 40)
        ),
        "signed_tail": (
            numerics._tail(lambda x: math.cos(x) / (1.0 + x * x), -1.0, 1.0),
            _panels(7, 0.0, 1.0, 40),
        ),
    }
    MEASURES = {
        "distance": lambda d, q: measures.hellinger_distance(d, 0.7, q),
        "fisher": measures.fisher_quadrature,
        "width": measures.posterior_width_quadrature,
        "mean_error": lambda d, q: measures.mean_error_quadrature(d, 0.7, q),
    }

    @staticmethod
    def assert_same_bits(f, panels):
        for a, b in panels:
            got = numerics._gk_panel(f, a, b)
            want = reference_gk_panel(f, a, b)
            assert [v.hex() for v in got] == [v.hex() for v in want], (a, b)

    @pytest.mark.parametrize("name", list(PLAIN))
    def test_matches_loop_form(self, name):
        f, panels = self.PLAIN[name]
        self.assert_same_bits(f, panels)

    def test_calls_integrand_in_loop_order(self):
        def recorder(calls):
            def f(x):
                calls.append(x.hex())
                return math.exp(-x * x)

            return f

        for a, b in _panels(11, -2.0, 3.0, 10):
            got, want = [], []
            numerics._gk_panel(recorder(got), a, b)
            reference_gk_panel(recorder(want), a, b)
            assert got == want

    @pytest.mark.parametrize("alpha, q", [(0.8, 0.25), (2.0, 0.5), (5.0, 2.0)])
    @pytest.mark.parametrize("route", list(MEASURES))
    def test_measure_integrands_match_loop_form(self, route, alpha, q):
        f, tail = _capture_integrand(self.MEASURES[route], alpha, q)
        panels = _panels(8, 0.0, 4.0, 30) + [(0.0, 0.7), (0.7, 1.4)]
        self.assert_same_bits(f, panels)
        self.assert_same_bits(numerics._tail(f, 4.0, 1.0), _panels(9, 0.0, 1.0, 20))
        if tail is not None:
            self.assert_same_bits(tail(1.0), _panels(10, 0.0, 1.0, 20))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("node", range(numerics._EVALS_PER_PANEL))
    def test_non_finite_value_at_any_node_raises(self, node, bad):
        calls = []

        def f(x):
            calls.append(x)
            return bad if len(calls) == node + 1 else 1.0

        with pytest.raises(IntegrandError):
            numerics._gk_panel(f, 0.0, 1.0)
        assert len(calls) == numerics._EVALS_PER_PANEL

    @pytest.mark.parametrize(
        "f",
        [
            lambda x: 1.7e308,
            lambda x: -1.7e308,
            lambda x: 1.7e308 * math.cos(x),
            lambda x: 9e307 if x < 0.5 else 1.7e308,
        ],
        ids=["constant", "negative", "signed", "step"],
    )
    def test_finite_values_whose_sums_overflow_do_not_raise(self, f):
        got = numerics._gk_panel(f, 0.0, 1.0)
        want = reference_gk_panel(f, 0.0, 1.0)
        assert not all(math.isfinite(v) for v in got)
        assert [v.hex() for v in got] == [v.hex() for v in want]


def reference_adaptive(pieces, spec):
    """Reference oracle: ``numerics._adaptive`` with each seed panel pushed
    onto the heap one at a time instead of heapified, kept to pin its
    results."""
    budget = spec.max_evaluations
    n_init = max(1, min(numerics.INITIAL_PANELS, budget // (15 * len(pieces))))
    heap = []
    total = total_err = frozen_err = 0.0
    evals = counter = 0
    for fn, lo, hi in pieces:
        width = hi - lo
        for i in range(n_init):
            pa = lo + width * i / n_init
            pb = lo + width * (i + 1) / n_init
            value, err = numerics._gk_panel(fn, pa, pb)
            evals += 15
            total += value
            total_err += err
            heapq.heappush(heap, (-err, counter, pa, pb, value, fn))
            counter += 1
    while True:
        target = spec.rel_tol * abs(total)
        if total_err <= target:
            return QuadratureResult(total, total_err, True, evals)
        if frozen_err > target or not heap or evals + 30 > budget:
            return QuadratureResult(total, total_err, False, evals)
        neg_err, _, pa, pb, value, fn = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if pb - pa < numerics.MIN_PANEL_WIDTH or not (pa < mid < pb):
            frozen_err += -neg_err
            continue
        v_lo, e_lo = numerics._gk_panel(fn, pa, mid)
        v_hi, e_hi = numerics._gk_panel(fn, mid, pb)
        evals += 30
        total += v_lo + v_hi - value
        total_err += e_lo + e_hi + neg_err
        heapq.heappush(heap, (-e_lo, counter, pa, mid, v_lo, fn))
        counter += 1
        heapq.heappush(heap, (-e_hi, counter, mid, pb, v_hi, fn))
        counter += 1


def _result_bits(r):
    return r.value.hex(), r.abs_error_estimate.hex(), r.converged, r.evaluations


class TestAdaptive:
    """Heapified seed panels give the result of pushing them one at a time,
    whether they converge at once, refine or run out of budget, and a budget
    below one panel per piece is refused."""

    CUSP = (lambda x: abs(x - 0.37) ** 0.3, 0.0, 1.0)
    SMOOTH = (lambda x: math.exp(-x), 0.0, 1.0)
    # (pieces, spec, evaluations): converged on the seed panels, refined,
    # and stopped by the budget
    CASES = {
        "seed": ([SMOOTH, SMOOTH], QuadratureSpec(), 120),
        "refined": ([SMOOTH, CUSP], QuadratureSpec(), 840),
        "budget": ([CUSP], QuadratureSpec(rel_tol=1e-14, max_evaluations=300), 300),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_the_heap_loop(self, case):
        pieces, spec, evaluations = self.CASES[case]
        got = numerics._adaptive(pieces, spec)
        assert _result_bits(got) == _result_bits(reference_adaptive(pieces, spec))
        assert got.converged == (case != "budget")
        assert got.evaluations == evaluations

    @pytest.mark.parametrize("alpha, q", [(0.8, 0.25), (2.0, 0.5), (5.0, 2.0), (2.0, 1e-4)])
    @pytest.mark.parametrize("route", list(TestPanelKernel.MEASURES))
    def test_matches_the_heap_loop_on_measure_integrands(self, route, alpha, q):
        f, tail = _capture_integrand(TestPanelKernel.MEASURES[route], alpha, q)
        last = tail(1.0) if tail else numerics._tail(f, 1.0, 1.0)
        pieces = [(f, 0.0, 1.0), (last, 0.0, 1.0)]
        for spec in (QuadratureSpec(), QuadratureSpec(rel_tol=1e-14, max_evaluations=400)):
            got = numerics._adaptive(pieces, spec)
            assert _result_bits(got) == _result_bits(reference_adaptive(pieces, spec))

    @pytest.mark.parametrize(
        "integrate, splits, budget, minimum",
        [
            (integrate_real_line, (), 1, 30),
            (integrate_real_line, (0.0, 1.0), 44, 45),
            (integrate_half_line, (1.0, 2.0, 3.0), 10, 60),
            (integrate_half_line, (), 14, 15),
        ],
    )
    def test_budget_below_one_panel_per_piece_raises(self, integrate, splits, budget, minimum):
        calls = []

        def f(x):
            calls.append(x)
            return math.exp(-x * x)

        spec = QuadratureSpec(max_evaluations=budget, split_points=splits)
        with pytest.raises(DomainError, match=f"below the minimum {minimum}"):
            integrate(f, spec)
        assert calls == []
        # at the minimum itself the seed is one panel per piece, within budget
        at_minimum = integrate(f, QuadratureSpec(max_evaluations=minimum, split_points=splits))
        assert at_minimum.evaluations == minimum

    @pytest.mark.parametrize("budget", [30, 59, 60, 61, 119, 240, 241, 300])
    def test_evaluations_stay_within_the_budget(self, budget):
        spec = QuadratureSpec(rel_tol=1e-15, max_evaluations=budget)
        res = integrate_real_line(lambda x: abs(x - 0.3) ** 0.5 * math.exp(-x * x), spec)
        assert res.evaluations <= budget
