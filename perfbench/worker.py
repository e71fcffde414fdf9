"""One benchmark process: import genfisher once, then run CLI passes.

``run.py`` starts this script in a fresh interpreter; it is not a user
entry point.  It times ``import genfisher.cli`` (the set-up), then calls
``genfisher.cli.main(argv)`` pass after pass until the time budget would be
exceeded, checks every pass's output and prints one JSON object.  Between
passes it starts ``SETUP_PROBES`` more fresh interpreters, spread over the
run, that only time the import, so set-up is sampled under the same load
as the passes.

    worker.py WORKLOAD SEED SECONDS TRACE TINY OUT_DIR   # run passes
    worker.py --setup-only                               # time the import only
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _import_genfisher():
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import genfisher.cli

    return genfisher.cli, time.perf_counter() - start


# The import is timed before this script imports anything else, so the
# modules genfisher shares with the standard library count toward set-up.
if __name__ == "__main__":
    CLI, SETUP_S = _import_genfisher()
    if sys.argv[1:] == ["--setup-only"]:
        print(f'{{"setup_s": {SETUP_S!r}}}')
        raise SystemExit(0)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, layer_totals  # noqa: E402

QUANTITIES = ("eps_min", "posterior_width", "mean_error", "fisher")
SIMULATE_TRIALS = 1_000_000
SIMULATE_SHIFT = 0.3
# The CLI's smallest resample count: the bootstrap still takes about 90% of a
# pass, and passes of about 1 s instead of 5 s give a steadier median.
SIMULATE_RESAMPLES = 100
TINY_TRIALS = 10_000
TINY_ALPHA_COUNT = 4
CALIBRATION_STEPS = 150_000
CALIBRATION_SEED = 20120115
CALIBRATION_RESAMPLES = 8
SETUP_PROBES = 16
# Allowed distance, in standard errors, between the simulate report and its
# expectation.  The CLI's own rules (3 sigma, 99% interval) fail a correct
# sampler on about 1% of seeds (seed 79 of 0-99); at 5 sigma a correct
# sampler fails about once in a million seeds, while a bias of a few tenths
# of a percent still fails.
SIMULATE_SIGMAS = 5.0
# Two-sided 99% normal quantile: the CLI's interval spans +-Z_99 sigma.
Z_99 = 2.5758293035489004


class Workload:
    """Argument vectors for one pass (``argvs``), the check of that pass's
    output (``check``, giving items, failed, digest and findings) and the
    calibration its pass times are divided by (``calibrate``)."""

    def __init__(self, cli, seed: int, tiny: bool):
        self.cli = cli
        self.seed = seed
        self.tiny = tiny

    def calibrate(self) -> float:
        """Wall seconds of a fixed pure-Python float loop, the kind of work a
        quadrature integrand does.  It allocates nothing.

        It runs before the first pass and after every pass.  A pass's time
        divided by the mean of the two calibrations around it cancels the
        machine-speed drift of a shared host, which moves raw pass times by
        tens of percent from one minute to the next.
        """
        start = time.perf_counter()
        acc = 0.0
        for i in range(1, CALIBRATION_STEPS):
            acc += math.exp(-0.5 * math.log(i))
        return time.perf_counter() - start


class Verify(Workload):
    def argvs(self, out_dir):
        argv = ["verify", "--out", os.path.join(out_dir, "verify_report.txt")]
        if self.tiny:
            argv += ["--alphas", "2", "--qs", "0.5"]
        return [argv]

    def check(self, out_dir, codes):
        data = Path(out_dir, "verify_report.txt").read_bytes()
        text = data.decode("utf-8")
        lines = text.splitlines()
        checks = [ln for ln in lines if ln.endswith((" PASS", " FAIL"))]
        failed = sum(ln.endswith(" FAIL") for ln in checks)
        whole_ok = codes == [0] and lines[-1:] == ["overall: PASS"] and "Traceback" not in text
        failed = failed or int(not whole_ok)
        return {"items": len(checks), "failed": failed, "digest": hashlib.sha256(data).hexdigest(), "findings": []}


class Sweep(Workload):
    def alpha_min(self):
        """The CLI default lower grid end, moved up by a seeded share of one
        log step; seed 0 keeps the default grid itself."""
        if self.seed == 0:
            return None
        grid = self.cli.default_alpha_grid((0.25, 0.5, 2.0))
        count = TINY_ALPHA_COUNT if self.tiny else grid.count
        step = math.log(grid.max / grid.min) / (count - 1)
        return grid.min * math.exp(step * random.Random(self.seed).random())

    def argvs(self, out_dir):
        extra = []
        if self.alpha_min() is not None:
            extra += ["--alpha-min", repr(self.alpha_min())]
        if self.tiny:
            extra += ["--alpha-count", str(TINY_ALPHA_COUNT)]
        return [
            ["sweep", "--quantity", qty, "--out", os.path.join(out_dir, f"{qty}.csv"), *extra]
            for qty in QUANTITIES
        ]

    def check(self, out_dir, codes):
        digest = hashlib.sha256()
        items = failed = 0
        for qty, code in zip(QUANTITIES, codes):
            data = Path(out_dir, f"{qty}.csv").read_bytes()
            digest.update(data)
            rows = data.decode("utf-8").splitlines()[1:]
            bad = sum(row.rsplit(",", 1)[-1] not in ("ok", "out_of_domain") for row in rows)
            items += len(rows)
            failed += bad or int(code != 0)
        return {"items": items, "failed": failed, "digest": digest.hexdigest(), "findings": []}


class Simulate(Workload):
    def calibrate(self) -> float:
        """Wall seconds of a fixed numpy gather: random indices over a
        10**6-element array, then the mean of the gathered values, eight
        times.  That is the memory-bound work of a bootstrap resample, and
        it follows the host's memory contention, which the float loop does
        not.  Its arrays are freed before the next pass, so it does not
        raise the pass's peak RSS.
        """
        import numpy

        rng = numpy.random.default_rng(CALIBRATION_SEED)
        start = time.perf_counter()
        values = rng.random(SIMULATE_TRIALS)
        acc = 0.0
        for _ in range(CALIBRATION_RESAMPLES):
            acc += numpy.mean(values[rng.integers(0, SIMULATE_TRIALS, size=SIMULATE_TRIALS)])
        return time.perf_counter() - start

    def trials(self):
        return TINY_TRIALS if self.tiny else SIMULATE_TRIALS

    def argvs(self, out_dir):
        return [[
            "simulate", "--alpha", "2", "--q", "0.5", "--eps", str(SIMULATE_SHIFT),
            "--trials", str(self.trials()),
            "--bootstrap", str(SIMULATE_RESAMPLES),
            "--seed", str(self.seed),
            "--out", os.path.join(out_dir, "trial_report.json"),
        ]]

    def check(self, out_dir, codes):
        data = Path(out_dir, "trial_report.json").read_bytes()
        r = json.loads(data)
        ci_low, ci_high = r["generalized_error_ci_low"], r["generalized_error_ci_high"]
        error_sigma = (ci_high - ci_low) / (2.0 * Z_99)
        ok = (
            codes[0] in (0, 1)
            and r["trials"] == self.trials()
            and all(math.isfinite(v) for v in r.values())
            and ci_low <= r["empirical_generalized_error"] <= ci_high
            and abs(r["empirical_mean"] - SIMULATE_SHIFT) <= SIMULATE_SIGMAS * r["mean_std_error"]
            and abs(r["empirical_generalized_error"] - r["predicted_mean_error"]) <= SIMULATE_SIGMAS * error_sigma
        )
        # Exit 1 alone (the CLI's 3-sigma or 99% interval rule) is a finding.
        findings = ["simulate exit 1: the CLI's statistical rule failed on this seed"] if codes[0] == 1 else []
        items = self.trials()
        return {"items": items, "failed": 0 if ok else items, "digest": hashlib.sha256(data).hexdigest(), "findings": findings}


WORKLOADS = {"verify": Verify, "sweep": Sweep, "simulate": Simulate}


def run_pass(cli, workload, tmp_root, tracer):
    """One closed-loop pass: every argv of the workload, one after another."""
    with tempfile.TemporaryDirectory(dir=tmp_root) as out_dir:
        argvs = workload.argvs(out_dir)
        sink = io.StringIO()
        first_span = len(tracer.spans) if tracer else 0
        codes = []
        error = None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            cpu0 = time.process_time()
            wall0 = time.perf_counter()
            try:
                for argv in argvs:
                    if tracer:
                        codes.append(tracer.call("cli", "main", cli.main, (argv,), {}))
                    else:
                        codes.append(cli.main(argv))
            except Exception:
                error = traceback.format_exc()
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
        record = {"traced": tracer is not None, "wall_s": wall, "cpu_s": cpu}
        if error is None:
            try:
                record.update(workload.check(out_dir, codes))
            except (OSError, ValueError, KeyError, TypeError):
                error = traceback.format_exc()
        if error is not None:
            record.update({"items": 1, "failed": 1, "digest": None, "findings": [error]})
        record["output_bytes"] = len(sink.getvalue().encode()) + sum(
            p.stat().st_size for p in Path(out_dir).iterdir()
        )
        if tracer:
            tracer.end_pass()
            record["layers"] = layer_totals(tracer.spans[first_span:])
        return record


def time_setup():
    """Import time of one more fresh interpreter running this script."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout)["setup_s"]


def main(argv):
    workload_name, seed, seconds, trace, tiny, out_dir = argv
    seed, seconds, trace, tiny = int(seed), float(seconds), trace == "1", tiny == "1"
    import numpy

    workload = WORKLOADS[workload_name](CLI, seed, tiny)
    tmp_root = Path(out_dir, "tmp")
    tmp_root.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    passes = []
    setup_samples = [SETUP_S]
    start = time.perf_counter()
    cal_before = workload.calibrate()
    # A traced run alternates untraced and traced passes, so both sides see
    # the same machine state and the difference is the tracing overhead.
    min_passes = 2 if trace else 1
    while len(passes) < min_passes or (
        time.perf_counter() - start + statistics.median(p["wall_s"] + p["cal_s"] for p in passes) <= seconds
    ):
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            record = run_pass(CLI, workload, tmp_root, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        cal_after = workload.calibrate()
        record["cal_s"] = 0.5 * (cal_before + cal_after)
        cal_before = cal_after
        passes.append(record)
        # Probes are spread evenly over the run, the first after pass one.
        probes = len(setup_samples) - 1
        if probes < SETUP_PROBES and time.perf_counter() - start >= probes * seconds / SETUP_PROBES:
            setup_samples.append(time_setup())
            cal_before = workload.calibrate()
    print(json.dumps({
        "setup_samples_s": setup_samples,
        "measured_s": time.perf_counter() - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "genfisher_version": getattr(sys.modules["genfisher"], "__version__", "unknown"),
        "genfisher_file": sys.modules["genfisher"].__file__,
        "numpy_version": numpy.__version__,
        "python": sys.version.split()[0],
        "argvs": workload.argvs("<tmp>"),
        "passes": passes,
        "spans": tracer.spans if tracer else [],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
