"""genfisher benchmark: verify, sweep and simulate CLI workloads.

    python3 perfbench/run.py --workload {verify,sweep,simulate} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each run starts one fresh single-threaded
worker (``worker.py``) that imports the package once and calls
``genfisher.cli.main(argv)`` pass after pass for about ``--seconds``; between
passes it times the import in a few more fresh interpreters.  Every pass
writes to its own temporary directory and its output is checked.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, including
the tracing overhead.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a results file
with the machine manifest, every pass, the findings and (traced) the spans
is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"
WORKLOADS = ("verify", "sweep", "simulate")
MEASURE_GROUPS = ("distance", "fisher", "width", "mean_error", "closed")
# Counters that must repeat exactly for a workload and seed.
GATED_COUNTERS = ("numerics.calls", "numerics.evals", "probe.draws", "estimation.resamples")
PER_LAYER_UNITS = {
    "numerics.calls": "count",
    "numerics.evals": "count",
    "numerics.busy_s": "s",
    "numerics.ns_per_eval": "ns",
    "numerics.converged_ratio": "ratio",
    "numerics.max_call_evals": "count",
    **{f"measures.{g}.{k}": u for g in MEASURE_GROUPS for k, u in (("self_s", "s"), ("calls", "count"))},
    "measures.convergence_errors": "count",
    "measures.domain_errors": "count",
    "probe.sample.calls": "count",
    "probe.draws": "count",
    "probe.sample_s": "s",
    "probe.ns_per_draw": "ns",
    "estimation.run_trials_s": "s",
    "estimation.self_s": "s",
    "estimation.resamples": "count",
    "estimation.ms_per_resample": "ms",
    "estimation.bytes_computed": "B",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "wall.pass_s_p50": "s",
    "wall.pass_s_p75": "s",
    "wall.cpu_s_p50": "s",
    "wall.items_per_s": "1/s",
    "wall.calibration_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.untraced_passes": "count",
    "trace.traced_passes": "count",
    "failed_ratio": "ratio",
}
# Every run must end within 180 s.
RUN_LIMIT_S = 170.0
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def p75(values):
    """Upper quartile: the highest percentile with about ten passes beyond
    it in a 40 s run of ``sweep`` or ``simulate``."""
    values = list(values)
    return values[0] if len(values) == 1 else statistics.quantiles(values, n=4, method="inclusive")[2]


def spawn(args):
    """Run the worker to completion and return its last stdout line."""
    env = {**os.environ, **SINGLE_THREAD_ENV}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=RUN_LIMIT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def untraced(result):
    return [p for p in result["passes"] if not p["traced"]]


def wall_clock(passes):
    """Raw wall and CPU times of the passes (unbounded: they follow the
    host's speed drift)."""
    wall = [p["wall_s"] for p in passes]
    return {
        "wall.pass_s_p50": statistics.median(wall),
        "wall.pass_s_p75": p75(wall),
        "wall.cpu_s_p50": statistics.median(p["cpu_s"] for p in passes),
        "wall.items_per_s": sum(p["items"] for p in passes) / sum(wall),
        "wall.calibration_s": statistics.median(p["cal_s"] for p in passes),
    }


def end_to_end(result):
    """Pass times in calibration units: each pass's wall (or CPU) seconds
    over the calibration loop timed around it."""
    passes = untraced(result)
    cal = [p["wall_s"] / p["cal_s"] for p in passes]
    return {
        "pass_cal_p50": (statistics.median(cal), "cal"),
        "pass_cal_p75": (p75(cal), "cal"),
        "cpu_cal_p50": (statistics.median(p["cpu_s"] / p["cal_s"] for p in passes), "cal"),
        "items_per_cal": (statistics.median(p["items"] / c for p, c in zip(passes, cal)), "1/cal"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        # The fastest import: contention on a shared host only ever slows
        # one, and the median flips between the host's fast and slow states.
        "setup_s": (min(result["setup_samples_s"]), "s"),
    }


def pass_layer_metrics(t, output_bytes):
    """Per-layer metrics of one traced pass, from its ``layer_totals``."""
    g = lambda name: t.get(name, 0.0)  # noqa: E731

    def ratio(num, den, empty=0.0):
        return num / den if den else empty

    m = {
        "numerics.calls": g("numerics.calls"),
        "numerics.evals": g("numerics.evals"),
        "numerics.busy_s": g("numerics.outer_s"),
        "numerics.ns_per_eval": 1e9 * ratio(g("numerics.outer_s"), g("numerics.evals")),
        # 1 when there were no calls: no attempt failed.
        "numerics.converged_ratio": ratio(g("numerics.converged"), g("numerics.calls"), 1.0),
        "numerics.max_call_evals": g("numerics.max_call_evals"),
    }
    for group in MEASURE_GROUPS:
        m[f"measures.{group}.self_s"] = g(f"measures.{group}.self_s")
        m[f"measures.{group}.calls"] = g(f"measures.{group}.calls")
    m.update({
        "measures.convergence_errors": g("measures.convergence_errors"),
        "measures.domain_errors": g("measures.domain_errors"),
        "probe.sample.calls": g("probe.sample.calls"),
        "probe.draws": g("probe.draws"),
        "probe.sample_s": g("probe.sample.outer_s"),
        "probe.ns_per_draw": 1e9 * ratio(g("probe.sample.outer_s"), g("probe.draws")),
        "estimation.run_trials_s": g("estimation.outer_s"),
        "estimation.self_s": g("estimation.self_s"),
        "estimation.resamples": g("estimation.resamples"),
        "estimation.ms_per_resample": 1e3 * ratio(g("estimation.self_s"), g("estimation.resamples")),
        # Index draw (8 B) plus gathered value (8 B) per trial and resample,
        # computed from the sizes, not measured.
        "estimation.bytes_computed": 16 * g("estimation.resamples") * g("estimation.trials"),
        "cli.self_s": g("cli.self_s"),
        "cli.output_bytes": output_bytes,
    })
    return m


def per_layer(result, failed_ratio):
    plain = untraced(result)
    traced = [p for p in result["passes"] if p["traced"]]
    rows = [pass_layer_metrics(p["layers"], p["output_bytes"]) for p in traced]
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    metrics.update(wall_clock(plain))
    metrics["trace.overhead_ratio"] = statistics.median(p["wall_s"] / p["cal_s"] for p in traced) / statistics.median(
        p["wall_s"] / p["cal_s"] for p in plain
    )
    metrics["trace.untraced_passes"] = len(plain)
    metrics["trace.traced_passes"] = len(traced)
    metrics["failed_ratio"] = failed_ratio
    return {name: (value, PER_LAYER_UNITS[name]) for name, value in metrics.items()}


def gate(workload, seed, tiny, result):
    """Compare counters and output digests with ``reference.json``.

    Returns findings; a mismatch is reported by name, never hidden.  Tiny
    runs are only checked for passes that disagree: no reference covers them.
    """
    findings = []
    traced = [p for p in result["passes"] if p["traced"]]
    digests = sorted({p["digest"] for p in result["passes"] if p["digest"]})
    if len(digests) > 1:
        findings.append(f"output digest differs between passes: {digests}")
    measured = {}
    for name in GATED_COUNTERS:
        values = sorted({p["layers"].get(name, 0) for p in traced})
        if len(values) > 1:
            findings.append(f"counter {name} differs between passes: {values}")
        if values:
            measured[name] = values[0]
    if tiny:
        return findings, measured, digests
    refs = json.loads(REFERENCE.read_text()).get(workload, {})
    ref = refs.get(str(seed), refs.get("*"))
    if ref is None:
        findings.append(f"no reference counters or digest for {workload} seed {seed}")
        return findings, measured, digests
    for name, value in measured.items():
        if value != ref["counters"][name]:
            findings.append(f"counter mismatch {name}: reference {ref['counters'][name]}, measured {value}")
    if "sha256" in ref and digests and digests != [ref["sha256"]]:
        findings.append(f"output drift: reference sha256 {ref['sha256']}, measured {digests}")
    return findings, measured, digests


def git_commit():
    """HEAD commit read from ``.git`` without running git, if there is one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(args, result):
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "argv": sys.argv,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "program_argvs": result["argvs"],
        "python": result["python"],
        "numpy": result["numpy_version"],
        "genfisher": result["genfisher_version"],
        "genfisher_file": result["genfisher_file"],
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "genfisher" / "__init__.py").is_file():
        print(f"error: no genfisher sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    result = spawn([args.workload, str(args.seed), repr(args.seconds), str(args.trace), str(int(args.tiny)), str(OUT)])
    if not result["genfisher_file"].startswith(str(ROOT / "src")):
        print(f"error: imported genfisher from {result['genfisher_file']}", file=sys.stderr)
        return 2

    passes = result["passes"]
    attempted = sum(p["items"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    findings, counters, digests = gate(args.workload, args.seed, args.tiny, result)
    findings += [f for p in passes for f in p["findings"]]
    if args.trace:
        metrics = per_layer(result, failed / attempted)
    else:
        metrics = end_to_end(result)

    # Tiny runs of the self-test never overwrite a real run's results.
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    report = {
        "manifest": manifest(args, result),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup_samples_s": result["setup_samples_s"],
        "counters": counters,
        "output_sha256": digests,
        "findings": findings,
        "measured_s": result["measured_s"],
        "passes": passes,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            for span in result["spans"]:
                fh.write(json.dumps(span) + "\n")

    n_untraced = sum(not p["traced"] for p in passes)
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes ({n_untraced} untraced) "
          f"in {result['measured_s']:.1f} s; results in {OUT / (stem + '.json')}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for finding in findings:
        print(f"  finding: {finding.strip()}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
