"""Default verify and sweep runs, and the benchmark's seeded simulate run:
output bytes and quadrature work are pinned.

Each of these runs writes a file with a fixed sha256 and makes a fixed number of
adaptive quadrature calls and integrand evaluations, counted through
``numerics._adaptive``.  A change to integrand arithmetic, split points,
tolerances or report formatting moves at least one of them; such a change is
a change of results and is re-recorded here on purpose, never in passing.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import genfisher
from genfisher import cli
from genfisher.cli import main
from genfisher.measures import hellinger_distance
from genfisher.probe import ProbeDistribution

# (argv, output sha256, adaptive quadrature calls, integrand evaluations)
DEFAULT_RUNS = [
    (["verify"], "6e80b5a2b1fcf2e5eef0dc528c38a9c64d8c5a92aa608861a374790cf7f41ef8", 101, 21_750),
    (["sweep", "--quantity", "eps_min"],
     "93b9f19ddede39e872e156ddde07ccf1e588d09f18eca91c51686c9c5fa29d97", 180, 38_100),
    (["sweep", "--quantity", "posterior_width"],
     "de2b73e3da1b68710d4da9930804a56e86237fbdba545f3306fe8ff9120bcf0c", 60, 11_880),
    (["sweep", "--quantity", "mean_error"],
     "a94480f1055420587b552211bfffaea401f1600940159228aaf7f78d9b4b1227", 180, 34_380),
    (["sweep", "--quantity", "fisher"],
     "3db30281f4e2a4bce5e8949c780792e6554d272c094aeea56ea29197acbbccd3", 180, 38_100),
    # four partitions, two on each thread, so both threads' draws are in the bytes
    (["simulate", "--alpha", "2", "--q", "0.5", "--eps", "0.3", "--trials", "1000000", "--seed", "1"],
     "3162fe57dba2ca3e5183fa1cf43d516fdc3bcf049e04df95526cc31165103a1b", 0, 0),
]


@pytest.mark.parametrize(
    "argv, sha256, calls, evals",
    DEFAULT_RUNS,
    ids=[argv[0] if argv[0] == "simulate" else argv[-1] for argv, *_ in DEFAULT_RUNS],
)
def test_default_run_is_pinned(tmp_path, capsys, evaluations, argv, sha256, calls, evals):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
    assert (len(evaluations), sum(evaluations)) == (calls, evals)


# Each q > 1 leg of the default triangle scan integrates its crossing's piece
# under the power map: 180-240 evaluations, where the unmapped endpoint
# singularity (d/2)**(1/q) took 720-1020 (with 8 seed panels).
@pytest.mark.parametrize("q", [q for q in cli._TRIANGLE_QS if q > 1.0])
@pytest.mark.parametrize("alpha", cli._TRIANGLE_ALPHAS)
def test_triangle_legs_above_order_one_stay_cheap(alpha, q):
    dist = ProbeDistribution.from_shape_energy(alpha, 1.0)
    for s1, s2, s3 in cli._TRIANGLE_TRIPLES:
        for separation in (s2 - s1, s3 - s2, s3 - s1):
            result = hellinger_distance(dist, separation, q).quad_detail
            assert result.converged and result.evaluations <= 600, separation


# Only sampling needs numpy: with every numpy import made to fail, the CLI
# still runs each default verify and sweep to the same bytes, and ``surface``
# and ``--help`` still exit 0.
NO_NUMPY_RUNS = [(argv, sha256) for argv, sha256, _, _ in DEFAULT_RUNS if argv[0] != "simulate"]


@pytest.mark.parametrize(
    "argv, sha256",
    NO_NUMPY_RUNS + [(["surface"], None), (["--help"], None)],
    ids=[argv[-1] for argv, _ in NO_NUMPY_RUNS] + ["surface", "help"],
)
def test_runs_without_numpy(tmp_path, argv, sha256):
    out = tmp_path / "out"
    if argv != ["--help"]:
        argv = argv + ["--out", str(out)]
    src = str(Path(genfisher.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.modules['numpy'] = None; "
         "from genfisher.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if sha256 is not None:
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


# Runs whose closed values leave double range: the output bytes and the exit
# code gate where the out_of_range rule is applied.  The argv lists and exit
# codes are those of tests/test_cli.py::OUT_OF_RANGE.
OUT_OF_RANGE_RUNS = [
    (["verify", "--alphas", "2", "--qs", "1e-3"], 0,
     "d20d38dcbc2ec2038c10f8a4b79a223908f33830fa69ccf56593c83bd7b548b3"),
    (["verify", "--energy", "1e-300"], 0,
     "48af6d4b3c622cb6cfd3a5746c74b1ae15bc54d62b43a9ef6deb9744673f2e5a"),
    (["sweep", "--quantity", "fisher", "--q", "1e-3"], 1,
     "8963133fbba418f4de980acd3ee54546d482d0af60b7a075c5ad46cb226c307e"),
    (["sweep", "--quantity", "fisher", "--energy", "1e300"], 0,
     "2db505731b7fc2d17048e6e2d79ecd3cd07e877c081ac24fd663045883d216fe"),
]


@pytest.mark.parametrize(
    "argv, code, sha256",
    OUT_OF_RANGE_RUNS,
    ids=["verify_tiny_q", "verify_tiny_energy", "sweep_tiny_q", "sweep_huge_energy"],
)
def test_out_of_range_run_is_pinned(tmp_path, capsys, argv, code, sha256):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == code
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
