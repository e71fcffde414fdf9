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
from genfisher.cli import main

# (argv, output sha256, adaptive quadrature calls, integrand evaluations)
DEFAULT_RUNS = [
    (["verify"], "f108b3a6106480ccbd6dd1a996f0776ba5c70c1bbce4ae7a4c23985ae1387094", 133, 58_230),
    (["sweep", "--quantity", "eps_min"],
     "8235887349b9a95ea0e765d1cc286a805740df3c2ed602ece9d6fb58f061a796", 180, 51_960),
    (["sweep", "--quantity", "posterior_width"],
     "53c73c4a8b77c894e6a5ea19f3f9f237f507a72b7ad20423f4adbab24861989d", 180, 51_300),
    (["sweep", "--quantity", "mean_error"],
     "269be2867ef7b81f802e94cc6d93359f0f100b2066ff22be0c55ec9be0661f35", 180, 47_430),
    (["sweep", "--quantity", "fisher"],
     "cf47d09e2fe8f30cb36305b903f3bc467bc8aa467ff4aa6b505a83743e47f79c", 180, 51_960),
    # four partitions, so every prefetched gamma buffer is in the bytes
    (["simulate", "--alpha", "2", "--q", "0.5", "--eps", "0.3", "--trials", "1000000", "--seed", "1"],
     "ebb294be92d5f6889d176557abdfe5d552c6715dcba5dbca13848081ee997314", 0, 0),
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
     "5cab83aa4135cc4d138c9bd957b281d1b04d51561ddd2da66f7f61205815ac23"),
    (["verify", "--energy", "1e-300"], 0,
     "3c4cb84d378f6327beab90454d1e1a4da6174a9beb818a07410ce7d53752b1e6"),
    (["sweep", "--quantity", "fisher", "--q", "1e-3"], 1,
     "8963133fbba418f4de980acd3ee54546d482d0af60b7a075c5ad46cb226c307e"),
    (["sweep", "--quantity", "fisher", "--energy", "1e300"], 0,
     "bc256f753103b02cb1ff9e6a119a1766c060d99d82fe03a28123c4532836b207"),
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
