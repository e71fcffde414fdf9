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
    (["verify"], "6755d4ffe18b938a7c111ea3e2372be9965b14f6c020ffe81f069ff556e3dcce", 133, 58_290),
    (["sweep", "--quantity", "eps_min"],
     "2afd7259ab3c926e33aa206d4059af80cd9204a1d4f3c68278f6b23fce4bf2c9", 180, 56_820),
    (["sweep", "--quantity", "posterior_width"],
     "c0f85084fb35c19fdea396720b5bc8e4d5c08b2328df2201ba92832d18f004cb", 180, 55_350),
    (["sweep", "--quantity", "mean_error"],
     "95760c3e3285a94c27318f85ca32771f8f81fb1fb1a9196088f6c96d88c741cf", 180, 50_940),
    (["sweep", "--quantity", "fisher"],
     "770eaf69c0b7f1ef091b0880d4732ef6a072e5980df5fdebf573ee2ade478112", 180, 56_820),
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
     "614098400fcc896c1a48855a42e858640a7a42af4faae6488c28d6f14133f95b"),
    (["verify", "--energy", "1e-300"], 0,
     "83d5a80b2971e2b4a7d80852db8a108af87d74c21193047c81d46b027da95fe4"),
    (["sweep", "--quantity", "fisher", "--q", "1e-3"], 1,
     "8963133fbba418f4de980acd3ee54546d482d0af60b7a075c5ad46cb226c307e"),
    (["sweep", "--quantity", "fisher", "--energy", "1e300"], 0,
     "8d66e09b67b4c53396e22f393406b5ca9731432e957a56b95f636127ebd1356c"),
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
