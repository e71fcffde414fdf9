"""Default verify and sweep runs: output bytes and quadrature work are pinned.

Each default run writes a file with a fixed sha256 and makes a fixed number of
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
    (["verify"], "7d2522f9959e0888c9c2cc9fc6df5ca7ba93ff3b0eff17eee50656e25f7757dd", 131, 141_300),
    (["sweep", "--quantity", "eps_min"],
     "fb9e5ed84e513645dce706878411c4fe948c3526c4849c14933589b09ed18b11", 180, 126_480),
    (["sweep", "--quantity", "posterior_width"],
     "1b3ca8b3afced293174bacd455105d93820a7527ebfbf47a2959054ac6be96ae", 180, 81_450),
    (["sweep", "--quantity", "mean_error"],
     "3619f010709ca21987bb5ccef3a3e51fe77c93b1b6833880edff45ab5d806e8d", 180, 204_120),
    (["sweep", "--quantity", "fisher"],
     "8c0e1213f503b996b396554f7d5024394dc6fdc3e9ef04b56ccec7524c0df1cc", 180, 126_480),
]


@pytest.mark.parametrize(
    "argv, sha256, calls, evals", DEFAULT_RUNS, ids=[run[0][-1] for run in DEFAULT_RUNS]
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
# code 1 gate where the out_of_range rule is applied.  The argv lists are
# those of tests/test_cli.py::OUT_OF_RANGE.
OUT_OF_RANGE_RUNS = [
    (["verify", "--alphas", "2", "--qs", "1e-3"],
     "d9f66dc11547aafa0b90b80652f03984e3c83486de9ec18cbcddf9314898c3b3"),
    (["verify", "--energy", "1e-300"],
     "2bac2ae34671b0b451b2b3b348134d811d4deb99104d198067975d614d7dd914"),
    (["sweep", "--quantity", "fisher", "--q", "1e-3"],
     "8963133fbba418f4de980acd3ee54546d482d0af60b7a075c5ad46cb226c307e"),
    (["sweep", "--quantity", "fisher", "--energy", "1e300"],
     "31a040457793ef2c7838e624c06b24740bab857ab83e7298f1df0af9b5872092"),
]


@pytest.mark.parametrize(
    "argv, sha256",
    OUT_OF_RANGE_RUNS,
    ids=["verify_tiny_q", "verify_tiny_energy", "sweep_tiny_q", "sweep_huge_energy"],
)
def test_out_of_range_run_is_pinned(tmp_path, capsys, argv, sha256):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
