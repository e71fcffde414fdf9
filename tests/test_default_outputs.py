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
    (["verify"], "4c49e4b84cddefa5c355b91d3ca5de69f08edbfe42298b7c38e9bd692fac2bba", 133, 67_320),
    (["sweep", "--quantity", "eps_min"],
     "1f2349ec25308df126e7be3742c0ead77cb31420d4f80f91a709910e2850a3c9", 180, 81_540),
    (["sweep", "--quantity", "posterior_width"],
     "5ca592883f26fc40e187577ef9eab19093eb8e1422ddd711ca488c5140b51dc0", 180, 81_480),
    (["sweep", "--quantity", "mean_error"],
     "07abb123a1403c002732ffa9a7de7b958dc585799e010af9b6a8f192739887ed", 180, 76_530),
    (["sweep", "--quantity", "fisher"],
     "95a591ba90e54c02feb9617881c916ab67183000416a1670ca5af0779ee32ef1", 180, 81_540),
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
# code gate where the out_of_range rule is applied.  The argv lists and exit
# codes are those of tests/test_cli.py::OUT_OF_RANGE.
OUT_OF_RANGE_RUNS = [
    (["verify", "--alphas", "2", "--qs", "1e-3"], 1,
     "9003dacbc0e663fe5929c381bbf92341ceb72dc8237a31bc4909317ab821b24f"),
    (["verify", "--energy", "1e-300"], 0,
     "03b6c74d1f771f752c0f71b66a5e6c478e6c805530d68eeaea5af4b88e62d121"),
    (["sweep", "--quantity", "fisher", "--q", "1e-3"], 1,
     "8963133fbba418f4de980acd3ee54546d482d0af60b7a075c5ad46cb226c307e"),
    (["sweep", "--quantity", "fisher", "--energy", "1e300"], 0,
     "7101752134f13fc09cbbed0bdfd8b7cd1e4549d0fc20c68ccfc078b7b2d42e2f"),
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
