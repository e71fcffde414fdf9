"""Default verify and sweep runs: output bytes and quadrature work are pinned.

Each default run writes a file with a fixed sha256 and makes a fixed number of
adaptive quadrature calls and integrand evaluations, counted through
``numerics._adaptive``.  A change to integrand arithmetic, split points,
tolerances or report formatting moves at least one of them; such a change is
a change of results and is re-recorded here on purpose, never in passing.
"""

import hashlib

import pytest

from genfisher.cli import main

# (argv, output sha256, adaptive quadrature calls, integrand evaluations)
DEFAULT_RUNS = [
    (["verify"], "7d2522f9959e0888c9c2cc9fc6df5ca7ba93ff3b0eff17eee50656e25f7757dd", 164, 173_460),
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
