"""The CLI on random argv: every run ends in a known exit code.

Each command gets a random subset of its flags (simulate always gets its
required ``--alpha``), with values drawn from zero, -1, +-inf, nan, a few
ordinary values and magnitudes log-spaced from 1e-320 to 1.7e308; grid sizes
and trial counts are capped so a run stays short.
Every run must exit 0, 1 or 2 without an exception escaping ``main``, and a
run that exits 0 must have produced something: a sweep row that is ``ok`` or
a verify parity line that passed.  Hypothesis runs derandomized, so every
run draws the same argv.
"""

import contextlib
import io
import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from genfisher.cli import QUANTITIES, main

VALUES = st.one_of(
    st.sampled_from(["0", "-1", "inf", "-inf", "nan", "0.25", "0.5", "1", "2", "4"]),
    st.floats(-320.0, math.log10(1.7e308)).map(lambda k: repr(10.0**k)),
)
LISTS = st.lists(VALUES, min_size=1, max_size=2).map(",".join)
COUNTS = st.integers(-1, 4).map(str)
SPACINGS = st.sampled_from(["log", "linear"])

FLAGS = {
    "verify": {"--alphas": LISTS, "--qs": LISTS, "--energy": VALUES, "--tol": VALUES},
    "sweep": {
        "--quantity": st.sampled_from(QUANTITIES),
        "--q": LISTS,
        "--energy": VALUES,
        "--alpha-min": VALUES,
        "--alpha-max": VALUES,
        "--alpha-count": COUNTS,
        "--alpha-spacing": SPACINGS,
        "--tol": VALUES,
    },
    "simulate": {
        "--energy": VALUES,
        "--gamma": VALUES,
        "--q": VALUES,
        "--eps": VALUES,
        "--trials": st.integers(-1, 2_000).map(str),
        "--seed": st.integers(-1, 3).map(str),
    },
    "surface": {
        "--energy": VALUES,
        "--alpha-min": VALUES,
        "--alpha-max": VALUES,
        "--alpha-count": COUNTS,
        "--alpha-spacing": SPACINGS,
        "--x-min": VALUES,
        "--x-max": VALUES,
        "--x-count": COUNTS,
    },
}
REQUIRED = {"simulate": {"--alpha": VALUES}}
ARGV = st.sampled_from(sorted(FLAGS)).flatmap(
    lambda command: st.fixed_dictionaries(REQUIRED.get(command, {}), optional=FLAGS[command]).map(
        lambda flags: [command] + [part for flag, value in flags.items() for part in (flag, value)]
    )
)


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "out"


@settings(max_examples=150, derandomize=True, deadline=None)
@given(argv=ARGV)
def test_random_argv_exits_cleanly(out_path, argv):
    out_path.unlink(missing_ok=True)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv + ["--out", str(out_path)])
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in stderr.getvalue(), argv
    if code != 0:
        return
    text = out_path.read_text(encoding="utf-8")
    if argv[0] == "sweep":
        assert any(row.endswith(",ok") for row in text.splitlines()), argv
    elif argv[0] == "verify":
        parity = [line for line in text.splitlines() if line.startswith("parity ")]
        assert any(line.endswith(" PASS") for line in parity), argv
