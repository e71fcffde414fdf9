"""Every demo script runs to the end."""

import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import _module_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(tmp_path, demo):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path, env=_module_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
