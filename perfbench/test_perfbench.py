"""Fast self-test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_and_self_times_add_up(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected

    report = json.loads((HERE / "out" / f"{workload}-seed3-trace1-tiny.json").read_text())
    assert not any("differs between passes" in f for f in report["findings"])
    traced = [p for p in report["passes"] if p["traced"]]
    assert traced
    for p in traced:
        layers = p["layers"]
        self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        assert self_sum == pytest.approx(layers["cli.outer_s"], rel=1e-9)
        assert self_sum == pytest.approx(p["wall_s"], rel=0.05, abs=2e-3)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("verify", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
