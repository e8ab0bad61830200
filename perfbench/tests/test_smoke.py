"""The benchmark end to end in smoke mode: every workload, both kinds of run.

Smoke mode shrinks the inputs, not the checks, so a fault the full benchmark
would report makes these tests fail too.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_run(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0, m["name"]
    assert len(out["metrics"]) == len(SPEC["end_to_end"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_counts_repeat(workload):
    first = _run(workload, 1)
    second = _run(workload, 1)
    assert first.returncode == 0 and second.returncode == 0, first.stderr + second.stderr
    a = json.loads(first.stdout.strip().splitlines()[-1])
    b = json.loads(second.stdout.strip().splitlines()[-1])
    assert a["correct"] and b["correct"]
    assert sorted(a["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    for m in SPEC["per_layer"]:
        assert a["metrics"][m["name"]]["unit"] == m["unit"]
        if m["unit"] == "count":
            assert a["metrics"][m["name"]]["value"] == b["metrics"][m["name"]]["value"], m["name"]


def test_layers_that_run_report_calls():
    out = json.loads(_run("preset-runs", 1).stdout.strip().splitlines()[-1])["metrics"]
    for name in ("series.mul.calls", "series.compose_shift.calls", "series.exp_star.calls",
                 "series.log_star.calls", "series.evaluate.calls", "generator.apply_l.calls",
                 "generator.apply_r.calls", "odeflow.rhs_calls", "characteristics.values.calls",
                 "models.oracle.calls"):
        assert out[name]["value"] > 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("mc-euler", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
