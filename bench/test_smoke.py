"""Smoke test of the benchmark harness: tiny inputs, every check on.

    python3 -m pytest -q bench/test_smoke.py

Each workload runs in both modes with --smoke, so a broken harness or a
changed answer fails here in seconds instead of after a full run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, workload, trace, *extra):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_passes_every_check(workload, trace):
    proc = run_bench(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    result = lines[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    ops = [line for line in lines[:-1] if line.get("record") == "op"]
    assert len(ops) == result["attempted"]
    assert all(op["ok"] and op["values"] for op in ops)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if trace:
        spans = next(line for line in lines if line.get("record") == "spans")
        assert spans["count"] > 0 and (ROOT / spans["path"]).is_file()
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_refuses_to_run_without_the_package():
    bare = ROOT / "bench" / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(bare, "primitives", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
