"""The benchmark's quick mode: every workload BENCHMARK.json declares runs and passes its gates.

A change that breaks a call the benchmark makes, one of its gates or a CSV
column it reads fails here. About 10 s for the four workloads.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_passes_every_gate(workload):
    run = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
                          workload, "--seed", "1", "--quick", "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, run.stderr
