"""Self-test of the benchmark: every workload and gate in quick mode, both trace modes.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = [sys.executable, str(HERE / "run.py")]


def _run(*args, cwd=ROOT):
    return subprocess.run([*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def quick_results():
    results = {}
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            proc = _run("--workload", w["name"], "--seed", "3", "--quick", "--trace", str(trace))
            assert proc.returncode == 0, proc.stderr
            results[w["name"], trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return results


def test_workload_names_agree():
    declared = [w["name"] for w in SPEC["workloads"]]
    assert list(run.WORKLOAD_NAMES) == declared == list(workloads.WORKLOADS)


def test_quick_runs_pass_every_gate_and_report_declared_metrics(quick_results):
    for (name, trace), result in quick_results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, name
        section = SPEC["per_layer" if trace else "end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in section], name
        for m in section:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if not trace:
            assert all(v["value"] > 0 for v in result["metrics"].values()), name


def test_every_layer_metric_is_measured_somewhere(quick_results):
    traced = [r["metrics"] for (_, trace), r in quick_results.items() if trace]
    never = [m["name"] for m in SPEC["per_layer"]
             if not any(metrics[m["name"]]["value"] for metrics in traced)]
    assert never == []


def test_layer_counts_repeat_exactly_for_a_seed(quick_results):
    proc = _run("--workload", "quadrature_sweep", "--seed", "3", "--quick", "--trace", "1")
    again = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    first = quick_results["quadrature_sweep", 1]["metrics"]
    for name in ("elliptic.jacobi.calls", "elliptic.jacobi.points", "hill.potential_calls",
                 "index_engine.quad_calls", "elliptic.agm_capped_share"):
        assert again[name] == first[name], name


def test_run_fails_without_the_program():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, str(bare / HERE.name / "run.py"), "--workload",
                               "evolve_to_T", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
        assert proc.returncode != 0 and proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:   # a benchmark run still uses it
            pass


def test_self_time_excludes_child_spans():
    spans = [["outer", 0.0, 10.0, -1, 0, None], ["inner", 2.0, 5.0, 0, 0, None],
             ["inner", 6.0, 7.0, 0, 0, None], ["leaf", 3.0, 4.0, 1, 0, None]]
    totals = tracing.span_totals(spans)
    assert totals["outer"] == (1, 10.0, 6.0)
    assert totals["inner"] == (2, 4.0, 3.0)
    assert totals["leaf"] == (1, 1.0, 1.0)


def test_agm_cap_property_of_the_sweep_moduli():
    # moduli of the tests' 0.05 sweep whose AGM loop runs to its cap, and some that do not
    assert all(workloads.agm_runs_to_cap(k) for k in (0.35, 0.6, 0.75, 0.95))
    assert not any(workloads.agm_runs_to_cap(k) for k in (0.1, 0.2, 0.3, 0.5))


def test_quadrature_inputs_follow_the_seed():
    def rows(seed):
        wl = workloads.QuadratureSweep(seed, False, None, {})
        wl.prepare()
        return wl.items

    assert rows(5) == rows(5) and rows(5) != rows(6)
    draws = [k for _, k, ref in rows(5) if ref is None]
    assert len(draws) == 20 and sum(map(workloads.agm_runs_to_cap, draws)) == 5


def test_scaled_time_follows_the_probe():
    ref = speed.REFERENCE_S["interpreter"]
    assert speed.scale(2.0, ref, "interpreter") == 2.0
    assert speed.scale(2.0, 2 * ref, "interpreter") == 1.0
    assert all(speed.probe(kind) > 0 for kind in speed.REFERENCE_S)
