"""dswlab benchmark: one workload per run, end-to-end metrics or a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload quadrature_sweep --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --workload cli_tables --seed 1 --quick --trace 1

``--trace 0`` times the workload's fixed batch with tracing off and reports
every end-to-end metric of BENCHMARK.json. ``--trace 1`` runs the batch once
untraced and once with span wrappers installed, and reports every per-layer
metric, the tracing overhead among them. ``--quick`` shrinks every workload to
a few items that still pass every gate. The last line of standard output is
the result; the line before it holds provenance and the gates' figures.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("quadrature_sweep", "collocation_spectra", "evolve_to_T", "cli_tables")
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
SETUP_REPEATS = 5
TAIL_PCT = 90.0   # percentile of the items' fastest times reported as item_ms_tail


@dataclass
class Pass:
    item_s: dict = field(default_factory=dict)   # item index -> seconds
    probe_s: dict = field(default_factory=dict)  # item index -> mean of the probes around it
    ok: int = 0
    failed: int = 0

    @property
    def wall_s(self) -> float:
        return sum(self.item_s.values())


def run_item(wl, index, item, into: Pass, tracer=None) -> None:
    """Time one call into dswlab, then check its output untimed."""
    if tracer is not None:
        tracer.item = index
        tracer.recording = True
    start = time.perf_counter()
    try:
        out = wl.run(item)
    except Exception:  # noqa: BLE001 - a failing item is counted, the run goes on
        out = None
        error = traceback.format_exc()
    else:
        error = None
    finally:
        into.item_s[index] = time.perf_counter() - start
        if tracer is not None:
            tracer.recording = False
    if error is None:
        try:
            wl.check(item, out)
        except Exception:  # noqa: BLE001
            error = traceback.format_exc()
    if error is None:
        into.ok += 1
    else:
        into.failed += 1
        sys.stderr.write(f"{wl.name} item {index} failed:\n{error}")


def run_pass(wl, backwards: bool = False) -> Pass:
    """One pass over the batch; ``backwards`` reverses the order, so that an
    item's repeats fall at different moments of the run."""
    import speed

    result = Pass()
    order = range(len(wl.items) - 1, -1, -1) if backwards else range(len(wl.items))
    kind = wl.probe_kind
    before = speed.probe(kind)
    for index in order:
        run_item(wl, index, wl.items[index], result)
        after = speed.probe(kind)
        result.probe_s[index] = 0.5 * (before + after)
        before = after
    return result


def run_traced_pass(wl, tracer):
    """Each item untraced, then at once traced, so that the pair shares the
    machine's momentary speed; returns (untraced, traced) passes."""
    import tracing

    base, traced = Pass(), Pass()
    for index, item in enumerate(wl.items):
        run_item(wl, index, item, base)
        with tracing.installed(tracer):
            run_item(wl, index, item, traced, tracer)
    return base, traced


def fresh_import_s(modules, env, cwd) -> float:
    """Wall time of a new interpreter that imports ``modules`` and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import " + ", ".join(modules)], env=env, cwd=cwd,
                   check=True, timeout=120)
    return time.perf_counter() - start


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def blas_info() -> dict:
    """OpenBLAS build and live thread count, read from the loaded library."""
    import ctypes

    info = {"threads_requested": BLAS_THREADS, "libraries": []}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return info
    for path in paths:
        entry = {"path": os.path.basename(path)}
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    entry.update(threads=threads(), config=config().decode())
                    break
            if "threads" in entry:
                break
        info["libraries"].append(entry)
    return info


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_info(), "cpu": cpu_model(),
            "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(), "seed": seed}


def declared(spec: dict, section: str, computed: dict) -> dict:
    """The section's metrics in BENCHMARK.json order, each with its unit."""
    units = {m["name"]: m["unit"] for m in spec[section]}
    unknown = sorted(set(computed) - set(units))
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json {section}: {unknown}")
    return {name: {"value": computed[name], "unit": unit} for name, unit in units.items()}


def measure(wl, args, env, work_dir, spec):
    """Run the workload; return (attempted, failed, metrics, details)."""
    import numpy as np

    import speed
    import tracing

    seconds = 0 if args.quick else args.seconds
    repeats = 1 if args.quick else SETUP_REPEATS
    wl.prepare()
    wl.warm()
    details = {}
    if not args.trace:
        setup, setup_raw = [], []
        before = speed.probe("process")
        for _ in range(repeats):
            setup_raw.append(fresh_import_s(wl.modules, env, work_dir))
            after = speed.probe("process")
            setup.append(speed.scale(setup_raw[-1], 0.5 * (before + after), "process"))
            before = after
        # whole passes while the next one is expected to end within ``seconds``;
        # two at least, so that every output is compared with a repeat
        passes, start = [], time.perf_counter()
        while True:
            passes.append(run_pass(wl, backwards=len(passes) % 2 == 1))
            done = len(passes)
            if done >= 2 and (time.perf_counter() - start) * (done + 1) / done > seconds:
                break
        # each item at its median repeat, every repeat scaled to the reference
        # speed by the probes around it (see speed.py and README, Steadiness)
        kind = wl.probe_kind
        raw = [[p.item_s[i] for p in passes] for i in range(len(wl.items))]
        per_item = [statistics.median(speed.scale(p.item_s[i], p.probe_s[i], kind)
                                      for p in passes) for i in range(len(wl.items))]
        wall = sum(per_item)
        ok_per_pass = sum(p.ok for p in passes) / len(passes)
        metrics = declared(spec, "end_to_end", {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "items_per_s": ok_per_pass / wall,
            "item_ms_p50": 1e3 * statistics.median(per_item),
            "item_ms_tail": 1e3 * float(np.percentile(per_item, TAIL_PCT)),
            "peak_rss_mb": peak_rss_mb(wl.rss_of_children),
        })
        details.update(samples=sum(map(len, raw)), tail_percentile=TAIL_PCT, probe=kind,
                       probe_ms_median=1e3 * statistics.median(
                           p.probe_s[i] for p in passes for i in p.probe_s),
                       raw_wall_s=sum(map(statistics.median, raw)),
                       raw_setup_s=statistics.median(setup_raw),
                       timed_s=time.perf_counter() - start,
                       pass_s=[round(p.wall_s, 4) for p in passes],
                       **wl.item_figures(per_item))
    else:
        passes = []
        wl.before_trace(lambda w: passes.append(run_pass(w)))
        tracer = tracing.Tracer()
        passes.extend(run_traced_pass(wl, tracer))
        computed = tracing.layer_metrics(tracer, wl.problem_steps())
        computed.update(wl.layer_extras())
        computed["cli.import_s"] = statistics.median(
            fresh_import_s(("dswlab.cli",), env, work_dir) for _ in range(repeats))
        computed["trace.overhead_ratio"] = passes[-1].wall_s / passes[-2].wall_s - 1.0
        metrics = declared(spec, "per_layer", {**dict.fromkeys(
            (m["name"] for m in spec["per_layer"]), 0), **computed})
        details.update(untraced_s=passes[-2].wall_s, traced_s=passes[-1].wall_s,
                       spans=len(tracer.spans), per_call_ms={
            name: 1e3 * total / calls for name, (calls, total, _) in
            sorted(tracing.span_totals(tracer.spans).items())})
    attempted = sum(p.ok + p.failed for p in passes)
    failed = sum(p.failed for p in passes)
    details.update(passes=len(passes), items_per_pass=len(wl.items),
                   fail_ratio=failed / attempted, **wl.details())
    return attempted, failed, metrics, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=26.0,
                    help="timed duration, in whole passes over the batch; at least two")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="minimal sizes: every workload and gate in a few seconds")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "dswlab" / "__init__.py").is_file():
        print(f"error: no dswlab sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    # Fix the BLAS thread count before numpy is first imported, here and in
    # every subprocess, so that the figures do not depend on the machine's size.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    env = dict(os.environ, PYTHONPATH=str(src))
    sys.path.insert(0, str(src))
    import workloads

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.quick, work_dir, env)
        for module in wl.modules:
            importlib.import_module(module)
        attempted, failed, metrics, details = measure(wl, args, env, work_dir, spec)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:   # another run still uses it
            pass
    print(json.dumps({"workload": args.workload, "trace": args.trace, "quick": args.quick,
                      "provenance": provenance(args.seed), **details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
