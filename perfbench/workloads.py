"""The benchmark's workloads: inputs made from the seed, the timed call, and the gates.

Each workload is a fixed batch of items. ``run`` is the timed call into dswlab;
``check`` runs outside the timer and raises ``GateError`` when an output is
wrong. Gates use only dswlab's public functions and never encode the refuted
acceptance criteria 5-8.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# Calls go through the module attributes so that the tracer's wrappers see them.
from dswlab import cli, evolution, hill, index_engine, spectra, waves


class GateError(AssertionError):
    """An output failed one of the benchmark's correctness gates."""


def _gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


def _strata(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """One uniform draw in each of n equal strata of [lo, hi], in shuffled order."""
    edges = lo + (hi - lo) * (np.arange(n) + rng.uniform(size=n)) / n
    return rng.permutation(edges)


class Workload:
    """A fixed batch of items, built from the seed by ``prepare``."""

    name = ""
    modules: tuple = ()       # what a fresh interpreter imports for setup_s
    rss_of_children = False   # peak memory is that of the CLI subprocesses
    probe_kind = "interpreter"  # speed.py probe of the same kind of work as the items

    def __init__(self, seed: int, quick: bool, work_dir: Path, env: dict):
        self.seed = seed
        self.quick = quick
        self.work_dir = work_dir
        self.env = env
        self.rng = np.random.default_rng(seed)
        self.items: list = []

    def prepare(self) -> None:
        raise NotImplementedError

    def warm(self) -> None:
        """Untimed call that lets lazy set-up finish before timing."""

    def run(self, item):
        raise NotImplementedError

    def check(self, item, out) -> None:
        raise NotImplementedError

    def before_trace(self, run_pass) -> None:
        """Hook run before the traced pass; ``run_pass(self)`` runs one plain pass."""

    def problem_steps(self) -> dict:
        """{item index: (evolve problem, steps of one run)} for the evolution metrics."""
        return {}

    def layer_extras(self) -> dict:
        """Per-layer figures the workload measures itself rather than by spans."""
        return {}

    def item_figures(self, per_item_s: list) -> dict:
        """Figures of single items for the details line, from each item's scaled seconds."""
        return {}

    def details(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# quadrature_sweep

# The reference Floquet table (L, kappa, c, p'(0), q'(L), theta) with the
# three misprinted cells corrected as NOTES.md explains.
REFERENCE_TABLE = [
    (2, 0.1, 9.87007, 1.57475, 0.00205921, 0.00130764),
    (2, 0.2, 9.87731, 1.58687, 0.03585840, 0.022597),
    (2, 0.3, 9.91068, 1.60805, 0.210449, 0.130873),
    (3, 0.1, 4.3867, 1.04983, 0.00205916, 0.00196142),
    (3, 0.2, 4.38992, 1.05791, 0.0358583, 0.0338954),
    (3, 0.3, 4.40475, 1.07203, 0.210449, 0.196309),
    (4, 0.1, 2.46752, 0.787373, 0.00205919, 0.00261527),
    (4, 0.2, 2.46933, 0.793434, 0.0358584, 0.0451939),
    (4, 0.3, 2.47767, 0.804024, 0.210449, 0.261745),
    (4, 0.5, 2.56152, 0.842875, 2.77357, 3.29061),
    (4, 0.7, 2.95039, 0.92284, 30.2488, 32.7777),
    (10, 0.1, 0.394803, 0.314949, 0.00205909, 0.00653786),
    (10, 0.2, 0.395092, 0.317374, 0.0358584, 0.112985),
    (10, 0.4, 0.400374, 0.328, 0.830212, 2.53113),
    (50, 0.2, 0.0158037, 0.0634747, 0.0358582, 0.564921),
]


def agm_runs_to_cap(kappa: float, tol: float = 1e-17, max_iter: int = 64) -> bool:
    """Whether the descending AGM of modulus kappa never meets a relative
    stopping test of ``tol`` within ``max_iter`` terms.

    This is the input property that makes Jacobi evaluation ~6x dearer in the
    seed implementation; the benchmark computes it itself so that the inputs
    stay the same when the program changes.
    """
    a, b = 1.0, math.sqrt(1.0 - kappa * kappa)
    for _ in range(max_iter - 1):
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        if abs(c) <= tol * a:
            return False
    return True


class QuadratureSweep(Workload):
    """One item is one row of analytic classification.

    The seeded draws keep the share of AGM-capped moduli at its natural ~25%
    in every seed (5 of 20 draws), each class stratified in kappa and in log L,
    so that a run's cost does not swing with how many capped moduli the seed
    happened to draw. Capped rows cost 5-10x more, so they form the tail: the
    90th percentile of the 35 rows falls between the two cheapest capped rows.
    Twenty draws keep a pass near 5 s (more in a slow spell), so that a run
    repeats every row three to five times.
    """

    name = "quadrature_sweep"
    modules = ("dswlab.waves", "dswlab.hill", "dswlab.index_engine")
    KAPPA = (0.05, 0.95)
    L_RANGE = (0.5, 50.0)

    def prepare(self):
        refs = REFERENCE_TABLE if not self.quick else [REFERENCE_TABLE[2], REFERENCE_TABLE[13]]
        n_draws, n_capped = (20, 5) if not self.quick else (2, 1)
        lo, hi = math.log(self.L_RANGE[0]), math.log(self.L_RANGE[1])
        log_l = np.concatenate([_strata(self.rng, lo, hi, n_capped),
                                _strata(self.rng, lo, hi, n_draws - n_capped)])
        kappas = [self._draw(capped=True, n=n_capped, i=i) for i in range(n_capped)]
        kappas += [self._draw(capped=False, n=n_draws - n_capped, i=i)
                   for i in range(n_draws - n_capped)]
        self.items = [(float(L), float(k), (c, pp0, qpl, theta))
                      for L, k, c, pp0, qpl, theta in refs]
        self.items += [(float(math.exp(ll)), k, None) for ll, k in zip(log_l, kappas)]
        # spread each class over the pass, so that the machine's load at one
        # moment does not fall on all the capped rows at once
        self.items = [self.items[i] for i in self.rng.permutation(len(self.items))]
        self.worst = {"wronskian_drift": 0.0, "theta_cross_route": 0.0, "linv_roundtrip": 0.0,
                      "table": 0.0}

    def _draw(self, capped: bool, n: int, i: int) -> float:
        """Continuous kappa in stratum i of n, rejected until its AGM class matches."""
        lo, hi = self.KAPPA
        width = (hi - lo) / n
        for _ in range(10_000):
            kappa = float(lo + width * (i + self.rng.uniform()))
            if agm_runs_to_cap(kappa) == capped:
                return kappa
        raise RuntimeError(f"no {'capped' if capped else 'uncapped'} modulus in stratum {i}")

    def warm(self):
        self.run(self.items[0])

    def run(self, item):
        L, kappa, _ = item
        p = waves.params_from_kappa(L, kappa)
        sol = hill.integrate_hill_ivp(p)
        index = hill.inertial_index_from_theta(sol)
        d = index_engine.assemble_dmatrix(p)
        _, n_d = index_engine.hamiltonian_index(d)
        table = index_engine.build_varphi(p)
        psi, _ = waves.profile_grid(p, 256)
        return p, sol, index, d, n_d, psi, index_engine.linv_apply(p, table, psi)

    def check(self, item, out):
        L, kappa, ref = item
        p, sol, index, d, n_d, psi, inv = out
        where = f"(L={L:.6g}, kappa={kappa:.6g})"
        _gate(sol.theta > 0 and index == (1, 1), f"{where}: theta={sol.theta}, index={index}")
        _gate(d.det < 0 and n_d == 1, f"{where}: det D={d.det}, n(D)={n_d}")
        _gate(sol.wronskian_drift <= 1e-8, f"{where}: Wronskian drift {sol.wronskian_drift}")
        cross = abs(sol.theta + L * index_engine.a_integrals(p).A2 / p.K) / abs(sol.theta)
        _gate(cross <= 1e-6, f"{where}: theta vs -L*A2/K differ by {cross:.3e}")
        back = index_engine.lplus_apply(p, inv)
        roundtrip = float(np.max(np.abs(back - psi.samples)) / np.max(np.abs(psi.samples)))
        _gate(roundtrip <= 1e-7, f"{where}: L+ linv(psi) misses psi by {roundtrip:.3e}")
        worst = {"wronskian_drift": sol.wronskian_drift, "theta_cross_route": cross,
                 "linv_roundtrip": roundtrip}
        if ref is not None:
            got = (p.c, sol.p_prime_0, sol.q_prime_final, sol.theta)
            table = max(abs(g - r) / abs(r) for g, r in zip(got, ref))
            _gate(table <= 5e-4, f"{where}: reference row off by {table:.3e}")
            worst["table"] = table
        for key, value in worst.items():
            self.worst[key] = max(self.worst[key], float(value))

    def details(self):
        capped = [k for _, k, ref in self.items if ref is None and agm_runs_to_cap(k)]
        return {"rows": len(self.items), "agm_capped_draws": len(capped),
                "worst_gate_figures": self.worst}


# ---------------------------------------------------------------------------
# collocation_spectra

class CollocationSpectra(Workload):
    """One item is one seeded wave: three full eigensolves and the D-matrix oracle."""

    name = "collocation_spectra"
    modules = ("dswlab.waves", "dswlab.spectra", "dswlab.index_engine")
    probe_kind = "blas"
    SIZES = (128, 256, 384)
    ORACLE_N = 512
    ORACLE_GATE_KAPPA = 0.1   # criterion 4's range; below it agreement is reported only

    def prepare(self):
        n_waves = 3 if not self.quick else 1
        Ls = _strata(self.rng, 1.0, 4.0, n_waves)
        kappas = _strata(self.rng, 0.05, 0.95, n_waves)
        self.items = [(float(L), float(k)) for L, k in zip(Ls, kappas)]
        self.agreement = {}

    def warm(self):
        spectra.unstable_modes(waves.params_from_kappa(*self.items[0]), 128)

    def run(self, item):
        p = waves.params_from_kappa(*item)
        reports = [spectra.unstable_modes(p, N) for N in self.SIZES]
        oracle = spectra.dmatrix_via_collocation(p, self.ORACLE_N)
        return reports, oracle, index_engine.assemble_dmatrix(p).entries

    def check(self, item, out):
        L, kappa = item
        reports, oracle, quad = out
        where = f"(L={L:.6g}, kappa={kappa:.6g})"
        for r in reports:
            at = f"{where} N={r.N}"
            _gate(r.k_r == 0 and r.k_c == 0 and r.krein_negative == 0,
                  f"{at}: k_r={r.k_r} k_c={r.k_c} k_i-={r.krein_negative}")
            _gate(r.n_Lplus == (1, 1) and r.n_H == (1, 1), f"{at}: n(L+)={r.n_Lplus} n(H)={r.n_H}")
            _gate(min(r.kernel_overlap_Lplus, r.kernel_overlap_H) >= 1 - 1e-6,
                  f"{at}: kernel alignment {r.kernel_overlap_Lplus}, {r.kernel_overlap_H}")
            _gate(r.symmetry_residual <= 1e-7, f"{at}: quadruplet symmetry {r.symmetry_residual}")
        entry = float(np.max(np.abs(quad - oracle) / np.abs(oracle)))
        self.agreement[item] = {
            "L": L, "kappa": kappa, "gated": kappa >= self.ORACLE_GATE_KAPPA,
            "max_entry_rel": entry,
            "D01_rel": float(abs(quad[0, 1] - oracle[0, 1]) / abs(oracle[0, 1])),
            "norm_rel": float(np.linalg.norm(quad - oracle) / np.linalg.norm(oracle)),
        }
        if kappa >= self.ORACLE_GATE_KAPPA:
            _gate(entry <= 1e-6, f"{where}: oracle disagrees by {entry:.3e}")

    def details(self):
        return {"oracle_n": self.ORACLE_N, "sizes": list(self.SIZES),
                "oracle_agreement": sorted(self.agreement.values(), key=lambda a: a["kappa"])}


# ---------------------------------------------------------------------------
# evolve_to_T

class _Problem:
    """One run to time T at the largest usable step of a fixed ladder.

    The step is chosen when the problem is built, outside the timed phase.
    Ladder runs that blow up count in ``blowups``; each rejected rung is logged.
    """

    name = ""
    LADDER: tuple = ()
    GATE = 0.0

    def __init__(self, rng, quick: bool):
        self.u0, self.v0, self.T = self.initial_data(rng, quick)
        self.blowups = 0
        self.ladder = []
        self.dt = None
        for dt in self.LADDER:
            try:
                err = self.error(self.simulate(dt))
            except evolution.BlowUpError as exc:
                self.blowups += 1
                self.ladder.append({"dt": dt, "blowup_at": exc.t_last})
                continue
            self.ladder.append({"dt": dt, "error": err})
            if err <= self.GATE:
                self.dt = dt
                break
        if self.dt is None:   # nothing passes: time the finest rung and let its gate fail
            self.dt = self.LADDER[-1]
        self.steps = int(round(self.T / self.dt))

    def initial_data(self, rng, quick):
        raise NotImplementedError

    def error(self, traj) -> float:
        raise NotImplementedError

    def simulate(self, dt):
        return evolution.simulate(self.u0, self.v0, self.T, dt)

    def check(self, traj):
        err = self.error(traj)
        _gate(err <= self.GATE, f"{self.name} at dt={self.dt}: error {err:.3e} above {self.GATE}")

    def details(self):
        return {"problem": self.name, "T": self.T, "N": self.u0.N, "gate": self.GATE,
                "dt_usable": self.dt, "steps": self.steps, "ladder": self.ladder}


class StiffProblem(_Problem):
    """Wave (2, 0.3) in the lab frame; error against the exact translate psi(x - cT).

    Fields of size ~10 make the integrating-factor stepper unstable well below
    the advective step limit, and Python overhead dominates each N=128 step.
    The seed changes nothing.
    """

    name = "stiff"
    LADDER = (1e-3, 5e-4, 2e-4, 1e-4, 5e-5)
    GATE = 1e-6

    def initial_data(self, rng, quick):
        self.wave = waves.params_from_kappa(2.0, 0.3)
        u0, v0 = waves.profile_grid(self.wave, 128)
        return u0, v0, 0.5 if not quick else 0.15

    def error(self, traj):
        last = traj.states[-1]
        psi, phi = waves.eval_profile(self.wave, self.u0.x - self.wave.c * last.t)
        u, v = last.u_hat, last.v_hat
        return max(float(np.max(np.abs(np.fft.ifft(u).real - psi)) / np.max(np.abs(psi))),
                   float(np.max(np.abs(np.fft.ifft(v).real - phi)) / np.max(np.abs(phi))))


class BroadbandProblem(_Problem):
    """Seeded smooth small-amplitude data on 4096 points; FFT work dominates.

    Modes 1..16 carry fixed 1/m^2 amplitudes and seeded phases, so the usable
    step is the same for every seed. The gate is the relative drift of the two
    quadratic invariants, plus exact conservation of both means.
    """

    name = "broadband"
    LADDER = (4e-3, 2e-3, 1e-3, 5e-4, 2.5e-4)
    GATE = 3e-6
    MODES = 16
    RMS = 0.05

    def initial_data(self, rng, quick):
        N = 4096 if not quick else 512
        L = 2.0 * math.pi
        x = np.arange(N) * (L / N)
        m = np.arange(1, self.MODES + 1)
        fields = []
        for _ in range(2):
            phase = rng.uniform(0.0, 2.0 * math.pi, self.MODES)
            f = np.cos(np.outer(x, m) + phase) @ (1.0 / m**2)
            fields.append(waves.GridFunction(L, self.RMS * f / np.sqrt(np.mean(f**2))))
        return fields[0], fields[1], 0.5 if not quick else 0.05

    def error(self, traj):
        c = traj.conserved[:, 3:]
        return float(np.max(np.abs(c - c[0]) / np.abs(c[0])))

    def check(self, traj):
        c = traj.conserved[:, 1:3]
        means = float(np.max(np.abs(c - c[0])))
        _gate(means <= 1e-10, f"broadband: mean drift {means:.3e}")
        super().check(traj)


class EvolveToT(Workload):
    """One item is one problem run to T at its usable step: stiff, then broadband.

    The two problems load the same stepper in different ways: per-step Python
    overhead at N=128, FFT work at N=4096.
    """

    name = "evolve_to_T"
    modules = ("dswlab.waves", "dswlab.evolution")

    def prepare(self):
        self.items = [StiffProblem(self.rng, self.quick), BroadbandProblem(self.rng, self.quick)]

    def run(self, problem):
        return problem.simulate(problem.dt)

    def check(self, problem, traj):
        problem.check(traj)

    def problem_steps(self):
        return {index: (p.name, p.steps) for index, p in enumerate(self.items)}

    def item_figures(self, per_item_s):
        return {f"time_to_T_s.{p.name}": t for p, t in zip(self.items, per_item_s)}

    def layer_extras(self):
        extras = {"evolution.ladder_blowups": sum(p.blowups for p in self.items)}
        for p in self.items:
            extras[f"evolution.dt_usable.{p.name}"] = p.dt
            extras[f"evolution.steps.{p.name}"] = p.steps
        return extras

    def details(self):
        return {"problems": [p.details() for p in self.items]}


# ---------------------------------------------------------------------------
# cli_tables

class CliTables(Workload):
    """One item is one CLI command run as ``python -m dswlab.cli`` in a subprocess.

    Each command writes its CSV into the work directory; every run's bytes
    must equal the first run's. A traced run repeats the commands in-process
    through ``dswlab.cli.main`` so that the wrappers see the calls.
    """

    name = "cli_tables"
    modules = ("dswlab.cli",)
    rss_of_children = True
    probe_kind = "process"

    def prepare(self):
        quick = self.quick
        L = f"{self.rng.uniform(1.0, 4.0):.4f}"
        kappa = f"{self.rng.uniform(0.1, 0.9):.4f}"
        self.items = [
            ("wave", ["wave", "--L", L, "--kappa", kappa]),
            ("theta-table", ["theta-table"] + (["--pairs", "2:0.3"] if quick else [])),
            ("dmatrix-sweep", ["dmatrix-sweep", "--L", "1"]
             + (["--kappas", "0.3,0.35"] if quick else [])),
            ("spectrum", ["spectrum", "--L", L, "--kappa", kappa,
                          "--N", "128" if quick else "256"]),
            ("simulate", ["simulate", "--wave", "--L", "2", "--kappa", "0.3", "--N", "64",
                          "--T", "0.005" if quick else "0.1", "--dt", "5e-5"]),
            # the command as users run it: its own trial seed, not the benchmark's
            # (other seeds can fail its 1e-13 tolerance; see README, Gates)
            ("normalform-check", ["normalform-check"] + (["--trials", "5"] if quick else [])),
        ]
        self.in_process = False
        self.reference = {}
        self.wall = {label: [] for label, _ in self.items}   # subprocess runs only
        self.csv_bytes = 0

    def _outputs(self, label):
        if label == "simulate":
            return [self.work_dir / "simulate_conservation.csv",
                    self.work_dir / "simulate_trajectory.csv"]
        return [self.work_dir / f"{label}.csv"]

    def _argv(self, label, argv):
        if label == "simulate":
            return argv + ["--out-prefix", str(self.work_dir / "simulate")]
        return argv + ["--out", str(self._outputs(label)[0])]

    def run(self, item):
        label, argv = item
        for path in self._outputs(label):
            path.unlink(missing_ok=True)
        argv = self._argv(label, argv)
        if self.in_process:
            return cli.main(argv)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "dswlab.cli", *argv], env=self.env,
                              cwd=self.work_dir, capture_output=True, text=True, timeout=150)
        self.wall[label].append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
        return proc.returncode

    def check(self, item, code):
        label, _ = item
        _gate(code == 0, f"{label}: exit code {code}")
        blobs = [path.read_bytes() for path in self._outputs(label)]
        if label not in self.reference:
            self.reference[label] = blobs
            self.csv_bytes += sum(len(b) for b in blobs)
        _gate(blobs == self.reference[label], f"{label}: CSV differs from the first run's bytes")
        lines = blobs[0].decode("utf-8").splitlines()
        header = "\n".join(line for line in lines if line.startswith("#"))
        rows = [line.split(",") for line in lines if not line.startswith("#")]
        cols, body = rows[0], rows[1:]
        if label == "wave":
            fields = dict(kv.split("=") for kv in header.split() if "=" in kv)
            scale = float(fields["c"]) * float(fields["eta4"])
            worst = max(float(fields["residual_ode"]), float(fields["residual_energy"]))
            _gate(worst <= 1e-9 * scale, f"wave: profile residual {worst:.3e}")
        elif label == "theta-table":
            n_minus, n_zero = cols.index("n_minus"), cols.index("n_zero")
            _gate("failed" not in header and all(r[n_minus] == "1" and r[n_zero] == "1"
                                                 for r in body), "theta-table: index is not (1, 1)")
        elif label == "dmatrix-sweep":
            n_d, status = cols.index("n_D"), cols.index("status")
            _gate(all(r[status] == "ok" and r[n_d] == "1" for r in body),
                  "dmatrix-sweep: a row is degenerate or n(D) != 1")
        elif label == "spectrum":
            _gate("k_r=0 k_c=0 k_i_minus=0" in header and "n_Lplus=(1, 1) n_H=(1, 1)" in header,
                  "spectrum: counts are not k_r=k_c=k_i-=0, n(L+)=n(H)=(1, 1)")
        elif label == "simulate":
            drift = float(header.split("max_rel_drift=")[1].split()[0])
            _gate(drift <= 1e-8, f"simulate: invariant drift {drift:.3e}")
        elif label == "normalform-check":
            _gate("passed=True" in header, "normalform-check: identity gate failed")

    def before_trace(self, run_pass):
        run_pass(self)        # subprocesses: the cli.<command>.wall_s figures
        self.in_process = True
        run_pass(self)        # in-process warm-up, also held to the first run's bytes

    def layer_extras(self):
        extras = {f"cli.{label}.wall_s": float(np.median(t)) for label, t in self.wall.items() if t}
        extras["cli.csv_bytes"] = self.csv_bytes
        return extras

    def details(self):
        return {"commands": [" ".join(argv) for _, argv in self.items],
                "csv_bytes_per_pass": self.csv_bytes}


WORKLOADS = {w.name: w for w in (QuadratureSweep, CollocationSpectra, EvolveToT, CliTables)}
