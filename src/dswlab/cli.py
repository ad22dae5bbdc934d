"""Command-line front end: reproducible experiments with CSV output.

One command per artifact: `wave` (profile + residuals), `theta-table`
(the Floquet table, theta = -L A2/K by quadrature), `dmatrix-sweep` (index
quadratures over a modulus grid), `spectrum` (collocation eigenvalues and
counts), `simulate` (time evolution and conservation logs),
`normalform-check` (multiplier identity trials).

Every command prints/writes UTF-8 CSV with a '#'-prefixed provenance header;
floats are rendered with repr (shortest round-trip), so identical flags give
byte-identical output. Each command imports only the modules it runs; scipy
is loaded only to invert a `--c` speed into a modulus.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .waves import (GridFunction, SpeedBelowThresholdError, kappa_from_c,
                    params_from_kappa, profile_grid, profile_residual)

__all__ = ["main", "build_parser"]

# the parameter pairs of the reference table, at their printed labels
THETA_TABLE_DEFAULT_PAIRS = [
    (2, 0.1), (2, 0.2), (2, 0.3),
    (3, 0.1), (3, 0.2), (3, 0.3),
    (4, 0.1), (4, 0.2), (4, 0.3), (4, 0.5), (4, 0.7),
    (10, 0.1), (10, 0.2), (10, 0.4),
    (50, 0.1),
]


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path: str, header_lines, columns, rows) -> None:
    lines = [f"# {h}" for h in header_lines]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _provenance(cmd: str, **params) -> list:
    items = " ".join(f"{k}={_fmt(v)}" for k, v in params.items())
    return [f"dswlab {__version__} :: {cmd}", items]


def _resolve_wave(args):
    if args.kappa is not None:
        return params_from_kappa(args.L, args.kappa)
    if args.c is not None:
        return params_from_kappa(args.L, kappa_from_c(args.L, args.c))
    raise ValueError("one of --kappa or --c is required")


# ---------------------------------------------------------------------------
# commands

def cmd_wave(args) -> int:
    p = _resolve_wave(args)
    r1, r2 = profile_residual(p, max(args.N, 64))
    psi, phi = profile_grid(p, args.N)
    header = _provenance("wave", L=p.L, kappa=p.kappa, c=p.c, N=args.N)
    header += [
        f"eta1={_fmt(p.eta1)} eta3={_fmt(p.eta3)} eta4={_fmt(p.eta4)}",
        f"beta_sq={_fmt(p.beta_sq)} F1={_fmt(p.F1)} h={_fmt(p.h)}",
        f"a={_fmt(p.a)} alpha={_fmt(p.alpha)} K={_fmt(p.K)}",
        f"E_const={_fmt(p.E_const)} D1_const={_fmt(p.D1_const)}",
        f"residual_ode={_fmt(r1)} residual_energy={_fmt(r2)}",
    ]
    rows = [(x, s, q) for x, s, q in zip(psi.x, psi.samples, phi.samples)]
    _write_csv(args.out, header, ["xi", "psi", "phi"], rows)
    return 0


def _theta_row(pair, tol):
    from .hill import DegenerateThetaError, floquet_constant, inertial_index_from_theta

    L, kappa = pair
    p = params_from_kappa(L, kappa)
    f = floquet_constant(p, tol=tol)
    try:
        n_minus, n_zero = inertial_index_from_theta(f)
    except DegenerateThetaError:
        n_minus, n_zero = -1, -1
    return (L, kappa, p.c, f.p_prime_0, f.q_prime_final, f.theta, n_minus, n_zero)


def cmd_theta_table(args) -> int:
    pairs = (_parse_pairs(args.pairs) if args.pairs is not None
             else list(THETA_TABLE_DEFAULT_PAIRS))
    header = _provenance("theta-table", tol=args.tol, rows=len(pairs))
    results = []
    failures = 0
    for pair in pairs:
        try:
            results.append(_theta_row(pair, args.tol))
        except Exception as exc:  # noqa: BLE001 - per-row isolation is the contract
            failures += 1
            header.append(f"row {pair} failed: {exc}")
    _write_csv(args.out, header,
               ["L", "kappa", "c", "p_prime_0", "q_prime_L", "theta", "n_minus", "n_zero"],
               results)
    return 1 if failures else 0


def cmd_dmatrix_sweep(args) -> int:
    from .index_engine import (DegenerateDMatrixError, a_integrals, assemble_dmatrix,
                               hamiltonian_index)

    kappas = _sweep_values(args)
    header = _provenance("dmatrix-sweep", L=args.L, kappas=len(kappas))
    cols = ["kappa", "D11", "D12", "D13", "D22", "D23", "D33", "det", "n_D", "k_ham",
            "A1", "A2", "A3", "A4", "A5", "A6", "status"]

    def run(kappa):
        p = params_from_kappa(args.L, kappa)
        try:
            d = assemble_dmatrix(p)
            k_ham, n_d = hamiltonian_index(d)
            e = d.entries
            return (kappa, e[0, 0], e[0, 1], e[0, 2], e[1, 1], e[1, 2], e[2, 2],
                    d.det, n_d, k_ham, *d.A, "ok")
        except DegenerateDMatrixError:
            nan = float("nan")
            return (kappa, nan, nan, nan, nan, nan, nan, nan, -1, -1, *a_integrals(p),
                    "degenerate")

    _write_csv(args.out, header, cols, [run(kappa) for kappa in kappas])
    return 0


def cmd_spectrum(args) -> int:
    from .index_engine import assemble_dmatrix, hamiltonian_index
    from .spectra import CLASS_TOL, EigensolveError, unstable_modes

    p = _resolve_wave(args)
    try:
        rep = unstable_modes(p, N=args.N)
    except EigensolveError as exc:
        print(f"spectrum failed: {exc}", file=sys.stderr)
        return 1
    k_ham, n_d = hamiltonian_index(assemble_dmatrix(p))
    identity_formula = rep.count_identity_lhs() == k_ham
    identity_measured = rep.count_identity_lhs() == rep.n_H_minus_nD(n_d)

    header = _provenance("spectrum", L=p.L, kappa=p.kappa, c=p.c, N=args.N)
    header += [
        f"k_r={rep.k_r} k_c={rep.k_c} k_i_minus={rep.krein_negative}",
        f"n_Lplus={rep.n_Lplus} n_H={rep.n_H} n_D={n_d} k_ham_formula={k_ham}",
        f"count_identity_vs_formula={identity_formula} count_identity_vs_measured_nH={identity_measured}",
        f"lambda_max_real={_fmt(rep.lambda_max_real)} symmetry_residual={_fmt(rep.symmetry_residual)}",
        f"zero_cluster_abs_max={_fmt(float(np.max(np.abs(rep.zero_cluster))))}",
    ]
    krein_by_mu = dict((round(mu, 9), sgn) for mu, sgn in rep.krein_signs)
    eigs = rep.eigenvalues
    rows = []
    for i in np.lexsort((eigs.real, np.abs(eigs.imag))):  # by |Im|, then Re
        lam = eigs[i]
        if abs(lam.imag) <= CLASS_TOL * max(1.0, abs(lam)):
            cls = "real"
        elif abs(lam.real) <= CLASS_TOL * max(1.0, abs(lam)):
            cls = "imaginary"
        else:
            cls = "quadruplet"
        krein = krein_by_mu.get(round(lam.imag, 9), 0) if cls == "imaginary" else 0
        rows.append((lam.real, lam.imag, cls, krein, float(rep.partner_gaps[i])))
    _write_csv(args.out, header, ["re", "im", "class", "krein_sign", "symmetry_residual"], rows)
    return 0


def cmd_simulate(args) -> int:
    from .evolution import (BlowUpError, growth_rate_experiment, simulate,
                            state_fields)
    from .spectra import NoUnstableModeError

    rng = np.random.default_rng(args.seed)
    if args.zero:
        L = args.L or 2.0 * np.pi
        x = np.arange(args.N) * (L / args.N)
        u0 = GridFunction(L, np.zeros_like(x))
        v0 = GridFunction(L, np.zeros_like(x))
        frame = 0.0
        p = None
    elif args.wave:
        p = _resolve_wave(args)
        u0, v0 = profile_grid(p, args.N)
        frame = p.c if args.frame == "comoving" else 0.0
    else:
        L = args.L or 2.0 * np.pi
        x = np.arange(args.N) * (L / args.N)
        u = np.zeros(args.N)
        v = np.zeros(args.N)
        for m in range(1, 5):
            u += rng.normal() * np.cos(2 * np.pi * m * x / L) + rng.normal() * np.sin(2 * np.pi * m * x / L)
            v += rng.normal() * np.cos(2 * np.pi * m * x / L) + rng.normal() * np.sin(2 * np.pi * m * x / L)
        norm = np.sqrt(L * np.mean(u**2 + v**2))
        u0, v0 = GridFunction(L, u / norm), GridFunction(L, v / norm)
        frame = 0.0
        p = None

    header = _provenance("simulate", L=u0.L, N=args.N, T=args.T, dt=args.dt,
                         frame_speed=frame, perturb=args.perturb or 0.0)

    if args.perturb:
        if p is None:
            print("--perturb requires --wave", file=sys.stderr)
            return 1
        try:
            res = growth_rate_experiment(p, args.perturb, args.T, N=args.N, dt=args.dt)
        except NoUnstableModeError as exc:
            print(f"growth experiment aborted: {exc}", file=sys.stderr)
            return 1
        header.append(f"lambda_fit={_fmt(res.lambda_fit)} lambda_lin={_fmt(res.lambda_lin)} "
                      f"rel_err={_fmt(res.rel_err)}")
        rows = list(zip(res.times, res.deviations))
        _write_csv(args.out_prefix + "_growth.csv", header, ["t", "deviation"], rows)
        return 0

    try:
        traj = simulate(u0, v0, args.T, args.dt, frame_speed=frame)
    except BlowUpError as exc:
        print(f"blow-up after t = {exc.t_last}", file=sys.stderr)
        return 1
    if abs(traj.dt - args.dt) > 1e-12 * args.dt:  # T/dt is not a whole number of steps
        header.append(f"dt_used={_fmt(traj.dt)}")

    cons_rows = [tuple(row) for row in traj.conserved]
    _write_csv(args.out_prefix + "_conservation.csv",
               header + [f"max_rel_drift={_fmt(traj.max_rel_drift)}"],
               ["t", "m_u", "m_v", "e_mixed", "l2"], cons_rows)

    traj_rows = []
    for s in traj.states:
        u, v = state_fields(s)
        for xj, uj, vj in zip(u.x, u.samples, v.samples):
            traj_rows.append((s.t, xj, uj, vj))
    _write_csv(args.out_prefix + "_trajectory.csv", header, ["t", "x", "u", "v"], traj_rows)
    return 0


def cmd_normalform_check(args) -> int:
    from .normal_form import (TimePolynomial, TrigPolynomial, smoothing_decay,
                              verify_identity)

    rng = np.random.default_rng(args.seed)
    worst = 0.0
    rows = []
    for trial in range(args.trials):
        f_terms, g_terms = [], []
        for _ in range(3):
            kf = int(rng.integers(-args.max_support, args.max_support + 1))
            kg = int(rng.integers(1, args.max_support + 1)) * int(rng.choice([-1, 1]))
            cf = complex(rng.normal(), rng.normal())
            cg = complex(rng.normal(), rng.normal())
            f_terms.append((float(rng.normal()), TrigPolynomial.mode(kf, cf)))
            g_terms.append((float(rng.normal()), TrigPolynomial.mode(kg, cg)))
        res = verify_identity(TimePolynomial.of(*f_terms), TimePolynomial.of(*g_terms),
                              t=float(rng.uniform(0, 1)))
        worst = max(worst, res)
        rows.append((trial, res))

    decay = smoothing_decay(1, [8, 16, 32, 64])
    ratios = [decay[i] / decay[i + 1] for i in range(len(decay) - 1)]
    decay_ok = all(1.0 <= r <= 4.0 for r in ratios)
    ok = worst < args.tol and decay_ok
    header = _provenance("normalform-check", trials=args.trials, seed=args.seed,
                         max_support=args.max_support, tol=args.tol)
    header += [f"worst_residual={_fmt(worst)} decay_ratios={[round(r, 3) for r in ratios]} "
               f"passed={ok}"]
    _write_csv(args.out, header, ["trial", "residual"], rows)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument plumbing

def _parse_pairs(text: str):
    pairs = []
    if not text.strip():
        return pairs
    for item in text.split(","):
        L_str, k_str = item.split(":")
        pairs.append((float(L_str), float(k_str)))
    return pairs


def _sweep_values(args):
    if args.kappas:
        return [float(s) for s in args.kappas.split(",")]
    n = int(round((args.kappa_max - args.kappa_min) / args.kappa_step)) + 1
    return [args.kappa_min + i * args.kappa_step for i in range(n)]


def _add_wave_args(sp, require=True):
    sp.add_argument("--L", type=float, required=require, help="period length")
    sp.add_argument("--kappa", type=float, default=None, help="elliptic modulus in (0,1)")
    sp.add_argument("--c", type=float, default=None, help="wave speed (> 4 pi^2/L^2)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dswlab",
                                 description="Traveling-wave laboratory for the "
                                             "dispersive-dispersionless coupled system")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("wave", help="profile CSV with parameters and residuals")
    _add_wave_args(sp)
    sp.add_argument("--N", type=int, default=256)
    sp.add_argument("--out", default="-")
    sp.set_defaults(func=cmd_wave)

    sp = sub.add_parser("theta-table", help="Floquet constant table")
    sp.add_argument("--pairs", default=None, help="comma list of L:kappa pairs")
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.add_argument("--out", default="-")
    sp.set_defaults(func=cmd_theta_table)

    sp = sub.add_parser("dmatrix-sweep", help="D matrix and index over a kappa grid")
    sp.add_argument("--L", type=float, required=True)
    sp.add_argument("--kappa-min", type=float, default=0.05)
    sp.add_argument("--kappa-max", type=float, default=0.95)
    sp.add_argument("--kappa-step", type=float, default=0.05)
    sp.add_argument("--kappas", default=None, help="explicit comma list overriding the grid")
    sp.add_argument("--out", default="-")
    sp.set_defaults(func=cmd_dmatrix_sweep)

    sp = sub.add_parser("spectrum", help="collocation eigenvalues and index counts")
    _add_wave_args(sp)
    sp.add_argument("--N", type=int, default=256)
    sp.add_argument("--out", default="-")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("simulate", help="time evolution with conservation log")
    _add_wave_args(sp, require=False)
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--wave", action="store_true", help="traveling-wave initial data")
    group.add_argument("--zero", action="store_true", help="zero initial data")
    sp.add_argument("--N", type=int, default=128)
    sp.add_argument("--T", type=float, default=1.0)
    sp.add_argument("--dt", type=float, default=1e-4)
    sp.add_argument("--frame", choices=["lab", "comoving"], default="comoving")
    sp.add_argument("--perturb", type=float, default=None,
                    help="seed amplitude for the growth experiment")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out-prefix", default="dsw_run")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("normalform-check", help="multiplier identity trials")
    sp.add_argument("--trials", type=int, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-support", type=int, default=32)
    sp.add_argument("--tol", type=float, default=1e-13)
    sp.add_argument("--out", default="-")
    sp.set_defaults(func=cmd_normalform_check)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, SpeedBelowThresholdError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
