"""Command-line front end: reproducible experiments with CSV output.

One command per artifact: `wave` (profile + residuals), `theta-table`
(the Floquet table, theta = -L A2/K by quadrature), `dmatrix-sweep` (index
quadratures over a list of moduli), `spectrum` (the certified frequencies
omega, one per pair +-i omega, and the counts), `simulate` (time evolution
and conservation logs), `normalform-check` (multiplier identity trials).
Each command computes its numbers by the production route and prints each
fact once; the oracles that compute the same quantities another way (the
dense eig of dH, the Hill IVP, the D oracle) are the tests'.

Every command prints/writes UTF-8 CSV with a '#'-prefixed provenance header;
floats are rendered with repr (shortest round-trip), so the bytes are fixed
by the flags, the BLAS build and the CPU kernel that OpenBLAS picks. The BLAS
thread count does not move them: `spectrum`'s certificate runs on one
OpenBLAS thread (spectra), and its header's last line names the build and the
count. Each command imports only the modules it runs; scipy is loaded only to
invert a `--c` speed into a modulus.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .waves import (GridFunction, RefusalError, grid_points, kappa_from_c, params_from_kappa,
                    profile_grid, profile_residual)

__all__ = ["main", "build_parser"]

# the parameter pairs of the reference table, at their printed labels
THETA_TABLE_DEFAULT_PAIRS = [
    (2, 0.1), (2, 0.2), (2, 0.3),
    (3, 0.1), (3, 0.2), (3, 0.3),
    (4, 0.1), (4, 0.2), (4, 0.3), (4, 0.5), (4, 0.7),
    (10, 0.1), (10, 0.2), (10, 0.4),
    (50, 0.1),
]

# the moduli of the D-matrix table, at their printed labels 0.05, 0.1, ..., 0.95
DMATRIX_SWEEP_DEFAULT_KAPPAS = [round(0.05 * i, 2) for i in range(1, 20)]

# normalform-check's random modes |k| <= 32 and its pass mark
NORMALFORM_MAX_SUPPORT, NORMALFORM_TOL = 32, 1e-13


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
    if args.kappa is not None and args.c is not None:
        raise ValueError("give one of --kappa or --c, not both")
    if args.kappa is not None:
        return params_from_kappa(args.L, args.kappa)
    if args.c is not None:
        return params_from_kappa(args.L, kappa_from_c(args.L, args.c))
    raise ValueError("one of --kappa or --c is required")


# ---------------------------------------------------------------------------
# commands

def cmd_wave(args) -> int:
    p = _resolve_wave(args)
    r1, r2 = profile_residual(p, args.N)
    psi, phi = profile_grid(p, args.N)
    header = _provenance("wave", L=p.L, kappa=p.kappa, c=p.c, N=args.N)
    header += [
        f"eta1={_fmt(p.eta1)} eta3={_fmt(p.eta3)} eta4={_fmt(p.eta4)}",
        f"beta_sq={_fmt(p.beta_sq)} F1={_fmt(p.F1)} h={_fmt(p.h)}",
        f"a={_fmt(p.a)} alpha={_fmt(p.alpha)} K={_fmt(p.K)}",
        f"residual_ode={_fmt(r1)} residual_energy={_fmt(r2)}",
    ]
    rows = [(x, s, q) for x, s, q in zip(psi.x, psi.samples, phi.samples)]
    _write_csv(args.out, header, ["xi", "psi", "phi"], rows)
    return 0


def _theta_row(pair):
    from .hill import DegenerateThetaError, floquet_constant, inertial_index_from_theta

    L, kappa = pair
    p = params_from_kappa(L, kappa)
    f = floquet_constant(p)
    try:
        n_minus, n_zero = inertial_index_from_theta(f)
    except DegenerateThetaError:
        n_minus, n_zero = -1, -1
    return (L, kappa, p.c, f.p_prime_0, f.q_prime_final, f.theta, n_minus, n_zero)


def _table(path: str, header: list, columns, items, row) -> int:
    """Write row(item) for each item: a RefusalError fails its row, named in the header, and
    the command exits 1 once the table is written; a ValueError stops it with no file."""
    rows, failed = [], []
    for item in items:
        try:
            rows.append(row(item))
        except RefusalError as exc:
            failed.append(f"row {item} failed: {exc}")
    _write_csv(path, header + failed, columns, rows)
    return 1 if failed else 0


def cmd_theta_table(args) -> int:
    pairs = (_parse_list(args.pairs, "--pairs", _pair, "of the form L:kappa")
             if args.pairs is not None else list(THETA_TABLE_DEFAULT_PAIRS))
    return _table(args.out, _provenance("theta-table", rows=len(pairs)),
                  ["L", "kappa", "c", "p_prime_0", "q_prime_L", "theta", "n_minus", "n_zero"],
                  pairs, _theta_row)


def cmd_dmatrix_sweep(args) -> int:
    from .index_engine import (DegenerateDMatrixError, a_integrals, assemble_dmatrix,
                               hamiltonian_index)

    kappas = (_parse_list(args.kappas, "--kappas", float, "a number")
              if args.kappas is not None else list(DMATRIX_SWEEP_DEFAULT_KAPPAS))
    cols = ["kappa", "D11", "D12", "D13", "D22", "D23", "D33", "det", "n_D", "k_ham",
            "A1", "A2", "A3", "A4", "A6", "status"]

    def run(kappa):
        p = params_from_kappa(args.L, kappa)
        d = assemble_dmatrix(p)
        A = a_integrals(p)  # read from the quadrature record assemble_dmatrix filled
        try:
            k_ham, n_d = hamiltonian_index(d)
        except DegenerateDMatrixError:
            nan = float("nan")
            return (kappa, nan, nan, nan, nan, nan, nan, nan, -1, -1, *A, "degenerate")
        e = d.entries
        return (kappa, e[0, 0], e[0, 1], e[0, 2], e[1, 1], e[1, 2], e[2, 2],
                d.det, n_d, k_ham, *A, "ok")

    return _table(args.out, _provenance("dmatrix-sweep", L=args.L, kappas=len(kappas)), cols,
                  kappas, run)


def cmd_spectrum(args) -> int:
    from .index_engine import assemble_dmatrix, hamiltonian_index
    from .spectra import _BLAS_PIN, unstable_modes

    p = _resolve_wave(args)
    rep = unstable_modes(p, N=args.N)
    k_ham, n_d = hamiltonian_index(assemble_dmatrix(p))
    identity_formula = rep.count_identity_lhs() == k_ham
    identity_measured = rep.count_identity_lhs() == rep.n_H[0] - n_d

    header = _provenance("spectrum", L=p.L, kappa=p.kappa, c=p.c, N=args.N)
    header += [
        f"k_r={rep.k_r} k_c={rep.k_c} k_i_minus={rep.krein_negative}",
        f"n_Lplus={rep.n_Lplus} n_H={rep.n_H} n_D={n_d} k_ham_formula={k_ham}",
        f"count_identity_vs_formula={identity_formula} count_identity_vs_measured_nH={identity_measured}",
        f"margin={_fmt(rep.margin)} core_N={rep.core_N} "
        f"kernel_residual={_fmt(rep.kernel_residual)}",
        # the BLAS build and the thread count the certificate ran on, last: a byte
        # difference between two machines starts here
        "blas_threads=unpinned blas_config=unknown" if _BLAS_PIN is None
        else f"blas_threads=1 blas_config={_BLAS_PIN.config}",
    ]
    # the certified spectrum is the pairs +-i omega, each with Krein sign +1 (the
    # header's counts): one row per omega, ascending
    _write_csv(args.out, header, ["omega"], [(w,) for w in rep.eigenvalues.imag[0::2]])
    return 0


def cmd_simulate(args) -> int:
    from .evolution import simulate, state_fields

    random_data = not (args.wave or args.zero)
    # refuse the flags a run would ignore
    for flag, value, used, needs in (("--kappa", args.kappa, args.wave, "--wave"),
                                     ("--c", args.c, args.wave, "--wave"),
                                     ("--frame", args.frame, args.wave, "--wave"),
                                     ("--seed", args.seed, random_data,
                                      "random data, neither --wave nor --zero")):
        if value is not None and not used:
            raise ValueError(f"{flag} requires {needs}")
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be >= 0 (got {args.seed})")
    # a random-data run names its seed in the header
    seed = {"seed": 0 if args.seed is None else args.seed} if random_data else {}
    if args.wave:
        if args.L is None:
            raise ValueError("--wave requires --L")
        p = _resolve_wave(args)
        u0, v0 = profile_grid(p, args.N)
        frame = 0.0 if args.frame == "lab" else p.c
    else:
        L = 2.0 * np.pi if args.L is None else args.L
        x = grid_points(L, args.N)
        u, v = np.zeros((2, args.N))
        if random_data:
            rng = np.random.default_rng(seed["seed"])
            for m in range(1, 5):
                cos, sin = np.cos(2 * np.pi * m * x / L), np.sin(2 * np.pi * m * x / L)
                u += rng.normal() * cos + rng.normal() * sin
                v += rng.normal() * cos + rng.normal() * sin
            norm = np.sqrt(L * np.mean(u**2 + v**2))
            u, v = u / norm, v / norm
        u0, v0 = GridFunction(L, u), GridFunction(L, v)
        frame = 0.0

    header = _provenance("simulate", L=u0.L, N=args.N, T=args.T, dt=args.dt,
                         frame_speed=frame, **seed)
    traj = simulate(u0, v0, args.T, args.dt, frame_speed=frame)
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

    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1 (got {args.trials})")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0 (got {args.seed})")
    rng = np.random.default_rng(args.seed)
    rows = []
    for trial in range(args.trials):
        f_terms, g_terms = [], []
        for _ in range(3):
            kf = int(rng.integers(-NORMALFORM_MAX_SUPPORT, NORMALFORM_MAX_SUPPORT + 1))
            kg = int(rng.integers(1, NORMALFORM_MAX_SUPPORT + 1)) * int(rng.choice([-1, 1]))
            cf = complex(rng.normal(), rng.normal())
            cg = complex(rng.normal(), rng.normal())
            f_terms.append((float(rng.normal()), TrigPolynomial.mode(kf, cf)))
            g_terms.append((float(rng.normal()), TrigPolynomial.mode(kg, cg)))
        res = verify_identity(TimePolynomial.of(*f_terms), TimePolynomial.of(*g_terms),
                              t=float(rng.uniform(0, 1)))
        rows.append((trial, res))
    worst = max(res for _, res in rows)

    decay = smoothing_decay(1, [8, 16, 32, 64])
    ratios = [decay[i] / decay[i + 1] for i in range(len(decay) - 1)]
    ok = worst < NORMALFORM_TOL and all(1.0 <= r <= 4.0 for r in ratios)
    header = _provenance("normalform-check", trials=args.trials, seed=args.seed,
                         max_support=NORMALFORM_MAX_SUPPORT, tol=NORMALFORM_TOL)
    header += [f"worst_residual={_fmt(worst)} decay_ratios={[round(r, 3) for r in ratios]} "
               f"passed={ok}"]
    _write_csv(args.out, header, ["trial", "residual"], rows)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument plumbing

def _parse_list(text: str, flag: str, parse_item, form: str):
    """The items of a comma list; '' is the empty list, and a bad item is named."""
    items = []
    for item in text.split(",") if text.strip() else []:
        try:
            items.append(parse_item(item))
        except ValueError:
            raise ValueError(f"{flag} item {item!r} is not {form}") from None
    return items


def _pair(item: str):
    L, kappa = item.split(":")
    return float(L), float(kappa)


def _add_wave_args(sp, require=True):
    sp.add_argument("--L", type=float, required=require, help="period length")
    sp.add_argument("--kappa", type=float, default=None, help="elliptic modulus in (0,1)")
    sp.add_argument("--c", type=float, default=None, help="wave speed (> 4 pi^2/L^2)")


class _Parser(argparse.ArgumentParser):
    """argparse's input errors as ValueErrors, which main reports; subparsers inherit it."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="dswlab",
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
    sp.add_argument("--out", default="-")
    sp.set_defaults(func=cmd_theta_table)

    sp = sub.add_parser("dmatrix-sweep", help="D matrix and index over a list of moduli")
    sp.add_argument("--L", type=float, required=True)
    sp.add_argument("--kappas", default=None,
                    help="comma list of moduli (default 0.05, 0.1, ..., 0.95)")
    sp.add_argument("--out", default="-")
    sp.set_defaults(func=cmd_dmatrix_sweep)

    sp = sub.add_parser("spectrum", help="certified frequencies omega and index counts")
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
    sp.add_argument("--frame", choices=["lab", "comoving"], default=None,
                    help="frame of a --wave run (default comoving)")
    sp.add_argument("--seed", type=int, help="seed of the random data (default 0)")
    sp.add_argument("--out-prefix", default="dsw_run")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("normalform-check", help="multiplier identity trials")
    sp.add_argument("--trials", type=int, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default="-")
    sp.set_defaults(func=cmd_normalform_check)
    return ap


def main(argv=None) -> int:
    """Run one command: an input error, argparse's own included, exits 2 and a refusal
    exits 1, each with one line on stderr; every other exception is a bug and propagates."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RefusalError as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
