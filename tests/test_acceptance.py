"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 5, 6 and 7 are implemented exactly as stated and FAIL. The blocking
analysis lives in NOTES.md; in short: the reference material's
inertial-index classification inverts a Wronskian convention, the measured
Morse indices are n(L+) = n(H) = 1 (checked twice: converged collocation
and monodromy shooting), so k_Ham = n(H) - n(D) = 0 and the co-periodic
spectrum is purely imaginary, as the certificate's Cholesky factors show,
redone at 40 digits in tests/test_spectra.py (NOTES.md, point 5) -- there is
no unstable mode to reproduce. Criterion 8's order-fit window also fails:
the invariant drift of the ETDRK4 stepper superconverges at order ~5
(better than the dt^4 the criterion expects).
"""

import time

import numpy as np

from dswlab.elliptic import ellip_k, jacobi_sn_cn_dn
from dswlab.hill import integrate_hill_ivp
from dswlab.index_engine import (a_integrals, assemble_dmatrix, build_varphi,
                                 hamiltonian_index, non_periodicity_gap)
from dswlab.spectra import (assemble, dmatrix_via_collocation, kernel_alignment,
                            morse_index)
from dswlab.waves import eval_profile_derivatives, params_from_kappa

KAPPA_SWEEP = [round(0.05 * i, 2) for i in range(1, 20)]  # 0.05 .. 0.95

# Printed table at printed labels; cells marked * are corrected misprints
# (q'(L) 10x at (10,0.1); theta transposition at (10,0.4); the final row's
# data belongs to kappa=0.2). See tests/test_hill.py and NOTES.md.
TABLE1 = [
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
    (10, 0.1, 0.394803, 0.314949, 0.00205909, 0.00653786),   # * q'(L)
    (10, 0.2, 0.395092, 0.317374, 0.0358584, 0.112985),
    (10, 0.4, 0.400374, 0.328, 0.830212, 2.53113),           # * theta
    (50, 0.2, 0.0158037, 0.0634747, 0.0358582, 0.564921),    # * printed label (50, 0.1)
]


def record(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_table_reproduction():
    t0 = time.monotonic()
    worst = {"c": 0.0, "pp0": 0.0, "qpl": 0.0, "theta": 0.0}
    for L, kappa, c_ref, pp0_ref, qpl_ref, theta_ref in TABLE1:
        p = params_from_kappa(L, kappa)
        sol = integrate_hill_ivp(p)
        worst["c"] = max(worst["c"], abs(p.c - c_ref) / c_ref)
        worst["pp0"] = max(worst["pp0"], abs(sol.p_prime_0 - pp0_ref) / pp0_ref)
        worst["qpl"] = max(worst["qpl"], abs(sol.q_prime_final - qpl_ref) / abs(qpl_ref))
        worst["theta"] = max(worst["theta"], abs(sol.theta - theta_ref) / theta_ref)
    elapsed = time.monotonic() - t0
    ok = all(v < 5e-4 for v in worst.values()) and elapsed < 10.0
    record(1, ok, f"15 rows, worst rel errs {worst}, {elapsed:.1f}s "
                  "(3 misprinted cells corrected; see NOTES.md)")


def test_criterion_02_index_by_quadrature():
    t0 = time.monotonic()
    dets = []
    ok = True
    for kappa in KAPPA_SWEEP:
        d = assemble_dmatrix(params_from_kappa(1.0, kappa))
        k_ham, n_d = hamiltonian_index(d)
        dets.append(d.det)
        ok = ok and (d.det < 0.0) and (n_d == 1) and (k_ham == 1)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    record(2, ok, f"L=1, {len(KAPPA_SWEEP)} moduli: det range "
                  f"[{min(dets):.3e}, {max(dets):.3e}], n(D)=1, k_Ham=2-n(D)=1, "
                  f"{elapsed:.1f}s")


def test_criterion_03_kernel_companion_condition():
    worst_a2 = -np.inf
    gap_ratio = np.inf
    for kappa in KAPPA_SWEEP:
        p = params_from_kappa(1.0, kappa)
        worst_a2 = max(worst_a2, a_integrals(p).A2)
    table = build_varphi(params_from_kappa(1.0, 0.5))
    gap = non_periodicity_gap(table)
    gap_ratio = abs(gap) / abs(table.varphi_0)
    ok = worst_a2 < 0.0 and gap_ratio > 1e-6
    record(3, ok, f"max A2 over sweep = {worst_a2:.4e} (<0), "
                  f"|gap|/scale = {gap_ratio:.3e} (>1e-6)")


def test_criterion_04_oracle_equivalence():
    worst = 0.0
    for kappa in (0.1, 0.3, 0.5, 0.7, 0.9):
        p = params_from_kappa(1.0, kappa)
        d = assemble_dmatrix(p).entries
        oracle = dmatrix_via_collocation(p, 512)
        worst = max(worst, float(np.max(np.abs(d - oracle) / np.abs(oracle))))
    ok = worst < 1e-6
    record(4, ok, f"max relative entry error vs collocation inverse = {worst:.3e}")


def test_criterion_05_morse_indices(wave_2_03):
    p = wave_2_03
    x = np.arange(256) * p.L / 256
    psi, dpsi, _ = eval_profile_derivatives(p, x)
    lp = assemble("Lplus", p, 256)
    h = assemble("Hcal", p, 256)
    n_lp, z_lp = morse_index(lp)
    n_h, z_h = morse_index(h)
    align_lp = kernel_alignment(lp, dpsi)
    align_h = kernel_alignment(h, np.concatenate([dpsi, psi * dpsi / p.c]))
    stable = (morse_index(assemble("Lplus", p, 512)) == (n_lp, z_lp)
              and morse_index(assemble("Hcal", p, 512)) == (n_h, z_h))
    ok = (n_lp == 2 and z_lp == 1 and n_h == 2 and z_h == 1
          and align_lp > 1 - 1e-6 and align_h > 1 - 1e-6 and stable)
    record(5, ok, f"measured n(L+)={n_lp} (criterion demands 2), n(H)={n_h} "
                  f"(demands 2); kernels aligned to {align_lp:.12f}/{align_h:.12f}, "
                  f"counts N-stable={stable}. The demanded counts contradict the "
                  "converged eigensolves; see NOTES.md.")


def test_criterion_06_spectral_instability(spectrum_2_03, wave_2_03):
    rep = spectrum_2_03
    n_unstable = int(np.sum(rep.eigenvalues.real > 1e-6))
    real_enough = (rep.k_r == 1 and n_unstable == 1)
    symmetric = rep.symmetry_residual < 1e-7
    _, n_d = hamiltonian_index(assemble_dmatrix(wave_2_03))
    identity = rep.count_identity_lhs() == 2 - n_d
    ok = real_enough and symmetric and identity
    record(6, ok, f"eigenvalues with Re>1e-6: {n_unstable} (criterion demands "
                  f"exactly 1), quadruplet symmetry residual {rep.symmetry_residual:.2e} "
                  f"(<1e-7: {symmetric}), count identity k_r+2k_c+2k_i-="
                  f"{rep.count_identity_lhs()} vs 2-n(D)={2 - n_d}: {identity}. "
                  "The spectrum is purely imaginary (verified to 40 digits); see NOTES.md.")


def test_criterion_07_nonlinear_corroboration(wave_2_03):
    from dswlab.evolution import growth_rate_experiment
    from dswlab.spectra import NoUnstableModeError

    t0 = time.monotonic()
    try:
        res = growth_rate_experiment(wave_2_03, eps=1e-6, T=2.0, N=256, dt=1e-3)
        ok = res.rel_err < 0.05 and (time.monotonic() - t0) < 60.0
        record(7, ok, f"lambda_fit={res.lambda_fit}, lambda_lin={res.lambda_lin}, "
                      f"rel_err={res.rel_err:.3f}")
    except NoUnstableModeError as exc:
        record(7, False, f"no unstable eigenmode to seed ({exc}); the computed "
                         "spectrum is stable, so the experiment's premise fails. "
                         "The companion oscillation-frequency check in "
                         "test_evolution.py validates simulator-vs-eigensolve "
                         "agreement to <1%.")


def test_criterion_08_conservation():
    from dswlab.evolution import simulate
    from tests.test_evolution import random_smooth_fields

    u0, v0 = random_smooth_fields(2 * np.pi, 256, 4, seed=42)
    drifts = {}
    for dt in (2e-3, 1e-3, 5e-4):
        drifts[dt] = simulate(u0, v0, T=1.0, dt=dt).max_rel_drift
    order1 = float(np.log2(drifts[2e-3] / drifts[1e-3]))
    order2 = float(np.log2(drifts[1e-3] / drifts[5e-4]))
    drift_ok = drifts[1e-3] < 1e-7
    order_ok = abs(order1 - 4.0) <= 0.3 and abs(order2 - 4.0) <= 0.3
    ok = drift_ok and order_ok
    record(8, ok, f"drift(dt=1e-3)={drifts[1e-3]:.2e} (<1e-7: {drift_ok}); "
                  f"fitted orders {order1:.2f}, {order2:.2f} (window 4+-0.3: "
                  f"{order_ok}; the invariant drift superconverges at ~dt^5, "
                  "see NOTES.md)")


def test_criterion_09_special_functions():
    rng = np.random.default_rng(99)
    worst1 = worst2 = 0.0
    for kappa in np.linspace(0.0, 0.98, 50):
        u = rng.uniform(-30.0, 30.0, 200)
        sn, cn, dn = jacobi_sn_cn_dn(u, kappa)
        worst1 = max(worst1, float(np.max(np.abs(sn**2 + cn**2 - 1.0))))
        worst2 = max(worst2, float(np.max(np.abs(dn**2 - (1.0 - kappa**2 * sn**2)))))
    k_val = ellip_k(0.1)
    k_ok = abs(k_val - 1.57475) / 1.57475 < 5e-6
    ok = worst1 < 1e-12 and worst2 < 1e-12 and k_ok
    record(9, ok, f"identity residuals over 10^4 samples: {worst1:.2e}, {worst2:.2e}; "
                  f"K(0.1)={k_val:.6f}")


def test_criterion_10_normal_form():
    from dswlab.normal_form import smoothing_decay
    from tests.test_normal_form import random_time_poly
    from dswlab.normal_form import verify_identity

    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(50):
        f = random_time_poly(rng, n_terms=3, max_mode=32)
        g = random_time_poly(rng, n_terms=3, max_mode=32, mean_free=True)
        worst = max(worst, verify_identity(f, g, t=float(rng.uniform(0, 1))))
    vals = smoothing_decay(1, [8, 16, 32, 64])
    ratios = [a / b for a, b in zip(vals, vals[1:])]
    decay_ok = all(1.0 <= r <= 4.0 for r in ratios) and all(
        b < a for a, b in zip(vals, vals[1:]))
    ok = worst < 1e-13 and decay_ok
    record(10, ok, f"worst identity residual {worst:.2e} (<1e-13); decay ratios "
                   f"{[round(r, 2) for r in ratios]} within a factor 2 of dyadic")
