#!/usr/bin/env python3
"""Full stability report for one wave: collocation spectrum with index counts,
the quadrature-pipeline D matrix, and both versions of the count identity.

Usage: python scripts/stability_report.py [L] [kappa] [N]

This is the experiment that exposes the disagreement with the reference
material's instability claim: the computed spectrum is purely imaginary and
k_r + 2 k_c + 2 k_i^- = n(H) - n(D) = 0 with the measured n(H) = 1.
"""

import sys

import numpy as np

from dswlab.index_engine import assemble_dmatrix, hamiltonian_index
from dswlab.spectra import unstable_modes
from dswlab.waves import params_from_kappa


def main(argv):
    L = float(argv[1]) if len(argv) > 1 else 2.0
    kappa = float(argv[2]) if len(argv) > 2 else 0.3
    N = int(argv[3]) if len(argv) > 3 else 256

    p = params_from_kappa(L, kappa)
    print(f"wave: L={L} kappa={kappa} c={p.c:.6f} eta4={p.eta4:.6f}")

    d = assemble_dmatrix(p)
    k_ham, n_d = hamiltonian_index(d)
    print(f"D matrix (quadrature pipeline): det={d.det:.6e}, n(D)={n_d}")
    print(f"  formula k_Ham = 2 - n(D) = {k_ham}")

    rep = unstable_modes(p, N=N)
    print(f"collocation spectrum at N={N}:")
    print(f"  n(L+)={rep.n_Lplus}  n(H)={rep.n_H}")
    print(f"  kernel overlaps: L+ {rep.kernel_overlap_Lplus:.12f}, "
          f"H {rep.kernel_overlap_H:.12f}")
    print(f"  k_r={rep.k_r} k_c={rep.k_c} k_i^-={rep.krein_negative} "
          f"(certified: margin lambda_min(Hc) = {rep.margin:.10g}, margin/c = {rep.margin / p.c:.4f}, "
          f"kernel residual {rep.kernel_residual:.2e})")
    print(f"  max Re lambda = {rep.lambda_max_real:.3e}, "
          f"quadruplet symmetry residual {rep.symmetry_residual:.2e}")
    lhs = rep.count_identity_lhs()
    print(f"  count identity: k_r+2k_c+2k_i^- = {lhs}; "
          f"n(H)-n(D) = {rep.n_H_minus_nD(n_d)} (match: {lhs == rep.n_H_minus_nD(n_d)}); "
          f"2-n(D) = {2 - n_d} (match: {lhs == 2 - n_d})")
    mu_min = float(np.min(rep.eigenvalues.imag[rep.eigenvalues.imag > 0]))
    print(f"  smallest oscillation frequency: {mu_min:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
