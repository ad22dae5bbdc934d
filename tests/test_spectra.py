import sys
import threading
import time
from contextlib import suppress
from dataclasses import replace

import numpy as np
import pytest

from dswlab.index_engine import assemble_dmatrix
from dswlab.spectra import (KERNEL_RESIDUAL_BOUND, EigensolveError, IndefiniteHessianError,
                            KernelResidualError, NoUnstableModeError, _BLAS_PIN, _certify,
                            _constrained_hessians, _core_figures, _core_size,
                            _cosine_coordinates,
                            _even_solve, _fourier_diff_matrices, _grid, _kc_inverse_t,
                            _lplus_block, _morse_counts, _multiplication_blocks,
                            _nonzero_spectrum, _operator, _parity_blocks,
                            _sine_coordinates, assemble, dmatrix_via_collocation,
                            kernel_alignment, morse_index, pseudo_inverse_apply,
                            unstable_eigenmode, unstable_modes)
from dswlab.waves import _rescaled, eval_profile, eval_profile_derivatives, params_from_kappa

# the one refusal of every eigh oracle given a matrix that is not exactly symmetric
NONSYMMETRIC = "^eigh requires an exactly symmetric matrix$"

def trig_basis(N):
    """Orthonormal grid cosine (k = 0..N//2) and sine (k = 1..(N-1)//2) bases, as columns.

    The direct evaluation of cos and sin, the oracle of the DFT assembly in spectra.
    At even N the last cosine column is the Nyquist mode (-1)^j / sqrt(N).
    """
    j = np.arange(N)[:, None]
    weight = np.full(N // 2 + 1, np.sqrt(2.0 / N))
    weight[0] = 1.0 / np.sqrt(N)
    if N % 2 == 0:
        weight[-1] = 1.0 / np.sqrt(N)
    cos = np.cos((2 * np.pi / N) * (j * np.arange(N // 2 + 1) % N)) * weight
    sin = np.sqrt(2.0 / N) * np.sin((2 * np.pi / N) * (j * np.arange(1, (N + 1) // 2) % N))
    return cos, sin


def relative(A, ref):
    return np.linalg.norm(A - ref) / np.linalg.norm(ref)


def unit_blocks(p, N):
    """(c, _parity_blocks) of the wave p moved to period 1, as unstable_modes forms them."""
    p1 = _rescaled(p, 1.0)
    return p1.c, _parity_blocks(p1.c, *_grid(p1, N))


def direct_h_blocks(p, N):
    """(M1, M2, H) of the even and odd parity from the direct bases, H = [[Lm, -M1], [-M1, c I]].

    Each block on all its modes: the even one keeps the constant and, at even N, the
    Nyquist mode, which range(J) leaves out.
    """
    psi, _ = _grid(p, N)
    blocks = []
    for basis, modes in zip(trig_basis(N), (np.arange(N // 2 + 1), np.arange(1, (N + 1) // 2))):
        kb = (2 * np.pi / p.L) * modes
        m1 = basis.T @ (psi[:, None] * basis)
        m2 = basis.T @ ((psi * psi)[:, None] * basis)
        h = np.block([[np.diag(kb * kb + p.c) - (0.5 / p.c) * m2, -m1],
                      [-m1, p.c * np.eye(kb.size)]])
        blocks.append((m1, m2, h))
    return blocks


def certificate_mpmath(kappa, N, dps=40):
    """(kernel residual, Cholesky factors, lambda_min) of the certificate for the wave
    (1, kappa) on N points, every step at dps digits in mpmath: the oracle of
    unstable_modes with no numpy, LAPACK or dswlab.elliptic.

    The steps of the spectra docstring, written out: the wave from mp.ellipk and
    mp.ellipfun, the parity blocks of H on range(J) from DFTs by explicit sums,
    e2 = H_even^-1 K e1 by an LU solve of the full even block, one Householder
    reflector per parity, and lambda_min of each constrained Hessian from eigsy.
    """
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(dps):
        k2 = mp.mpf(kappa) ** 2
        K = mp.ellipk(k2)
        h = 4 * mp.sqrt(1 - k2 + k2 * k2)
        c = 4 * K * K * h
        g_plus, g_minus = h + 2 * (2 * k2 - 1), h - 2 * (2 * k2 - 1)
        eta4 = 8 * mp.sqrt(2) * K * K / mp.sqrt(3) * mp.sqrt(h * g_plus)
        b2 = 2 * k2 * mp.sqrt(g_plus) / (mp.sqrt(g_plus) + mp.sqrt(3) * mp.sqrt(g_minus))
        psi, dpsi = [], []
        for j in range(N):   # psi = eta4 dn^2 / B and psi' at u = alpha x_j, alpha = 2K
            sn, cn, dn = (mp.ellipfun(f, 2 * K * j / N, m=k2) for f in ("sn", "cn", "dn"))
            B = 1 + b2 * sn * sn
            psi.append(eta4 * dn * dn / B)
            dpsi.append(-4 * K * eta4 * sn * cn * dn * (k2 * B + b2 * dn * dn) / B**2)
        cos = [mp.cospi(mp.mpf(2 * r) / N) for r in range(N)]
        sin = [mp.sinpi(mp.mpf(2 * r) / N) for r in range(N)]
        m = (N - 1) // 2
        # Re fft(f)[q], q = 0..2m, of psi and psi^2, and sine coordinates, by explicit sums
        F1, F2 = ([mp.fsum(f[j] * cos[q * j % N] for j in range(N)) for q in range(2 * m + 1)]
                  for f in (psi, [s * s for s in psi]))

        def sine(f):
            return [mp.sqrt(mp.mpf(2) / N) * mp.fsum(f[j] * sin[q * j % N] for j in range(N))
                    for q in range(1, m + 1)]

        kernel = mp.matrix(sine(dpsi) + sine([s * d / c for s, d in zip(psi, dpsi)]))
        k = [2 * mp.pi * q for q in range(1, m + 1)]
        H = []
        for sign in (1, -1):   # the even (cosine) and the odd (sine) block, modes 1..m
            A = mp.zeros(2 * m, 2 * m)
            for a in range(m):
                for b in range(m):
                    m1 = (F1[abs(a - b)] + sign * F1[a + b + 2]) / N
                    m2 = (F2[abs(a - b)] + sign * F2[a + b + 2]) / N
                    A[a, b] = -m2 / (2 * c)
                    A[a, m + b] = A[m + a, b] = -m1
                A[a, a] += k[a] ** 2 + c
                A[m + a, m + a] = c
            H.append(A)
        residual = mp.norm(H[1] * kernel) / (c * mp.norm(kernel))
        # K = J^-1 takes sin_q to -cos_q / k_q and cos_q to sin_q / k_q
        inv_k = [1 / kq for kq in k] * 2
        Ke1 = mp.matrix([-w * e for w, e in zip(inv_k, kernel)])
        Ke2 = mp.matrix([w * e for w, e in zip(inv_k, mp.lu_solve(H[0], Ke1))])
        factors, lam_min = [], []
        for A, a in zip(H, (Ke1, Ke2)):   # Hc = Q^T H Q, Q the complement of a
            g = a.copy()
            g[0] += mp.sign(a[0]) * mp.norm(a)
            g /= mp.norm(g)
            Ag = A * g
            w = 2 * (Ag - (g.T * Ag)[0] * g)   # P A P = A - g w^T - w g^T, P = I - 2 g g^T
            Hc = (A - g * w.T - w * g.T)[1:, 1:]
            factors.append(mp.cholesky(Hc))   # a ValueError where Hc is not positive definite
            lam_min.append(min(mp.eigsy(Hc, eigvals_only=True)))
        return residual, factors, min(lam_min)


def zero_cluster_size(N):
    """The generalized kernel of dH, plus the Nyquist mode (-1)^j of each component at even N."""
    return 4 if N % 2 else 6


def upper_pair_signs(rep):
    """(Im lambda, Krein sign) for the upper member of each imaginary pair, in eigenvalue order.

    The certificate gives every upper member Krein sign +1, as `spectrum` writes it.
    """
    mu = rep.eigenvalues.imag
    return [(float(m), int(m > 0)) for m in mu[mu > 0]]


class TestAssemble:
    def test_constant_coefficient_diagonalization(self):
        # psi = 0: L+ has eigenvalues c + (2 pi k / L)^2, each nonzero twice
        L, c, N = 2.0, 3.0, 128
        A = _operator("Lplus", *_fourier_diff_matrices(N, L), c, np.zeros(N))
        lam = np.sort(np.linalg.eigvalsh(A))
        expected = np.sort([c + (2 * np.pi * k / L) ** 2
                            for k in range(-N // 2, N // 2)])
        assert np.max(np.abs(lam - expected)) < 1e-8 * np.max(expected)

    def test_kernel_of_lplus_is_psi_prime(self, wave_2_03):
        p = wave_2_03
        op = assemble("Lplus", p, 512)
        x = np.arange(512) * p.L / 512
        dpsi = eval_profile_derivatives(p, x)[1]
        assert np.max(np.abs(op @ dpsi)) < 1e-8 * np.max(np.abs(dpsi))

    def test_kernel_of_hcal_is_profile_gradient(self, wave_2_03):
        p = wave_2_03
        op = assemble("Hcal", p, 512)
        x = np.arange(512) * p.L / 512
        psi, dpsi, _ = eval_profile_derivatives(p, x)
        dphi = psi * dpsi / p.c
        vec = np.concatenate([dpsi, dphi])
        assert np.max(np.abs(op @ vec)) < 1e-8 * np.max(np.abs(vec))

    def test_symmetry_of_symmetric_kinds(self, wave_2_03):
        # the eigh oracles read the entries, not a kind label
        for kind in ("Lplus", "Hcal"):
            A = assemble(kind, wave_2_03, 128)
            assert np.array_equal(A, A.T)

    def test_kind_and_size_validated(self, wave_2_03):
        with pytest.raises(ValueError, match="^unknown operator kind 'bogus'$"):
            assemble("bogus", wave_2_03, 128)
        with pytest.raises(ValueError, match="got 2"):
            assemble("Lplus", wave_2_03, 2)   # range(J) is empty
        # any N >= 3 is a size like any other, an odd one with no Nyquist mode
        assert morse_index(assemble("Lplus", wave_2_03, 100)) == (1, 1)
        assert morse_index(assemble("Lplus", wave_2_03, 255)) == (1, 1)

    @pytest.mark.parametrize("N", [128, 129, 255])
    def test_kernel_of_d1(self, N):
        # the singular values of D1 are |k|: 0 for the constants, 2 pi m / L
        # twice for 0 < m < N/2, and at even N 0 again for the Nyquist mode
        # (-1)^j; at odd N, D1 annihilates only the constants
        L = 2.0
        D1, _ = _fourier_diff_matrices(N, L)
        kernel = [np.ones(N)] + ([] if N % 2 else [(-1.0) ** np.arange(N)])
        s = np.linalg.svd(D1, compute_uv=False)
        n = len(kernel)
        assert np.all(s[-n:] < 1e-12 * s[0])
        assert s[-n - 2:-n] == pytest.approx([2 * np.pi / L] * 2, rel=1e-10)
        for f in kernel:
            assert np.max(np.abs(D1 @ f)) < 1e-12 * s[0]


class TestMorseIndex:
    def test_lplus_counts(self, wave_2_03):
        # The reference material asserts (2, 1) here; the converged eigensolve
        # (identical at N=256 and N=512, cross-checked by the monodromy count
        # of tests/test_hill.py::test_monodromy_count) gives exactly one
        # negative eigenvalue. See NOTES.md.
        assert morse_index(assemble("Lplus", wave_2_03, 256)) == (1, 1)

    def test_hcal_counts(self, wave_2_03):
        assert morse_index(assemble("Hcal", wave_2_03, 256)) == (1, 1)

    def test_free_operator_positive(self):
        A = _operator("Lplus", *_fourier_diff_matrices(128, 2.0), 3.0, np.zeros(128))
        assert morse_index(A) == (0, 0)

    def test_counts_stable_under_refinement(self, wave_2_03):
        for kind in ("Lplus", "Hcal"):
            n1 = morse_index(assemble(kind, wave_2_03, 256))
            n2 = morse_index(assemble(kind, wave_2_03, 512))
            assert n1 == n2

    @pytest.mark.parametrize("kappa", [0.05, 0.3, 0.7, 0.95])
    def test_counts_across_sweep(self, kappa):
        p = params_from_kappa(2.0, kappa)
        assert morse_index(assemble("Lplus", p, 256)) == (1, 1)
        assert morse_index(assemble("Hcal", p, 256)) == (1, 1)

    @pytest.mark.parametrize("L", [1.0, 2.0])
    @pytest.mark.parametrize("kappa", [1e-3, 0.005, 0.01, 0.02, 0.03])
    def test_counts_at_small_modulus(self, L, kappa):
        # the eigenvalue next to the kernel is positive but ~3.2 c kappa^4:
        # 2.0e-5 at (1, 0.02) and 1.3e-10 at (1, 1e-3), below any fixed
        # fraction of c; it must not count as a second zero
        p = params_from_kappa(L, kappa)
        for N in (127, 256, 384):
            rep = unstable_modes(p, N)
            assert (rep.n_Lplus, rep.n_H) == ((1, 1), (1, 1)), N
        for N in (256, 384):
            assert morse_index(assemble("Lplus", p, N)) == (1, 1), N
            assert morse_index(assemble("Hcal", p, N)) == (1, 1), N

    def test_lplus_second_eigenvalue_positive_and_converged(self, wave_2_03):
        # the decisive quantity for the index disagreement: the eigenvalue
        # adjacent to the kernel is strictly positive and N-converged
        vals = {}
        for N in (256, 512):
            lam = np.sort(np.linalg.eigvalsh(assemble("Lplus", wave_2_03, N)))
            vals[N] = lam[:3]
        assert vals[256][0] < 0 < vals[256][2]
        assert abs(vals[256][1]) < 1e-6
        assert np.max(np.abs(vals[256] - vals[512])) < 1e-8 * max(1, abs(vals[256][0]))

    def test_requires_symmetric_kind(self, wave_2_03):
        with pytest.raises(ValueError, match=NONSYMMETRIC):
            morse_index(assemble("dHcal", wave_2_03, 128))


class TestKernelAlignment:
    def test_lplus_kernel_aligned_with_psi_prime(self, wave_2_03):
        p = wave_2_03
        x = np.arange(256) * p.L / 256
        dpsi = eval_profile_derivatives(p, x)[1]
        assert kernel_alignment(assemble("Lplus", p, 256), dpsi) > 1 - 1e-6

    def test_hcal_kernel_aligned_with_gradient(self, wave_2_03):
        p = wave_2_03
        x = np.arange(256) * p.L / 256
        psi, dpsi, _ = eval_profile_derivatives(p, x)
        ref = np.concatenate([dpsi, psi * dpsi / p.c])
        assert kernel_alignment(assemble("Hcal", p, 256), ref) > 1 - 1e-6


class TestPseudoInverse:
    def test_solves_off_kernel(self, wave_2_03):
        p = wave_2_03
        op = assemble("Lplus", p, 256)
        f = np.ones(256)
        x = pseudo_inverse_apply(op, f)
        assert np.max(np.abs(op @ x - f)) < 1e-7

    def test_matches_quadrature_inverse(self, wave_1_05, varphi_1_05):
        from dswlab.index_engine import linv_apply
        from dswlab.waves import GridFunction

        p = wave_1_05
        N = 512
        op = assemble("Lplus", p, N)
        f = np.ones(N)
        spectral = pseudo_inverse_apply(op, f)
        quadrature = linv_apply(p, varphi_1_05, GridFunction(p.L, f)).samples
        assert np.max(np.abs(spectral - quadrature)) < 1e-6 * max(1, np.max(np.abs(spectral)))


@pytest.mark.parametrize("oracle", [kernel_alignment, pseudo_inverse_apply])
def test_eigh_oracles_refuse_a_nonsymmetric_kind(wave_2_03, oracle):
    # eigh reads one triangle: on dHcal kernel_alignment used to return 5.3e-5 silently
    with pytest.raises(ValueError, match=NONSYMMETRIC):
        oracle(assemble("dHcal", wave_2_03, 64), np.ones(2 * 64))


def test_eigh_refuses_a_one_ulp_asymmetry(wave_2_03):
    # the check reads the entries: L+ is exactly symmetric until one entry moves one ulp
    A = assemble("Lplus", wave_2_03, 64)
    assert morse_index(A) == (1, 1)
    A[3, 5] = np.nextafter(A[3, 5], np.inf)
    with pytest.raises(ValueError, match=NONSYMMETRIC):
        morse_index(A)


class TestSpectrumReport:
    def test_no_unstable_modes(self, spectrum_2_03):
        # the headline empirical finding: the co-periodic spectrum is purely
        # imaginary (k_r = k_c = 0) with all Krein signs positive
        rep = spectrum_2_03
        assert rep.k_r == 0
        assert rep.k_c == 0
        assert rep.krein_negative == 0
        assert np.max(rep.eigenvalues.real) < 1e-6

    def test_quadruplet_symmetry(self, spectrum_2_03):
        assert spectrum_2_03.symmetry_residual < 1e-7

    @pytest.mark.parametrize("L, kappa", [(2.0, 0.3), (2.5, 0.8)])
    def test_odd_grid_matches_the_even_grid(self, L, kappa):
        # odd N has no Nyquist mode: the zero cluster of the dense eigensolve is
        # the generalized kernel alone, and counts and the spectrum below 1000
        # are those of N = 256
        p = params_from_kappa(L, kappa)
        even = unstable_modes(p, N=256)
        low = even.eigenvalues[np.abs(even.eigenvalues) < 1000]
        for N in (255, 257):
            rep = unstable_modes(p, N=N)
            cluster = _nonzero_spectrum(assemble("dHcal", p, N))[3]
            assert cluster.size == 4
            assert np.max(np.abs(cluster)) < 0.1 * np.min(np.abs(rep.eigenvalues))
            assert (rep.k_r, rep.k_c, rep.krein_negative, rep.n_Lplus, rep.n_H) == (
                even.k_r, even.k_c, even.krein_negative, even.n_Lplus, even.n_H)
            odd_low = rep.eigenvalues[np.abs(rep.eigenvalues) < 1000]
            assert odd_low.size == low.size
            nearest = np.min(np.abs(odd_low[None, :] - low[:, None]), axis=1)
            assert np.max(nearest / np.abs(low)) < 1e-9

    def test_zero_cluster_separated(self, spectrum_2_03, wave_2_03):
        # the dense eigensolve leaves out as many eigenvalues as the certificate does
        eigvals, _, keep, cluster = _nonzero_spectrum(assemble("dHcal", wave_2_03, 256))
        assert cluster.size == zero_cluster_size(256) == 6
        assert keep.size == spectrum_2_03.eigenvalues.size == 2 * 256 - 6
        assert np.max(np.abs(cluster)) < 0.1 * np.min(np.abs(spectrum_2_03.eigenvalues))

    @pytest.mark.parametrize("next_eigenvalue, refused", [(9e-3, True), (1.1e-2, False)])
    def test_zero_cluster_must_be_separated_by_a_factor_10(self, next_eigenvalue, refused):
        # at N = 3 the cluster has 4 members; the fifth eigenvalue must be at least
        # 10 times the cluster's largest
        dH = np.diag([0.0, 1e-4, -1e-3, 1e-3, next_eigenvalue, 1.0])
        if refused:
            with pytest.raises(EigensolveError, match=r"^zero cluster \(\|\.\|<= 1\.00e-03\) "
                               r"not separated from the spectrum \(next \|\.\| = 9\.00e-03\)$"):
                _nonzero_spectrum(dH)
        else:
            assert _nonzero_spectrum(dH)[3].size == 4

    def test_count_identity_with_measured_morse_index(self, spectrum_2_03, wave_2_03):
        # k_r + 2 k_c + 2 k_i^- = n(H) - n(D) holds with the measured n(H) = 1
        n_d = assemble_dmatrix(wave_2_03).n_negative
        assert spectrum_2_03.count_identity_lhs() == spectrum_2_03.n_H[0] - n_d
        assert spectrum_2_03.n_H[0] == 1 and n_d == 1

    def test_krein_signs_all_positive(self, spectrum_2_03):
        signs = upper_pair_signs(spectrum_2_03)
        assert len(signs) > 10
        assert all(sign > 0 for _, sign in signs)

    def test_counts_stable_under_refinement(self, wave_2_03, spectrum_2_03):
        rep2 = unstable_modes(wave_2_03, N=512)
        assert (rep2.k_r, rep2.k_c, rep2.krein_negative) == (
            spectrum_2_03.k_r, spectrum_2_03.k_c, spectrum_2_03.krein_negative)
        assert rep2.n_Lplus == spectrum_2_03.n_Lplus
        assert rep2.n_H == spectrum_2_03.n_H

    def test_smallest_frequency_converges_under_refinement(self, wave_2_03):
        # refinement-convergence check; with no real unstable mode to track,
        # the smallest imaginary frequency stands in for it
        mu = {}
        for N in (512, 1024):
            mu[N] = unstable_modes(wave_2_03, N).eigenvalues[0].imag
        assert abs(mu[512] - mu[1024]) < 1e-6 * mu[1024]

    def test_generalized_pairing_matches_quadrature(self, wave_1_05):
        d11 = assemble_dmatrix(wave_1_05).entries[0, 0]
        spectral = dmatrix_via_collocation(wave_1_05, 512)[0, 0]
        assert spectral == pytest.approx(d11, rel=1e-5)

    def test_unstable_eigenmode_raises(self, wave_2_03):
        with pytest.raises(NoUnstableModeError):
            unstable_eigenmode(wave_2_03, 256)

    def test_oracle_dmatrix_symmetric(self, wave_1_05):
        D = dmatrix_via_collocation(wave_1_05, 256)
        assert np.max(np.abs(D - D.T)) < 1e-10 * np.max(np.abs(D))

    @pytest.mark.parametrize("N", [0, 1, 2])
    def test_oracle_refuses_a_grid_without_a_mode_in_range_j(self, wave_1_05, N):
        with pytest.raises(ValueError, match=f"N must be >= 3 \\(got {N}\\)"):
            dmatrix_via_collocation(wave_1_05, N)


def per_pair_reference(p, N):
    """Krein signs and partner gaps of the dense eig of dH by one loop per eigenvalue, the
    oracle of the certified spectrum: the 2x2 form of H on span(Re v, Im v) through
    eigvalsh, and a min per row."""
    H = assemble("Hcal", p, N)
    eigvals, eigvecs = np.linalg.eig(assemble("dHcal", p, N))
    keep = np.argsort(np.abs(eigvals))[zero_cluster_size(N):]
    eigs, vecs = eigvals[keep], eigvecs[:, keep]
    scale = np.maximum(1.0, np.abs(eigs))
    imag = (np.abs(eigs.imag) > 1e-7 * scale) & (np.abs(eigs.real) <= 1e-7 * scale)
    signs = []
    for idx in np.where(imag & (eigs.imag > 1e-6))[0]:
        u1, u2 = vecs[:, idx].real, vecs[:, idx].imag
        G = np.array([[u1 @ (H @ u1), u1 @ (H @ u2)],
                      [u2 @ (H @ u1), u2 @ (H @ u2)]]) * (p.L / N)
        glam = np.linalg.eigvalsh(0.5 * (G + G.T))
        signs.append((float(eigs.imag[idx]), int(np.sign(glam[0] + glam[1]))))
    gaps = [float(np.min(np.abs(eigs + lam)) / max(1.0, abs(lam))) for lam in eigs]
    return signs, np.array(gaps)


class TestBatchedSpectrum:
    @pytest.mark.parametrize("L, kappa", [(2.0, 0.3), (2.7, 0.55), (1.0, 0.9), (3.7, 0.93),
                                          (2.0, 0.05), (1.0, 0.5)])
    def test_krein_signs_and_gaps_match_per_pair_loop(self, L, kappa):
        # the dense eig of dH, one eigenvalue at a time, is the oracle of the
        # certified spectrum: as many eigenvalues, the same frequencies, every
        # upper member of positive Krein sign and every eigenvalue with its
        # -lambda partner
        p = params_from_kappa(L, kappa)
        for N in (128, 255, 384):
            rep = unstable_modes(p, N=N)
            signs, gaps = per_pair_reference(p, N)
            assert rep.eigenvalues.size == gaps.size == 2 * N - zero_cluster_size(N)
            certified = np.array([mu for mu, _ in upper_pair_signs(rep)])
            oracle = np.sort([mu for mu, _ in signs])
            assert certified.size == oracle.size
            assert np.max(np.abs(certified - oracle) / oracle) <= 1e-9
            assert all(sign == 1 for _, sign in signs)
            assert np.max(gaps) <= 1e-7
            assert rep.symmetry_residual == 0.0 and np.all(rep.eigenvalues.real == 0.0)

    def test_counts_and_signs_at_a_size_that_is_no_power_of_two(self, wave_2_03, spectrum_2_03):
        rep = unstable_modes(wave_2_03, N=384)
        assert (rep.k_r, rep.k_c, rep.krein_negative) == (
            spectrum_2_03.k_r, spectrum_2_03.k_c, spectrum_2_03.krein_negative)
        assert (rep.n_Lplus, rep.n_H) == (spectrum_2_03.n_Lplus, spectrum_2_03.n_H)
        assert rep.symmetry_residual < 1e-7
        # the resolved low frequencies carry the same signs at both sizes
        low = upper_pair_signs(spectrum_2_03)[:40]
        signs = upper_pair_signs(rep)
        mus = np.array([mu for mu, _ in signs])
        for mu, sign in low:
            j = int(np.argmin(np.abs(mus - mu)))
            assert abs(mus[j] - mu) < 1e-6 * mu
            assert signs[j][1] == sign


class TestCertificate:
    def test_certified_spectrum_needs_no_eig(self, wave_2_03, spectrum_2_03, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("unstable_modes called a dense nonsymmetric eigensolve")

        monkeypatch.setattr(np.linalg, "eig", refuse)
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        rep = unstable_modes(wave_2_03, N=256)
        assert np.array_equal(rep.eigenvalues, spectrum_2_03.eigenvalues)

    def test_margin_is_resolution_independent(self, wave_2_03, spectrum_2_03):
        # lambda_min of the constrained Hessian at (2, 0.3) is a property of the wave
        assert spectrum_2_03.margin == pytest.approx(6.3323282281, rel=1e-10)
        for N in (127, 255, 384):
            assert unstable_modes(wave_2_03, N=N).margin == pytest.approx(
                spectrum_2_03.margin, rel=1e-9)

    @pytest.mark.parametrize("kappa", [0.1, 0.9, 0.999])
    def test_margin_over_c_depends_on_kappa_alone(self, kappa):
        # the scaling (u, v)(x, t) -> L^-2 (U, V)(x/L, t/L^3) multiplies H by L^-2, as c
        waves = [params_from_kappa(L, kappa) for L in (1.0, 2.0)]
        ratios = [unstable_modes(p, N=255).margin / p.c for p in waves]
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-9)
        assert 0.44 < ratios[0] < 0.64

    def test_kernel_residual_at_rounding(self, spectrum_2_03):
        assert spectrum_2_03.kernel_residual < 1e-10

    def test_indefinite_hessian_raises_with_the_inertia(self, wave_2_03):
        # at 0.3 c the profile no longer solves its equation, and the even block's
        # constrained Hessian has two negative eigenvalues
        with pytest.raises(IndefiniteHessianError) as info:
            unstable_modes(replace(wave_2_03, c=0.3 * wave_2_03.c), N=128)
        assert (info.value.block, info.value.inertia) == ("even", (2, 0, 123))
        assert "inertia (n-, n0, n+) = (2, 0, 123)" in str(info.value)

    @pytest.mark.parametrize("certified", [unstable_modes])
    def test_profile_off_its_speed_has_no_certificate(self, wave_2_03, certified):
        # at 0.5 c both Cholesky factors exist, but (psi', phi') is not the kernel
        # of H (n(H) = (3, 0)), so the +-i omega would not be the spectrum of dH
        with pytest.raises(KernelResidualError) as info:
            certified(replace(wave_2_03, c=0.5 * wave_2_03.c), 256)
        assert info.value.residual == pytest.approx(1.99, rel=1e-2)
        assert f"{info.value.residual:.3e} > {KERNEL_RESIDUAL_BOUND:.0e}" in str(info.value)

    @pytest.mark.parametrize("L, kappa, N", [(1.0, 0.9, 8), (1.0, 0.999, 32), (2.0, 0.3, 3)])
    def test_unresolved_grid_has_no_certificate(self, L, kappa, N):
        with pytest.raises(KernelResidualError):
            unstable_modes(params_from_kappa(L, kappa), N)

    @pytest.mark.parametrize("N", [0, 1, 2])
    def test_grid_without_a_mode_in_range_j_refused(self, wave_2_03, N):
        with pytest.raises(ValueError, match=f"N must be >= 3 \\(got {N}\\)"):
            unstable_modes(wave_2_03, N)

    def test_forty_digit_certificate(self):
        # the certificate of (1, 0.3) at N = 64 redone at 40 digits: kernel residual
        # 5.0e-39, both factors, and lambda_min 25.32931291241354558, 3.2e-14 from
        # the margin of the double-precision core
        residual, factors, lam_min = certificate_mpmath(0.3, 64)
        assert residual < 1e-30
        assert [f.rows for f in factors] == [61, 61]
        margin = unstable_modes(params_from_kappa(1.0, 0.3), 64).margin
        assert abs(float(lam_min) - margin) <= 1e-12 * margin

    @pytest.mark.parametrize("N", [64, 65])
    def test_small_amplitude_limit_is_the_constant_state(self, N):
        # at kappa -> 0 the wave is the constant psi0 = 2c / sqrt(3), whose symbol on
        # mode k is ik S(k), S = [[k^2 + c - psi0^2 / (2c), -psi0], [-psi0, c]]: every
        # omega is k mu, mu an eigenvalue of S, but mode 1's kernel mu ~ 0, and the
        # margin is (8 - sqrt 37) c / 3. Measured at kappa = 1e-3: 2.0e-13 and 2.3e-14
        p = params_from_kappa(1.0, 1e-3)
        rep = unstable_modes(p, N)
        c, psi0 = p.c, 2.0 * p.c / np.sqrt(3.0)
        limit = (8.0 - np.sqrt(37.0)) / 3.0
        assert abs(rep.margin / c - limit) <= 1e-12 * limit
        omega = []
        for n in range(1, (N - 1) // 2 + 1):
            k = 2 * np.pi * n
            mu = np.linalg.eigvalsh([[k * k + c - psi0**2 / (2 * c), -psi0], [-psi0, c]])
            omega += list(k * (np.delete(mu, np.argmin(np.abs(mu))) if n == 1 else mu))
        omega = np.sort(omega)
        certified = rep.eigenvalues.imag[0::2]
        assert certified.size == omega.size == N - 3 + N % 2
        assert np.all(np.abs(certified - omega) <= 1e-11 * omega)


class TestCore:
    def test_core_figures_do_not_depend_on_n(self, wave_2_03):
        # psi at (2, 0.3) chops at mode 9: every N computes them on the same 37 points
        reps = [unstable_modes(wave_2_03, N) for N in (128, 255, 384)]
        assert {rep.core_N for rep in reps} == {37}
        figures = {(rep.margin, rep.n_Lplus, rep.n_H, rep.kernel_overlap_Lplus,
                    rep.kernel_overlap_H) for rep in reps}
        assert len(figures) == 1

    @pytest.mark.parametrize("kappa", [1e-3, 1e-4, 1e-8])
    def test_small_modulus_core_reaches_the_limit(self, kappa):
        # psi = const + O(kappa^2) cos + O(kappa^4) cos 2x chops at mode 2 at
        # kappa = 1e-3, at mode 1 at 1e-4 (5 points: 4.6e-9 off) and at mode 0 at
        # 1e-8 (1 point): 9 points each, and margin/c within 1.6e-14 of its
        # kappa -> 0 limit (3.3e-12 at kappa = 1e-3 and N = 255 on the full grid)
        p = params_from_kappa(1.0, kappa)
        rep = unstable_modes(p, 255)
        assert rep.core_N == 9
        assert abs(rep.margin / p.c - (8.0 - np.sqrt(37.0)) / 3.0) <= 1e-12

    def test_unchopped_wave_keeps_n(self):
        # near the separatrix psi's series ends past mode N / 4: at mode 113 here
        rep = unstable_modes(params_from_kappa(1.0, 1.0 - 1e-6), 384)
        assert rep.core_N == 384
        assert rep.n_Lplus == rep.n_H == (1, 1)

    def test_core_does_not_depend_on_n_near_the_separatrix(self):
        # the quadrature record's series of psi ends at mode 146 whatever N, so every
        # N from 585 on computes the figures on the 585 points of N = 585
        p = params_from_kappa(1.0, 1.0 - 1e-8)
        reps = [unstable_modes(p, N) for N in (1024, 585)]
        assert [rep.core_N for rep in reps] == [585, 585]
        assert reps[0].margin == reps[1].margin

    @pytest.mark.parametrize("L, kappa, N, grids", [
        (2.0, 0.3, 256, [256, 37]),         # the certificate's grid and the core
        (1.0, 1.0 - 1e-6, 384, [384]),      # psi does not chop: the core is the grid
    ], ids=["chopped", "unchopped"])
    def test_two_ffts_per_grid(self, L, kappa, N, grids, monkeypatch):
        # one fft of psi and one of psi^2 on each grid assemble every block there: the
        # L+ blocks of the core reuse the psi^2 blocks of its H
        seen, fft = [], np.fft.fft

        def record(a, *args, **kwargs):
            seen.append(np.array(a))
            return fft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", record)
        p = params_from_kappa(L, kappa)
        unstable_modes(p, N)
        p1 = _rescaled(p, 1.0)
        assert _core_size(kappa, N) == grids[-1]
        expected = [f for n in grids for psi in [_grid(p1, n)[0]] for f in (psi, psi * psi)]
        assert len(seen) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(seen, expected))

    def test_core_never_reports_a_nonpositive_margin(self, wave_2_03):
        c, (k, H, kernel, M2) = unit_blocks(wave_2_03, 37)
        (hc_e, hc_o), _, _ = _constrained_hessians(H, kernel, k, c)
        lam = np.linalg.eigvalsh(hc_o)
        shift = 0.5 * (lam[1] + lam[2])   # between the second and third eigenvalues
        with pytest.raises(IndefiniteHessianError) as info:
            _core_figures((hc_e, hc_o - shift * np.eye(hc_o.shape[0])), H[1], kernel, M2, c)
        assert (info.value.block, info.value.inertia) == ("odd", (2, 0, hc_o.shape[0] - 2))



class TestLapackFailure:
    """Every LAPACK call in spectra reports a failure as an EigensolveError.

    LinAlgError is a ValueError, so unguarded it would read as an input error.
    """

    CALLS = {
        "certificate-svd": (("svd",), lambda p: unstable_modes(p, 64)),
        "certificate-solve": (("solve",), lambda p: unstable_modes(p, 64)),
        "margin-eigvalsh": (("eigvalsh",), lambda p: unstable_modes(p, 64)),
        "core-lplus-eigh": (("eigh",), lambda p: unstable_modes(p, 64)),
        "failed-factor-eigvalsh": (("cholesky", "eigvalsh"),
                                        lambda p: unstable_modes(p, 64)),
        "d-oracle-solve": (("solve",), lambda p: dmatrix_via_collocation(p, 64)),
        "d-oracle-cond": (("cond",), lambda p: dmatrix_via_collocation(p, 64)),
        "morse-index-eigh": (("eigh",), lambda p: morse_index(assemble("Lplus", p, 64))),
        "eigenmode-eig": (("eig",), lambda p: unstable_eigenmode(p, 64)),
    }

    @pytest.mark.parametrize("call", CALLS)
    def test_failure_is_an_eigensolve_error(self, wave_2_03, call, monkeypatch):
        routines, run = self.CALLS[call]

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        for name in routines:
            monkeypatch.setattr(np.linalg, name, fail)
        with pytest.raises(EigensolveError, match="^did not converge$") as info:
            run(wave_2_03)
        assert type(info.value) is EigensolveError


@pytest.mark.skipif(_BLAS_PIN is None, reason="numpy's BLAS has no OpenBLAS thread setter")
class TestOneBlasThread:
    """Each entry that runs LAPACK at N runs it on one OpenBLAS thread and gives the
    caller's count back, on return and on raise."""

    @pytest.fixture
    def threads(self):
        pin = _BLAS_PIN
        before = pin.get_threads()
        pin.set_threads(2)
        if pin.get_threads() != 2:
            pin.set_threads(before)
            pytest.skip("OpenBLAS does not take 2 threads here")
        yield pin.get_threads
        pin.set_threads(before)

    @pytest.mark.parametrize("routine, entry", [
        ("svd", lambda p: unstable_modes(p, 128)),
        ("solve", lambda p: dmatrix_via_collocation(p, 128)),
        ("eig", lambda p: unstable_eigenmode(p, 64)),   # stable: NoUnstableModeError
    ], ids=["unstable_modes", "dmatrix_via_collocation", "unstable_eigenmode"])
    def test_lapack_runs_on_one_thread(self, wave_2_03, threads, monkeypatch, routine, entry):
        seen, original = [], getattr(np.linalg, routine)

        def spy(*args, **kwargs):
            seen.append(threads())
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, routine, spy)
        with suppress(NoUnstableModeError):
            entry(wave_2_03)
        assert seen and set(seen) == {1}
        assert threads() == 2

    @pytest.mark.parametrize("wave, N, error", [
        (replace(params_from_kappa(2.0, 0.3), c=0.3 * params_from_kappa(2.0, 0.3).c), 128,
         IndefiniteHessianError),
        (params_from_kappa(1.0, 0.9), 8, KernelResidualError),
    ], ids=["indefinite-hessian", "kernel-residual"])
    def test_count_restored_after_a_refusal(self, threads, wave, N, error):
        with pytest.raises(error):
            unstable_modes(wave, N)
        assert threads() == 2

    def test_calls_from_many_threads_share_the_pin(self, wave_2_03, threads, monkeypatch):
        # the count is read and set under one lock: with a save and restore per call,
        # one thread's restore would put two threads under another's SVD
        seen, svd = [], np.linalg.svd

        def spy(*args, **kwargs):
            time.sleep(1e-3)   # let the other threads enter and leave meanwhile
            seen.append(threads())
            return svd(*args, **kwargs)

        def work():
            for _ in range(5):
                unstable_modes(wave_2_03, 64)

        monkeypatch.setattr(np.linalg, "svd", spy)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(6)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(seen) == 30 and set(seen) == {1}
        assert threads() == 2


class TestSchurComplement:
    @pytest.mark.parametrize("L", [1.0, 2.7])
    @pytest.mark.parametrize("kappa", [1e-3, 0.05, 0.3, 0.55, 0.9, 0.999])
    def test_h_counts_and_kernel_are_those_of_lplus(self, L, kappa):
        # the Schur complement of c I in each H block is the L+ block, so the
        # eigensolves of the full H blocks are the oracle of n(H) and H's kernel
        # (worst measured: |M1 M1 - M2| / |M2| 1.5e-15, overlap 4.4e-16)
        p = params_from_kappa(L, kappa)
        for N in (127, 128, 255, 384):
            rep = unstable_modes(p, N)
            psi, dpsi = _grid(p, N)
            kernel = _sine_coordinates(np.stack([dpsi, psi * dpsi / p.c])).ravel()
            blocks = direct_h_blocks(p, N)
            for m1, m2, _ in blocks:
                assert np.linalg.norm(m1 @ m1 - m2) <= 1e-14 * np.linalg.norm(m2)
            lam_even = np.linalg.eigvalsh(blocks[0][2])
            lam_odd, vec_odd = np.linalg.eigh(blocks[1][2])
            assert rep.n_H == _morse_counts(np.concatenate([lam_even, lam_odd]))
            overlap = 0.0
            if np.min(np.abs(lam_odd)) <= np.min(np.abs(lam_even)):
                v = vec_odd[:, np.argmin(np.abs(lam_odd))]
                overlap = abs(v @ kernel) / (np.linalg.norm(v) * np.linalg.norm(kernel))
            assert abs(rep.kernel_overlap_H - overlap) <= 1e-12

    @pytest.mark.parametrize("N", [127, 256])
    def test_one_eigensolve_per_lplus_block_and_constrained_hessian(self, wave_2_03, N,
                                                                    monkeypatch):
        sizes, solves = [], []
        for name in ("eigh", "eigvalsh"):
            def record(A, *args, _solve=getattr(np.linalg, name), **kwargs):
                sizes.append(A.shape[0])
                return _solve(A, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, record)

        def record_solve(A, b, _solve=np.linalg.solve):
            solves.append((A.shape[0], np.shape(b)))
            return _solve(A, b)

        monkeypatch.setattr(np.linalg, "solve", record_solve)
        rep = unstable_modes(wave_2_03, N)
        # every eigensolve runs on the core: psi at (2, 0.3) chops at mode 9, so
        # the core has 37 points, 19 cosine and 18 sine modes; none runs at N
        assert rep.core_N == 37
        assert sorted(sizes) == [18, 19, 35, 35]   # L+ odd, L+ even, Hc_e, Hc_o
        m = (N - 1) // 2   # the sine modes of N
        # Kc^-T is applied in closed form: no solve with a matrix of right-hand sides
        assert solves and (2 * m - 1, 2 * m - 1) not in [shape for _, shape in solves]
        # e2 comes from the Schur complement of c I: no solve with the 2m x 2m even block
        assert (m, (m,)) in solves and 2 * m not in [size for size, _ in solves]

    @pytest.mark.parametrize("kappa", [1e-3, 0.3, 0.999])
    @pytest.mark.parametrize("N", [127, 256])
    def test_e2_from_the_schur_complement_is_the_full_solve(self, kappa, N):
        # H_ee e2 = K e1 on the even block of range(J), against the LU solve of the
        # whole 2m x 2m block. Both solve it to a backward error of rounding (worst
        # measured 1.7e-18) and point the same way (1 - |cos| 2.2e-16), which is all
        # the reflector reads. At kappa = 1e-3, K e1 lies along H_ee's near-kernel
        # (eigenvalue -1.6e-11 at L = 1, eps cond 2.2 and 8.9): there the two lengths
        # differ by 2.7e-4; at 0.3 and 0.999 the vectors agree to 2.4e-14.
        c, (k, H, kernel, _) = unit_blocks(params_from_kappa(1.0, kappa), N)
        A, b = H[0], -kernel / np.concatenate([k, k])
        got, full = _even_solve(A, b, c), np.linalg.solve(A, b)
        for x in (got, full):
            backward = np.linalg.norm(A @ x - b) / (np.linalg.norm(A, 2) * np.linalg.norm(x))
            assert backward <= 1e-16
        assert 1.0 - abs(got @ full) / (np.linalg.norm(got) * np.linalg.norm(full)) <= 1e-14
        if kappa > 1e-3:
            assert relative(got, full) <= 1e-12

    @pytest.mark.parametrize("N", [128, 512])
    def test_oracle_solves_once_on_the_core(self, wave_2_03, N, monkeypatch):
        # the core of (2, 0.3) has 37 points, whatever N: one solve with L+'s even
        # block of 19 cosine modes, not with H's
        solves = []

        def record_solve(A, b, _solve=np.linalg.solve):
            solves.append(A.shape[0])
            return _solve(A, b)

        monkeypatch.setattr(np.linalg, "solve", record_solve)
        dmatrix_via_collocation(wave_2_03, N)
        assert solves == [19]

    @pytest.mark.parametrize("N", [3, 4, 127, 128, 255, 512])
    def test_trig_basis_is_the_direct_evaluation(self, N):
        # the rfft coordinates are the products with the bases
        rng = np.random.default_rng(N)
        C, S = trig_basis(N)
        f = rng.standard_normal((2, N))
        assert relative(_cosine_coordinates(f), f @ C) <= 1e-14
        assert relative(_sine_coordinates(f), f @ S) <= 1e-14

    @pytest.mark.parametrize("N", [3, 4, 127, 128, 255, 512])
    def test_fft_assembly_is_the_direct_product(self, wave_2_03, N):
        # the Toeplitz-plus-Hankel blocks are B^T diag(f) B of the direct bases, and the
        # L+ blocks of both parities and the H blocks on range(J) follow (worst
        # measured: 2.4e-15, on L+), for the wave moved to period 1 as the entries move it
        p = _rescaled(wave_2_03, 1.0)
        psi, dpsi = _grid(p, N)
        m = (N - 1) // 2
        k_got, H, kernel, M2 = _parity_blocks(p.c, psi, dpsi)
        k = 2 * np.pi * np.arange(N // 2 + 1)
        assert np.array_equal(k_got, k[1:m + 1])
        blocks = (_multiplication_blocks(psi), _multiplication_blocks(psi * psi))
        assert all(np.array_equal(got, block) for got, block in zip(M2, blocks[1]))
        for parity, (kb, (m1, m2, h)) in enumerate(zip((k, k[1:m + 1]), direct_h_blocks(p, N))):
            assert relative(blocks[0][parity], m1) <= 1e-14
            assert relative(blocks[1][parity], m2) <= 1e-14
            lplus = np.diag(kb * kb + p.c) - (1.5 / p.c) * m2
            assert relative(_lplus_block(p.c, blocks[1][parity], kb), lplus) <= 1e-14
            if parity == 0:   # range(J): no constant and, at even N, no Nyquist mode
                keep = np.r_[1:m + 1, kb.size + 1:kb.size + m + 1]
                h = h[np.ix_(keep, keep)]
            assert relative(H[parity], h) <= 1e-14
        S = trig_basis(N)[1]
        assert relative(kernel, np.concatenate([S.T @ dpsi, S.T @ (psi * dpsi / p.c)])) <= 1e-14

    @pytest.mark.parametrize("N", [3, 4, 127, 128])
    def test_h_is_cut_from_the_multiplication_blocks(self, wave_2_03, N):
        # one builder: H on range(J) is [[Lm, -M1], [-M1, c I]] of the range(J) slices
        # of the full psi and psi^2 blocks, bit for bit
        p = _rescaled(wave_2_03, 1.0)
        psi, dpsi = _grid(p, N)
        k, H, _, _ = _parity_blocks(p.c, psi, dpsi)
        m = (N - 1) // 2
        J = slice(1, m + 1)
        M1, M2 = _multiplication_blocks(psi), _multiplication_blocks(psi * psi)
        for parity, (m1, m2) in enumerate([(M1[0][J, J], M2[0][J, J]), (M1[1], M2[1])]):
            lm = np.diag(k * k + p.c) - (0.5 / p.c) * m2
            assert np.array_equal(H[parity], np.block([[lm, -m1], [-m1, p.c * np.eye(m)]]))

    @pytest.mark.parametrize("kappa", [1e-3, 0.3, 0.999])
    def test_closed_form_kc_inverse_is_the_lu_solve(self, kappa):
        # worst measured: 8.8e-18
        c, (k, H, kernel, _) = unit_blocks(params_from_kappa(2.0, kappa), 255)
        hessians, (g_e, g_o), K_eo = _constrained_hessians(H, kernel, k, c)
        X, _ = _certify(hessians, (g_e, g_o), K_eo, H[1], kernel, c)
        L_e, L_o = (np.linalg.cholesky(Hc) for Hc in hessians)
        assert np.array_equal(K_eo, -1.0 / np.concatenate([k, k]))
        P_e, P_o = (np.eye(K_eo.size) - 2.0 * np.outer(g, g) for g in (g_e, g_o))
        Kc = (P_e @ np.diag(K_eo) @ P_o)[1:, 1:]
        closed = _kc_inverse_t(K_eo, g_e, g_o, L_o)
        assert relative(closed, np.linalg.solve(Kc.T, L_o)) <= 1e-13
        assert np.array_equal(X, L_e.T @ closed)


@pytest.mark.parametrize("kappa", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_even_block_oracle_matches_eigh_pseudo_inverse(kappa):
    # worst measured: 4.3e-7 at kappa = 0.1, the error of the grid pseudo-inverse
    # itself (the even-block oracle agrees with the quadratures to 5.3e-11 at these kappa)
    p = params_from_kappa(1.0, kappa)
    N = 512
    x = np.arange(N) * (p.L / N)
    psi, phi = eval_profile(p, x)
    H = assemble("Hcal", p, N)
    one, zero = np.ones(N), np.zeros(N)
    rhs = [np.concatenate([one, zero]), np.concatenate([zero, one]), np.concatenate([psi, phi])]
    sols = [pseudo_inverse_apply(H, r) for r in rhs]
    D = np.array([[(p.L / N) * (ri @ ej) for ej in sols] for ri in rhs])
    D = 0.5 * (D + D.T)
    assert np.max(np.abs(dmatrix_via_collocation(p, N) - D) / np.abs(D)) < 1e-6


@pytest.mark.parametrize("L", [1.0, 2.7])
@pytest.mark.parametrize("kappa", [1e-3, 3e-3])
def test_oracle_refuses_an_ill_conditioned_even_block(L, kappa):
    # eps cond of L+'s even block is 1.0e-3 at kappa = 1e-3 and 1.3e-5 at 3e-3, where
    # the D it would give is 3.4e-3 and 2.8e-5 off the quadratures at L = 1
    with pytest.raises(EigensolveError, match=r"eps cond = \S+ > 1e-06$"):
        dmatrix_via_collocation(params_from_kappa(L, kappa), 512)


@pytest.mark.parametrize("L", [1.0, 2.7])
@pytest.mark.parametrize("kappa", [1e-2, 0.05])
def test_oracle_answers_a_well_conditioned_even_block(L, kappa):
    # eps cond 2.4e-7 at kappa = 1e-2 and 7.0e-10 at 0.05; worst measured 5.0e-8
    p = params_from_kappa(L, kappa)
    D = assemble_dmatrix(p).entries
    assert np.max(np.abs(D - dmatrix_via_collocation(p, 512)) / np.abs(D)) <= 1e-6


@pytest.mark.parametrize("L", [1.0, 2.0, 4.0])
def test_oracle_matches_quadrature_at_small_kappa(L):
    # worst measured: 6.4e-10, on the 17-point core
    p = params_from_kappa(L, 0.05)
    D = assemble_dmatrix(p).entries
    oracle = dmatrix_via_collocation(p, 512)
    assert np.max(np.abs(D - oracle) / np.abs(oracle)) <= 1e-8
