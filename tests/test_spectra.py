import numpy as np
import pytest

from dswlab.index_engine import assemble_dmatrix
from dswlab.spectra import (ZERO_CLUSTER_SIZE, NoUnstableModeError, assemble,
                            assemble_operator, dmatrix_via_collocation,
                            imaginary_eigenmode, kernel_alignment, morse_index,
                            pseudo_inverse_apply, unstable_eigenmode, unstable_modes)
from dswlab.waves import eval_profile, eval_profile_derivatives, params_from_kappa


class TestAssemble:
    def test_constant_coefficient_diagonalization(self):
        # psi = 0: L+ has eigenvalues c + (2 pi k / L)^2, each nonzero twice
        L, c, N = 2.0, 3.0, 128
        op = assemble_operator("Lplus", L, c, np.zeros(N))
        lam = np.sort(np.linalg.eigvalsh(op.matrix))
        expected = np.sort([c + (2 * np.pi * k / L) ** 2
                            for k in range(-N // 2, N // 2)])
        assert np.max(np.abs(lam - expected)) < 1e-8 * np.max(expected)

    def test_kernel_of_lplus_is_psi_prime(self, wave_2_03):
        p = wave_2_03
        op = assemble("Lplus", p, 512)
        x = np.arange(512) * p.L / 512
        dpsi = eval_profile_derivatives(p, x)[1]
        assert np.max(np.abs(op.matrix @ dpsi)) < 1e-8 * np.max(np.abs(dpsi))

    def test_kernel_of_hcal_is_profile_gradient(self, wave_2_03):
        p = wave_2_03
        op = assemble("Hcal", p, 512)
        x = np.arange(512) * p.L / 512
        psi, dpsi, _ = eval_profile_derivatives(p, x)
        dphi = psi * dpsi / p.c
        vec = np.concatenate([dpsi, dphi])
        assert np.max(np.abs(op.matrix @ vec)) < 1e-8 * np.max(np.abs(vec))

    def test_symmetry_of_symmetric_kinds(self, wave_2_03):
        for kind in ("Lplus", "Hcal"):
            A = assemble(kind, wave_2_03, 128).matrix
            assert np.max(np.abs(A - A.T)) < 1e-10 * np.max(np.abs(A))

    def test_kind_and_size_validated(self, wave_2_03):
        with pytest.raises(ValueError):
            assemble("bogus", wave_2_03, 128)
        with pytest.raises(ValueError):
            assemble("Lplus", wave_2_03, 100)
        with pytest.raises(ValueError, match="N must be even"):
            assemble("Lplus", wave_2_03, 255)


class TestMorseIndex:
    def test_lplus_counts(self, wave_2_03):
        # The reference material asserts (2, 1) here; the converged eigensolve
        # (identical at N=256 and N=512, cross-checked by a monodromy shooting
        # count) gives exactly one negative eigenvalue. See NOTES.md.
        assert morse_index(assemble("Lplus", wave_2_03, 256)) == (1, 1)

    def test_hcal_counts(self, wave_2_03):
        assert morse_index(assemble("Hcal", wave_2_03, 256)) == (1, 1)

    def test_free_operator_positive(self):
        op = assemble_operator("Lplus", 2.0, 3.0, np.zeros(128))
        assert morse_index(op) == (0, 0)

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

    def test_lplus_second_eigenvalue_positive_and_converged(self, wave_2_03):
        # the decisive quantity for the index disagreement: the eigenvalue
        # adjacent to the kernel is strictly positive and N-converged
        vals = {}
        for N in (256, 512):
            lam = np.sort(np.linalg.eigvalsh(assemble("Lplus", wave_2_03, N).matrix))
            vals[N] = lam[:3]
        assert vals[256][0] < 0 < vals[256][2]
        assert abs(vals[256][1]) < 1e-6
        assert np.max(np.abs(vals[256] - vals[512])) < 1e-8 * max(1, abs(vals[256][0]))

    def test_requires_symmetric_kind(self, wave_2_03):
        with pytest.raises(ValueError):
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
        assert np.max(np.abs(op.matrix @ x - f)) < 1e-7

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


class TestSpectrumReport:
    def test_no_unstable_modes(self, spectrum_2_03):
        # the headline empirical finding: the co-periodic spectrum is purely
        # imaginary (k_r = k_c = 0) with all Krein signs positive
        rep = spectrum_2_03
        assert rep.k_r == 0
        assert rep.k_c == 0
        assert rep.krein_negative == 0
        assert rep.lambda_max_real == 0.0
        assert np.max(rep.eigenvalues.real) < 1e-6

    def test_quadruplet_symmetry(self, spectrum_2_03):
        assert spectrum_2_03.symmetry_residual < 1e-7

    def test_odd_grid_refused_before_the_eigensolve(self, wave_2_03):
        # for odd N the zeroed index N // 2 would be a real Fourier mode
        with pytest.raises(ValueError, match="N must be even"):
            unstable_modes(wave_2_03, N=255)

    def test_zero_cluster_separated(self, spectrum_2_03):
        rep = spectrum_2_03
        assert rep.zero_cluster.size == 6
        assert np.max(np.abs(rep.zero_cluster)) < 0.1 * np.min(np.abs(rep.eigenvalues))

    def test_count_identity_with_measured_morse_index(self, spectrum_2_03, wave_2_03):
        # k_r + 2 k_c + 2 k_i^- = n(H) - n(D) holds with the measured n(H) = 1
        n_d = assemble_dmatrix(wave_2_03).n_negative
        assert spectrum_2_03.count_identity_lhs() == spectrum_2_03.n_H_minus_nD(n_d)
        assert spectrum_2_03.n_H[0] == 1 and n_d == 1

    def test_krein_signs_all_positive(self, spectrum_2_03):
        assert len(spectrum_2_03.krein_signs) > 10
        assert all(sign > 0 for _, sign in spectrum_2_03.krein_signs)

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
            mu[N], _, _ = imaginary_eigenmode(wave_2_03, N)
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


def per_pair_reference(p, N):
    """Krein signs and partner gaps by one loop per eigenvalue, the reference for the batches:
    the 2x2 form of H on span(Re v, Im v) through eigvalsh, and a min per row."""
    H = assemble("Hcal", p, N).matrix
    eigvals, eigvecs = np.linalg.eig(assemble("dHcal", p, N).matrix)
    keep = np.argsort(np.abs(eigvals))[ZERO_CLUSTER_SIZE:]
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
    @pytest.mark.parametrize("L, kappa", [(2.0, 0.3), (1.0, 0.5)])
    def test_krein_signs_and_gaps_match_per_pair_loop(self, L, kappa):
        p = params_from_kappa(L, kappa)
        rep = unstable_modes(p, N=128)
        signs, gaps = per_pair_reference(p, 128)
        assert rep.krein_signs == signs
        assert np.array_equal(rep.partner_gaps, gaps)
        assert rep.symmetry_residual == max(gaps)

    def test_counts_and_signs_at_a_size_that_is_no_power_of_two(self, wave_2_03, spectrum_2_03):
        rep = unstable_modes(wave_2_03, N=384)
        assert (rep.k_r, rep.k_c, rep.krein_negative) == (
            spectrum_2_03.k_r, spectrum_2_03.k_c, spectrum_2_03.krein_negative)
        assert (rep.n_Lplus, rep.n_H) == (spectrum_2_03.n_Lplus, spectrum_2_03.n_H)
        assert rep.symmetry_residual < 1e-7
        # the resolved low frequencies carry the same signs at both sizes
        low = spectrum_2_03.krein_signs[:40]
        mus = np.array([mu for mu, _ in rep.krein_signs])
        for mu, sign in low:
            j = int(np.argmin(np.abs(mus - mu)))
            assert abs(mus[j] - mu) < 1e-6 * mu
            assert rep.krein_signs[j][1] == sign


@pytest.mark.parametrize("kappa", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_bordered_oracle_matches_eigh_pseudo_inverse(kappa):
    # worst measured: 2.4e-7 at kappa = 0.1
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
