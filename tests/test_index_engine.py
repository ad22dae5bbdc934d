import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dswlab.index_engine import (AIntegrals, DegenerateDMatrixError, EvenSymmetryError,
                                 InconsistentIndexError, QuadratureNotConvergedError,
                                 a_integrals, assemble_dmatrix,
                                 build_varphi, dmatrix_from_entries,
                                 gauss_legendre_adaptive, half_period_data,
                                 hamiltonian_index, linv_apply, lplus_apply,
                                 non_periodicity_gap, psi_moments, varphi_pairings)
from dswlab.waves import (GridFunction, eval_profile, eval_profile_derivatives,
                          params_from_kappa, profile_grid)


def test_gauss_legendre_against_scipy():
    f = lambda x: np.exp(np.sin(3 * x)) / (1.1 + np.cos(x) ** 2)
    mine = gauss_legendre_adaptive(f, 0.0, 2.5)
    ref = quad(f, 0.0, 2.5, epsabs=1e-13, epsrel=1e-13)[0]
    assert mine == pytest.approx(ref, rel=1e-12)


def test_gauss_legendre_unconverged_raises():
    # a kink inside a panel converges only like panels**-2
    kinked = lambda x: np.abs(x - 1.0 / 3.0)
    with pytest.raises(QuadratureNotConvergedError, match="max_panels=64"):
        gauss_legendre_adaptive(kinked, 0.0, 1.0, max_panels=64)
    smooth = lambda x: np.exp(x)
    assert gauss_legendre_adaptive(smooth, 0.0, 1.0, max_panels=64) == pytest.approx(np.e - 1.0, rel=1e-14)


class TestVarphi:
    def test_value_at_origin(self, wave_1_05, varphi_1_05):
        p = wave_1_05
        closed = 1.0 / (2 * p.alpha**2 * p.eta4 * (p.kappa**2 + p.beta_sq))
        assert varphi_1_05.varphi_0 == pytest.approx(closed, rel=1e-13)

    def test_endpoint_values_match(self, wave_1_05, varphi_1_05):
        ends = varphi_1_05.varphi_at([0.0, wave_1_05.L])
        assert abs(ends[0] - ends[1]) < 1e-8 * abs(ends[0])

    def test_even_about_origin(self, wave_1_05, varphi_1_05):
        xs = np.linspace(0.01, 0.45 * wave_1_05.L, 25)
        plus = varphi_1_05.varphi_at(xs)
        minus = varphi_1_05.varphi_at(-xs)
        assert np.max(np.abs(plus - minus)) < 1e-8 * np.max(np.abs(plus))

    def test_kernel_residual_finite_differences(self, wave_1_05, varphi_1_05):
        p, t = wave_1_05, varphi_1_05
        xs = np.linspace(0.1 * p.L, 0.9 * p.L, 17)
        h = 1e-5
        lap = (t.varphi_at(xs + h) - 2 * t.varphi_at(xs) + t.varphi_at(xs - h)) / h**2
        psi, _ = eval_profile(p, xs)
        resid = -lap + (p.c - 1.5 * psi**2 / p.c) * t.varphi_at(xs)
        assert np.max(np.abs(resid)) < 1e-6

    def test_wronskian_with_kernel_is_unity(self, wave_1_05, varphi_1_05):
        # answers the open question: the constant is exactly 1
        p, t = wave_1_05, varphi_1_05
        xs = np.linspace(0.02 * p.L, 0.98 * p.L, 33)
        _, dpsi, ddpsi = eval_profile_derivatives(p, xs)
        wr = dpsi * t.varphi_prime_at(xs) - ddpsi * t.varphi_at(xs)
        assert np.max(np.abs(wr - 1.0)) < 1e-8

    def test_derivative_consistent_with_finite_differences(self, wave_1_05, varphi_1_05):
        t = varphi_1_05
        xs = np.linspace(0.05, 0.95 * wave_1_05.L, 19)
        h = 1e-6
        fd = (t.varphi_at(xs + h) - t.varphi_at(xs - h)) / (2 * h)
        assert np.max(np.abs(fd - t.varphi_prime_at(xs))) < 1e-6


class TestNonPeriodicityGap:
    def test_gap_matches_closed_form(self, wave_1_05, varphi_1_05):
        p = wave_1_05
        A = a_integrals(p)
        closed = -p.L * A.A2 / (2 * p.K * p.eta4 * (p.kappa**2 + p.beta_sq))
        gap = non_periodicity_gap(varphi_1_05)
        assert gap == pytest.approx(closed, rel=1e-8)

    def test_gap_nonzero_and_sign(self, wave_1_05, varphi_1_05):
        # A2 < 0 and the boundary factor is positive, so the gap is positive
        gap = non_periodicity_gap(varphi_1_05)
        scale = abs(varphi_1_05.varphi_0)
        assert abs(gap) > 1e-6 * scale
        assert gap > 0

    def test_gap_continuous_in_kappa(self):
        gaps = []
        for kappa in np.linspace(0.3, 0.4, 6):
            p = params_from_kappa(1.0, kappa)
            gaps.append(non_periodicity_gap(build_varphi(p)))
        diffs = np.abs(np.diff(gaps))
        assert np.max(diffs) < 0.2 * np.max(np.abs(gaps))


class TestAIntegrals:
    def test_small_kappa_limits(self):
        A = a_integrals(params_from_kappa(2.0, 0.01))
        # beta^2 -> 0, dn -> 1: A1 and A4 collapse to int of cos on a quarter period
        assert abs(A.A1) < 1e-2
        assert abs(A.A4) < 1e-2

    def test_a2_negative_on_sweep(self):
        for kappa in np.arange(0.05, 0.96, 0.05):
            A = a_integrals(params_from_kappa(1.0, kappa))
            assert A.A2 < 0.0

    def test_a5_equals_a2(self, wave_1_05):
        A = a_integrals(wave_1_05)
        assert A.A5 == A.A2

    def test_against_adaptive_quadrature(self, wave_1_05):
        from dswlab.elliptic import jacobi_sn_cn_dn

        p = wave_1_05
        k2, b2 = p.kappa**2, p.beta_sq
        k2b2 = k2 + b2

        def base(u):
            sn, _, dn = jacobi_sn_cn_dn(u, p.kappa)
            B = 1 + b2 * sn**2
            return B, 1 - 2 * sn**2, 3 * k2b2 + 5 * b2 * dn**2, dn

        integrands = {
            "A1": lambda u: (lambda B, w, f, d: B * B * w / d**2)(*base(u)),
            "A2": lambda u: (lambda B, w, f, d: B**3 * f * w / d**4)(*base(u)),
            "A3": lambda u: (lambda B, w, f, d: B * B * f * w / d**2)(*base(u)),
            "A4": lambda u: (lambda B, w, f, d: B * w)(*base(u)),
            "A6": lambda u: (lambda B, w, f, d: B * f * w)(*base(u)),
        }
        A = a_integrals(p)
        for name, fn in integrands.items():
            ref = quad(fn, 0.0, p.K, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
            assert getattr(A, name) == pytest.approx(ref, rel=1e-9), name


class TestVarphiPairings:
    def test_against_direct_quadrature(self, wave_1_05, varphi_1_05):
        p, t = wave_1_05, varphi_1_05
        s1, spsi = varphi_pairings(p)
        d1 = 2 * quad(lambda x: t.varphi_at(x), 0, p.L / 2,
                      epsabs=1e-12, epsrel=1e-12, limit=200)[0]
        dpsi = 2 * quad(lambda x: t.varphi_at(x) * eval_profile(p, x)[0], 0, p.L / 2,
                        epsabs=1e-12, epsrel=1e-12, limit=200)[0]
        assert s1 == pytest.approx(d1, abs=1e-7 * max(1, abs(d1)))
        assert spsi == pytest.approx(dpsi, abs=1e-7 * max(1, abs(dpsi)))

    def test_period_scaling(self):
        # <varphi, psi> carries the explicit L^3 prefactor; <varphi, 1> picks up
        # two more powers from the 1/eta4 factor (eta4 ~ 1/L^2 at fixed kappa)
        a1, ap1 = varphi_pairings(params_from_kappa(1.0, 0.5))
        a2, ap2 = varphi_pairings(params_from_kappa(2.0, 0.5))
        assert ap2 == pytest.approx(8 * ap1, rel=1e-12)
        assert a2 == pytest.approx(32 * a1, rel=1e-12)


class TestHalfPeriodData:
    def test_closed_forms_match_numerics(self, wave_1_05, varphi_1_05):
        p, t = wave_1_05, varphi_1_05
        psi_h, psi_pp_h, varphi_p_h = half_period_data(p)
        psi_num, _ = eval_profile(p, p.L / 2)
        h = 1e-5
        psi_p, _ = eval_profile(p, p.L / 2 + h)
        psi_m, _ = eval_profile(p, p.L / 2 - h)
        assert psi_h == pytest.approx(psi_num, rel=1e-12)
        assert psi_pp_h == pytest.approx((psi_p - 2 * psi_num + psi_m) / h**2, rel=1e-4)
        assert psi_pp_h == pytest.approx(p.c * psi_h + p.F1 - psi_h**3 / (2 * p.c), rel=1e-12)
        fd = (t.varphi_at(p.L / 2 + h) - t.varphi_at(p.L / 2 - h)) / (2 * h)
        assert varphi_p_h == pytest.approx(fd, abs=1e-7 * max(1.0, abs(varphi_p_h)))
        assert varphi_p_h == pytest.approx(t.varphi_half_prime, rel=1e-10)


class TestLinvApply:
    def test_forward_operator_recovers_input(self, wave_1_05, varphi_1_05):
        p, t = wave_1_05, varphi_1_05
        N = 2048
        f = GridFunction(p.L, np.ones(N))
        out = linv_apply(p, t, f)
        resid = lplus_apply(p, out) - f.samples
        assert np.max(np.abs(resid)) < 1e-6

    def test_forward_operator_on_psi(self, wave_1_05, varphi_1_05):
        p, t = wave_1_05, varphi_1_05
        psi_g, _ = profile_grid(p, 2048)
        out = linv_apply(p, t, psi_g)
        assert np.max(np.abs(lplus_apply(p, out) - psi_g.samples)) < 1e-6

    def test_cubic_reduction_formula(self, wave_1_05, varphi_1_05):
        # L+^{-1} psi^3 = -c psi - c F1 L+^{-1} 1
        p, t = wave_1_05, varphi_1_05
        N = 2048
        x = np.arange(N) * p.L / N
        psi, _ = eval_profile(p, x)
        lhs = linv_apply(p, t, GridFunction(p.L, psi**3)).samples
        inv_one = linv_apply(p, t, GridFunction(p.L, np.ones(N))).samples
        rhs = -p.c * psi - p.c * p.F1 * inv_one
        assert np.max(np.abs(lhs - rhs)) < 1e-7 * max(1.0, np.max(np.abs(rhs)))

    def test_endpoint_periodicity(self, wave_1_05, varphi_1_05):
        # evaluate the inverse on a shifted-origin grid: periodicity of the
        # output means the two grids sample the same smooth periodic function
        p, t = wave_1_05, varphi_1_05
        N = 1024
        x = np.arange(N) * p.L / N
        psi, _ = eval_profile(p, x)
        out = linv_apply(p, t, GridFunction(p.L, psi)).samples
        # spectral interpolation near the seam: compare value/derivative from
        # the left end and the right end via the FFT representation
        coeffs = np.fft.fft(out)
        k = 2 * np.pi * np.fft.fftfreq(N, d=p.L / N)
        tail = np.abs(coeffs[N // 2 - 8: N // 2 + 8]) / N
        assert np.max(tail) < 1e-7  # a jump in value or slope would pollute high modes
        deriv = np.fft.ifft(1j * np.where(np.abs(k) == np.max(np.abs(k)), 0, k) * coeffs).real
        assert np.isfinite(deriv).all()

    def test_even_symmetry_enforced(self, wave_1_05, varphi_1_05):
        p, t = wave_1_05, varphi_1_05
        N = 2048
        x = np.arange(N) * p.L / N
        with pytest.raises(EvenSymmetryError):
            linv_apply(p, t, GridFunction(p.L, np.sin(2 * np.pi * x / p.L)))

    def test_grid_period_checked(self, wave_1_05, varphi_1_05):
        with pytest.raises(ValueError):
            linv_apply(wave_1_05, varphi_1_05, GridFunction(2 * wave_1_05.L, np.ones(2048)))

    @settings(max_examples=10, deadline=None)
    @given(a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0))
    def test_linearity(self, wave_1_05, varphi_1_05, a, b):
        p, t = wave_1_05, varphi_1_05
        N = 1024
        x = np.arange(N) * p.L / N
        f1 = np.cos(2 * np.pi * x / p.L)
        f2 = np.cos(4 * np.pi * x / p.L) + 0.5
        lhs = linv_apply(p, t, GridFunction(p.L, a * f1 + b * f2)).samples
        rhs = (a * linv_apply(p, t, GridFunction(p.L, f1)).samples
               + b * linv_apply(p, t, GridFunction(p.L, f2)).samples)
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * (1 + abs(a) + abs(b))


class TestDMatrix:
    def test_symmetric_by_construction(self, wave_1_05):
        d = assemble_dmatrix(wave_1_05)
        assert np.array_equal(d.entries, d.entries.T)

    def test_det_negative_at_reference_point(self, wave_1_05):
        d = assemble_dmatrix(wave_1_05)
        assert d.det < 0.0
        assert d.n_negative == 1

    @pytest.mark.parametrize("kappa", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_oracle_equivalence(self, kappa):
        from dswlab.spectra import dmatrix_via_collocation

        p = params_from_kappa(1.0, kappa)
        d = assemble_dmatrix(p)
        oracle = dmatrix_via_collocation(p, 512)
        rel = np.abs(d.entries - oracle) / np.abs(oracle)
        assert np.max(rel) < 1e-6

    def test_pairwise_oracle_equivalence(self, wave_1_05, varphi_1_05):
        # <Linv f, g> from the quadrature inverse vs the collocation solve,
        # pairwise over f, g in {1, psi, psi^3}
        from dswlab.spectra import assemble, pseudo_inverse_apply

        p, t = wave_1_05, varphi_1_05
        N = 512
        x = np.arange(N) * p.L / N
        psi, _ = eval_profile(p, x)
        w = p.L / N
        fields = {"one": np.ones(N), "psi": psi, "psi3": psi**3}
        op = assemble("Lplus", p, N)
        for fname, f in fields.items():
            quadrature = linv_apply(p, t, GridFunction(p.L, f)).samples
            spectral = pseudo_inverse_apply(op, f)
            for gname, g in fields.items():
                a = w * float(quadrature @ g)
                b = w * float(spectral @ g)
                assert a == pytest.approx(b, rel=1e-6), (fname, gname)

    def test_identity_chain_cubic_pairing(self, wave_1_05, varphi_1_05):
        # <L+^{-1} psi^3, 1> from the closed-form reduction equals the direct
        # pairing of the grid inverse against 1
        p, t = wave_1_05, varphi_1_05
        N = 2048
        x = np.arange(N) * p.L / N
        psi, _ = eval_profile(p, x)
        grid_val = (p.L / N) * float(np.sum(linv_apply(p, t, GridFunction(p.L, psi**3)).samples))
        d11 = assemble_dmatrix(p).entries[0, 0]
        m1 = psi_moments(p)[0]
        closed = -p.c * m1 - p.c * p.F1 * d11
        assert grid_val == pytest.approx(closed, rel=1e-7)

    def test_moments_against_quadrature(self, wave_1_05):
        p = wave_1_05
        m = psi_moments(p)
        for i, mi in enumerate(m, start=1):
            ref = quad(lambda x: eval_profile(p, x)[0] ** i, 0, p.L,
                       epsabs=1e-12, epsrel=1e-12, limit=200)[0]
            assert mi == pytest.approx(ref, rel=1e-10)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateDMatrixError):
            hamiltonian_index(dmatrix_from_entries(np.zeros((3, 3))))


class TestHamiltonianIndex:
    def test_identity_matrix(self):
        assert hamiltonian_index(dmatrix_from_entries(np.eye(3))) == (2, 0)

    def test_negative_identity_flagged(self):
        with pytest.raises(InconsistentIndexError):
            hamiltonian_index(dmatrix_from_entries(-np.eye(3)))

    def test_sweep_index(self):
        for kappa in (0.05, 0.3, 0.6, 0.95):
            d = assemble_dmatrix(params_from_kappa(1.0, kappa))
            assert d.det < 0.0
            assert hamiltonian_index(d) == (1, 1)

    def test_period_only_scales_entries(self):
        # sign data of D is L-independent; record the empirical det scaling
        d1 = assemble_dmatrix(params_from_kappa(1.0, 0.5))
        d2 = assemble_dmatrix(params_from_kappa(2.0, 0.5))
        assert d1.n_negative == d2.n_negative == 1
        assert np.sign(d1.det) == np.sign(d2.det)
