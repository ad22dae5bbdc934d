import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dswlab.index_engine import (AIntegrals, DegenerateDMatrixError, DMatrixRoundingError,
                                 EvenSymmetryError, InconsistentIndexError,
                                 NonFiniteDMatrixError, QuadratureNotConvergedError,
                                 _cosine_series, a_integrals, assemble_dmatrix,
                                 build_varphi, dmatrix_from_entries, half_period_data,
                                 hamiltonian_index, linv_apply, lplus_apply,
                                 non_periodicity_gap, psi_moments, varphi_pairings)
from dswlab.waves import (GridFunction, eval_profile, eval_profile_derivatives,
                          params_from_kappa, profile_grid)


def _cosine_rows(K, *rows):
    """Rows of the sampler as functions of theta = pi u / K."""
    return lambda u: [g(np.pi * u / K) for g in rows]


def test_cosine_sampler_against_scipy():
    K = 2.5
    f = lambda theta: np.exp(np.sin(np.cos(theta))) / (1.1 + np.cos(theta) ** 2)
    a, = _cosine_series(_cosine_rows(K, f), K)
    ref = quad(lambda u: f(np.pi * u / K), 0.0, K, epsabs=1e-13, epsrel=1e-13)[0]
    assert K * a[0] == pytest.approx(ref, rel=1e-13)


def test_cosine_sampler_kinked_row_raises():
    # a kink leaves coefficients decaying like m**-2, far above rounding at the cap
    with pytest.raises(QuadratureNotConvergedError, match=r"16385 samples: row\(s\) \[0\] of 1"):
        _cosine_series(_cosine_rows(1.0, lambda theta: np.abs(np.cos(theta))), 1.0)
    a, = _cosine_series(_cosine_rows(1.0, lambda theta: np.exp(np.cos(theta))), 1.0)
    assert a[0] == pytest.approx(np.i0(1.0), rel=1e-15)  # the mean of exp(cos) is I0(1)


def test_cosine_sampler_names_the_unconverged_row():
    stacked = _cosine_rows(1.0, np.cos, lambda theta: np.abs(np.cos(theta)),
                           lambda theta: np.exp(np.cos(theta)))
    with pytest.raises(QuadratureNotConvergedError, match=r"row\(s\) \[1\] of 3"):
        _cosine_series(stacked, 1.0)


def test_cosine_sampler_stack_keeps_each_row_at_its_own_level():
    # the rows converge at different levels; each keeps the bits a one-row call gives
    rows = [lambda theta: np.exp(np.cos(theta)), lambda theta: 1.0 / (1.2 - np.cos(theta)),
            lambda theta: 1.0 / (1.01 - np.cos(theta))]
    stacked = _cosine_series(_cosine_rows(2.0, *rows), 2.0)
    single = [_cosine_series(_cosine_rows(2.0, g), 2.0)[0] for g in rows]
    assert len({a.size for a in stacked}) == 3
    assert all(np.array_equal(a, b) for a, b in zip(stacked, single))


@pytest.mark.parametrize("L", [0.5, 2.0, 50.0])
@pytest.mark.parametrize("kappa", [0.01, 0.3, 0.95, 0.999, 1 - 1e-6])
def test_a2_is_the_slope_of_varphi_series(L, kappa):
    # one rule, one row: A2's integrand is varphi's inner integrand, bit for bit
    p = params_from_kappa(L, kappa)
    assert a_integrals(p).A2 == p.K * build_varphi(p)._a[0]


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


class TestVarphiSeries:
    @pytest.mark.parametrize("L", [1.0, 2.7, 40.0])
    @pytest.mark.parametrize("kappa", [0.05, 0.3, 0.55, 0.9, 0.999])
    def test_slope_is_the_mean_of_the_inner_integrand(self, L, kappa):
        # a_0 is the trapezoid mean of M over [0, K], the A2 quadrature over K
        import dswlab.index_engine as ie

        p = params_from_kappa(L, kappa)
        t = build_varphi(p)
        A2 = a_integrals(p).A2
        assert t._a[0] == pytest.approx(A2 / p.K, rel=1e-13)
        assert ie._antiderivative(t._a, p.K, 2.0 * p.K) == pytest.approx(2.0 * A2, rel=1e-13)

    @pytest.mark.parametrize("kappa", [0.3, 0.99])
    def test_antiderivative_against_quad(self, kappa):
        # G is odd and needs no fold or extrapolation: negative u and u past 2K
        import dswlab.index_engine as ie
        from dswlab.elliptic import jacobi_sn_cn_dn

        p = params_from_kappa(2.0, kappa)
        t = build_varphi(p)

        def M(u):
            sn, _, dn = jacobi_sn_cn_dn(u, p.kappa)
            return ie._inner_integrand(p, sn, dn)

        scale = quad(lambda v: abs(M(v)), 0.0, p.K, epsabs=1e-13, epsrel=1e-13, limit=400)[0]
        for u in np.array([-0.7, 0.3, 1.1, 2.5, 5.2]) * p.K:
            ref = quad(M, 0.0, u, epsabs=1e-13, epsrel=1e-13, limit=400)[0]
            assert ie._antiderivative(t._a, p.K, u) == pytest.approx(ref, abs=1e-12 * scale)

    @pytest.mark.usefixtures("fresh_records")
    @pytest.mark.parametrize("kappa", [0.05, 0.5, 0.95, 0.999])
    def test_series_samples_few_points(self, kappa, monkeypatch):
        import dswlab.index_engine as ie

        points, jacobi_once = [], ie.jacobi_sn_cn_dn
        monkeypatch.setattr(ie, "jacobi_sn_cn_dn",
                            lambda u, k: points.append(np.size(u)) or jacobi_once(u, k))
        build_varphi(params_from_kappa(2.0, kappa))
        assert sum(points) <= 129

    def test_linv_apply_evaluates_the_elliptic_functions_once(self, wave_1_05, varphi_1_05,
                                                               monkeypatch):
        import dswlab.index_engine as ie

        calls, jacobi_once = [], ie.jacobi_sn_cn_dn
        monkeypatch.setattr(ie, "jacobi_sn_cn_dn",
                            lambda u, k: calls.append(np.size(u)) or jacobi_once(u, k))
        linv_apply(wave_1_05, varphi_1_05, GridFunction(wave_1_05.L, np.ones(256)))
        assert calls == [4 * 256 + 1]  # one half period

    @pytest.mark.usefixtures("fresh_records")
    def test_kinked_integrand_raises(self, wave_1_05, monkeypatch):
        # a kink leaves coefficients decaying like m**-2, far above rounding at the cap
        import dswlab.index_engine as ie

        monkeypatch.setattr(ie, "_inner_integrand", lambda p, sn, dn: np.abs(sn - 0.5))
        with pytest.raises(QuadratureNotConvergedError, match="16385 samples"):
            build_varphi(wave_1_05)


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

    @pytest.mark.parametrize("L", [0.5, 2.0, 50.0])
    @pytest.mark.parametrize("kappa", [0.01, 0.3, 0.7, 0.95, 0.999])
    def test_stacked_pass_equals_one_call_per_integrand(self, L, kappa):
        # the separate one-row calls are the reference: same bits, row by row
        from dswlab.elliptic import jacobi_sn_cn_dn

        p = params_from_kappa(L, kappa)
        b2 = p.beta_sq
        k2b2 = p.kappa**2 + b2

        def base(u):
            sn, _, dn = jacobi_sn_cn_dn(u, p.kappa)
            return 1.0 + b2 * sn * sn, 1.0 - 2.0 * sn * sn, 3.0 * k2b2 + 5.0 * b2 * dn * dn, dn

        rows = [lambda B, w, f, dn: B * B * w / dn**2, lambda B, w, f, dn: B**3 * f * w / dn**4,
                lambda B, w, f, dn: B * B * f * w / dn**2, lambda B, w, f, dn: B * w,
                lambda B, w, f, dn: B * f * w]
        A1, A2, A3, A4, A6 = (p.K * _cosine_series(lambda u, g=g: g(*base(u)), p.K)[0][0]
                              for g in rows)
        assert a_integrals(p) == (A1, A2, A3, A4, A6)

        def moment(m):
            def f(u):
                sn, _, dn = jacobi_sn_cn_dn(u, p.kappa)
                return dn ** (2 * m) / (1.0 + b2 * sn * sn) ** m
            return p.eta4**m * p.L * _cosine_series(f, p.K)[0][0]

        assert psi_moments(p) == tuple(moment(m) for m in (1, 2, 3, 4))

    @pytest.mark.usefixtures("fresh_records")
    def test_dmatrix_takes_one_pass_of_one_jacobi_call_per_level(self, wave_1_05, monkeypatch):
        import dswlab.index_engine as ie

        passes, levels, jacobi = [], [], []
        sampler_once, jacobi_once = ie._cosine_series, ie.jacobi_sn_cn_dn

        def counted_sampler(f, K):
            passes.append(f)
            return sampler_once(lambda u: levels.append(u.size) or f(u), K)

        monkeypatch.setattr(ie, "_cosine_series", counted_sampler)
        monkeypatch.setattr(ie, "jacobi_sn_cn_dn",
                            lambda u, k: jacobi.append(np.size(u)) or jacobi_once(u, k))
        assemble_dmatrix(wave_1_05)
        assert len(passes) == 1
        assert jacobi == levels

    @pytest.mark.usefixtures("fresh_records")
    @pytest.mark.parametrize("L", [0.5, 1.0, 2.7, 50.0])
    def test_a_modulus_seen_is_sampled_at_no_period(self, wave_1_05, L, monkeypatch):
        # every consumer of the quadratures reads the record of kappa, whatever L
        import dswlab.index_engine as ie
        from dswlab.hill import floquet_constant

        assemble_dmatrix(wave_1_05)
        jacobi, jacobi_once = [], ie.jacobi_sn_cn_dn
        monkeypatch.setattr(ie, "jacobi_sn_cn_dn",
                            lambda u, k: jacobi.append(np.size(u)) or jacobi_once(u, k))
        p = params_from_kappa(L, wave_1_05.kappa)
        a_integrals(p), psi_moments(p), build_varphi(p), floquet_constant(p)
        assert jacobi == []

    @pytest.mark.usefixtures("fresh_records")
    @pytest.mark.parametrize("kappa", [0.05, 0.5, 0.95, 0.999])
    def test_dmatrix_samples_few_points(self, kappa, monkeypatch):
        # one pass of 33 points up to kappa = 0.9, 129 at 0.999; 16-point
        # Gauss-Legendre on 4 then 8 panels took 384
        import dswlab.index_engine as ie

        points, jacobi_once = [], ie.jacobi_sn_cn_dn
        monkeypatch.setattr(ie, "jacobi_sn_cn_dn",
                            lambda u, k: points.append(np.size(u)) or jacobi_once(u, k))
        assemble_dmatrix(params_from_kappa(2.0, kappa))
        assert sum(points) <= 33 + 32 + 64

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
        s1, spsi = varphi_pairings(p, a_integrals(p))
        d1 = 2 * quad(lambda x: t.varphi_at(x), 0, p.L / 2,
                      epsabs=1e-12, epsrel=1e-12, limit=200)[0]
        dpsi = 2 * quad(lambda x: t.varphi_at(x) * eval_profile(p, x)[0], 0, p.L / 2,
                        epsabs=1e-12, epsrel=1e-12, limit=200)[0]
        assert s1 == pytest.approx(d1, abs=1e-7 * max(1, abs(d1)))
        assert spsi == pytest.approx(dpsi, abs=1e-7 * max(1, abs(dpsi)))

    def test_period_scaling(self):
        # <varphi, psi> carries the explicit L^3 prefactor; <varphi, 1> picks up
        # two more powers from the 1/eta4 factor (eta4 ~ 1/L^2 at fixed kappa)
        p1, p2 = params_from_kappa(1.0, 0.5), params_from_kappa(2.0, 0.5)
        a1, ap1 = varphi_pairings(p1, a_integrals(p1))
        a2, ap2 = varphi_pairings(p2, a_integrals(p2))
        assert ap2 == pytest.approx(8 * ap1, rel=1e-12)
        assert a2 == pytest.approx(32 * a1, rel=1e-12)


class TestHalfPeriodData:
    def test_closed_forms_match_numerics(self, wave_1_05, varphi_1_05):
        p, t = wave_1_05, varphi_1_05
        psi_h, psi_pp_h, varphi_p_h = half_period_data(p, a_integrals(p))
        psi_num, _ = eval_profile(p, p.L / 2)
        h = 1e-5
        psi_p, _ = eval_profile(p, p.L / 2 + h)
        psi_m, _ = eval_profile(p, p.L / 2 - h)
        assert psi_h == pytest.approx(psi_num, rel=1e-12)
        assert psi_pp_h == pytest.approx((psi_p - 2 * psi_num + psi_m) / h**2, rel=1e-4)
        assert psi_pp_h == pytest.approx(p.c * psi_h + p.F1 - psi_h**3 / (2 * p.c), rel=1e-12)
        fd = (t.varphi_at(p.L / 2 + h) - t.varphi_at(p.L / 2 - h)) / (2 * h)
        assert varphi_p_h == pytest.approx(fd, abs=1e-7 * max(1.0, abs(varphi_p_h)))
        assert varphi_p_h == pytest.approx(t.varphi_prime_at(p.L / 2), rel=1e-10)
        assert t.varphi_0 == float(t.varphi_at(0.0))


class TestLinvApply:
    def test_runs_no_quadrature(self, wave_1_05, varphi_1_05, monkeypatch):
        # varphi'(L/2) comes from the slope of the table's series, psi''(L/2) from its closed form
        import dswlab.index_engine as ie

        def refuse(*args, **kwargs):
            raise AssertionError("linv_apply ran the quadrature sampler")

        monkeypatch.setattr(ie, "_cosine_series", refuse)
        linv_apply(wave_1_05, varphi_1_05, GridFunction(wave_1_05.L, np.ones(256)))

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

    def test_output_is_exactly_even(self):
        # computed on [0, L/2] and mirrored
        p = params_from_kappa(1.0, 0.99)
        out = linv_apply(p, build_varphi(p), profile_grid(p, 2048)[0]).samples
        assert np.array_equal(out[1:], out[:0:-1])

    @pytest.mark.parametrize("kappa", [0.01, 0.3, 0.9, 0.99, 0.999])
    def test_roundtrip_across_the_family(self, kappa):
        p = params_from_kappa(1.0, kappa)
        psi_g, _ = profile_grid(p, 256)
        out = linv_apply(p, build_varphi(p), psi_g)
        back = lplus_apply(p, out)
        assert np.max(np.abs(back - psi_g.samples)) <= 1e-7 * np.max(np.abs(psi_g.samples))

    def test_any_even_grid_size(self, wave_2_03):
        # N = 100 is no power of two; L+ of the output gives psi back to 5.2e-12
        psi_g, _ = profile_grid(wave_2_03, 100)
        out = linv_apply(wave_2_03, build_varphi(wave_2_03), psi_g)
        back = lplus_apply(wave_2_03, out)
        assert np.max(np.abs(back - psi_g.samples)) <= 1e-10 * np.max(np.abs(psi_g.samples))

    def test_odd_grid_size_refused(self, wave_1_05, varphi_1_05):
        # the output is mirrored about L/2, which an odd grid does not contain
        psi_g, _ = profile_grid(wave_1_05, 127)
        with pytest.raises(ValueError, match="N = 127"):
            linv_apply(wave_1_05, varphi_1_05, psi_g)

    @pytest.mark.parametrize("N", [64, 128, 256])
    def test_grid_resolves_the_integrals(self, N):
        # against the same function resampled to 8N points, 64 steps a cell of the N-grid
        p = params_from_kappa(1.0, 0.9)
        t = build_varphi(p)
        psi, _ = profile_grid(p, N)
        f = psi.samples**3 + 0.3 * np.cos(2 * np.pi * psi.x / p.L)
        coeff = np.fft.rfft(f)
        pad = np.zeros(4 * N + 1, dtype=complex)
        pad[: coeff.size] = coeff
        pad[N // 2] *= 0.5
        fine = np.fft.irfft(pad, 8 * N) * 8.0
        out = linv_apply(p, t, GridFunction(p.L, f)).samples
        ref = linv_apply(p, t, GridFunction(p.L, fine)).samples[::8]
        assert np.max(np.abs(out - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_even_symmetry_enforced(self, wave_1_05, varphi_1_05):
        p, t = wave_1_05, varphi_1_05
        N = 2048
        x = np.arange(N) * p.L / N
        with pytest.raises(EvenSymmetryError):
            linv_apply(p, t, GridFunction(p.L, np.sin(2 * np.pi * x / p.L)))

    def test_grid_period_checked(self, wave_1_05, varphi_1_05):
        with pytest.raises(ValueError):
            linv_apply(wave_1_05, varphi_1_05, GridFunction(2 * wave_1_05.L, np.ones(2048)))

    def test_table_of_another_modulus_refused(self, wave_1_05):
        # with the kappa = 0.3 table, L+ of the output missed psi by 9.1 relative
        psi_g, _ = profile_grid(wave_1_05, 256)
        with pytest.raises(ValueError, match="modulus 0.3 given for a wave of modulus 0.5"):
            linv_apply(wave_1_05, build_varphi(params_from_kappa(1.0, 0.3)), psi_g)

    def test_table_of_the_modulus_serves_every_period(self):
        # varphi's series depends on kappa alone: a table built at L = 1 is the one at L = 3
        p = params_from_kappa(3.0, 0.5)
        psi_g, _ = profile_grid(p, 256)
        own = linv_apply(p, build_varphi(p), psi_g).samples
        other = linv_apply(p, build_varphi(params_from_kappa(1.0, 0.5)), psi_g).samples
        assert np.array_equal(own, other)

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

    @pytest.mark.parametrize("L, kappa", [(1.0, 1e-6), (2.7, 1e-6), (1.0, 1e-9), (2.0, 1e-9)])
    def test_refused_where_the_quadrature_means_round(self, kappa, L):
        # the means of A1..A4 and A6 cancel to O(kappa^4) out of O(kappa^2) integrands:
        # eps max|a_m| / |a_0| reads 1.4e-3 at kappa = 1e-6, where D is off by 5e-4. The
        # wave (2.7, 1e-9) itself is refused, its root ordering lost to rounding
        with pytest.raises(DMatrixRoundingError, match=f"> 1e-06 at kappa = {kappa!r}$"):
            assemble_dmatrix(params_from_kappa(L, kappa))

    @pytest.mark.parametrize("L", [1.0, 2.7])
    @pytest.mark.parametrize("kappa", [1e-4, 1.5e-3])
    def test_answered_where_the_quadrature_means_hold(self, kappa, L):
        # the rounding reads 1.4e-7 at kappa = 1e-4, inside criterion 4's bound 1e-6
        assert hamiltonian_index(assemble_dmatrix(params_from_kappa(L, kappa))) == (1, 1)

    def test_wave_near_the_separatrix_has_its_index(self):
        # det D = -4.07e-5 is below 1e-12 |D|^3 = 4.65e-5 here, but that ratio moves
        # with the period; det D / prod |D_ii| does not, and it is far from zero
        d = assemble_dmatrix(params_from_kappa(0.5, 0.999))
        assert d.det / np.prod(np.abs(np.diag(d.entries))) == pytest.approx(-1.0951, abs=1e-4)
        assert hamiltonian_index(d) == (1, 1)


class TestHamiltonianIndex:
    def test_identity_matrix(self):
        assert hamiltonian_index(dmatrix_from_entries(np.eye(3))) == (2, 0)

    def test_matrix_beyond_the_cube_is_refused_by_type(self):
        # entries of D at L = 1e40, where |D|^3 overflows: the verdict is that of
        # D / sqrt(|D_ii D_jj|), a singular matrix is refused by type and the
        # diagonal one has n(D) = 1
        singular = np.array([[1e118, 1e118, 0.0], [1e118, 1e118, 0.0], [0.0, 0.0, -1e-39]])
        with pytest.raises(DegenerateDMatrixError, match="below degeneracy threshold 1e-12$"):
            hamiltonian_index(dmatrix_from_entries(singular))
        assert hamiltonian_index(dmatrix_from_entries(np.diag([1e118, 1e118, -1e-39]))) == (1, 1)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_matrix_refused(self, bad):
        entries = np.eye(3)
        entries[1, 2] = entries[2, 1] = bad
        with pytest.raises(NonFiniteDMatrixError, match=f"^D is not finite: D23 = {bad!r}$"):
            dmatrix_from_entries(entries)

    def test_negative_identity_flagged(self):
        with pytest.raises(InconsistentIndexError):
            hamiltonian_index(dmatrix_from_entries(-np.eye(3)))

    def test_sweep_index(self):
        for kappa in (0.05, 0.3, 0.6, 0.95):
            d = assemble_dmatrix(params_from_kappa(1.0, kappa))
            assert d.det < 0.0
            assert hamiltonian_index(d) == (1, 1)


@pytest.mark.parametrize("L", [0.5, 2.7, 50.0])
@pytest.mark.parametrize("kappa", [0.05, 0.5, 0.99])
class TestScalingSymmetry:
    """The wave (L, kappa) is the wave (1, kappa) rescaled (NOTES.md, the
    scaling symmetry): exact exponents, each against L = 1."""

    def test_quadratures_depend_on_kappa_only(self, kappa, L, fresh_records):
        p, p1 = params_from_kappa(L, kappa), params_from_kappa(1.0, kappa)
        A, a = a_integrals(p), build_varphi(p)._a
        fresh_records.cache_clear()  # sample L = 1 anew, so the record hides no L
        assert a_integrals(p1) == A
        assert np.array_equal(build_varphi(p1)._a, a)

    def test_theta_scales_as_the_period(self, kappa, L):
        from dswlab.hill import floquet_constant

        theta, theta_1 = (floquet_constant(params_from_kappa(x, kappa)).theta for x in (L, 1.0))
        assert abs(theta - L * theta_1) <= 4 * np.finfo(float).eps * abs(theta)

    def test_pieces_of_d_scale_with_their_exponents(self, kappa, L):
        # D is assembled at L = 1 and scaled; its pieces, computed at L, carry the
        # exponents of that scaling: varphi ~ L^4, psi ~ L^-2 (worst measured: 7.9e-16)
        def pieces(q):
            A = a_integrals(q)
            return (*varphi_pairings(q, A), *half_period_data(q, A), *psi_moments(q))

        exponents = (5, 3, -2, -4, 3, -1, -3, -5, -7)
        at_l, at_1 = pieces(params_from_kappa(L, kappa)), pieces(params_from_kappa(1.0, kappa))
        for got, one, e in zip(at_l, at_1, exponents):
            assert abs(got - L**e * one) <= 1e-14 * abs(got)

    def test_dmatrix_is_congruent_to_the_unit_period(self, kappa, L):
        # D = S D_1 S: the same n(D), k_Ham and sign of det D at every L
        S = np.diag([L**1.5, L**1.5, L**-0.5])
        scaled = S @ assemble_dmatrix(params_from_kappa(1.0, kappa)).entries @ S
        d = assemble_dmatrix(params_from_kappa(L, kappa)).entries
        assert np.max(np.abs(d - scaled) / np.abs(scaled)) <= 1e-11
