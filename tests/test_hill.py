import numpy as np
import pytest

from dswlab.hill import (DegenerateThetaError, FloquetConstant, HillSolution,
                         floquet_constant, integrate_hill_ivp, inertial_index_from_theta,
                         p_eigenfunction, p_eigenfunction_prime)
from dswlab.waves import params_from_kappa

# The reference table at its printed labels, (L, kappa) -> (c, p'(0), q'(L), theta).
# Two cells are internally inconsistent misprints (see NOTES.md):
# the (10, 0.1) q'(L) is 10x off against theta * p'(0) in the same row, and the
# last row labeled (50, 0.1) contains the kappa = 0.2 data. The corrected
# values asserted here are forced by theta = q'(L)/p'(0) and the exact scaling
# q'(L) independent of L, theta proportional to L.
TABLE_ROWS = [
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
    (10, 0.1, 0.394803, 0.314949, 0.00205909, 0.00653786),  # q'(L) corrected (10x misprint)
    (10, 0.2, 0.395092, 0.317374, 0.0358584, 0.112985),
    (10, 0.4, 0.400374, 0.328, 0.830212, 2.53113),  # theta corrected (printed 2.25113; see NOTES.md)
    (50, 0.2, 0.0158037, 0.0634747, 0.0358582, 0.564921),  # printed label (50, 0.1)
]


class TestPEigenfunction:
    def test_zero_at_origin_and_half_period(self, wave_2_03):
        p = wave_2_03
        assert p_eigenfunction(p, 0.0) == 0.0
        assert abs(p_eigenfunction(p, p.L / 2)) < 1e-14

    def test_two_zeros_per_period(self, wave_2_03):
        p = wave_2_03
        xi = np.linspace(0.0, p.L, 4097, endpoint=False)
        vals = p_eigenfunction(p, xi)
        signs = np.sign(vals[np.abs(vals) > 1e-12])
        cyc = np.append(signs, signs[0])  # count crossings of the periodic extension
        crossings = int(np.sum(cyc[1:] != cyc[:-1]))
        assert crossings == 2

    def test_derivative_at_origin_is_alpha(self, wave_2_03):
        p = wave_2_03
        assert p_eigenfunction_prime(p, 0.0) == pytest.approx(p.alpha, rel=1e-13)
        assert p.alpha == pytest.approx(2 * p.K / p.L, rel=1e-15)

    def test_spectral_kernel_residual(self, wave_2_03):
        # || L+ p ||_inf with the discretized operator at N = 512
        from dswlab.spectra import assemble

        p = wave_2_03
        op = assemble("Lplus", p, 512)
        x = np.arange(512) * p.L / 512
        pe = p_eigenfunction(p, x)
        assert np.max(np.abs(op.matrix @ pe)) < 1e-8


class TestHillIVP:
    def test_table_row_2_01(self, wave_2_01):
        sol = integrate_hill_ivp(wave_2_01)
        assert sol.q_prime_final == pytest.approx(0.00205921, rel=5e-4)
        assert sol.theta == pytest.approx(0.00130764, rel=5e-4)
        assert sol.p_prime_0 == pytest.approx(1.57475, rel=5e-6)

    def test_table_row_4_05(self):
        sol = integrate_hill_ivp(params_from_kappa(4.0, 0.5))
        assert sol.theta == pytest.approx(3.29061, rel=5e-4)

    def test_wronskian_constancy(self, wave_2_03):
        sol = integrate_hill_ivp(wave_2_03)
        assert sol.wronskian_drift < 1e-8

    def test_theta_definition(self, wave_2_03):
        sol = integrate_hill_ivp(wave_2_03)
        assert sol.theta == sol.q_prime_final / sol.p_prime_0

    def test_tolerance_independence(self, wave_2_03):
        t1 = integrate_hill_ivp(wave_2_03, tol=1e-10).theta
        t2 = integrate_hill_ivp(wave_2_03, tol=1e-12).theta
        assert t1 == pytest.approx(t2, rel=1e-6)

    def test_floquet_relation(self, wave_2_03):
        # q(xi + L) = q(xi) + theta p(xi): integrate over two periods and compare
        from scipy.integrate import solve_ivp

        from dswlab.hill import hill_potential

        p = wave_2_03
        sol2 = solve_ivp(lambda x, y: [y[1], hill_potential(p, x) * y[0]],
                         (0.0, 2 * p.L), [1.0 / p.alpha, 0.0], method="DOP853",
                         rtol=1e-12, atol=1e-14, dense_output=True)
        theta = integrate_hill_ivp(p).theta
        ss = np.linspace(0.0, p.L, 9)
        resid = [abs(sol2.sol(s + p.L)[0] - sol2.sol(s)[0] - theta * p_eigenfunction(p, s))
                 for s in ss]
        assert max(resid) < 1e-9

    def test_invalid_tolerance(self, wave_2_03):
        with pytest.raises(ValueError):
            integrate_hill_ivp(wave_2_03, tol=1e-3)

    def test_q_prime_independent_of_period(self):
        # the Hill IVP is scale free in L, so q'(L) depends only on kappa
        vals = [integrate_hill_ivp(params_from_kappa(L, 0.2)).q_prime_final
                for L in (2.0, 3.0, 10.0)]
        assert max(vals) - min(vals) < 1e-9 * abs(vals[0])

    def test_theta_scales_linearly_in_period(self):
        t2 = integrate_hill_ivp(params_from_kappa(2.0, 0.2)).theta
        t10 = integrate_hill_ivp(params_from_kappa(10.0, 0.2)).theta
        assert t10 == pytest.approx(5.0 * t2, rel=1e-8)


def theta_mpmath(L, kappa, dps=30):
    """theta = -L A2/K with A2 by mpmath.quad, every step at dps digits from the double kappa."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        m = mp.mpf(kappa) ** 2
        h = 4 * mp.sqrt(1 - m + m * m)
        g_plus, g_minus = h + 2 * (2 * m - 1), h - 2 * (2 * m - 1)
        b2 = 2 * m * mp.sqrt(g_plus) / (mp.sqrt(g_plus) + mp.sqrt(3) * mp.sqrt(g_minus))
        K = mp.ellipk(m)

        def f2(u):
            sn, dn = mp.ellipfun("sn", u, m=m), mp.ellipfun("dn", u, m=m)
            B = 1 + b2 * sn * sn
            return B**3 * (3 * (m + b2) + 5 * b2 * dn * dn) * (1 - 2 * sn * sn) / dn**4

        return -mp.mpf(L) * mp.quad(f2, [0, K]) / K


class TestClosedFormTheta:
    @pytest.mark.parametrize("kappa", [0.01, 0.05, 0.1, 0.3])
    def test_matches_30_digit_quadrature(self, kappa):
        # the measured worst is 2.3e-13, at kappa = 0.01 where theta ~ 1.3e-7
        ref = theta_mpmath(2.0, kappa)
        theta = floquet_constant(params_from_kappa(2.0, kappa)).theta
        assert abs(theta - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("L,kappa", [(2.0, 0.1), (3.0, 0.3), (10.0, 0.4), (4.0, 0.7)])
    def test_ivp_oracle_agrees(self, L, kappa):
        p = params_from_kappa(L, kappa)
        assert integrate_hill_ivp(p, tol=1e-14).theta == pytest.approx(
            floquet_constant(p).theta, rel=1e-10)

    def test_row_fields(self, wave_2_03):
        f = floquet_constant(wave_2_03)
        assert f.p_prime_0 == wave_2_03.alpha
        assert f.q_prime_final == f.theta * f.p_prime_0
        assert inertial_index_from_theta(f) == (1, 1)

    def test_invalid_tolerance(self, wave_2_03):
        with pytest.raises(ValueError):
            floquet_constant(wave_2_03, tol=1e-3)


class TestTableReproduction:
    @pytest.mark.parametrize("L,kappa,c_ref,pp0_ref,qpl_ref,theta_ref", TABLE_ROWS)
    def test_row(self, L, kappa, c_ref, pp0_ref, qpl_ref, theta_ref):
        p = params_from_kappa(L, kappa)
        sol = integrate_hill_ivp(p)
        assert p.c == pytest.approx(c_ref, rel=5e-4)
        assert sol.p_prime_0 == pytest.approx(pp0_ref, rel=5e-4)
        assert sol.q_prime_final == pytest.approx(qpl_ref, rel=5e-4)
        assert sol.theta == pytest.approx(theta_ref, rel=5e-4)

    def test_all_thetas_positive(self):
        for L, kappa, *_ in TABLE_ROWS:
            assert integrate_hill_ivp(params_from_kappa(L, kappa)).theta > 0


class TestInertialIndex:
    def test_positive_theta_classifies_single_negative_eigenvalue(self, wave_2_03):
        # The reference material infers (2, 1) from theta > 0; direct eigensolves
        # of the discretized operator (see test_spectra) give exactly one
        # negative eigenvalue, so the corrected classification is (1, 1).
        # A Wronskian-orientation slip in the reference classification; NOTES.md.
        sol = integrate_hill_ivp(wave_2_03)
        assert sol.theta > 0
        assert inertial_index_from_theta(sol) == (1, 1)

    def test_agreement_with_direct_eigensolve(self, wave_2_03):
        from dswlab.spectra import assemble, morse_index

        sol = integrate_hill_ivp(wave_2_03)
        assert inertial_index_from_theta(sol) == morse_index(assemble("Lplus", wave_2_03, 256))

    def test_negative_theta_branch(self, wave_2_03):
        fake = HillSolution(params=wave_2_03, q_prime_final=-1.0, p_prime_0=1.0, theta=-1.0,
                            wronskian_drift=0.0)
        assert inertial_index_from_theta(fake) == (2, 1)

    def test_degenerate_theta_refused(self, wave_2_03):
        fake = HillSolution(params=wave_2_03, q_prime_final=0.0, p_prime_0=1.0, theta=5e-11,
                            wronskian_drift=0.0)
        with pytest.raises(DegenerateThetaError):
            inertial_index_from_theta(fake)
        with pytest.raises(DegenerateThetaError):
            inertial_index_from_theta(FloquetConstant(p_prime_0=1.0, q_prime_final=0.0,
                                                      theta=-5e-11))

    def test_isoinertial_across_sweep(self):
        indices = set()
        for kappa in (0.1, 0.3, 0.5, 0.7, 0.9):
            sol = integrate_hill_ivp(params_from_kappa(2.0, kappa))
            indices.add(inertial_index_from_theta(sol))
        assert indices == {(1, 1)}
