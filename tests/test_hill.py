import numpy as np
import pytest

from dswlab.hill import (DegenerateThetaError, FloquetConstant, HillSolution,
                         IntegrationFailureError, _dop853, _p_and_prime, floquet_constant,
                         integrate_hill_ivp, inertial_index_from_theta)
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
        assert _p_and_prime(p, 0.0)[0] == 0.0
        assert abs(_p_and_prime(p, p.L / 2)[0]) < 1e-14

    def test_two_zeros_per_period(self, wave_2_03):
        p = wave_2_03
        xi = np.linspace(0.0, p.L, 4097, endpoint=False)
        vals, _ = _p_and_prime(p, xi)
        signs = np.sign(vals[np.abs(vals) > 1e-12])
        cyc = np.append(signs, signs[0])  # count crossings of the periodic extension
        crossings = int(np.sum(cyc[1:] != cyc[:-1]))
        assert crossings == 2

    def test_derivative_at_origin_is_alpha(self, wave_2_03):
        p = wave_2_03
        assert _p_and_prime(p, 0.0)[1] == pytest.approx(p.alpha, rel=1e-13)
        assert p.alpha == pytest.approx(2 * p.K / p.L, rel=1e-15)

    def test_spectral_kernel_residual(self, wave_2_03):
        # || L+ p ||_inf with the discretized operator at N = 512
        from dswlab.spectra import assemble

        p = wave_2_03
        op = assemble("Lplus", p, 512)
        x = np.arange(512) * p.L / 512
        pe, _ = _p_and_prime(p, x)
        assert np.max(np.abs(op @ pe)) < 1e-8


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

        from dswlab.waves import eval_profile

        p = wave_2_03

        def rhs(x, y):
            psi, _ = eval_profile(p, x)
            return [y[1], (p.c - 1.5 * psi**2 / p.c) * y[0]]

        sol2 = solve_ivp(rhs, (0.0, 2 * p.L), [1.0 / p.alpha, 0.0], method="DOP853",
                         rtol=1e-12, atol=1e-14, dense_output=True)
        theta = integrate_hill_ivp(p).theta
        ss = np.linspace(0.0, p.L, 9)
        resid = [abs(sol2.sol(s + p.L)[0] - sol2.sol(s)[0] - theta * _p_and_prime(p, s)[0])
                 for s in ss]
        assert max(resid) < 1e-9

    def test_invalid_tolerance(self, wave_2_03):
        with pytest.raises(ValueError):
            integrate_hill_ivp(wave_2_03, tol=1e-3)

    @pytest.mark.parametrize("L,kappa", [(0.5, 0.05), (50.0, 0.05), (0.5, 0.95), (50.0, 0.95)])
    def test_sweep_corners(self, L, kappa):
        # the corners of the benchmark's quadrature sweep, with its two IVP gates
        p = params_from_kappa(L, kappa)
        sol = integrate_hill_ivp(p)
        assert sol.theta == pytest.approx(floquet_constant(p).theta, rel=1e-6)
        assert sol.wronskian_drift <= 1e-8

    @pytest.mark.parametrize("L,kappa", [(0.5, 0.999), (2.0, 0.99), (50.0, 0.999),
                                         (2.0, 0.9999)])
    def test_theta_near_kappa_one(self, L, kappa):
        # |q| grows toward kappa -> 1, to 444 at xi = L/2 for (2, 0.999) and
        # 3.5e3 for (2, 0.9999); on half a period the drift stays <= 8.7e-13
        # and theta within 1.8e-12 of the closed form
        p = params_from_kappa(L, kappa)
        sol = integrate_hill_ivp(p)
        assert sol.theta == pytest.approx(floquet_constant(p).theta, rel=1e-10)
        assert sol.wronskian_drift <= 1e-8

    @pytest.mark.parametrize("kappa", [0.1, 0.5, 0.95, 0.999])
    @pytest.mark.parametrize("L", [0.5, 2.0, 50.0])
    def test_half_period_identity(self, L, kappa):
        # q'(L) = 2 alpha q(L/2) q'(L/2) against y1'(L)/alpha of the full-period
        # monodromy; both at tol 1e-14, since at 1e-12 the IVP's absolute error
        # alone is 1.4e-9 of q'(L) at kappa = 0.1 (measured worst here 2.1e-11)
        p = params_from_kappa(L, kappa)
        full = monodromy_matrix(p, 0.0, tol=1e-14)[1, 0] / p.alpha
        assert integrate_hill_ivp(p, tol=1e-14).q_prime_final == pytest.approx(full, rel=1e-10)

    def test_integrates_half_a_period_without_dense_output(self, wave_2_03, monkeypatch):
        # one run of the compiled DOP853 from 0 to L/2, called back at its
        # accepted steps only (iout = 1; iout = 2 would ask for dense output)
        from scipy.integrate._ode import dop853

        runs, accepted = [], []
        original = dop853.runner

        def recording(f, t0, y0, t1, rtol, atol, solout, iout, *rest):
            def spy(xi, y):
                accepted.append(xi)
                return solout(xi, y)

            runs.append((t0, t1, iout))
            return original(f, t0, y0, t1, rtol, atol, spy, iout, *rest)

        monkeypatch.setattr(dop853, "runner", staticmethod(recording))
        integrate_hill_ivp(wave_2_03)
        assert runs == [(0.0, wave_2_03.L / 2, 1)]
        assert accepted[0] == 0.0 and accepted[-1] == wave_2_03.L / 2
        assert np.all(np.diff(accepted) > 0)

    def test_integration_failure_is_typed(self, wave_2_03, monkeypatch):
        # a real failure of the compiled integrator: a budget of one step;
        # scipy only warns of it, so the caller's warning filters are set to
        # ignore, which must not turn the failure into a result
        import warnings

        from scipy.integrate._ode import dop853

        original = dop853.runner

        def one_step(f, t0, y0, t1, rtol, atol, solout, iout, work, iwork, nsteps, *rest):
            return original(f, t0, y0, t1, rtol, atol, solout, iout, work, iwork, 1, *rest)

        monkeypatch.setattr(dop853, "runner", staticmethod(one_step))
        with warnings.catch_warnings(), pytest.raises(
                IntegrationFailureError,
                match="^Hill IVP integration failed: dop853: larger nsteps is needed$"):
            warnings.simplefilter("ignore")
            integrate_hill_ivp(wave_2_03)

    def test_calls_leave_no_state_behind(self):
        # the integrators are shared between calls; a call on a fresh one is
        # the isolated call
        a, b = params_from_kappa(2.0, 0.3), params_from_kappa(10.0, 0.9)
        runs = [(a, 1e-12), (b, 1e-14), (a, 1e-12)]
        interleaved = [integrate_hill_ivp(p, tol) for p, tol in runs]
        isolated = []
        for p, tol in runs:
            _dop853.cache_clear()
            isolated.append(integrate_hill_ivp(p, tol))
        assert interleaved == isolated

    def test_concurrent_calls_match_sequential(self):
        # the shared integrators and the wave they read are guarded by one
        # lock: threads switching every microsecond, on more threads than
        # cores, must give each wave the result it gets alone
        import sys
        import threading

        ps = [params_from_kappa(L, kappa) for L, kappa in
              [(2.0, 0.3), (10.0, 0.9), (0.5, 0.6), (4.0, 0.1), (50.0, 0.95), (1.0, 0.999)]]
        alone = [integrate_hill_ivp(p) for p in ps]
        results = [[] for _ in ps]

        def work(i):
            for _ in range(5):
                results[i].append(integrate_hill_ivp(ps[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(ps))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [[sol] * 5 for sol in alone]

    def test_route_does_not_leak(self):
        # scipy's compiled runner keeps every integrator it has run: a fresh
        # integrator a call grows traced memory by 2.7 MB over these calls,
        # the shared ones by 0.13 MB (64 B a call, a bound method scipy keeps)
        import tracemalloc

        waves = [params_from_kappa(1.0, kappa) for kappa in np.linspace(0.05, 0.95, 20)]
        tols = (1e-6, 1e-8)
        for p in waves:
            for tol in tols:
                integrate_hill_ivp(p, tol)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(2000):
                integrate_hill_ivp(waves[i % 20], tols[i % 2])
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert growth < 0.5e6

    def test_no_jacobi_call_per_stage(self, wave_2_03, monkeypatch):
        # sn, cn, dn are integrated with q; only the Wronskian check evaluates
        # the closed-form p and p', one array call each
        from dswlab import elliptic, waves

        calls = []
        original = elliptic.jacobi_sn_cn_dn

        def counting(u, kappa):
            calls.append(np.ndim(u))
            return original(u, kappa)

        monkeypatch.setattr(elliptic, "jacobi_sn_cn_dn", counting)
        monkeypatch.setattr(waves, "jacobi_sn_cn_dn", counting)
        integrate_hill_ivp(wave_2_03)
        assert len(calls) <= 2
        assert 0 not in calls

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
        # the measured worst is 8.3e-14, at kappa = 0.01 where theta ~ 1.3e-7
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

    def test_negative_theta_branch(self):
        fake = HillSolution(q_prime_final=-1.0, p_prime_0=1.0, theta=-1.0, wronskian_drift=0.0)
        assert inertial_index_from_theta(fake) == (2, 1)

    def test_degenerate_theta_refused(self):
        fake = HillSolution(q_prime_final=5e-11, p_prime_0=1.0, theta=5e-11, wronskian_drift=0.0)
        with pytest.raises(DegenerateThetaError):
            inertial_index_from_theta(fake)
        with pytest.raises(DegenerateThetaError):
            inertial_index_from_theta(FloquetConstant(p_prime_0=1.0, q_prime_final=-5e-11,
                                                      theta=-5e-11))

    def test_degeneracy_is_read_on_q_prime_not_theta(self):
        # theta = L theta_1(kappa) is tiny at a tiny period, q'(L) = theta p'(0) is not
        tiny_period = FloquetConstant(p_prime_0=1e20, q_prime_final=1.0, theta=1e-20)
        assert inertial_index_from_theta(tiny_period) == (1, 1)

    def test_isoinertial_across_sweep(self):
        indices = set()
        for kappa in (0.1, 0.3, 0.5, 0.7, 0.9):
            sol = integrate_hill_ivp(params_from_kappa(2.0, kappa))
            indices.add(inertial_index_from_theta(sol))
        assert indices == {(1, 1)}


def monodromy_matrix(p, lam, tol=1e-11):
    """The monodromy matrix [[y1, y2], [y1', y2']](L) of L+ - lam over one full period.

    The fundamental solutions of -y'' + (c - 3 psi^2/(2c) - lam) y = 0 are
    integrated by DOP853 from the identity, with sn, cn, dn carried along by
    their own ODEs as integrate_hill_ivp carries them.
    """
    from scipy.integrate import solve_ivp

    alpha, k2, b2, eta4, c = p.alpha, p.kappa**2, p.beta_sq, p.eta4, p.c

    def rhs(xi, y):
        y1, dy1, y2, dy2, sn, cn, dn = y.tolist()
        psi = eta4 * dn * dn / (1.0 + b2 * sn * sn)
        q = c - 1.5 * psi * psi / c - lam
        return [dy1, q * y1, dy2, q * y2, alpha * cn * dn, -alpha * sn * dn, -alpha * k2 * sn * cn]

    sol = solve_ivp(rhs, (0.0, p.L), [1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0], method="DOP853",
                    rtol=max(tol, 100 * np.finfo(float).eps), atol=tol)
    assert sol.success, sol.message
    return sol.y[[0, 2, 1, 3], -1].reshape(2, 2)


def floquet_discriminant(p, lam, tol=1e-11):
    """Delta(lam), the trace of the monodromy matrix; the L-periodic
    eigenvalues of L+ are the roots of Delta = 2."""
    return np.trace(monodromy_matrix(p, lam, tol))


def test_monodromy_count(wave_2_03):
    # the shooting count of NOTES.md: Delta = 2 at lambda = -10.2459, 0 and
    # 0.2695 on [-12, 1], so L+ has exactly one negative periodic eigenvalue;
    # the scan's spacing 0.13 puts no point on a root and one inside (0, 0.2695)
    from scipy.optimize import brentq

    from dswlab.spectra import assemble

    p = wave_2_03
    grid = np.linspace(-12.0, 1.0, 101)
    gap = np.array([floquet_discriminant(p, lam) - 2.0 for lam in grid])
    roots = [brentq(lambda lam: floquet_discriminant(p, lam) - 2.0, a, b, xtol=1e-12)
             for a, b, ga, gb in zip(grid, grid[1:], gap, gap[1:]) if ga * gb < 0]
    assert roots == pytest.approx([-10.2459, 0.0, 0.2695], abs=1e-4)
    assert abs(roots[1]) < 1e-8
    assert sum(r < -1e-6 for r in roots) == 1
    lowest = np.linalg.eigvalsh(assemble("Lplus", p, 256))[0]
    assert roots[0] == pytest.approx(lowest, rel=1e-10)
