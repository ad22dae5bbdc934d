import numpy as np
import pytest

from dswlab.evolution import (_CHECK_EVERY, _DENSE_BELOW, BlowUpError, SimState,
                              WindowTooShortError, _band, _dft_pair, _drift_scales,
                              _etd_coefficients, _stepper, conserved_of_state, deviation_series,
                              fit_growth_rate, growth_rate_experiment, preprocess, simulate,
                              state_fields, undo_preprocess)
from dswlab.spectra import (NoUnstableModeError, _fourier_diff_matrices, _nonzero_spectrum,
                            _operator)
from dswlab.waves import (GridFunction, conserved_quantities, eval_profile, params_from_kappa,
                          profile_grid)


def random_smooth_fields(L, N, max_mode, seed, norm=1.0):
    rng = np.random.default_rng(seed)
    x = np.arange(N) * L / N
    u = np.zeros(N)
    v = np.zeros(N)
    for m in range(1, max_mode + 1):
        u += rng.normal() * np.cos(2 * np.pi * m * x / L) + rng.normal() * np.sin(2 * np.pi * m * x / L)
        v += rng.normal() * np.cos(2 * np.pi * m * x / L) + rng.normal() * np.sin(2 * np.pi * m * x / L)
    scale = norm / np.sqrt(L * np.mean(u**2 + v**2))
    return GridFunction(L, u * scale), GridFunction(L, v * scale)


def masked_profile(p, N):
    """The dealiased wave profile: the discrete equilibrium of the solver."""
    psi_g, phi_g = profile_grid(p, N)
    mask = 3 * np.abs(np.fft.fftfreq(N, 1.0 / N)) < N
    return (np.fft.ifft(np.fft.fft(psi_g.samples) * mask).real,
            np.fft.ifft(np.fft.fft(phi_g.samples) * mask).real)


class TestBasics:
    def test_zero_data_stays_zero(self):
        z = GridFunction(2.0, np.zeros(64))
        traj = simulate(z, z, T=0.5, dt=1e-3)
        u, v = state_fields(traj.states[-1])
        assert np.all(u.samples == 0.0)
        assert np.all(v.samples == 0.0)

    def test_constant_data_is_invariant(self):
        L, N = 2 * np.pi, 64
        u0 = GridFunction(L, np.full(N, 0.3))
        v0 = GridFunction(L, np.full(N, -0.7))
        traj = simulate(u0, v0, T=0.5, dt=1e-3)
        u, v = state_fields(traj.states[-1])
        assert np.max(np.abs(u.samples - 0.3)) < 1e-13
        assert np.max(np.abs(v.samples + 0.7)) < 1e-13

    def test_linear_regime_airy_phases(self):
        # amplitudes ~1e-9 make the nonlinearity ~1e-18: coefficients must
        # rotate with exactly the Airy phase e^{i k^3 t}
        L, N = 2 * np.pi, 64
        x = np.arange(N) * L / N
        u0 = GridFunction(L, 1e-9 * np.cos(x))
        v0 = GridFunction(L, np.zeros(N))
        T, dt = 1.0, 1e-3
        traj = simulate(u0, v0, T=T, dt=dt, frame_speed=0.0)
        u_hat0 = traj.states[0].u_hat
        u_hatT = traj.states[-1].u_hat
        for k in (1, N - 1):  # modes +1 and -1
            kk = 2 * np.pi * np.fft.fftfreq(N, d=L / N)[k]
            expected = np.exp(1j * kk**3 * T) * u_hat0[k]
            assert abs(u_hatT[k] - expected) < 1e-10 * abs(u_hat0[k])

    def test_repeated_simulate_calls_build_the_weights_once(self, monkeypatch):
        from dswlab import evolution

        builds = []

        def counted(z, h):
            builds.append(h)
            return _etd_coefficients(z, h)

        monkeypatch.setattr(evolution, "_etd_coefficients", counted)
        evolution._stepper.cache_clear()
        u0, v0 = random_smooth_fields(2 * np.pi, 64, 3, seed=5)
        for _ in range(3):
            simulate(u0, v0, T=10e-3, dt=1e-3)
        evolution._stepper.cache_clear()
        assert builds == [1e-3]

    def test_hermitian_symmetry_preserved(self):
        # the band X is Hermitian by construction except at mode 0, which must stay
        # real for X to stand for real fields; the band never holds the Nyquist mode
        u0, v0 = random_smooth_fields(2 * np.pi, 128, 5, seed=2)
        for s in simulate(u0, v0, T=0.5, dt=1e-3).states:
            assert np.max(np.abs(s.X[:, 0].imag)) < 1e-12 * max(1.0, np.max(np.abs(s.X)))

    @pytest.mark.parametrize("N", [1, 2, 3, 64, 255, 256, 4096])
    def test_every_sample_is_the_band(self, N):
        # each sample keeps the stepper's (2, ceil(N/3)) band; its fields and full-length
        # coefficients are those of the half-spectrum padded with zeros past the band
        x = np.arange(N) * 2 * np.pi / N
        a, b, c = np.random.default_rng(N).uniform(0.0, 2 * np.pi, 3)
        u0 = GridFunction(2 * np.pi, 0.3 + 0.1 * np.cos(x + a) + 0.05 * np.sin(3 * x + b))
        v0 = GridFunction(2 * np.pi, -0.2 + 0.1 * np.cos(2 * x + c))
        traj = simulate(u0, v0, T=0.02, dt=1e-3)
        assert np.array_equal(traj.conserved[:, 0], [s.t for s in traj.states])
        for s in traj.states:
            assert s.X.shape == (2, -(-N // 3))
            padded = np.zeros((2, N // 2 + 1), dtype=complex)
            padded[:, :s.X.shape[1]] = s.X
            u, v = np.fft.irfft(padded, N)
            got_u, got_v = state_fields(s)
            assert got_u.samples.tobytes() == u.tobytes()
            assert got_v.samples.tobytes() == v.tobytes()
            full = np.concatenate([padded, np.conj(padded[:, (N + 1) // 2 - 1:0:-1])], axis=1)
            assert np.array_equal(s.u_hat, full[0]) and np.array_equal(s.v_hat, full[1])

    def test_invalid_steps_rejected(self):
        u0, v0 = random_smooth_fields(2 * np.pi, 64, 3, seed=3)
        with pytest.raises(ValueError):
            simulate(u0, v0, T=-1.0, dt=1e-3)
        with pytest.raises(ValueError):
            simulate(u0, v0, T=1.0, dt=0.0)

    def test_run_ends_at_T_with_a_step_no_larger_than_requested(self):
        # 0.05 / 4e-3 = 12.5: thirteen steps of 0.05 / 13, not twelve of 4e-3
        u0, v0 = random_smooth_fields(2 * np.pi, 64, 3, seed=4)
        traj = simulate(u0, v0, T=0.05, dt=4e-3)  # 13 steps: one sample per step
        assert traj.conserved[-1, 0] == 0.05
        assert traj.states[-1].t == 0.05
        assert len(traj.conserved) == 14
        assert traj.dt == 0.05 / 13 and traj.dt <= 4e-3
        assert simulate(u0, v0, T=0.1, dt=5e-5).dt == 5e-5


class TestEtdCoefficients:
    H = 0.37

    def closed_form(self, z):
        h, ez = self.H, np.exp(z)
        return (h * (np.exp(z / 2) - 1) / z,
                h * (-4 - z + ez * (4 - 3 * z + z * z)) / z**3,
                h * (2 + z + ez * (z - 2)) / z**3,
                h * (-4 - 3 * z - z * z + ez * (4 - z)) / z**3)

    def test_rk4_limits_at_zero(self):
        E, E2, *weights = _etd_coefficients(np.zeros((2, 3), dtype=complex), self.H)
        assert np.all(E == 1.0) and np.all(E2 == 1.0)
        for w, limit in zip(weights, (self.H / 2, self.H / 6, self.H / 6, self.H / 6)):
            assert np.max(np.abs(w / limit - 1.0)) < 1e-14

    def test_closed_forms_away_from_zero(self):
        # no cancellation for |z| >= 10: the closed forms are accurate there
        z = np.array([[10j, -10j, 37.5j, -1e3j, 2e5j], [10.0, -12.0, 3 + 10j, -1e3, 1.7e7j]])
        E, E2, *weights = _etd_coefficients(z, self.H)
        assert np.max(np.abs(E2 - np.exp(z / 2))) < 1e-15
        for w, exact in zip(weights, self.closed_form(z)):
            assert np.max(np.abs(w / exact - 1.0)) < 1e-13

    def test_leading_terms_where_the_cube_of_z_overflows(self):
        # |z|^3 leaves the float range: each weight keeps its leading term in 1/z,
        # h (E2 - 1) / z, h E / z, O(h / z^2) and -h / z, with no overflow
        z = np.array([1e105j, -1e105j, 1e200j])
        E, E2, Q, f1, f2, f3 = _etd_coefficients(z, self.H)
        h = self.H
        assert np.max(np.abs(Q / (h * (E2 - 1) / z) - 1.0)) < 1e-13
        assert np.max(np.abs(f1 / (h * E / z) - 1.0)) < 1e-13
        assert np.max(np.abs(f3 / (-h / z) - 1.0)) < 1e-13
        assert np.all(np.abs(f2 * z) <= 3 * h / np.abs(z))


class TestDensePair:
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 33, 64, 127, 128, _DENSE_BELOW - 1])
    def test_reproduces_numpy_fft_on_the_band(self, N):
        M = _band(N)
        inv, fwd = _dft_pair(N, M)
        rng = np.random.default_rng(N)
        X = rng.normal(size=(2, M)) + 1j * rng.normal(size=(2, M))
        w = np.fft.irfft(X, N)
        assert np.max(np.abs(X.view(float) @ inv - w)) <= 1e-14 * np.max(np.abs(w))
        p = rng.normal(size=(2, N))
        P = np.fft.rfft(p)[:, :M]
        assert np.max(np.abs((p @ fwd).view(complex) - P)) <= 1e-14 * np.max(np.abs(P))

    def test_stepper_builds_the_pair_exactly_below_the_crossover(self):
        dense = _stepper(_DENSE_BELOW - 1, 2 * np.pi, 1e-3, 0.0, None)
        assert dense.inv.shape == (2 * dense.M, _DENSE_BELOW - 1)
        assert dense.fwd.shape == (_DENSE_BELOW - 1, 2 * dense.M)
        fft = _stepper(_DENSE_BELOW, 2 * np.pi, 1e-3, 0.0, None)
        assert fft.inv is None and fft.fwd is None


def textbook_etdrk4(X, N, L, dt, speed, steps):
    """Cox & Matthews' ETDRK4 as printed: the symbol g after each transform, then the
    unfolded weights of _etd_coefficients; numpy.fft on every grid."""
    M = _band(N)
    k = 2 * np.pi * np.fft.rfftfreq(N, d=L / N)[:M]
    E, E2, Q, f1, f2, f3 = _etd_coefficients(1j * dt * np.stack([k**3 + speed * k, speed * k]), dt)
    g = -1j * np.array([[1.0], [0.5]]) * k

    def nonlinear(Y):
        u, v = np.fft.irfft(Y, N)
        return g * np.fft.rfft(np.stack([u * v, u * u]))[:, :M]

    for _ in range(steps):
        nx = nonlinear(X)
        a = E2 * X + Q * nx
        na = nonlinear(a)
        nb = nonlinear(E2 * X + Q * na)
        nc = nonlinear(E2 * a + Q * (2 * nb - nx))
        X = E * X + f1 * nx + 2 * f2 * (na + nb) + f3 * nc
    return X


def smooth_band(N, seed):
    rng, M = np.random.default_rng(seed), _band(N)
    X = (rng.normal(size=(2, M)) + 1j * rng.normal(size=(2, M))) * N / (1 + np.arange(M)) ** 2
    X[:, 0] = X[:, 0].real
    return X


class TestStepKernel:
    @pytest.mark.parametrize("N", [64, 128, 255, 256, 4096])
    def test_the_step_is_the_textbook_scheme(self, N):
        # the stepper folds g into its weights and forms each stage in place; that only
        # reorders the arithmetic of the printed scheme, on the dense pair (64, 128, 255)
        # and on numpy.fft (256, 4096), in a moving frame
        L, dt, speed = 2 * np.pi, 1e-3, 0.7
        X0 = smooth_band(N, seed=N)
        want = textbook_etdrk4(X0, N, L, dt, speed, steps=200)
        stepper = _stepper(N, L, dt, speed, None)
        X = X0
        for _ in range(200):
            X = stepper.advance(X)
        assert np.max(np.abs(want)) > 0.1 * np.max(np.abs(X0))
        assert np.max(np.abs(X - want)) <= 1e-13 * np.max(np.abs(want))

    def test_step_reads_its_input_and_the_weights_only(self):
        # the grid fields a sample hands on are those the step would compute itself
        stepper = _stepper(64, 2 * np.pi, 1e-3, 0.0, None)
        X0 = smooth_band(64, seed=1)
        X, w = X0.copy(), stepper.fields(X0)
        w0 = w.copy()
        assert np.array_equal(stepper.advance(X, w), stepper.advance(X))
        assert np.array_equal(X, X0) and np.array_equal(w, w0)
        assert not any(a.flags.writeable for a in vars(stepper).values()
                       if isinstance(a, np.ndarray))

    @pytest.mark.parametrize("N", [64, 256])
    def test_concurrent_calls_match_sequential(self, N):
        # every call with the same (N, L, dt) shares one memoized stepper: threads
        # released together and switching every microsecond must each get the run
        # they get alone, which a scratch array kept on the stepper would break
        import sys
        import threading

        fields = [random_smooth_fields(2 * np.pi, N, 4, seed=s) for s in range(6)]
        alone = [simulate(u0, v0, T=0.2, dt=1e-3) for u0, v0 in fields]
        results = [[] for _ in fields]
        start = threading.Barrier(len(fields))

        def work(i):
            start.wait()
            for _ in range(3):
                results[i].append(simulate(*fields[i], T=0.2, dt=1e-3))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(fields))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for runs, want in zip(results, alone):
            assert len(runs) == 3
            for got in runs:
                assert got.conserved.tobytes() == want.conserved.tobytes()
                assert [s.X.tobytes() for s in got.states] == [s.X.tobytes() for s in want.states]


class TestWaveEquilibrium:
    def test_stationary_in_comoving_frame(self, wave_2_03):
        # relative-equilibrium check over 100k small steps; the acceptance-scale
        # pair N = 256, dt = 1e-3 is test_comoving_wave_is_fixed_point_at_acceptance_scale
        p = wave_2_03
        N = 64
        u0, v0 = profile_grid(p, N)
        traj = simulate(u0, v0, T=5.0, dt=5e-5, frame_speed=p.c)
        psi_m, _ = masked_profile(p, N)
        u, _ = state_fields(traj.states[-1])
        assert np.max(np.abs(u.samples - psi_m)) < 1e-6
        assert traj.max_rel_drift < 1e-9

    def test_frame_equivalence(self, wave_2_03):
        # lab-frame evolution shifted by c t equals the co-moving evolution
        p = wave_2_03
        N = 64
        u0, v0 = profile_grid(p, N)
        T, dt = 0.3, 1e-4
        lab = simulate(u0, v0, T=T, dt=dt, frame_speed=0.0)
        com = simulate(u0, v0, T=T, dt=dt, frame_speed=p.c)
        k = 2 * np.pi * np.fft.fftfreq(N, d=p.L / N)
        shift = np.exp(-1j * k * p.c * T)  # u_com(x) = u_lab(x + cT)
        u_lab_shifted = np.fft.ifft(lab.states[-1].u_hat * np.conj(shift)).real
        u_com, _ = state_fields(com.states[-1])
        assert np.max(np.abs(u_lab_shifted - u_com.samples)) < 1e-7

    def test_lab_frame_wave_matches_exact_translate(self, wave_2_03):
        # the wave travels at c: u(T) = psi(x - cT) at a step ten times the
        # one the integrating-factor scheme needed here, on any grid: 96 is no
        # power of two, and 127 has no Nyquist mode
        p = wave_2_03
        for N in (96, 127, 128):
            u0, v0 = profile_grid(p, N)
            traj = simulate(u0, v0, T=0.5, dt=1e-3)
            u, v = state_fields(traj.states[-1])
            psi, phi = eval_profile(p, u0.x - p.c * 0.5)
            assert np.max(np.abs(u.samples - psi)) / np.max(np.abs(psi)) < 1e-6, N
            assert np.max(np.abs(v.samples - phi)) / np.max(np.abs(phi)) < 1e-6, N

    def test_comoving_wave_is_fixed_point_at_acceptance_scale(self, wave_2_03):
        # N = 256, dt = 1e-3 blew up under the integrating-factor scheme; the
        # exponential integrator keeps the relative equilibrium, on the FFT
        # path (256) and on the dense one (255). At N = 128 rounding seeds the
        # step-size resonance of NOTES.md: by T = 5 the profile moves by 8.9e-10
        # on the dense pair but 1.1e-8 on numpy.fft, as the transforms round
        p = wave_2_03
        for N in (256, 255):
            u0, v0 = profile_grid(p, N)
            traj = simulate(u0, v0, T=5.0, dt=1e-3, frame_speed=p.c)
            psi_m, phi_m = masked_profile(p, N)
            u, v = state_fields(traj.states[-1])
            assert traj.max_rel_drift <= 1e-12, N
            assert np.max(np.abs(u.samples - psi_m)) < 1e-8, N
            assert np.max(np.abs(v.samples - phi_m)) < 1e-8, N

    def test_blowup_detected_outside_envelope(self, wave_2_03):
        # the lab-frame wave at this (N, dt) pair sits outside the stepper's
        # stability region; the solver reports the blow-up cleanly
        u0, v0 = profile_grid(wave_2_03, 256)
        with pytest.raises(BlowUpError) as err:
            simulate(u0, v0, T=5.0, dt=5e-2)
        assert 0.0 < err.value.t_last < 1.0
        assert err.value.trajectory is not None

    def test_blowup_between_samples_reports_last_finite_check(self, wave_2_03):
        u0, v0 = profile_grid(wave_2_03, 256)
        dt = 5e-2
        with pytest.raises(BlowUpError) as by_step:
            simulate(u0, v0, T=5.0, dt=dt)   # 100 steps: a sample, so a check, every step
        t_bad = by_step.value.t_last + dt   # first step that fails the check
        with pytest.raises(BlowUpError) as err:
            simulate(u0, v0, T=64.0, dt=dt)   # 1280 steps: a sample every 20
        assert len(err.value.trajectory.conserved) == 1   # only t = 0 was sampled
        assert t_bad - _CHECK_EVERY * dt - 1e-9 <= err.value.t_last < t_bad


class TestConservation:
    def test_unit_norm_random_data_drift(self):
        u0, v0 = random_smooth_fields(2 * np.pi, 256, 4, seed=42)
        traj = simulate(u0, v0, T=1.0, dt=1e-3)
        assert traj.max_rel_drift < 1e-7

    def test_drift_decreases_at_least_quartically(self):
        u0, v0 = random_smooth_fields(2 * np.pi, 256, 4, seed=42)
        drifts = {}
        for dt in (2e-3, 1e-3, 5e-4):
            drifts[dt] = simulate(u0, v0, T=1.0, dt=dt).max_rel_drift
        order1 = np.log2(drifts[2e-3] / drifts[1e-3])
        order2 = np.log2(drifts[1e-3] / drifts[5e-4])
        assert order1 > 3.7 and order2 > 3.7

    def test_v_mass_exactly_conserved(self):
        # mode zero of v never moves: u u_x is a perfect derivative
        u0, v0 = random_smooth_fields(2 * np.pi, 128, 5, seed=7)
        traj = simulate(u0, v0, T=0.5, dt=1e-3)
        mode0 = [s.v_hat[0] for s in traj.states]
        assert all(m == mode0[0] for m in mode0)  # bit-exact: mode 0 never updates

    def test_wave_conservation_in_envelope(self, wave_2_03):
        u0, v0 = profile_grid(wave_2_03, 64)
        traj = simulate(u0, v0, T=1.0, dt=5e-5, frame_speed=wave_2_03.c)
        assert traj.max_rel_drift < 1e-9

    def test_h1_stays_bounded(self):
        # qualitative corroboration of H1 persistence: ||u_x||^2 stays under
        # the a-priori bound 10 (M0 + 8 M1^3) built from the conserved data
        from dswlab.waves import spectral_derivative

        u0, v0 = random_smooth_fields(2 * np.pi, 128, 5, seed=13)
        traj = simulate(u0, v0, T=1.0, dt=1e-3)
        m1 = traj.conserved[0, 4]
        m0 = traj.conserved[0, 3]
        bound = 10 * (abs(m0) + 8 * m1**3)
        for s in traj.states:
            u, _ = state_fields(s)
            ux2 = u.L / u.N * float(np.sum(spectral_derivative(u, 1) ** 2))
            assert ux2 <= bound

    def test_dealiasing_reduces_quadratic_drift(self):
        # The dealiased semi-discrete system is a Galerkin truncation and
        # conserves the quadratic invariant l2 exactly, so its drift is time
        # error alone and goes to 0 with dt at the scheme's order. Data
        # filling the whole band would alias from t = 0 without the 2/3 rule
        # (NOTES.md has the aliased floor this rule removes). At N = 33 a
        # band that kept |k| = N/3 would alias the product mode 22 to -11 and
        # leave a dt-independent floor near 6e-7.
        for N in (32, 33):
            rng = np.random.default_rng(11)
            L = 2 * np.pi
            x = np.arange(N) * L / N
            u = np.zeros(N)
            v = np.zeros(N)
            for m in range(1, N // 2):
                amp = 1.0 / (1 + m)
                u += amp * rng.normal() * np.cos(2 * np.pi * m * x / L + rng.uniform(0, 2 * np.pi))
                v += amp * rng.normal() * np.cos(2 * np.pi * m * x / L + rng.uniform(0, 2 * np.pi))
            norm = np.sqrt(L * np.mean(u**2 + v**2))
            u0, v0 = GridFunction(L, u / norm), GridFunction(L, v / norm)

            def l2_drift(dt):
                l2 = simulate(u0, v0, T=0.2, dt=dt).conserved[:, 4]
                return np.max(np.abs(l2 - l2[0])) / l2[0]

            drift = np.array([l2_drift(dt) for dt in (4e-4, 2e-4, 1e-4)])
            # fourth order: each halving of dt divides the drift by ~16
            assert np.all(drift[1:] < drift[:-1] / 8), (N, drift)


def assert_band_route_is_the_grid_route(traj):
    # each sample's invariants from its band agree with the trapezoid rule on its grid
    # within N eps of each quantity's size, the rounding of a sum of N terms
    for s in traj.states:
        grid = np.array(conserved_quantities(*state_fields(s)))
        size = _drift_scales(s, grid)
        band = np.array(conserved_of_state(s))
        assert np.all(np.abs(band - grid) <= s.N * np.finfo(float).eps * size)


class TestBandInvariants:
    @pytest.mark.parametrize("N", [127, 128, 256, 4096])
    def test_random_smooth_data(self, N):
        # random data filling the band, amplitudes 1/(1+k)^2; 127 and 128 step on the dense
        # pair, 256 and 4096 on numpy.fft; at 127, 256 and 4096 the cubic term's degree
        # 3(M - 1) is N - 1, the most the grid holds unaliased
        assert (N < _DENSE_BELOW) == (N in (127, 128))
        rng, M = np.random.default_rng(N), _band(N)
        X = (rng.normal(size=(2, M)) + 1j * rng.normal(size=(2, M))) * N / (1 + np.arange(M)) ** 2
        u0, v0 = (GridFunction(2 * np.pi, f) for f in np.fft.irfft(X, N))
        traj = simulate(u0, v0, T=0.01, dt=1e-3)
        assert np.all(traj.states[-1].X[:, -1] != 0.0)
        assert len(traj.states) == 11
        assert_band_route_is_the_grid_route(traj)

    @pytest.mark.parametrize("frame", ["lab", "comoving"])
    def test_wave_runs(self, wave_2_03, frame):
        u0, v0 = profile_grid(wave_2_03, 128)
        speed = wave_2_03.c if frame == "comoving" else 0.0
        traj = simulate(u0, v0, T=0.1, dt=1e-3, frame_speed=speed)
        assert_band_route_is_the_grid_route(traj)

    def test_masses_are_exactly_constant(self, wave_2_03):
        # ETDRK4 never moves mode 0, whose symbol and g vanish
        u0, v0 = profile_grid(wave_2_03, 128)
        traj = simulate(u0, v0, T=0.5, dt=1e-3)
        assert len(traj.states) == 73
        assert np.array_equal(traj.conserved[:, 1:3],
                              np.broadcast_to(traj.conserved[0, 1:3], (73, 2)))
        assert traj.conserved[0, 1] != 0.0

    @pytest.mark.parametrize("N", [127, 128, 256, 4096])
    def test_the_cubic_term_has_no_alias(self, N):
        # u = v = cos(kx) at the band's top mode k = 2 pi (M - 1) / L: int u^2 v = 0, so
        # e_mixed is int u_x^2 = k^2 L / 2 to rounding; on 3(M - 1) points, where the mode
        # lies past the band, the grid aliases cos(3kx) onto the mean and int u^2 v reads L / 4
        L, top = 3.0, _band(N) - 1
        ux2 = (2 * np.pi * top / L) ** 2 * L / 2
        for n, cubic in ((N, 0.0), (3 * top, L / 4)):
            X = np.zeros((2, top + 1), dtype=complex)
            X[:, top] = n / 2
            _, _, e_mixed, l2 = conserved_of_state(SimState(0.0, X, n, L))
            assert l2 == pytest.approx(L, rel=1e-15)
            assert abs(e_mixed - (ux2 - cubic)) <= n * np.finfo(float).eps * ux2

    @pytest.mark.parametrize("N", [1, 2, 127, 128])
    def test_zero_state_gives_exact_zeros(self, N):
        s = SimState(0.0, np.zeros((2, _band(N)), dtype=complex), N, 2.0)
        assert conserved_of_state(s) == (0.0, 0.0, 0.0, 0.0)


class TestPreprocess:
    def test_zero_mean_is_identity(self):
        u0, v0 = random_smooth_fields(2 * np.pi, 64, 3, seed=5)
        v0 = GridFunction(v0.L, v0.samples - np.mean(v0.samples))
        u1, v1, g0 = preprocess(u0, v0)
        assert g0 == pytest.approx(0.0, abs=1e-15)
        assert np.max(np.abs(v1.samples - v0.samples)) < 1e-15

    def test_constant_mean_removed(self):
        L, N = 2 * np.pi, 64
        v0 = GridFunction(L, np.full(N, 3.0))
        u0 = GridFunction(L, np.zeros(N))
        _, v1, g0 = preprocess(u0, v0)
        assert g0 == 3.0
        assert np.max(np.abs(v1.samples)) == 0.0

    def test_constants_evolve_exactly(self):
        L, N = 2 * np.pi, 64
        u0 = GridFunction(L, np.full(N, 0.4))
        v0 = GridFunction(L, np.full(N, 1.3))
        u1, v1, g0 = preprocess(u0, v0)
        traj = simulate(u1, v1, T=0.5, dt=1e-3)
        u, v = state_fields(traj.states[-1])
        ub, vb = undo_preprocess(g0, u, v, 0.5)
        assert np.max(np.abs(ub.samples - 0.4)) < 1e-13
        assert np.max(np.abs(vb.samples - 1.3)) < 1e-13

    def test_roundtrip_matches_direct_simulation(self):
        # preprocess -> simulate -> undo equals simulating the mean-carrying
        # system directly
        L, N, T, dt = 2 * np.pi, 128, 0.5, 1e-3
        u0, v0 = random_smooth_fields(L, N, 4, seed=9, norm=0.1)
        v0 = GridFunction(L, v0.samples + 2.0)

        direct = simulate(u0, v0, T=T, dt=dt)
        u_d, v_d = state_fields(direct.states[-1])

        u1, v1, g0 = preprocess(u0, v0)
        pre = simulate(u1, v1, T=T, dt=dt, frame_speed=0.0, frame_speed_v=g0)
        u_p, v_p = state_fields(pre.states[-1])
        u_b, v_b = undo_preprocess(g0, u_p, v_p, T)

        assert np.max(np.abs(u_b.samples - u_d.samples)) < 1e-8
        assert np.max(np.abs(v_b.samples - v_d.samples)) < 1e-8


class TestGrowthExperiment:
    def test_no_unstable_mode_to_seed(self, wave_2_03):
        # criterion 7's premise fails: the computed spectrum is stable
        with pytest.raises(NoUnstableModeError):
            growth_rate_experiment(wave_2_03, eps=1e-6, T=2.0, N=256, dt=1e-3)

    def test_eps_validated(self, wave_2_03):
        with pytest.raises(ValueError):
            growth_rate_experiment(wave_2_03, eps=0.5, T=1.0, N=256, dt=1e-3)

    def test_window_guard(self, wave_2_03):
        with pytest.raises(WindowTooShortError):
            fit_growth_rate(np.linspace(0, 1, 20), np.full(20, 1e3), wave_2_03, 1e-6)

    def test_window_bound_is_the_periodic_grid_norm(self):
        # the bound is 1e-2 times the L2 norm of psi on the 256-point periodic grid;
        # a linspace that counted psi(0) twice put it 0.56% higher at (1, 0.9)
        p = params_from_kappa(1.0, 0.9)
        bound = 1e-2 * np.sqrt(p.L * np.mean(profile_grid(p, 256)[0].samples ** 2))
        times = np.linspace(0.0, 1.0, 10)
        devs = np.full(10, 1e3)
        devs[1:5] = 1e-6 * np.exp(times[1:5])  # four samples inside the window
        devs[5] = 0.997 * bound
        assert np.isfinite(fit_growth_rate(times, devs, p, 1e-6))
        devs[5] = 1.003 * bound
        with pytest.raises(WindowTooShortError, match="only 4 samples"):
            fit_growth_rate(times, devs, p, 1e-6)

    def test_seeded_imaginary_mode_oscillates_at_eigenfrequency(self, wave_2_03):
        # companion check for the criterion-7 intent: the linearized dynamics
        # of the simulator agree with the eigensolve. With a stable spectrum
        # the checkable signature is the oscillation frequency of a seeded
        # imaginary eigenmode.
        p = wave_2_03
        N = 64
        x = np.arange(N) * p.L / N
        psi, phi = eval_profile(p, x)
        # the seed: the smallest positive frequency of the dense eig oracle
        eigvals, eigvecs, keep, _ = _nonzero_spectrum(
            _operator("dHcal", *_fourier_diff_matrices(N, p.L), p.c, psi))
        seed = min((i for i in keep if eigvals[i].imag > 0), key=lambda i: eigvals[i].imag)
        mu = eigvals[seed].imag
        U, V = eigvecs[:N, seed], eigvecs[N:, seed]
        znorm = np.sqrt(p.L / N * (np.sum(np.abs(U) ** 2) + np.sum(np.abs(V) ** 2)))
        eps = 1e-4
        u0 = GridFunction(p.L, psi + eps * np.concatenate([U]).real / znorm)
        v0 = GridFunction(p.L, phi + eps * np.concatenate([V]).real / znorm)
        T = 3 * 2 * np.pi / mu
        traj = simulate(u0, v0, T=T, dt=5e-5, frame_speed=p.c)

        # project the deviation onto the invariant plane span{Re w, Im w}
        psi_m, phi_m = masked_profile(p, N)
        basis = np.vstack([np.concatenate([U.real, V.real]),
                           np.concatenate([U.imag, V.imag])]).T
        phases = []
        for s in traj.states:
            u, v = state_fields(s)
            dev = np.concatenate([u.samples - psi_m, v.samples - phi_m])
            coef, *_ = np.linalg.lstsq(basis, dev, rcond=None)
            phases.append(np.arctan2(-coef[1], coef[0]))
        phase = np.unwrap(np.asarray(phases))
        slope = np.polyfit(traj.conserved[:, 0], phase, 1)[0]
        assert abs(abs(slope) - mu) < 0.01 * mu

        # the growth fit on the same trajectory: a neutral mode grows at rate 0
        # (measured 5.4e-9 at mu = 39.78)
        times, devs = deviation_series(traj, p)
        assert abs(fit_growth_rate(times, devs, p, eps)) <= 1e-6 * mu
