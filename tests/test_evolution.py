import numpy as np
import pytest

from dswlab.evolution import (_CHECK_EVERY, BlowUpError, WindowTooShortError,
                              _etd_coefficients, fit_growth_rate, growth_rate_experiment,
                              make_state, preprocess, simulate, state_fields, step,
                              undo_preprocess)
from dswlab.spectra import NoUnstableModeError, imaginary_eigenmode
from dswlab.waves import GridFunction, eval_profile, profile_grid


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
    mask = np.abs(np.fft.fftfreq(N, 1.0 / N)) <= N // 3
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
        state = make_state(u0, v0, frame_speed=0.0)
        T, dt = 1.0, 1e-3
        traj = simulate(u0, v0, T=T, dt=dt, frame_speed=0.0)
        u_hat0 = state.u_hat
        u_hatT = traj.states[-1].u_hat
        for k in (1, N - 1):  # modes +1 and -1
            kk = 2 * np.pi * np.fft.fftfreq(N, d=L / N)[k]
            expected = np.exp(1j * kk**3 * T) * u_hat0[k]
            assert abs(u_hatT[k] - expected) < 1e-10 * abs(u_hat0[k])

    def test_step_matches_simulate(self):
        u0, v0 = random_smooth_fields(2 * np.pi, 64, 3, seed=1, norm=0.5)
        s = make_state(u0, v0, 0.0)
        for _ in range(10):
            s = step(s, 1e-3)
        traj = simulate(u0, v0, T=10e-3, dt=1e-3, sample_every=10)
        assert np.max(np.abs(s.u_hat - traj.states[-1].u_hat)) < 1e-12 * 64

    def test_repeated_steps_build_the_weights_once(self, monkeypatch):
        from dswlab import evolution

        builds = []

        def counted(z, h):
            builds.append(h)
            return _etd_coefficients(z, h)

        monkeypatch.setattr(evolution, "_etd_coefficients", counted)
        evolution._stepper.cache_clear()
        u0, v0 = random_smooth_fields(2 * np.pi, 64, 3, seed=5)
        s = make_state(u0, v0, 0.0)
        for _ in range(10):
            s = step(s, 1e-3)
        evolution._stepper.cache_clear()
        assert builds == [1e-3]

    def test_hermitian_symmetry_preserved(self):
        u0, v0 = random_smooth_fields(2 * np.pi, 128, 5, seed=2)
        traj = simulate(u0, v0, T=0.5, dt=1e-3)
        for s in traj.states:
            assert s.hermitian_defect() < 1e-12

    def test_invalid_steps_rejected(self):
        u0, v0 = random_smooth_fields(2 * np.pi, 64, 3, seed=3)
        with pytest.raises(ValueError):
            simulate(u0, v0, T=-1.0, dt=1e-3)
        with pytest.raises(ValueError):
            step(make_state(u0, v0), dt=0.0)

    def test_run_ends_at_T_with_a_step_no_larger_than_requested(self):
        # 0.05 / 4e-3 = 12.5: thirteen steps of 0.05 / 13, not twelve of 4e-3
        u0, v0 = random_smooth_fields(2 * np.pi, 64, 3, seed=4)
        traj = simulate(u0, v0, T=0.05, dt=4e-3, sample_every=1)
        assert traj.times[-1] == 0.05
        assert traj.states[-1].t == 0.05
        assert len(traj.times) == 14
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


class TestWaveEquilibrium:
    def test_stationary_in_comoving_frame(self, wave_2_03):
        # relative-equilibrium check over 100k small steps; the acceptance-scale
        # pair N = 256, dt = 1e-3 is test_comoving_wave_is_fixed_point_at_acceptance_scale
        p = wave_2_03
        N = 64
        u0, v0 = profile_grid(p, N)
        traj = simulate(u0, v0, T=5.0, dt=5e-5, frame_speed=p.c, sample_every=20000)
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
        lab = simulate(u0, v0, T=T, dt=dt, frame_speed=0.0, sample_every=3000)
        com = simulate(u0, v0, T=T, dt=dt, frame_speed=p.c, sample_every=3000)
        k = 2 * np.pi * np.fft.fftfreq(N, d=p.L / N)
        shift = np.exp(-1j * k * p.c * T)  # u_com(x) = u_lab(x + cT)
        u_lab_shifted = np.fft.ifft(lab.states[-1].u_hat * np.conj(shift)).real
        u_com, _ = state_fields(com.states[-1])
        assert np.max(np.abs(u_lab_shifted - u_com.samples)) < 1e-7

    def test_lab_frame_wave_matches_exact_translate(self, wave_2_03):
        # the wave travels at c: u(T) = psi(x - cT) at a step ten times the
        # one the integrating-factor scheme needed here
        p = wave_2_03
        u0, v0 = profile_grid(p, 128)
        traj = simulate(u0, v0, T=0.5, dt=1e-3)
        u, v = state_fields(traj.states[-1])
        psi, phi = eval_profile(p, u0.x - p.c * 0.5)
        assert np.max(np.abs(u.samples - psi)) / np.max(np.abs(psi)) < 1e-6
        assert np.max(np.abs(v.samples - phi)) / np.max(np.abs(phi)) < 1e-6

    def test_comoving_wave_is_fixed_point_at_acceptance_scale(self, wave_2_03):
        # N = 256, dt = 1e-3 blew up under the integrating-factor scheme; the
        # exponential integrator keeps the relative equilibrium
        p = wave_2_03
        u0, v0 = profile_grid(p, 256)
        traj = simulate(u0, v0, T=5.0, dt=1e-3, frame_speed=p.c)
        psi_m, phi_m = masked_profile(p, 256)
        u, v = state_fields(traj.states[-1])
        assert traj.max_rel_drift <= 1e-12
        assert np.max(np.abs(u.samples - psi_m)) < 1e-8
        assert np.max(np.abs(v.samples - phi_m)) < 1e-8

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_detected_outside_envelope(self, wave_2_03):
        # the lab-frame wave at this (N, dt) pair sits outside the stepper's
        # stability region; the solver reports the blow-up cleanly
        u0, v0 = profile_grid(wave_2_03, 256)
        with pytest.raises(BlowUpError) as err:
            simulate(u0, v0, T=5.0, dt=5e-2)
        assert 0.0 < err.value.t_last < 1.0
        assert err.value.trajectory is not None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_between_samples_reports_last_finite_check(self, wave_2_03):
        u0, v0 = profile_grid(wave_2_03, 256)
        dt = 5e-2
        s = make_state(u0, v0)
        with pytest.raises(BlowUpError) as by_step:
            for _ in range(100):
                s = step(s, dt)
        t_bad = by_step.value.t_last + dt   # first step that fails the check
        with pytest.raises(BlowUpError) as err:
            simulate(u0, v0, T=5.0, dt=dt, sample_every=1000)
        assert len(err.value.trajectory.times) == 1   # only t = 0 was sampled
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
        traj = simulate(u0, v0, T=1.0, dt=5e-5, frame_speed=wave_2_03.c,
                        sample_every=4000)
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
        # error alone and goes to 0 with dt at the scheme's order. The aliased
        # products break that conservation: its drift stays at a floor. Data
        # filling the whole band make aliasing act from t = 0.
        rng = np.random.default_rng(11)
        L, N = 2 * np.pi, 32
        x = np.arange(N) * L / N
        u = np.zeros(N)
        v = np.zeros(N)
        for m in range(1, N // 2):
            amp = 1.0 / (1 + m)
            u += amp * rng.normal() * np.cos(2 * np.pi * m * x / L + rng.uniform(0, 2 * np.pi))
            v += amp * rng.normal() * np.cos(2 * np.pi * m * x / L + rng.uniform(0, 2 * np.pi))
        norm = np.sqrt(L * np.mean(u**2 + v**2))
        u0, v0 = GridFunction(L, u / norm), GridFunction(L, v / norm)

        def l2_drift(dt, dealias):
            l2 = simulate(u0, v0, T=0.2, dt=dt, dealias=dealias).conserved[:, 4]
            return np.max(np.abs(l2 - l2[0])) / l2[0]

        ladder = (4e-4, 2e-4, 1e-4)
        dealiased = np.array([l2_drift(dt, True) for dt in ladder])
        aliased = np.array([l2_drift(dt, False) for dt in ladder])
        # fourth order: each halving of dt divides the drift by ~16
        assert np.all(dealiased[1:] < dealiased[:-1] / 8)
        # no convergence in dt: the aliasing floor
        assert aliased[-1] > 0.5 * aliased[0]
        assert np.all(aliased > 1e3 * dealiased)


class TestPreprocess:
    def test_zero_mean_is_identity(self):
        u0, v0 = random_smooth_fields(2 * np.pi, 64, 3, seed=5)
        v0 = GridFunction(v0.L, v0.samples - np.mean(v0.samples))
        u1, v1, rec = preprocess(u0, v0)
        assert rec.g0 == pytest.approx(0.0, abs=1e-15)
        assert np.max(np.abs(v1.samples - v0.samples)) < 1e-15

    def test_constant_mean_removed(self):
        L, N = 2 * np.pi, 64
        v0 = GridFunction(L, np.full(N, 3.0))
        u0 = GridFunction(L, np.zeros(N))
        _, v1, rec = preprocess(u0, v0)
        assert rec.g0 == 3.0
        assert np.max(np.abs(v1.samples)) == 0.0

    def test_constants_evolve_exactly(self):
        L, N = 2 * np.pi, 64
        u0 = GridFunction(L, np.full(N, 0.4))
        v0 = GridFunction(L, np.full(N, 1.3))
        u1, v1, rec = preprocess(u0, v0)
        traj = simulate(u1, v1, T=0.5, dt=1e-3)
        u, v = state_fields(traj.states[-1])
        ub, vb = undo_preprocess(rec, u, v, 0.5)
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

        u1, v1, rec = preprocess(u0, v0)
        pre = simulate(u1, v1, T=T, dt=dt, frame_speed=0.0, frame_speed_v=rec.g0)
        u_p, v_p = state_fields(pre.states[-1])
        u_b, v_b = undo_preprocess(rec, u_p, v_p, T)

        assert np.max(np.abs(u_b.samples - u_d.samples)) < 1e-8
        assert np.max(np.abs(v_b.samples - v_d.samples)) < 1e-8


class TestGrowthExperiment:
    def test_no_unstable_mode_to_seed(self, wave_2_03):
        # criterion 7's premise fails: the computed spectrum is stable
        with pytest.raises(NoUnstableModeError):
            growth_rate_experiment(wave_2_03, eps=1e-6, T=2.0, N=256, dt=1e-3)

    def test_eps_validated(self, wave_2_03):
        with pytest.raises(ValueError):
            growth_rate_experiment(wave_2_03, eps=0.5, T=1.0)

    def test_window_guard(self, wave_2_03):
        with pytest.raises(WindowTooShortError):
            fit_growth_rate(np.linspace(0, 1, 20), np.full(20, 1e3), wave_2_03, 1e-6)

    def test_seeded_imaginary_mode_oscillates_at_eigenfrequency(self, wave_2_03):
        # companion check for the criterion-7 intent: the linearized dynamics
        # of the simulator agree with the eigensolve. With a stable spectrum
        # the checkable signature is the oscillation frequency of a seeded
        # imaginary eigenmode.
        p = wave_2_03
        N = 64
        mu, U, V = imaginary_eigenmode(p, N)
        x = np.arange(N) * p.L / N
        psi, phi = eval_profile(p, x)
        znorm = np.sqrt(p.L / N * (np.sum(np.abs(U) ** 2) + np.sum(np.abs(V) ** 2)))
        eps = 1e-4
        u0 = GridFunction(p.L, psi + eps * np.concatenate([U]).real / znorm)
        v0 = GridFunction(p.L, phi + eps * np.concatenate([V]).real / znorm)
        T = 3 * 2 * np.pi / mu
        traj = simulate(u0, v0, T=T, dt=5e-5, frame_speed=p.c,
                        sample_every=max(1, int(round(T / 5e-5)) // 200))

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
        slope = np.polyfit(traj.times, phase, 1)[0]
        assert abs(abs(slope) - mu) < 0.01 * mu
