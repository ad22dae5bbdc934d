import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import dswlab
from dswlab.elliptic import KAPPA_MAX, ellip_k, jacobi_sn_cn_dn
from dswlab.waves import (GridFunction, SpeedBelowThresholdError, WaveInvariantError,
                          _SPEED_SERIES_BELOW, _check_invariants, _unit_wave,
                          conserved_quantities, eval_profile, eval_profile_derivatives,
                          grid_points, kappa_from_c, params_from_kappa, profile_grid,
                          profile_residual, spectral_derivative)

KAPPA_GRID = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95]
L_GRID = [1.0, 2.0, 4.0, 10.0]


@pytest.mark.parametrize("L", L_GRID)
@pytest.mark.parametrize("kappa", KAPPA_GRID)
def test_parameter_invariants(L, kappa):
    p = params_from_kappa(L, kappa)
    scale = abs(p.eta4)
    assert abs(p.eta1 + p.eta3 + p.eta4) < 1e-10 * scale
    assert 0.0 < p.eta3 < 2 * p.c / np.sqrt(3) < p.eta4 < 2 * p.c
    period = 8 * np.sqrt(p.c) * p.K / (16 * p.c**2 * p.eta4**2 - 3 * p.eta4**4) ** 0.25
    assert abs(period - L) < 1e-10 * L
    assert abs(p.beta_sq + p.kappa**2 * p.eta4 / p.eta1) < 1e-10 * max(p.beta_sq, 1e-3)
    assert abs(p.F1 + p.eta4 * (4 * p.c**2 - p.eta4**2) / (8 * p.c)) < 1e-10 * scale * p.c
    # Vieta checks of the quartic roots against (c, F1)
    assert abs(p.eta1 * p.eta3 + p.eta1 * p.eta4 + p.eta3 * p.eta4 + 4 * p.c**2) < 1e-9 * p.c**2
    assert abs(p.eta1 * p.eta3 * p.eta4 - 8 * p.c * p.F1) < 1e-9 * abs(8 * p.c * p.F1)


TAMPERED = {  # changed fields -> the identity that must fail first
    "eta1": (lambda p: {"eta1": 1.01 * p.eta1}, "root sum"),
    "eta3-eta4": (lambda p: {"eta3": p.eta4, "eta4": p.eta3}, "root ordering"),
    "K": (lambda p: {"K": 1.01 * p.K}, "fundamental-period"),
    "beta_sq": (lambda p: {"beta_sq": 1.01 * p.beta_sq}, "beta^2"),
    "F1": (lambda p: {"F1": p.c**2}, "four-real-root"),
    "alpha": (lambda p: {"alpha": 1.01 * p.alpha}, "alpha"),
    "kappa-nan": (lambda p: {"kappa": float("nan")}, "beta^2"),
}


@pytest.mark.parametrize("tamper", TAMPERED)
def test_tampered_params_raise(tamper, wave_2_03):
    change, identity = TAMPERED[tamper]
    _check_invariants(wave_2_03)
    bad = dataclasses.replace(wave_2_03, **change(wave_2_03))
    with pytest.raises(WaveInvariantError, match="^" + re.escape(identity)):
        _check_invariants(bad)


def test_invariant_check_survives_optimize_flag():
    script = (
        "import dataclasses, sys\n"
        "from dswlab.waves import WaveInvariantError, _check_invariants, params_from_kappa\n"
        "p = params_from_kappa(2.0, 0.3)\n"
        "try:\n"
        "    _check_invariants(dataclasses.replace(p, K=1.01 * p.K))\n"
        "except WaveInvariantError as exc:\n"
        "    print(sys.flags.optimize, exc)\n"
    )
    src = str(Path(dswlab.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "1 fundamental-period identity violated"


def test_kappa_recovered_from_c_and_eta4():
    # the modulus formula in terms of (c, eta4) reproduces the input kappa
    for kappa in KAPPA_GRID:
        p = params_from_kappa(2.0, kappa)
        r = np.sqrt(16 * p.c**2 * p.eta4**2 - 3 * p.eta4**4)
        kappa_sq = (r + 3 * p.eta4**2 - 8 * p.c**2) / (2 * r)
        assert abs(np.sqrt(kappa_sq) - kappa) < 1e-10


def test_speed_values_match_table():
    assert params_from_kappa(2.0, 0.1).c == pytest.approx(9.87007, rel=5e-6)
    assert params_from_kappa(4.0, 0.7).c == pytest.approx(2.95039, rel=5e-6)


def test_small_kappa_limits():
    L = 2.0
    p = params_from_kappa(L, 1e-4)
    c0 = 4 * np.pi**2 / L**2
    assert p.c == pytest.approx(c0, rel=1e-8)
    assert p.eta4 == pytest.approx(2 * p.c / np.sqrt(3), rel=1e-6)
    assert p.beta_sq < 1e-7
    # constant-wave energy constant: F1 -> -2 c^2 / (3 sqrt(3))
    assert p.F1 == pytest.approx(-2 * p.c**2 / (3 * np.sqrt(3)), rel=1e-6)


def test_invalid_modulus_rejected():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            params_from_kappa(2.0, bad)
    with pytest.raises(ValueError):
        params_from_kappa(-1.0, 0.5)


# every route that takes a period, all refusing a bad one with the same message
PERIOD_ROUTES = [lambda L: params_from_kappa(L, 0.3), lambda L: kappa_from_c(L, 5.0),
                 lambda L: grid_points(L, 8), lambda L: GridFunction(L, np.zeros(8))]


@pytest.mark.parametrize("L", [np.inf, -np.inf, np.nan])
def test_non_finite_period_rejected(L):
    # inf used to pass the L > 0 guard and fail the root invariants instead
    for route in PERIOD_ROUTES:
        with pytest.raises(ValueError, match=re.escape(
                f"period L must be positive and finite (got {L!r})")):
            route(L)


@pytest.mark.parametrize("L", [0.0, -1.0])
def test_nonpositive_period_rejected(L):
    # grid_points and GridFunction used to take a zero or negative period
    for route in PERIOD_ROUTES:
        with pytest.raises(ValueError, match=re.escape(
                f"period L must be positive and finite (got {L!r})")):
            route(L)


class TestKappaFromC:
    def test_roundtrip_grid(self):
        for kappa in KAPPA_GRID:
            for L in (1.0, 2.0, 10.0):
                c = params_from_kappa(L, kappa).c
                assert abs(kappa_from_c(L, c) - kappa) < 1e-10

    def test_table_inversion(self):
        assert kappa_from_c(2.0, 9.87007) == pytest.approx(0.1, abs=1e-3)

    def test_below_threshold_rejected(self):
        L = 2.0
        with pytest.raises(SpeedBelowThresholdError):
            kappa_from_c(L, 4 * np.pi**2 / L**2)
        with pytest.raises(SpeedBelowThresholdError):
            kappa_from_c(L, 0.5 * 4 * np.pi**2 / L**2)

    def test_speed_within_rounding_of_threshold_rejected(self):
        # one ulp above 4 pi^2/L^2, where c(kappa) is flat to rounding: the
        # bracket's end kappa = 1e-9 is no root, and it used to come back as one
        L, c = 0.212802078381784, 871.7822176196752
        assert np.nextafter(4 * np.pi**2 / L**2, np.inf) == c
        with pytest.raises(SpeedBelowThresholdError, match="within rounding"):
            kappa_from_c(L, c)

    def test_speed_series_coefficient(self):
        # c/c0 - 1 = (15/32) kappa^4 (1 + kappa^2 + O(kappa^4)): the series root's coefficient
        kappa = 1e-2
        ratio = (params_from_kappa(1.0, kappa).c / (4 * np.pi**2) - 1) / kappa**4
        assert abs(ratio / (15 / 32 * (1 + kappa**2)) - 1) < 1e-6

    @pytest.mark.parametrize("L", [1.0, 2.7])
    def test_series_root_near_the_threshold(self, L):
        # c(kappa) is flat to rounding near c0 = 4 pi^2/L^2, where brentq's root used to
        # scatter over [2e-8, 2e-4] and fall as c rose; the series root rises with c, and
        # the speed map takes it back to c within its own rounding, up to 3 ulps
        c0 = 4 * np.pi**2 / L**2
        ulp = np.spacing(c0)
        top = int(_SPEED_SERIES_BELOW * c0 / ulp) - 1
        steps = np.unique(np.concatenate([np.arange(1, 1000),
                                          np.geomspace(1000, top, 300).astype(int)]))
        cs = c0 + steps * ulp
        assert (cs[-1] - c0) / c0 < _SPEED_SERIES_BELOW
        ks = [kappa_from_c(L, c) for c in cs]
        assert all(b >= a for a, b in zip(ks, ks[1:]))
        assert 1e-4 < ks[0] and ks[-1] < 2.2e-3
        for c, kappa in zip(cs, ks):
            assert abs(params_from_kappa(L, kappa).c - c) <= 3 * ulp

    @pytest.mark.parametrize("L", [1.0, 2.7])
    def test_series_root_joins_brentq_at_the_switch(self, L):
        # on each side of the switch the answer is brentq's root within brentq's rounding:
        # 3 ulps of c move the root of the flat map by 3 ulp / (4 (c - c0)) of kappa
        c0 = 4 * np.pi**2 / L**2
        ulp = np.spacing(c0)
        switch = int(_SPEED_SERIES_BELOW * c0 / ulp)
        cs = c0 + np.arange(switch - 3, switch + 4) * ulp
        assert len({(c - c0) / c0 < _SPEED_SERIES_BELOW for c in cs}) == 2
        for c in cs:
            root = brentq(lambda k: _unit_wave(k).c / (L * L) - c, 1e-9, KAPPA_MAX,
                          xtol=1e-15, rtol=8.9e-16, maxiter=200)
            assert abs(kappa_from_c(L, c) / root - 1) <= 3 * ulp / (4 * (c - c0))

    def test_monotone_in_c(self):
        L = 2.0
        cs = np.linspace(9.9, 30.0, 25)
        ks = [kappa_from_c(L, c) for c in cs]
        assert all(b > a for a, b in zip(ks, ks[1:]))

    def test_separatrix_limit_rejected(self):
        with pytest.raises(ValueError, match="separatrix"):
            kappa_from_c(2.0, 1e6)

    @pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf])
    def test_non_finite_speed_rejected(self, c):
        # nan used to reach brentq, whose refusal does not name the speed
        with pytest.raises(ValueError, match=f"^speed c must be finite \\(got {c!r}\\)$"):
            kappa_from_c(2.0, c)


def test_gamma_map_monotone():
    # eta4 is strictly increasing in c at fixed L
    L = 4.0
    etas = [params_from_kappa(L, kappa_from_c(L, c)).eta4 for c in np.linspace(2.6, 8.0, 20)]
    assert all(b > a for a, b in zip(etas, etas[1:]))


class TestProfile:
    def test_crest_value(self, wave_2_03):
        psi, phi = eval_profile(wave_2_03, 0.0)
        assert psi == pytest.approx(wave_2_03.eta4, rel=1e-14)
        assert phi == pytest.approx(wave_2_03.eta4**2 / (2 * wave_2_03.c), rel=1e-14)

    def test_trough_value(self, wave_2_03):
        p = wave_2_03
        psi, _ = eval_profile(p, p.L / 2)
        closed = p.eta4 * (1 - p.kappa**2) / (1 + p.beta_sq)
        assert psi == pytest.approx(closed, rel=1e-13)
        assert psi == pytest.approx(p.eta3, rel=1e-12)  # the trough is the quartic root

    def test_phi_relation_exact(self, wave_2_03):
        xi = np.linspace(-3.0, 3.0, 101)
        psi, phi = eval_profile(wave_2_03, xi)
        assert np.max(np.abs(phi - psi**2 / (2 * wave_2_03.c))) == 0.0

    def test_even_and_periodic(self, wave_2_03):
        xi = np.linspace(0.0, wave_2_03.L, 57)
        a, _ = eval_profile(wave_2_03, xi)
        b, _ = eval_profile(wave_2_03, -xi)
        c, _ = eval_profile(wave_2_03, xi + wave_2_03.L)
        assert np.max(np.abs(a - b)) < 1e-12 * wave_2_03.eta4
        assert np.max(np.abs(a - c)) < 1e-12 * wave_2_03.eta4

    def test_derivatives_match_finite_differences(self, wave_2_03):
        p = wave_2_03
        xi = np.linspace(0.1, p.L - 0.1, 11)
        psi, dpsi, ddpsi = eval_profile_derivatives(p, xi)
        h = 1e-4  # balances truncation against cancellation for the 2nd difference
        psi_p, _ = eval_profile(p, xi + h)
        psi_m, _ = eval_profile(p, xi - h)
        assert np.max(np.abs((psi_p - psi_m) / (2 * h) - dpsi)) < 1e-6
        assert np.max(np.abs((psi_p - 2 * psi + psi_m) / h**2 - ddpsi)) < 1e-3


class TestProfileResidual:
    def test_exact_wave_small_residual(self, wave_2_03):
        r1, r2 = profile_residual(wave_2_03, 256)
        assert r1 < 1e-8
        assert r2 < 1e-8

    def test_detuned_amplitude_large_residual(self, wave_2_03):
        bad = dataclasses.replace(wave_2_03, eta4=1.01 * wave_2_03.eta4)
        r1, _ = profile_residual(bad, 256)
        assert r1 > 1e-3  # an invalid profile is loudly non-stationary

    def test_grid_size_validated(self, wave_2_03):
        # any N >= 1 is a grid; 48 resolves this wave to 1e-8
        assert max(profile_residual(wave_2_03, 48)) < 1e-8
        with pytest.raises(ValueError, match="N = 0"):
            profile_residual(wave_2_03, 0)


class TestConservedQuantities:
    def test_zero_fields(self):
        z = GridFunction(2.0, np.zeros(64))
        assert conserved_quantities(z, z) == (0.0, 0.0, 0.0, 0.0)

    def test_single_mode_closed_forms(self):
        L = 3.0
        N = 128
        x = np.arange(N) * L / N
        u = GridFunction(L, np.sin(2 * np.pi * x / L))
        v = GridFunction(L, np.zeros(N))
        m_u, m_v, e_mixed, l2 = conserved_quantities(u, v)
        assert abs(m_u) < 1e-13
        assert m_v == 0.0
        assert l2 == pytest.approx(L / 2, rel=1e-13)
        assert e_mixed == pytest.approx((2 * np.pi / L) ** 2 * L / 2, rel=1e-13)

    def test_wave_against_quadrature_oracle(self, wave_2_03):
        p = wave_2_03
        psi_g, phi_g = profile_grid(p, 256)
        m_u, m_v, e_mixed, l2 = conserved_quantities(psi_g, phi_g)

        def psi_f(x):
            return eval_profile(p, x)[0]

        def dpsi_f(x):
            return eval_profile_derivatives(p, x)[1]

        o_mu = quad(psi_f, 0, p.L, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        o_mv = quad(lambda x: psi_f(x) ** 2 / (2 * p.c), 0, p.L, epsabs=1e-13,
                    epsrel=1e-13, limit=200)[0]
        o_e = quad(lambda x: dpsi_f(x) ** 2 - psi_f(x) ** 2 * (psi_f(x) ** 2 / (2 * p.c)),
                   0, p.L, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
        o_l2 = quad(lambda x: psi_f(x) ** 2 + (psi_f(x) ** 2 / (2 * p.c)) ** 2,
                    0, p.L, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        assert m_u == pytest.approx(o_mu, abs=1e-10 * max(1, abs(o_mu)))
        assert m_v == pytest.approx(o_mv, abs=1e-10 * max(1, abs(o_mv)))
        assert e_mixed == pytest.approx(o_e, abs=1e-9 * max(1, abs(o_e)))
        assert l2 == pytest.approx(o_l2, abs=1e-10 * max(1, abs(o_l2)))

    def test_mismatched_grids_rejected(self):
        u = GridFunction(2.0, np.zeros(64))
        v = GridFunction(2.0, np.zeros(128))
        with pytest.raises(ValueError):
            conserved_quantities(u, v)


class TestSpectralDerivative:
    @pytest.mark.parametrize("N, L", [(16, 2.0), (256, 3.7)])
    def test_nyquist_mode(self, N, L):
        # the unpaired mode (-1)^j: ik puts an imaginary coefficient on it, which
        # irfft drops, so order 1 gives exactly 0; (ik)^2 = -(pi N / L)^2 is real
        g = GridFunction(L, (-1.0) ** np.arange(N))
        assert np.all(spectral_derivative(g, 1) == 0.0)
        assert np.array_equal(spectral_derivative(g, 2), -(np.pi * N / L) ** 2 * g.samples)


def test_grid_function_validation():
    assert GridFunction(1.0, np.zeros(48)).N == 48   # any size N >= 1
    with pytest.raises(ValueError, match="N = 0"):
        GridFunction(1.0, np.zeros(0))
    with pytest.raises(ValueError):
        GridFunction(1.0, np.full(32, np.nan))


def test_grid_points():
    assert np.array_equal(grid_points(2.0, 4), [0.0, 0.5, 1.0, 1.5])
    with pytest.raises(ValueError, match=r"got N = -5\)"):
        grid_points(2.0, -5)


def test_profile_closed_form_uses_dn_over_b(wave_2_03):
    # spot check of the closed form against a direct elliptic evaluation
    p = wave_2_03
    xi = 0.37
    sn, _, dn = jacobi_sn_cn_dn(p.alpha * xi, p.kappa)
    expected = p.eta4 * dn**2 / (1 + p.beta_sq * sn**2)
    assert eval_profile(p, xi)[0] == pytest.approx(expected, rel=1e-15)
    assert p.alpha == pytest.approx(2 * ellip_k(p.kappa) / p.L, rel=1e-15)
