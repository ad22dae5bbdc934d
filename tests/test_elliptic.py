import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ellipj, ellipk, ellipkm1

from dswlab import elliptic
from dswlab.elliptic import KAPPA_MAX, ellip_k, jacobi_sn_cn_dn

# Dense grid over (0, KAPPA_MAX]. It holds 0.35, 0.6, 0.75 and 0.95, whose AGM
# runs to the 64-term cap under any stopping test finer than the double
# spacing (1e-17, say), and the moduli next to the upper end.
KAPPA_DENSE = np.unique(np.concatenate([
    [1e-12, 1e-6], np.linspace(0.001, 0.999, 999), [0.35, 0.6, 0.75, 0.95],
    [1.0 - 1e-4, 1.0 - 1e-6, 1.0 - 1e-8, KAPPA_MAX]]))


def test_k_at_zero_is_quarter_circle():
    assert ellip_k(0.0) == pytest.approx(np.pi / 2, abs=1e-15)


def test_k_at_point_one_matches_table_value():
    # p'(0) column of the reference table at L = 2 equals K(0.1)
    assert ellip_k(0.1) == pytest.approx(1.57475, rel=5e-6)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_k_against_quadrature_oracle():
    kappa = 0.5
    oracle, err = quad(lambda t: 1.0 / np.sqrt(1.0 - kappa**2 * np.sin(t) ** 2),
                       0.0, np.pi / 2, epsabs=1e-14, epsrel=1e-14)
    assert err < 1e-12
    assert abs(ellip_k(kappa) - oracle) < 1e-12


def test_k_monotone_in_kappa():
    grid = np.linspace(0.0, 0.99, 100)
    vals = [ellip_k(k) for k in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, float("nan"), 1.0 - 1e-12])
def test_modulus_domain_rejected(bad):
    with pytest.raises(ValueError):
        ellip_k(bad)
    with pytest.raises(ValueError):
        jacobi_sn_cn_dn(0.3, bad)


def test_origin_values():
    sn, cn, dn = jacobi_sn_cn_dn(0.0, 0.7)
    assert (sn, cn, dn) == (0.0, 1.0, 1.0)


def test_trigonometric_degeneration():
    u = np.linspace(-7.0, 7.0, 41)
    sn, cn, dn = jacobi_sn_cn_dn(u, 0.0)
    assert np.allclose(sn, np.sin(u), atol=1e-15)
    assert np.allclose(cn, np.cos(u), atol=1e-15)
    assert np.allclose(dn, 1.0, atol=1e-15)


def test_quarter_period_values():
    kappa = 0.7
    sn, cn, dn = jacobi_sn_cn_dn(ellip_k(kappa), kappa)
    assert sn == pytest.approx(1.0, abs=1e-14)
    assert cn == pytest.approx(0.0, abs=1e-14)
    assert dn == pytest.approx(np.sqrt(1.0 - kappa**2), abs=1e-14)


@settings(max_examples=200, deadline=None)
@given(u=st.floats(-50.0, 50.0), kappa=st.floats(0.0, 0.98))
def test_fundamental_identities(u, kappa):
    sn, cn, dn = jacobi_sn_cn_dn(u, kappa)
    assert abs(sn * sn + cn * cn - 1.0) < 1e-12
    assert abs(dn * dn - (1.0 - kappa**2 * sn * sn)) < 1e-12


def test_identity_bulk_samples():
    rng = np.random.default_rng(5)
    worst1 = worst2 = 0.0
    for kappa in np.linspace(0.0, 0.98, 50):
        u = rng.uniform(-30.0, 30.0, 200)
        sn, cn, dn = jacobi_sn_cn_dn(u, kappa)
        worst1 = max(worst1, float(np.max(np.abs(sn**2 + cn**2 - 1.0))))
        worst2 = max(worst2, float(np.max(np.abs(dn**2 - (1.0 - kappa**2 * sn**2)))))
    assert worst1 < 1e-12
    assert worst2 < 1e-12


def test_half_period_shifts():
    kappa = 0.6
    K = ellip_k(kappa)
    u = np.linspace(-3.0, 9.0, 57)
    sn0, _, dn0 = jacobi_sn_cn_dn(u, kappa)
    sn2, _, dn2 = jacobi_sn_cn_dn(u + 2.0 * K, kappa)
    assert np.max(np.abs(sn2 + sn0)) < 1e-10
    assert np.max(np.abs(dn2 - dn0)) < 1e-10


def test_scalar_and_array_agree():
    kappa = 0.4
    us = np.array([0.3, 1.1, 2.9])
    sn_arr, cn_arr, dn_arr = jacobi_sn_cn_dn(us, kappa)
    for i, u in enumerate(us):
        sn, cn, dn = jacobi_sn_cn_dn(float(u), kappa)
        assert (sn, cn, dn) == (sn_arr[i], cn_arr[i], dn_arr[i])


def test_nonfinite_argument_rejected():
    with pytest.raises(ValueError):
        jacobi_sn_cn_dn(float("inf"), 0.5)


def test_agm_terms_bounded_on_dense_grid():
    # one ratio c_n/a_n per AGM level
    levels = [len(elliptic._modulus_record(float(k))[3]) for k in KAPPA_DENSE]
    assert max(levels) <= 8


def test_against_scipy_on_dense_grid():
    # scipy takes the parameter m = kappa**2, and rounding it moves 1 - m by up
    # to eps/2: above kappa = 0.999 that shifts scipy's sn, cn, dn by more than
    # 1e-13 (4e-10 at kappa = 1 - 1e-8). Those moduli are checked against
    # mpmath below, and their K against ellipkm1 of 1 - m = (1 - kappa)(1 + kappa).
    u = np.linspace(-20.0, 20.0, 2001)
    worst_scd = worst_k = worst_km1 = 0.0
    for kappa in KAPPA_DENSE:
        K = ellip_k(kappa)
        worst_km1 = max(worst_km1, abs(K / ellipkm1((1.0 - kappa) * (1.0 + kappa)) - 1.0))
        if kappa > 0.999:
            continue
        worst_k = max(worst_k, abs(K / ellipk(kappa**2) - 1.0))
        ref = ellipj(u, kappa**2)
        for mine, theirs in zip(jacobi_sn_cn_dn(u, kappa), ref):
            worst_scd = max(worst_scd, float(np.max(np.abs(mine - theirs))))
    assert worst_scd < 1e-13
    assert worst_k < 4e-15
    assert worst_km1 < 1e-15


def test_near_unit_modulus_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    u = np.linspace(-20.0, 20.0, 81)
    with mpmath.workdps(30):
        for kappa in KAPPA_DENSE[KAPPA_DENSE > 0.999]:
            mine = jacobi_sn_cn_dn(u, kappa)
            for name, values in zip(("sn", "cn", "dn"), mine):
                exact = [float(mpmath.ellipfun(name, x, k=kappa)) for x in u]
                assert np.max(np.abs(values - exact)) < 1e-13, (name, kappa)


def test_interleaved_moduli_match_fresh_evaluation():
    u = np.linspace(-9.0, 9.0, 37)
    kappas = [0.3, 0.35, 0.95, KAPPA_MAX, 0.6]

    def evaluate(kappa):
        return ellip_k(kappa), jacobi_sn_cn_dn(u, kappa), jacobi_sn_cn_dn(1.7, kappa)

    fresh = {}
    for kappa in kappas:
        elliptic._modulus_record.cache_clear()
        fresh[kappa] = evaluate(kappa)
    for kappa in kappas + kappas[::-1] + kappas:
        K, arrays, scalars = evaluate(kappa)
        assert K == fresh[kappa][0]
        assert all(np.array_equal(a, b) for a, b in zip(arrays, fresh[kappa][1]))
        assert scalars == fresh[kappa][2]
