"""Construction of the L-periodic traveling-wave family and its profiles.

The wave is psi(xi) = eta4 * dn^2(alpha*xi, kappa) / (1 + beta^2 sn^2(alpha*xi, kappa))
with alpha = 2K(kappa)/L, and the second component is phi = psi^2/(2c). The
parameters of (1, kappa) are built and checked once; the wave (L, kappa) is
that wave rescaled. The speed map c(kappa) is strictly increasing, which
makes the inverse map well defined for c > 4 pi^2 / L^2.

The integration constants of the profile ODE are D1 = 0 and E = 0 throughout:
profile_residual checks the equations with both set to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .elliptic import KAPPA_MAX, ellip_k, jacobi_sn_cn_dn

__all__ = [
    "WaveParams",
    "GridFunction",
    "grid_points",
    "RefusalError",
    "SpeedBelowThresholdError",
    "WaveInvariantError",
    "params_from_kappa",
    "kappa_from_c",
    "eval_profile",
    "eval_profile_derivatives",
    "profile_grid",
    "profile_residual",
    "conserved_quantities",
    "spectral_derivative",
]


class RefusalError(Exception):
    """A computation refuses to give a number: a check on its own result failed."""


class SpeedBelowThresholdError(ValueError):
    """No L-periodic wave exists: the requested speed is at or below 4 pi^2 / L^2."""


class WaveInvariantError(RefusalError):
    """The built parameters violate an identity of the construction."""


@dataclass(frozen=True)
class WaveParams:
    """Full parametrization of one traveling wave (immutable)."""

    L: float
    kappa: float
    c: float
    h: float
    eta1: float
    eta3: float
    eta4: float
    beta_sq: float
    F1: float
    a: float
    alpha: float
    K: float


def _check_period(L) -> float:
    """The period L as a float: the one rule for a period, positive and finite."""
    L = float(L)
    if not (0.0 < L < np.inf):
        raise ValueError(f"period L must be positive and finite (got {L!r})")
    return L


@np.errstate(all="ignore")  # at an extreme L the fields leave the float range: a refusal
def params_from_kappa(L: float, kappa: float) -> WaveParams:
    """The wave of period L and modulus kappa in (0, KAPPA_MAX]: _unit_wave, rescaled.

    Only the period identity is checked at L; its terms (c^2 eta4^2 ~ L^-8) leave
    the float range, and refuse the wave, outside L ~ [1e-37, 1e40]."""
    L = _check_period(L)
    p = _rescaled(_unit_wave(float(kappa)), L)
    _check_fundamental_period(p)
    return p


@lru_cache(maxsize=1024)
def _unit_wave(kappa: float) -> WaveParams:
    """The wave of period 1 and modulus kappa, checked by _check_invariants; cached."""
    if not (0.0 < kappa < 1.0) or kappa > KAPPA_MAX:
        raise ValueError(f"modulus must lie in (0, {KAPPA_MAX}] (got {kappa!r})")
    K = ellip_k(kappa)
    k2 = kappa * kappa
    h = 4.0 * np.sqrt(1.0 - k2 + k2 * k2)
    c = 4.0 * K * K * h
    g_plus = h + 2.0 * (2.0 * k2 - 1.0)
    g_minus = h - 2.0 * (2.0 * k2 - 1.0)
    eta4 = (8.0 * np.sqrt(2.0) * K * K / np.sqrt(3.0)) * np.sqrt(h * g_plus)
    beta_sq = 2.0 * k2 * np.sqrt(g_plus) / (np.sqrt(g_plus) + np.sqrt(3.0) * np.sqrt(g_minus))
    F1 = -eta4 * (4.0 * c * c - eta4 * eta4) / (8.0 * c)
    root = np.sqrt(16.0 * c * c - 3.0 * eta4 * eta4)
    eta1 = -0.5 * (root + eta4)
    eta3 = 0.5 * (root - eta4)
    a = 2.0 / np.sqrt(eta4 * (eta3 - eta1))
    p = WaveParams(L=1.0, kappa=kappa, c=c, h=h, eta1=eta1, eta3=eta3, eta4=eta4,
                   beta_sq=beta_sq, F1=F1, a=a, alpha=2.0 * K, K=K)
    _check_invariants(p)
    return p


def _rescaled(p: WaveParams, L: float) -> WaveParams:
    """The wave p moved to the period L (NOTES.md, the scaling symmetry): with r = L / p.L,
    c and eta1, eta3, eta4 scale as r^-2, F1 as r^-4, a as r^2 and alpha as 1/r."""
    r = L / p.L
    r2 = r * r
    return replace(p, L=L, c=p.c / r2, eta1=p.eta1 / r2, eta3=p.eta3 / r2, eta4=p.eta4 / r2,
                   F1=p.F1 / (r2 * r2), a=p.a * r2, alpha=p.alpha / r)


def _check_invariants(p: WaveParams) -> None:
    """Identities of the construction, run on every period-1 build.

    Raises WaveInvariantError naming the first identity that fails. The
    comparisons are written so that a nan fails them.
    """
    scale = abs(p.eta4)
    if not abs(p.eta1 + p.eta3 + p.eta4) <= 1e-10 * scale:
        raise WaveInvariantError("root sum eta1+eta3+eta4 != 0")
    if not 0.0 < p.eta3 < 2.0 * p.c / np.sqrt(3.0) < p.eta4 < 2.0 * p.c:
        raise WaveInvariantError("root ordering violated")
    _check_fundamental_period(p)
    if not abs(p.beta_sq + p.kappa**2 * p.eta4 / p.eta1) <= 1e-10 * max(p.beta_sq, 1e-3):
        raise WaveInvariantError("beta^2 = -kappa^2 eta4/eta1 violated")
    # strictly negative in exact arithmetic; the margin closes like kappa^4 at
    # the constant-wave end, so allow rounding there
    if not 27.0 * p.F1**2 - 4.0 * p.c**4 < 1e-12 * p.c**4:
        raise WaveInvariantError("four-real-root condition violated")
    if not abs(p.alpha - 1.0 / (2.0 * p.a * np.sqrt(p.c))) <= 1e-10 * p.alpha:
        raise WaveInvariantError("alpha = 1/(2 a sqrt(c)) violated")


def _check_fundamental_period(p: WaveParams) -> None:
    """8 sqrt(c) K / (16 c^2 eta4^2 - 3 eta4^4)^(1/4) = L, or WaveInvariantError."""
    period = 8.0 * np.sqrt(p.c) * p.K / (16.0 * p.c**2 * p.eta4**2 - 3.0 * p.eta4**4) ** 0.25
    if not abs(period - p.L) <= 1e-10 * p.L:
        raise WaveInvariantError("fundamental-period identity violated")


# c / c0 - 1 below which kappa_from_c inverts the series c / c0 - 1 = (15/32) kappa^4
# + O(kappa^6), c0 = 4 pi^2 / L^2: there (kappa < 2.2e-3) its truncation, a relative
# kappa^2 / 4 in kappa, is below the rounding of brentq's root of the flat speed map
# (NOTES.md, "The speed map near c0")
_SPEED_SERIES_BELOW = 1e-11


def kappa_from_c(L: float, c: float) -> float:
    """Invert the strictly increasing speed map: the unique kappa with c(kappa) = c.

    Where c / c0 - 1 < _SPEED_SERIES_BELOW, c0 = 4 pi^2 / L^2, c(kappa) is flat to rounding
    and kappa is the series root (32 (c / c0 - 1) / 15)^(1/4), non-decreasing in c; above,
    it is brentq's root."""
    from scipy.optimize import brentq

    L = _check_period(L)
    c = float(c)
    if not np.isfinite(c):
        raise ValueError(f"speed c must be finite (got {c!r})")
    with np.errstate(over="ignore", divide="ignore"):  # inf at a tiny L, 0 at a huge one
        threshold = float(4.0 * np.pi**2 / np.float64(L) ** 2)
    if c <= threshold:
        raise SpeedBelowThresholdError(
            f"speed {c} is at or below 4 pi^2/L^2 = {threshold}; no periodic wave of period {L}"
        )

    def speed_gap(kappa: float) -> float:
        return _unit_wave(kappa).c / (L * L) - c

    lo, hi = 1e-9, KAPPA_MAX
    if speed_gap(hi) < 0.0:
        raise ValueError(f"speed {c} exceeds the separatrix limit c(kappa={hi}) for L={L}")
    if speed_gap(lo) >= 0.0:
        # c is above 4 pi^2/L^2 by no more than rounding, and c(kappa) is flat
        # to rounding near kappa = 0: no modulus in the bracket has this speed
        raise SpeedBelowThresholdError(
            f"speed {c} is within rounding of 4 pi^2/L^2 = {threshold}: at or below "
            f"c(kappa={lo}), so no periodic wave of period {L} has it"
        )
    excess = (c - threshold) / threshold   # c - threshold is exact for c <= 2 threshold
    if excess < _SPEED_SERIES_BELOW:
        return float(np.sqrt(np.sqrt(32.0 / 15.0 * excess)))
    # bracketed root of a strictly increasing function; brentq refines to machine precision
    return float(brentq(speed_gap, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200))


def eval_profile(p: WaveParams, xi):
    """Profile (psi, phi) at xi (scalar or array); phi = psi^2/(2c) exactly."""
    sn, _, dn = _scd(p, xi)
    psi = p.eta4 * dn * dn / (1.0 + p.beta_sq * sn * sn)
    return psi, psi * psi / (2.0 * p.c)


def eval_profile_derivatives(p: WaveParams, xi):
    """(psi, psi', psi'') at xi from closed forms.

    psi' comes from differentiating the elliptic expression; psi'' from the
    profile ODE psi'' = c psi + F1 - psi^3/(2c), which the profile satisfies
    identically.
    """
    return _profile_derivatives(p, *_scd(p, xi))


def _profile_derivatives(p: WaveParams, sn, cn, dn):
    """(psi, psi', psi'') from sn, cn, dn at u = alpha xi."""
    B = 1.0 + p.beta_sq * sn * sn
    psi = p.eta4 * dn * dn / B
    dpsi = p.eta4 * p.alpha * sn * cn * dn * (-2.0 * p.kappa**2 * B - 2.0 * p.beta_sq * dn * dn) / (B * B)
    ddpsi = p.c * psi + p.F1 - psi**3 / (2.0 * p.c)
    return psi, dpsi, ddpsi


def _scd(p: WaveParams, xi):
    return jacobi_sn_cn_dn(np.asarray(xi, dtype=float) * p.alpha, p.kappa)


def _check_grid(L, N: int) -> float:
    """The period of an N-point grid as a float; N >= 1 and a valid period."""
    if N < 1:
        raise ValueError(f"a grid needs N >= 1 points (got N = {N})")
    return _check_period(L)


def grid_points(L: float, N: int) -> np.ndarray:
    """The uniform grid x_j = j L / N, j = 0..N-1, of any size N >= 1."""
    return np.arange(N) * (_check_grid(L, N) / N)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real L-periodic function sampled on grid_points(L, N)."""

    L: float
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        _check_grid(self.L, samples.size)
        if not np.all(np.isfinite(samples)):
            raise ValueError("grid samples must be finite")

    @property
    def N(self) -> int:
        return self.samples.size

    @property
    def x(self) -> np.ndarray:
        return grid_points(self.L, self.N)


def profile_grid(p: WaveParams, N: int):
    """Sample (psi, phi) on the uniform N-point grid as GridFunctions."""
    psi, phi = eval_profile(p, grid_points(p.L, N))
    return GridFunction(p.L, psi), GridFunction(p.L, phi)


def spectral_derivative(g: GridFunction, order: int) -> np.ndarray:
    """Derivative by Fourier multiplier (ik)^order on the rfft half-spectrum.

    At even N, irfft drops the imaginary coefficient of the Nyquist mode (-1)^j, so an
    odd order maps it to 0 and an even order keeps its real (ik)^order; odd N has none.
    """
    ik = 2j * np.pi * np.fft.rfftfreq(g.N, d=g.L / g.N)
    return np.fft.irfft(ik**order * np.fft.rfft(g.samples), g.N)


def profile_residual(p: WaveParams, N: int):
    """Sup-norm residuals of the two integrated profile equations.

    r1 checks psi'' + psi^3/(2c) - c psi - F1 = 0 with psi'' by spectral
    differentiation; r2 checks (psi')^2/2 + U(psi) = 0 with
    U(psi) = psi (psi^3 - 4 c^2 psi - 8 c F1) / (8 c).
    """
    psi_g, _ = profile_grid(p, N)
    psi = psi_g.samples
    ddpsi = spectral_derivative(psi_g, 2)
    dpsi = spectral_derivative(psi_g, 1)
    r1 = float(np.max(np.abs(ddpsi + psi**3 / (2.0 * p.c) - p.c * psi - p.F1)))
    U = psi * (psi**3 - 4.0 * p.c**2 * psi - 8.0 * p.c * p.F1) / (8.0 * p.c)
    r2 = float(np.max(np.abs(0.5 * dpsi**2 + U)))
    return r1, r2


def conserved_quantities(u: GridFunction, v: GridFunction):
    """The four conserved integrals over one period, by the grid route: the oracle of
    evolution.conserved_of_state, which reads them off the stepper's band.

    Returns (int u, int v, int(u_x^2 - u^2 v), int(u^2 + v^2)), with u_x by
    spectral differentiation and integrals by the trapezoid rule (exact mean
    times L, spectrally accurate for smooth periodic data).
    """
    if u.N != v.N or u.L != v.L:
        raise ValueError("u and v must share the same grid")
    w = u.L / u.N
    ux = spectral_derivative(u, 1)
    m_u = w * float(np.sum(u.samples))
    m_v = w * float(np.sum(v.samples))
    e_mixed = w * float(np.sum(ux**2 - u.samples**2 * v.samples))
    l2 = w * float(np.sum(u.samples**2 + v.samples**2))
    return m_u, m_v, e_mixed, l2
