"""Construction of the L-periodic traveling-wave family and its profiles.

The wave is psi(xi) = eta4 * dn^2(alpha*xi, kappa) / (1 + beta^2 sn^2(alpha*xi, kappa))
with alpha = 2K(kappa)/L, and the second component is phi = psi^2/(2c). All
parameters are generated from (L, kappa); the speed map c(kappa) is strictly
increasing, which makes the inverse map well defined for c > 4 pi^2 / L^2.

Integration constants are fixed to D1 = 0 and E = 0 throughout; they are kept
as explicit fields so the residual checks document the convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elliptic import KAPPA_MAX, ellip_k, jacobi_sn_cn_dn

__all__ = [
    "WaveParams",
    "GridFunction",
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


class SpeedBelowThresholdError(ValueError):
    """No L-periodic wave exists: the requested speed is at or below 4 pi^2 / L^2."""


class WaveInvariantError(ArithmeticError):
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
    E_const: float = 0.0
    D1_const: float = 0.0


def params_from_kappa(L: float, kappa: float) -> WaveParams:
    """Build WaveParams from the period L and the modulus kappa in (0, 1)."""
    L = float(L)
    kappa = float(kappa)
    if not (L > 0.0):
        raise ValueError(f"period L must be positive (got {L!r})")
    if not (0.0 < kappa < 1.0) or kappa > KAPPA_MAX:
        raise ValueError(f"modulus must lie in (0, {KAPPA_MAX}] (got {kappa!r})")

    K = ellip_k(kappa)
    k2 = kappa * kappa
    h = 4.0 * np.sqrt(1.0 - k2 + k2 * k2)
    c = 4.0 * K * K * h / (L * L)
    g_plus = h + 2.0 * (2.0 * k2 - 1.0)
    g_minus = h - 2.0 * (2.0 * k2 - 1.0)
    eta4 = (8.0 * np.sqrt(2.0) * K * K / (np.sqrt(3.0) * L * L)) * np.sqrt(h * g_plus)
    beta_sq = 2.0 * k2 * np.sqrt(g_plus) / (np.sqrt(g_plus) + np.sqrt(3.0) * np.sqrt(g_minus))
    F1 = -eta4 * (4.0 * c * c - eta4 * eta4) / (8.0 * c)
    root = np.sqrt(16.0 * c * c - 3.0 * eta4 * eta4)
    eta1 = -0.5 * (root + eta4)
    eta3 = 0.5 * (root - eta4)
    a = 2.0 / np.sqrt(eta4 * (eta3 - eta1))
    alpha = 2.0 * K / L

    p = WaveParams(L=L, kappa=kappa, c=c, h=h, eta1=eta1, eta3=eta3, eta4=eta4,
                   beta_sq=beta_sq, F1=F1, a=a, alpha=alpha, K=K)
    _check_invariants(p)
    return p


def _check_invariants(p: WaveParams) -> None:
    """Identities of the construction; cheap, run on every build.

    Raises WaveInvariantError naming the first identity that fails. The
    comparisons are written so that a nan fails them.
    """
    scale = abs(p.eta4)
    if not abs(p.eta1 + p.eta3 + p.eta4) <= 1e-10 * scale:
        raise WaveInvariantError("root sum eta1+eta3+eta4 != 0")
    if not 0.0 < p.eta3 < 2.0 * p.c / np.sqrt(3.0) < p.eta4 < 2.0 * p.c:
        raise WaveInvariantError("root ordering violated")
    period = 8.0 * np.sqrt(p.c) * p.K / (16.0 * p.c**2 * p.eta4**2 - 3.0 * p.eta4**4) ** 0.25
    if not abs(period - p.L) <= 1e-10 * p.L:
        raise WaveInvariantError("fundamental-period identity violated")
    if not abs(p.beta_sq + p.kappa**2 * p.eta4 / p.eta1) <= 1e-10 * max(p.beta_sq, 1e-3):
        raise WaveInvariantError("beta^2 = -kappa^2 eta4/eta1 violated")
    # strictly negative in exact arithmetic; the margin closes like kappa^4 at
    # the constant-wave end, so allow rounding there
    if not 27.0 * p.F1**2 - 4.0 * p.c**4 < 1e-12 * p.c**4:
        raise WaveInvariantError("four-real-root condition violated")
    if not abs(p.alpha - 1.0 / (2.0 * p.a * np.sqrt(p.c))) <= 1e-10 * p.alpha:
        raise WaveInvariantError("alpha = 1/(2 a sqrt(c)) violated")


def kappa_from_c(L: float, c: float) -> float:
    """Invert the strictly increasing speed map: the unique kappa with c(kappa) = c."""
    from scipy.optimize import brentq

    L = float(L)
    c = float(c)
    if not (L > 0.0):
        raise ValueError(f"period L must be positive (got {L!r})")
    threshold = 4.0 * np.pi**2 / L**2
    if c <= threshold:
        raise SpeedBelowThresholdError(
            f"speed {c} is at or below 4 pi^2/L^2 = {threshold}; no periodic wave of period {L}"
        )

    def speed_gap(kappa: float) -> float:
        K = ellip_k(kappa)
        k2 = kappa * kappa
        return 4.0 * K * K * 4.0 * np.sqrt(1.0 - k2 + k2 * k2) / (L * L) - c

    lo, hi = 1e-9, KAPPA_MAX
    if speed_gap(hi) < 0.0:
        raise ValueError(f"speed {c} exceeds the separatrix limit c(kappa={hi}) for L={L}")
    if speed_gap(lo) > 0.0:
        # c is within rounding of the threshold; the wave is essentially constant
        return lo
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
    sn, cn, dn = _scd(p, xi)
    B = 1.0 + p.beta_sq * sn * sn
    psi = p.eta4 * dn * dn / B
    dpsi = p.eta4 * p.alpha * sn * cn * dn * (-2.0 * p.kappa**2 * B - 2.0 * p.beta_sq * dn * dn) / (B * B)
    ddpsi = p.c * psi + p.F1 - psi**3 / (2.0 * p.c)
    return psi, dpsi, ddpsi


def _scd(p: WaveParams, xi):
    return jacobi_sn_cn_dn(np.asarray(xi, dtype=float) * p.alpha, p.kappa)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real L-periodic function sampled at x_j = j L / N, j = 0..N-1."""

    L: float
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        n = samples.size
        if n < 16 or (n & (n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 16 (got {n})")
        if not np.all(np.isfinite(samples)):
            raise ValueError("grid samples must be finite")

    @property
    def N(self) -> int:
        return self.samples.size

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.N) * (self.L / self.N)


def profile_grid(p: WaveParams, N: int = 256):
    """Sample (psi, phi) on the uniform N-point grid as GridFunctions."""
    x = np.arange(N) * (p.L / N)
    psi, phi = eval_profile(p, x)
    return GridFunction(p.L, psi), GridFunction(p.L, phi)


def spectral_derivative(g: GridFunction, order: int = 1) -> np.ndarray:
    """Derivative by Fourier multiplier (ik)^order; Nyquist zeroed for odd orders."""
    k = 2.0 * np.pi * np.fft.fftfreq(g.N, d=g.L / g.N)
    if order % 2 == 1:
        k = k.copy()
        k[g.N // 2] = 0.0
    return np.fft.ifft((1j * k) ** order * np.fft.fft(g.samples)).real


def profile_residual(p: WaveParams, N: int = 256):
    """Sup-norm residuals of the two integrated profile equations.

    r1 checks psi'' + psi^3/(2c) - c psi - F1 = 0 with psi'' by spectral
    differentiation; r2 checks (psi')^2/2 + U(psi) = 0 with
    U(psi) = psi (psi^3 - 4 c^2 psi - 8 c F1) / (8 c).
    """
    if N < 64 or (N & (N - 1)) != 0:
        raise ValueError(f"N must be a power of two >= 64 (got {N})")
    psi_g, _ = profile_grid(p, N)
    psi = psi_g.samples
    ddpsi = spectral_derivative(psi_g, 2)
    dpsi = spectral_derivative(psi_g, 1)
    r1 = float(np.max(np.abs(ddpsi + psi**3 / (2.0 * p.c) - p.c * psi - p.F1)))
    U = psi * (psi**3 - 4.0 * p.c**2 * psi - 8.0 * p.c * p.F1) / (8.0 * p.c)
    r2 = float(np.max(np.abs(0.5 * dpsi**2 + U)))
    return r1, r2


def conserved_quantities(u: GridFunction, v: GridFunction):
    """The four conserved integrals over one period.

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
