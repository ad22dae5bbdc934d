"""Hill-equation machinery: the kernel eigenfunction p, the Floquet constant
theta = q'(L)/p'(0), and the inertial-index classification it implies.

The operator is L+ = -d^2/dxi^2 + c - 3 psi^2/(2c); p proportional to psi'
solves L+ p = 0 with p(0) = 0. The companion solution q of the same equation
with q(0) = 1/p'(0), q'(0) = 0 satisfies q(xi + L) = q(xi) + theta p(xi);
theta != 0 makes the zero eigenvalue simple.

q and the second kernel element varphi of the quadrature pipeline are both
even solutions of L+ y = 0, which gives theta in closed form, theta = -L A2/K
(`floquet_constant`); this is the production route. `integrate_hill_ivp`
integrates the companion IVP instead and is kept as the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .index_engine import a_integrals
from .waves import WaveParams, eval_profile

__all__ = [
    "HillSolution",
    "FloquetConstant",
    "IntegrationFailureError",
    "DegenerateThetaError",
    "p_eigenfunction",
    "p_eigenfunction_prime",
    "floquet_constant",
    "integrate_hill_ivp",
    "inertial_index_from_theta",
]

THETA_DEGENERACY_THRESHOLD = 1e-10


class IntegrationFailureError(RuntimeError):
    """The adaptive integrator failed (step-size underflow or non-finite state)."""


class DegenerateThetaError(ValueError):
    """|theta| below the degeneracy threshold: the zero eigenvalue cannot be classified."""


@dataclass(frozen=True)
class HillSolution:
    params: WaveParams
    q_prime_final: float
    p_prime_0: float
    theta: float
    wronskian_drift: float


class FloquetConstant(NamedTuple):
    """theta from the closed form, with p'(0) = alpha and q'(L) = theta p'(0)."""

    p_prime_0: float
    q_prime_final: float
    theta: float


def _check_tol(tol: float) -> None:
    if not (1e-14 <= tol <= 1e-6):
        raise ValueError(f"tol must lie in [1e-14, 1e-6] (got {tol!r})")


def floquet_constant(p: WaveParams, tol: float = 1e-12) -> FloquetConstant:
    """theta = -L A2 / K(kappa), with A2 by adaptive quadrature to relative tol.

    Accurate to a few ulps for kappa >= 0.1 and to ~2e-13 relative at
    kappa = 0.01, where theta ~ 1e-7 and the IVP's absolute error swamps it
    (NOTES.md). Since L, K > 0, theta > 0 is the same fact as A2 < 0.
    """
    _check_tol(tol)
    theta = -p.L * a_integrals(p, rel_tol=tol).A2 / p.K
    return FloquetConstant(p_prime_0=p.alpha, q_prime_final=theta * p.alpha, theta=theta)


def p_eigenfunction(p: WaveParams, xi):
    """Normalized kernel eigenfunction sn*cn*dn(alpha xi) / (1 + beta^2 sn^2)^2."""
    from .elliptic import jacobi_sn_cn_dn

    sn, cn, dn = jacobi_sn_cn_dn(np.asarray(xi, dtype=float) * p.alpha, p.kappa)
    return sn * cn * dn / (1.0 + p.beta_sq * sn * sn) ** 2


def p_eigenfunction_prime(p: WaveParams, xi):
    """d/dxi of p_eigenfunction; p'(0) = alpha = 2K/L."""
    from .elliptic import jacobi_sn_cn_dn

    sn, cn, dn = jacobi_sn_cn_dn(np.asarray(xi, dtype=float) * p.alpha, p.kappa)
    B = 1.0 + p.beta_sq * sn * sn
    k2 = p.kappa**2
    core = (cn**2 * dn**2 - sn**2 * dn**2 - k2 * sn**2 * cn**2) / B**2
    core -= 4.0 * p.beta_sq * sn**2 * cn**2 * dn**2 / B**3
    return p.alpha * core


def hill_potential(p: WaveParams, xi):
    """The Hill potential Q(xi) = c - 3 psi^2/(2c) so that L+ = -d^2 + Q."""
    psi, _ = eval_profile(p, xi)
    return p.c - 1.5 * psi**2 / p.c


def integrate_hill_ivp(p: WaveParams, tol: float = 1e-12) -> HillSolution:
    """Integrate -q'' + (c - 3 psi^2/(2c)) q = 0 over [0, L], q(0)=1/p'(0), q'(0)=0.

    The potential is evaluated from the elliptic closed form at every stage.
    The Wronskian q p' - q' p equals 1 at xi = 0 by construction and is
    constant along the flow; its maximal drift over 33 sample points is
    reported as an integration quality measure. The independent oracle for
    floquet_constant.

    tol is the absolute tolerance and the relative one, except that DOP853
    takes no rtol below 100 eps ~ 2.2e-14: below that floor tol acts through
    atol alone.
    """
    from scipy.integrate import solve_ivp

    _check_tol(tol)

    p_prime_0 = p.alpha  # = 2K/L = 1/(2 a sqrt(c))

    def rhs(xi, y):
        return [y[1], hill_potential(p, xi) * y[0]]

    sol = solve_ivp(rhs, (0.0, p.L), [1.0 / p_prime_0, 0.0], method="DOP853",
                    rtol=max(tol, 100 * np.finfo(float).eps), atol=tol, dense_output=True)
    if not sol.success:
        raise IntegrationFailureError(f"Hill IVP integration failed: {sol.message}")

    xs = np.linspace(0.0, p.L, 33)
    qs = sol.sol(xs)
    wr = qs[0] * p_eigenfunction_prime(p, xs) - qs[1] * p_eigenfunction(p, xs)
    drift = float(np.max(np.abs(wr - 1.0)))

    q_prime_final = float(sol.y[1, -1])
    return HillSolution(params=p, q_prime_final=q_prime_final, p_prime_0=p_prime_0,
                        theta=q_prime_final / p_prime_0, wronskian_drift=drift)


def inertial_index_from_theta(h: HillSolution | FloquetConstant):
    """Inertial index (n_minus, n_zero) of L+ from the sign of h.theta.

    h is any record with a theta field: a HillSolution or a FloquetConstant.

    p has two zeros per period, so the zero eigenvalue is one of the second
    eigenvalue pair. With the normalization Wr(q, p) = +1 used here,
    theta > 0 places zero as the first pair member above the ground state:
    (n_minus, n_zero) = (1, 1); theta < 0 gives (2, 1). (The analysis this
    laboratory reproduces states the opposite correspondence -- a Wronskian
    orientation slip; direct eigensolves of the discretized operator settle it
    this way, see the spectra module tests and the README stability note.)
    """
    if abs(h.theta) <= THETA_DEGENERACY_THRESHOLD:
        raise DegenerateThetaError(
            f"|theta| = {abs(h.theta)} <= {THETA_DEGENERACY_THRESHOLD}: "
            "double zero eigenvalue suspected"
        )
    return (1, 1) if h.theta > 0 else (2, 1)
