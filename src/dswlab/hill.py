"""Hill-equation machinery: the kernel eigenfunction p, the Floquet constant
theta = q'(L)/p'(0), and the inertial-index classification it implies.

The operator is L+ = -d^2/dxi^2 + c - 3 psi^2/(2c); p proportional to psi'
solves L+ p = 0 with p(0) = 0. The companion solution q of the same equation
with q(0) = 1/p'(0), q'(0) = 0 satisfies q(xi + L) = q(xi) + theta p(xi);
theta != 0 makes the zero eigenvalue simple.

q and the second kernel element varphi of the quadrature pipeline are both
even solutions of L+ y = 0, which gives theta in closed form, theta = -L A2/K
(`floquet_constant`); this is the production route, and A2 is read from
index_engine's quadrature record of the modulus, so theta at a modulus
already seen costs no quadrature at any L. `integrate_hill_ivp`
integrates the companion IVP over half a period instead and is kept as the
independent oracle: it carries sn, cn, dn along as solutions of their own
ODEs, so no stage of the integration evaluates an elliptic function, and it
runs Hairer's compiled DOP853 (scipy.integrate.ode), one integrator per
tolerance reused across calls, one call at a time.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .elliptic import jacobi_sn_cn_dn
from .index_engine import _kernel_factor, a_integrals
from .waves import RefusalError, WaveParams

__all__ = [
    "HillSolution",
    "FloquetConstant",
    "IntegrationFailureError",
    "DegenerateThetaError",
    "floquet_constant",
    "integrate_hill_ivp",
    "inertial_index_from_theta",
]

# |q'(L)| at or below which the zero eigenvalue is not classified. q'(L) = theta p'(0)
# = -2 A2 is the same at every period, where theta = L theta_1(kappa) is not.
DEGENERACY_THRESHOLD = 1e-10


class IntegrationFailureError(RefusalError):
    """The adaptive integrator failed: DOP853 returned a negative code (-1 input
    not consistent, -2 step budget of 500 spent, -3 step size too small, -4
    problem probably stiff), or the state at L/2 is not finite."""


class DegenerateThetaError(RefusalError):
    """|q'(L)| = |theta p'(0)| below the degeneracy threshold: the zero eigenvalue cannot
    be classified."""


@dataclass(frozen=True)
class HillSolution:
    q_prime_final: float
    p_prime_0: float
    theta: float
    wronskian_drift: float


class FloquetConstant(NamedTuple):
    """theta from the closed form, with p'(0) = alpha and q'(L) = theta p'(0)."""

    p_prime_0: float
    q_prime_final: float
    theta: float


def floquet_constant(p: WaveParams) -> FloquetConstant:
    """theta = -L A2 / K(kappa), with A2 from a_integrals' record of the modulus.

    The sampler stops when the series of A2's integrand reaches rounding, so
    there is no tolerance to set. Against 30-digit mpmath theta is accurate
    to a few ulps for kappa >= 0.1 and to ~1e-13 relative at kappa = 0.01,
    where theta ~ 1e-7 and the IVP's absolute error swamps it (NOTES.md).
    Since L, K > 0, theta > 0 is the same fact as A2 < 0.
    """
    theta = -p.L * a_integrals(p).A2 / p.K
    return FloquetConstant(p_prime_0=p.alpha, q_prime_final=theta * p.alpha, theta=theta)


def _p_and_prime(p: WaveParams, xi):
    """(p, p') at xi from one evaluation of sn, cn, dn.

    p = sn cn dn(alpha xi) / (1 + beta^2 sn^2)^2 is the normalized kernel
    eigenfunction, with p'(0) = alpha = 2K/L.
    """
    S, S_u = _kernel_factor(p, *jacobi_sn_cn_dn(np.asarray(xi, dtype=float) * p.alpha, p.kappa))
    return S, p.alpha * S_u


# The state of the one Hill IVP in flight: its wave's coefficients (alpha,
# kappa^2, beta^2, eta4, c), read by _rhs, and (xi, q, q') at each accepted
# step, written by _accept. scipy 1.17's dop853 passes set_f_params' arguments
# to the step callback as well as to the right-hand side, so the coefficients
# cannot travel that way.
_wave = [0.0] * 5
_accepted = []
_lock = threading.Lock()


def _rhs(xi, y):
    """d/dxi (q, q', sn, cn, dn) for the wave in _wave."""
    alpha, k2, b2, eta4, c = _wave
    q, dq, sn, cn, dn = y.tolist()
    psi = eta4 * dn * dn / (1.0 + b2 * sn * sn)
    return [dq, (c - 1.5 * psi * psi / c) * q,
            alpha * cn * dn, -alpha * sn * dn, -alpha * k2 * sn * cn]


def _accept(xi, y):
    """Record an accepted step; y is the integrator's own buffer, so copy."""
    _accepted.append((xi, y[0], y[1]))


@lru_cache(maxsize=8)
def _dop853(rtol: float, atol: float):
    """One compiled DOP853 integrator of _rhs per tolerance pair.

    scipy 1.17's compiled runner keeps a reference to the step callback, a
    bound method of the integrator, at every run, so an integrator that has
    run is never freed: 1.3 kB a call when each call builds its own, 64 B a
    call (the bound method) when the integrator is reused.
    """
    from scipy.integrate import ode

    integrator = ode(_rhs).set_integrator("dop853", rtol=rtol, atol=atol)
    integrator.set_solout(_accept)
    return integrator


def integrate_hill_ivp(p: WaveParams, tol: float = 1e-12) -> HillSolution:
    """q'(L) of -q'' + (c - 3 psi^2/(2c)) q = 0, q(0)=1/p'(0), q'(0)=0, from [0, L/2].

    The state is (q, q', sn, cn, dn), with sn, cn, dn of u = alpha xi
    integrated from (0, 1, 1) by their own ODEs d/du (sn, cn, dn) =
    (cn dn, -sn dn, -kappa^2 sn cn) (DLMF 22.13); the potential is formed from
    them through psi = eta4 dn^2 / (1 + beta^2 sn^2). A right-hand side is a
    few float operations and calls nothing of the elliptic module. The
    potential is even and L-periodic, so the even solution's monodromy gives
    q'(L) = 2 alpha q(L/2) q'(L/2) (NOTES.md) and Hairer's compiled DOP853
    runs over half a period only. The Wronskian q p' - q' p equals 1 at
    xi = 0 and is constant along the flow; its largest drift at the
    integrator's accepted steps, against the closed-form p and p', is
    reported as a quality measure (<= 1e-12 up to kappa = 0.9999, NOTES.md).
    The independent oracle for floquet_constant.

    tol is the absolute tolerance and the relative one, except that rtol
    stops at 100 eps ~ 2.2e-14: below that floor tol acts through atol
    alone. The compiled DOP853 takes a smaller rtol; the floor is kept so
    that a tol means the tolerances the tests' bounds and NOTES.md's tables
    were measured at (below it theta gains at most a few-fold in accuracy
    for 15-40% more steps, NOTES.md).
    """
    if not (1e-14 <= tol <= 1e-6):
        raise ValueError(f"tol must lie in [1e-14, 1e-6] (got {tol!r})")

    p_prime_0 = p.alpha  # = 2K/L = 1/(2 a sqrt(c))
    with _lock, warnings.catch_warnings():
        # scipy reports a negative return code (step budget spent, step size
        # underflow, stiffness) only as the UserWarning "dop853: <reason>"
        warnings.filterwarnings("error", "dop853: ", UserWarning)
        _wave[:] = (p.alpha, p.kappa**2, p.beta_sq, p.eta4, p.c)
        _accepted.clear()
        integrator = _dop853(max(tol, 100 * np.finfo(float).eps), tol)
        integrator.set_initial_value([1.0 / p_prime_0, 0.0, 0.0, 1.0, 1.0], 0.0)
        try:
            q_half, dq_half = integrator.integrate(p.L / 2)[:2].tolist()
        except UserWarning as failure:
            raise IntegrationFailureError(f"Hill IVP integration failed: {failure}") from None
        steps = np.array(_accepted)
    if not (math.isfinite(q_half) and math.isfinite(dq_half)):
        raise IntegrationFailureError("Hill IVP integration failed: non-finite state at xi = L/2")

    xs, qs, dqs = steps.T
    p_xs, p_prime_xs = _p_and_prime(p, xs)
    drift = float(np.max(np.abs(qs * p_prime_xs - dqs * p_xs - 1.0)))

    q_prime_final = 2.0 * p.alpha * q_half * dq_half
    return HillSolution(q_prime_final=q_prime_final, p_prime_0=p_prime_0,
                        theta=q_prime_final / p_prime_0, wronskian_drift=drift)


def inertial_index_from_theta(h: HillSolution | FloquetConstant):
    """Inertial index (n_minus, n_zero) of L+ from the sign of h.theta.

    h is any record with theta and q_prime_final fields: a HillSolution or a
    FloquetConstant. Degeneracy is read on q'(L), which, unlike theta, does
    not move with L.

    p has two zeros per period, so the zero eigenvalue is one of the second
    eigenvalue pair. With the normalization Wr(q, p) = +1 used here,
    theta > 0 places zero as the first pair member above the ground state:
    (n_minus, n_zero) = (1, 1); theta < 0 gives (2, 1). (The analysis this
    laboratory reproduces states the opposite correspondence -- a Wronskian
    orientation slip; direct eigensolves of the discretized operator settle it
    this way, see the spectra module tests and the README stability note.)
    """
    if abs(h.q_prime_final) <= DEGENERACY_THRESHOLD:
        raise DegenerateThetaError(
            f"|q'(L)| = {abs(h.q_prime_final)} <= {DEGENERACY_THRESHOLD}: "
            "double zero eigenvalue suspected"
        )
    return (1, 1) if h.theta > 0 else (2, 1)
