"""Complete elliptic integral K and Jacobi elliptic functions sn, cn, dn.

Everything here uses the modulus convention: the argument ``kappa`` is the
modulus k, never the parameter m = k**2. Evaluation is by the arithmetic-
geometric mean (K) and the descending-AGM amplitude recursion (sn, cn, dn),
without lookup tables.

Both read one record per modulus, built once by the AGM and cached
(``_modulus_record``): K, k', the amplitude scale 2^N a_N and the ratios
c_n/a_n. The AGM starts from k' = sqrt((1 - k)(1 + k)), accurate up to
KAPPA_MAX, and stops at the first level with |c_n| <= 4 eps a_n (eps the
double spacing at 1), a test rounding can always meet: over
0 < kappa <= KAPPA_MAX it takes at most 8 steps, so a record holds at most 8
ratios and the amplitude recursion runs at most 8 levels.

Accuracy on a 0.001 grid of moduli up to 0.999 plus moduli up to KAPPA_MAX,
u in [-20, 20]: sn, cn, dn agree with scipy.special.ellipj(u, kappa**2) to
3.4e-14 for kappa <= 0.999 and with 30-digit mpmath to 4.8e-15 above; K
agrees with scipy.special.ellipkm1((1 - kappa)(1 + kappa)) to 3.3e-16
relative.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["ellip_k", "jacobi_sn_cn_dn", "KAPPA_MAX"]

# Moduli this close to 1 are rejected: K diverges logarithmically and the
# wave family degenerates to its separatrix there.
KAPPA_MAX = 1.0 - 1e-9

# the stopping rule's 4 eps: a_n and b_n of a converged AGM still differ by an
# ulp or two, so a tighter test could never be met and would run to the cap
_AGM_TOL = 4.0 * np.finfo(float).eps
_AGM_MAX_ITER = 64

# sign of sn and cn on the quarter periods q = 0..3 of [0, 4K)
_SN_SIGN = np.array([1.0, 1.0, -1.0, -1.0])
_CN_SIGN = np.array([1.0, -1.0, -1.0, 1.0])


def _check_modulus(kappa: float) -> float:
    kappa = float(kappa)
    if not 0.0 <= kappa <= KAPPA_MAX:  # also rejects nan
        raise ValueError(
            f"modulus must satisfy 0 <= kappa <= {KAPPA_MAX} (got {kappa!r})"
        )
    return kappa


def ellip_k(kappa: float) -> float:
    """Complete elliptic integral of the first kind, K(kappa).

    K = pi / (2 * agm(1, k')), read from the cached record of the modulus (the AGM and
    its accuracy: the module docstring).
    """
    return _modulus_record(_check_modulus(kappa))[0]


@lru_cache(maxsize=1024)
def _modulus_record(kappa: float):
    """(K, k', 2^N a_N, (c_N/a_N, ..., c_1/a_1)) of a checked modulus, cached.

    The AGM a_n, b_n from a_0 = 1, b_0 = k', with c_n = (a_{n-1} - b_{n-1})/2, stops at
    the module docstring's rule; a_N is then the mean to rounding, since
    c_{N+1} ~ c_N^2 / (4 a_N).
    """
    kprime = float(np.sqrt((1.0 - kappa) * (1.0 + kappa)))
    a, b, ratios = 1.0, kprime, []
    for n in range(1, _AGM_MAX_ITER):
        a, b, c = 0.5 * (a + b), float(np.sqrt(a * b)), 0.5 * (a - b)
        ratios.append(c / a)
        if abs(c) <= _AGM_TOL * a:
            break
    return float(np.pi / (2.0 * a)), kprime, float(2.0**n * a), tuple(reversed(ratios))


def _scd_core(w: np.ndarray, scale: float, ratios):
    """(sn, cn, dn) by the descending-AGM amplitude recursion, for w in [0, K/2].

    DLMF 22.20(ii): phi_N = 2^N a_N w, phi_{n-1} = (phi_n + asin((c_n/a_n) sin phi_n))/2,
    sn = sin phi_0, cn = cos phi_0, dn = cos phi_0 / cos(phi_1 - phi_0). On [0, K/2]
    the dn denominator stays >= 1/sqrt(2), so the formula is uniformly stable (it
    degenerates to 0/0 at w = K, which the caller avoids by quarter-period shifts).
    The asin argument needs no clipping: |c_n/a_n| < 1 and |sin| <= 1.
    """
    phi = scale * w
    for ratio in ratios:  # at least one level for kappa > 0
        phi_1 = phi
        phi = 0.5 * (phi + np.arcsin(ratio * np.sin(phi)))
    cn = np.cos(phi)
    return np.sin(phi), cn, cn / np.cos(phi_1 - phi)


def jacobi_sn_cn_dn(u, kappa: float):
    """Jacobi elliptic functions (sn, cn, dn)(u, kappa) for scalar or array u.

    The argument is reduced modulo 4K and folded into [0, K/2] using the
    reflection sn(2K-u) = sn(u), cn(2K-u) = -cn(u), dn(2K-u) = dn(u) and the
    quarter-period shift sn(K-v) = cn(v)/dn(v), cn(K-v) = k' sn(v)/dn(v),
    dn(K-v) = k'/dn(v), so the amplitude recursion only ever runs where it is
    well conditioned. Accurate to a few 1e-14 absolute for |u| <= 20 over the
    admissible moduli (see the module docstring).
    """
    kappa = _check_modulus(kappa)
    u_arr = np.asarray(u, dtype=float)
    scalar = u_arr.ndim == 0
    u_arr = np.atleast_1d(u_arr)
    if not np.all(np.isfinite(u_arr)):
        raise ValueError("argument u must be finite")

    if kappa == 0.0:
        sn, cn, dn = np.sin(u_arr), np.cos(u_arr), np.ones_like(u_arr)
    else:
        K, kprime, scale, ratios = _modulus_record(kappa)
        r = np.remainder(u_arr, 4.0 * K)

        # fold [0, 4K) into w in [0, K]: w = r, 2K - r, r - 2K, 4K - r on the
        # quarter periods q = 0..3 (r >= 0, so truncation is the floor)
        q = np.minimum((r / K).astype(int), 3)
        w = np.abs(r - (2.0 * K) * ((q + 1) // 2))

        # fold [0, K] into [0, K/2] via the quarter-period shift
        shifted = w > 0.5 * K
        v = np.where(shifted, K - w, w)
        s0, c0, d0 = _scd_core(v, scale, ratios)
        sn = np.where(shifted, c0 / d0, s0) * _SN_SIGN[q]
        cn = np.where(shifted, kprime * s0 / d0, c0) * _CN_SIGN[q]
        dn = np.where(shifted, kprime / d0, d0)

    if scalar:
        return float(sn[0]), float(cn[0]), float(dn[0])
    return sn, cn, dn
