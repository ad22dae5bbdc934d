"""Quadrature pipeline for the Hamiltonian instability index.

Builds the non-periodic second kernel element varphi of L+, evaluates the
elliptic quadratures A1..A6 (A5 = A2), applies the even inverse of L+ through the
variation-of-parameters formula, assembles the 3x3 matrix D of pairings
<H e_i, e_j> over the generalized kernel, and reports the index count
k_Ham = 2 - n(D), refusing a numerically singular D.

Every quadrature here is over one quarter period [0, K] of an even,
2K-periodic integrand analytic in a strip, so one rule serves them all: the
cosine series of equispaced samples (_cosine_series), whose trapezoid mean
converges geometrically (Trefethen & Weideman, SIAM Review 56, 2014) and
stops when its tail reaches rounding. The integrands depend on kappa alone
(NOTES.md, the scaling symmetry): one pass on the wave of period 1, cached by
kappa, samples them all, one Jacobi evaluation per level
(_quarter_period_record). The A-integrals and psi moments are K times the
mean a_0 of their rows; varphi carries the antiderivative G of A2's row by
Clenshaw, so its slope a_0 is A2 / K exactly.

Conventions that matter (they are easy to get wrong):

* varphi is even about 0 and NOT L-periodic; all pairings <varphi, h> in the
  closed-form identities are pairings with the even-periodized varphi, i.e.
  2 * integral over [0, L/2] of the branch formula.
* The Wronskian psi' varphi' - psi'' varphi equals exactly 1, so the inverse
  formula needs no Wronskian rescaling.
* With C_f chosen below, the variation-of-parameters expression is genuinely
  L-periodic (value and one-sided derivatives match at the seam).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .elliptic import jacobi_sn_cn_dn
from .waves import (GridFunction, RefusalError, WaveParams, _profile_derivatives, eval_profile,
                    params_from_kappa)

__all__ = [
    "VarphiTable",
    "DMatrix",
    "AIntegrals",
    "EvenSymmetryError",
    "DegenerateDMatrixError",
    "DMatrixRoundingError",
    "NonFiniteDMatrixError",
    "InconsistentIndexError",
    "QuadratureNotConvergedError",
    "build_varphi",
    "non_periodicity_gap",
    "a_integrals",
    "varphi_pairings",
    "linv_apply",
    "assemble_dmatrix",
    "dmatrix_from_entries",
    "hamiltonian_index",
    "psi_moments",
]


# |det D| / prod |D_ii| at or below which D counts as singular and hamiltonian_index refuses it
DEGENERATE_DET = 1e-12

# criterion 4's agreement bound on the relative error of D, which each route refuses to
# pass: assemble_dmatrix on its quadratures' rounding, the collocation oracle on eps cond
D_ERROR_BOUND = 1e-6


class EvenSymmetryError(ValueError):
    """Input to the even inverse is not even about 0 within tolerance."""


class DegenerateDMatrixError(RefusalError):
    """det(D) is numerically zero: the index is undefined."""


class DMatrixRoundingError(RefusalError):
    """The quadrature means behind D round by more than D_ERROR_BOUND: at small kappa
    they cancel to O(kappa^4) out of O(kappa^2) integrands, and no digit of D is sure."""


class NonFiniteDMatrixError(RefusalError):
    """An entry of D is not finite: the pairings overflowed at an extreme period."""


class InconsistentIndexError(RefusalError):
    """The count formula produced a negative k_Ham, violating k_Ham >= 0."""


class QuadratureNotConvergedError(RefusalError):
    """The cosine series of some integrand row had not reached rounding at the
    sampler's cap of _SERIES_MAX intervals."""


# ---------------------------------------------------------------------------
# the quarter-period sampler

# first and last n of the cosine series (n + 1 samples on [0, K])
_SERIES_MIN, _SERIES_MAX = 32, 16384
_SERIES_TAIL = 1e-15


def _cosine_series(f, K: float) -> list:
    """Coefficients a_0, a_1, ... of each row of f on [0, K], row(u) = sum_m a_m cos(m pi u / K).

    f maps the sample array u to one row of values or to a stack of rows,
    each even, 2K-periodic and analytic in a strip. The coefficients of n + 1
    equispaced samples come from one rfft of the even extension (a DCT-I);
    a_0 is their trapezoid mean, so K a_0 is the integral over [0, K]. n
    doubles from _SERIES_MIN, each level evaluating only its new midpoints,
    and a row is frozen at the first level where the top quarter of its
    coefficients is below _SERIES_TAIL of its largest, keeping the terms above
    that floor. So a row gets the same bits stacked as alone. Returns one
    array per row; raises QuadratureNotConvergedError, naming the rows that
    are not at rounding at n = _SERIES_MAX.
    """
    n = _SERIES_MIN
    vals = np.atleast_2d(f(np.linspace(0.0, K, n + 1)))
    series = [None] * len(vals)
    active = np.arange(len(vals))
    while True:
        a = np.fft.rfft(np.concatenate([vals, vals[:, -2:0:-1]], axis=1)).real / n
        a[:, 0] *= 0.5
        a[:, -1] *= 0.5
        size = np.abs(a)
        floor = _SERIES_TAIL * size.max(axis=1)
        tail = size[:, 3 * n // 4:].max(axis=1)
        done = tail <= floor
        for i in np.flatnonzero(done):
            # the terms past the last one above rounding change no digit
            series[active[i]] = a[i, : np.flatnonzero(size[i] > floor[i])[-1] + 1]
        active, vals = active[~done], vals[~done]
        if active.size == 0:
            return series
        if n == _SERIES_MAX:
            raise QuadratureNotConvergedError(
                f"cosine series on [0, {K}] not at rounding with {n + 1} samples: "
                f"row(s) {active.tolist()} of {len(series)}, tails "
                f"{[f'{t:.3e}' for t in tail[~done]]} against rounding floors "
                f"{[f'{t:.3e}' for t in floor[~done]]}")
        finer = np.empty((active.size, 2 * n + 1))
        finer[:, ::2] = vals
        finer[:, 1::2] = np.atleast_2d(f((np.arange(n) + 0.5) * (K / n)))[active]
        vals, n = finer, 2 * n


@lru_cache(maxsize=1024)
def _quarter_period_record(kappa: float) -> tuple:
    """(p1, rows, rounding): the wave of period 1 and modulus kappa, the cosine series on
    [0, K] of the integrands of A1, A2 (M), A3, A4, A6 and dn^{2m} / B^m, m = 1..4,
    B = 1 + beta^2 sn^2, which read kappa, beta^2 and K, the same at every period, and
    the relative rounding of the means of A1..A4 and A6: eps max|a_m| / |a_0|, the largest
    over their rows.

    One sampler pass per modulus; the shared arrays are read-only.
    """
    p1 = params_from_kappa(1.0, kappa)

    def integrands(u):
        sn, _, dn = jacobi_sn_cn_dn(u, kappa)
        B = 1.0 + p1.beta_sq * sn * sn
        w = 1.0 - 2.0 * sn * sn
        f = 3.0 * (kappa**2 + p1.beta_sq) + 5.0 * p1.beta_sq * dn * dn
        return (B * B * w / dn**2, _inner_integrand(p1, sn, dn), B * B * f * w / dn**2,
                B * w, B * f * w, *(dn ** (2 * m) / B**m for m in (1, 2, 3, 4)))

    rows = tuple(_cosine_series(integrands, p1.K))
    for a in rows:
        a.flags.writeable = False
    rounding = max(np.finfo(float).eps * np.max(np.abs(a)) / abs(a[0]) for a in rows[:5])
    return p1, rows, float(rounding)


# ---------------------------------------------------------------------------
# varphi: the even, non-periodic second kernel element of L+

def _c0(p: WaveParams) -> float:
    return 1.0 / (2.0 * p.alpha**2 * p.eta4 * (p.kappa**2 + p.beta_sq))


def _inner_integrand(p: WaveParams, sn, dn):
    """Integrand M of the accumulated inner integral, from sn and dn of u = alpha x.

    M is even and 2K-periodic in u and analytic in a strip about the real
    axis (dn has no real zero for kappa < 1).
    """
    B = 1.0 + p.beta_sq * sn * sn
    k2b2 = p.kappa**2 + p.beta_sq
    return B**3 * (3.0 * k2b2 + 5.0 * p.beta_sq * dn * dn) * (1.0 - 2.0 * sn * sn) / dn**4


def _antiderivative(a: np.ndarray, K: float, u):
    """G(u) = int_0^u M = a_0 u + sum_m a_m K/(m pi) sin(m pi u / K), by Clenshaw.

    G is odd and valid for every u.
    """
    theta = (np.pi / K) * u
    two_cos = 2.0 * np.cos(theta)
    y1 = y2 = 0.0
    for b in (a[1:] * (K / np.pi) / np.arange(1, a.size))[::-1]:
        y1, y2 = b + two_cos * y1 - y2, y1
    return a[0] * u + y1 * np.sin(theta)


def _branch(p: WaveParams, a: np.ndarray, x):
    """(sn, cn, dn, G) at u = alpha x: everything varphi and varphi' read."""
    u = p.alpha * np.asarray(x, dtype=float)
    sn, cn, dn = jacobi_sn_cn_dn(u, p.kappa)
    return sn, cn, dn, _antiderivative(a, p.K, u)


def _varphi_value(p: WaveParams, sn, cn, dn, G):
    """varphi on the non-periodic branch: C0 (N - S G)."""
    B = 1.0 + p.beta_sq * sn * sn
    N_term = B**2 * (1.0 - 2.0 * sn**2) / dn**2
    S_term = sn * cn * dn / B**2
    return _c0(p) * (N_term - S_term * G)


def _kernel_factor(p: WaveParams, sn, cn, dn):
    """(S, dS/du) for S = sn cn dn / (1 + beta^2 sn^2)^2 at u = alpha x.

    S is the kernel eigenfunction p of L+ (proportional to psi'), and alpha
    dS/du its x-derivative.
    """
    B = 1.0 + p.beta_sq * sn * sn
    S_u = (cn**2 * dn**2 - sn**2 * dn**2 - p.kappa**2 * sn**2 * cn**2) / B**2 \
        - 4.0 * p.beta_sq * sn**2 * cn**2 * dn**2 / B**3
    return sn * cn * dn / B**2, S_u


def _varphi_prime(p: WaveParams, sn, cn, dn, G):
    """varphi' = C0 alpha (N_u - S_u G - S M), the u-derivatives of the two factors."""
    B = 1.0 + p.beta_sq * sn * sn
    S_term, S_u = _kernel_factor(p, sn, cn, dn)
    N_u = (4.0 * p.beta_sq * sn * cn * dn * B * (1.0 - 2.0 * sn**2)
           - 4.0 * B**2 * sn * cn * dn) / dn**2 \
        + 2.0 * p.kappa**2 * sn * cn * B**2 * (1.0 - 2.0 * sn**2) / dn**3
    return _c0(p) * p.alpha * (N_u - S_u * G - S_term * _inner_integrand(p, sn, dn))


@dataclass(frozen=True, eq=False)
class VarphiTable:
    """varphi's closed-form branch with the cosine series of its inner
    integrand, whose antiderivative G makes varphi evaluable anywhere without
    re-quadrature. varphi_0 = varphi(0) is C0 exactly (sn = 0 and G = 0 there);
    varphi'(L/2) is _varphi_half_prime of A2 = K a_0.
    """

    params: WaveParams
    varphi_0: float
    _a: np.ndarray

    def varphi_at(self, x):
        return _varphi_value(self.params, *_branch(self.params, self._a, x))

    def varphi_prime_at(self, x):
        return _varphi_prime(self.params, *_branch(self.params, self._a, x))


def build_varphi(p: WaveParams) -> VarphiTable:
    """varphi of p, with its inner integrand's series, the A2 row of the record:
    A2 = K a_0 exactly. The sample counts per kappa are in NOTES.md.
    """
    return VarphiTable(params=p, varphi_0=_c0(p),
                       _a=_quarter_period_record(p.kappa)[1][1])


def non_periodicity_gap(t: VarphiTable) -> float:
    """varphi'(L-) - varphi'(0+); nonzero exactly when A2 != 0."""
    ends = t.varphi_prime_at(np.array([t.params.L, 0.0]))
    return float(ends[0] - ends[1])


# ---------------------------------------------------------------------------
# the elliptic quadratures

class AIntegrals(NamedTuple):
    A1: float
    A2: float
    A3: float
    A4: float
    A6: float


def a_integrals(p: WaveParams) -> AIntegrals:
    """The five distinct quadratures over [0, K(kappa)] entering the pairing closed forms.

    Each A is K a_0 of its row of the quarter-period record; A2's row is
    varphi's inner integrand, which is also that of the closed forms' A5, so
    A5 = A2 (NOTES.md). A4 carries a single power of (1 + beta^2 sn^2); see
    the A4 note in NOTES.md.
    """
    rows = _quarter_period_record(p.kappa)[1]
    A1, A2, A3, A4, A6 = (float(p.K * a[0]) for a in rows[:5])
    return AIntegrals(A1=A1, A2=A2, A3=A3, A4=A4, A6=A6)


def varphi_pairings(p: WaveParams, A: AIntegrals):
    """(<varphi, 1>, <varphi, psi>) from the closed A-integral combinations.

    Pairings use the even-periodized varphi: <varphi, h> = 2 int_0^{L/2} varphi h.
    """
    k2 = p.kappa**2
    b2 = p.beta_sq
    k2b2 = k2 + b2
    pref = p.L**3 / (8.0 * p.K**3 * k2b2)
    ip_one = (pref / p.eta4) * (A.A1 + A.A2 * (1.0 - k2) / (2.0 * k2b2 * (1.0 + b2))
                                - A.A3 / (2.0 * k2b2))
    ip_psi = pref * (A.A4 + A.A2 * (1.0 - k2)**2 / (4.0 * k2b2 * (1.0 + b2)**2)
                     - A.A6 / (4.0 * k2b2))
    return float(ip_one), float(ip_psi)


# ---------------------------------------------------------------------------
# boundary data at L/2 (closed forms)

def _psi_half(p: WaveParams):
    """(psi(L/2), psi''(L/2)) from closed forms.

    psi(L/2) = eta4 (1-kappa^2)/(1+beta^2) = eta3; psi''(L/2) simplifies to
    2 alpha^2 eta4 (1-kappa^2)(kappa^2+beta^2)/(1+beta^2)^2 (equivalently the
    profile ODE at the trough).
    """
    k2 = p.kappa**2
    b2 = p.beta_sq
    psi_h = p.eta4 * (1.0 - k2) / (1.0 + b2)
    psi_pp_h = 2.0 * p.alpha**2 * p.eta4 * (1.0 - k2) * (k2 + b2) / (1.0 + b2) ** 2
    return psi_h, psi_pp_h


def _varphi_half_prime(p: WaveParams, A2: float) -> float:
    """varphi'(L/2) in closed form; it carries the A2 quadrature."""
    k2 = p.kappa**2
    b2 = p.beta_sq
    return p.L * (1.0 - k2) * A2 / (4.0 * p.eta4 * p.K * (k2 + b2) * (1.0 + b2) ** 2)


def half_period_data(p: WaveParams, A: AIntegrals):
    """(psi(L/2), psi''(L/2), varphi'(L/2)) from closed forms."""
    return (*_psi_half(p), _varphi_half_prime(p, A.A2))


# ---------------------------------------------------------------------------
# even inverse of L+

def linv_apply(p: WaveParams, t: VarphiTable, f: GridFunction) -> GridFunction:
    """Apply the even inverse of L+ to an even periodic grid function.

    out(x) = psi'(x) int_0^x varphi f - varphi(x) int_0^x psi' f + C_f varphi(x),
    C_f = int_0^{L/2} psi' f - (psi''(L/2) / (2 varphi'(L/2))) <varphi, f>,
    with <varphi, f> the even-periodized pairing and varphi'(L/2) from the
    closed form in A2 = K a_0, the slope of t's series.
    This C_f makes the output L-periodic with matching one-sided derivatives,
    hence in the domain of L+.

    Inputs are symmetrized; an asymmetry above 1e-8 (relative sup norm) is a
    hard error. The output is even, so it is computed on [0, L/2] and mirrored
    (out[N - j] == out[j] bit for bit), which needs an even N. sn, cn, dn are
    evaluated once, on the 4N + 1 points of spacing L/(8N) there; both
    antiderivatives are cumulative sums of the closed 5-point Newton-Cotes
    (Boole) rule on panels of 4 of those steps, two panels to a grid cell.

    For small kappa the output carries a rounding floor of the formula itself:
    varphi ~ kappa^-2 and psi' ~ kappa^2, so its terms cancel. The roundtrip
    max |L+ out - psi| / max |psi| at L = 1, N = 256 is 2.5e-8 at kappa = 0.01
    and 3.2e-6 at 0.001, and the rule does not move it (NOTES.md has the table).
    """
    if f.L != p.L:
        raise ValueError("grid period does not match the wave period")
    if t.params.kappa != p.kappa:
        raise ValueError(f"varphi table of modulus {t.params.kappa} given for a wave of "
                         f"modulus {p.kappa}")
    N = f.N
    if N % 2:
        raise ValueError(f"the mirror about L/2 needs an even grid size (got N = {N})")
    vals = f.samples
    reflected = np.roll(vals[::-1], 1)  # f(-x_j) on the same grid
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    asym = float(np.max(np.abs(vals - reflected))) / scale
    if asym > 1e-8:
        raise EvenSymmetryError(f"input asymmetry {asym:.3e} exceeds 1.0e-08")
    sym = 0.5 * (vals + reflected)

    M = 8 * N
    # trigonometric resampling of f onto the fine half-period grid (exact for
    # band-limited data)
    coeff = np.fft.rfft(sym)
    pad = np.zeros(M // 2 + 1, dtype=complex)
    pad[: coeff.size] = coeff
    pad[N // 2] *= 0.5  # split the shared Nyquist coefficient (N is even)
    f_fine = np.fft.irfft(pad, M)[: M // 2 + 1] * (M / N)

    sn, cn, dn, G = _branch(p, t._a, np.linspace(0.0, 0.5 * p.L, M // 2 + 1))
    varphi_f = _varphi_value(p, sn, cn, dn, G)
    _, dpsi_f, _ = _profile_derivatives(p, sn, cn, dn)

    # Boole panels of 4 steps h = L/(8N): (2h/45)(7, 32, 12, 32, 7). Entry i of the
    # cumulative sum from 0 is the integral to i L/(2N): x_j is entry 2j, L/2 the last
    g = np.stack([varphi_f * f_fine, dpsi_f * f_fine])
    panels = (7.0 * (g[:, :-1:4] + g[:, 4::4]) + 32.0 * (g[:, 1::4] + g[:, 3::4])
              + 12.0 * g[:, 2::4]) * (p.L / (180.0 * N))
    F_vf, F_pf = np.concatenate([np.zeros((2, 1)), np.cumsum(panels, axis=1)], axis=1)[:, ::2]

    _, psi_pp_h = _psi_half(p)
    varphi_p_h = _varphi_half_prime(p, p.K * t._a[0])
    C_f = float(F_pf[-1]) - psi_pp_h / varphi_p_h * float(F_vf[-1])

    varphi_x, dpsi_x = varphi_f[::8], dpsi_f[::8]
    half = dpsi_x * F_vf - varphi_x * F_pf + C_f * varphi_x
    return GridFunction(p.L, np.concatenate([half, half[N // 2 - 1: 0: -1]]))


def lplus_apply(p: WaveParams, g: GridFunction) -> np.ndarray:
    """Spectral application of L+ = -d^2 + c - 3 psi^2/(2c) on the grid."""
    from .waves import spectral_derivative

    psi, _ = eval_profile(p, g.x)
    return -spectral_derivative(g, 2) + (p.c - 1.5 * psi**2 / p.c) * g.samples


# ---------------------------------------------------------------------------
# psi moments and the D matrix

def psi_moments(p: WaveParams):
    """(int psi, int psi^2, int psi^3, int psi^4) over one period.

    Closed elliptic forms: int psi^m = eta4^m L <dn^{2m} / B^m>, with <.> the
    mean over [0, K], a_0 of the last four rows of the quarter-period record.
    """
    means = (a[0] for a in _quarter_period_record(p.kappa)[1][5:])
    return tuple(float(p.eta4**m * p.L * mean) for m, mean in zip((1, 2, 3, 4), means))


@dataclass(frozen=True, eq=False)
class DMatrix:
    """Symmetric 3x3 matrix of pairings <H e_i, e_j> with derived quantities.
    A numerically singular D is still returned; hamiltonian_index refuses it."""

    entries: np.ndarray
    det: float
    n_negative: int


def _equilibrated(entries: np.ndarray) -> np.ndarray:
    """D_ij / sqrt(|D_ii D_jj|), a zero D_ii taken as 1: D's inertia and sign of det, and
    the same matrix for D and S D S, S positive and diagonal, so at every period."""
    s = np.sqrt(np.abs(np.diag(entries)))
    s[s == 0.0] = 1.0
    return entries / np.outer(s, s)


def dmatrix_from_entries(entries: np.ndarray) -> DMatrix:
    entries = np.asarray(entries, dtype=float)
    if not np.all(np.isfinite(entries)):
        bad = ", ".join(f"D{i + 1}{j + 1} = {float(entries[i, j])!r}"
                        for i, j in zip(*np.nonzero(~np.isfinite(entries))) if i <= j)
        raise NonFiniteDMatrixError(f"D is not finite: {bad}")
    return DMatrix(entries=entries, det=float(np.linalg.det(entries)),
                   n_negative=int(np.sum(np.linalg.eigvalsh(_equilibrated(entries)) < 0.0)))


def assemble_dmatrix(p: WaveParams) -> DMatrix:
    """All six D entries through the closed-form quadrature pipeline.

    Chain: A-integrals -> pairings <varphi,1>, <varphi,psi> -> boundary data at
    L/2 -> the three <L+^{-1} ., .> pairings -> the psi^3 reductions -> D_1,
    all for the wave of period 1 and modulus kappa that the quadrature record
    holds. D = S D_1 S with S = diag(L^3/2, L^3/2, L^-1/2) (_at_period; NOTES.md,
    the scaling symmetry), so no step leaves the float range at an extreme period.
    The record's rounding bounds D's relative error, the same at every L; above
    D_ERROR_BOUND, below kappa ~ 3.7e-5, DMatrixRoundingError refuses D.
    """
    p1, _, rounding = _quarter_period_record(p.kappa)
    if not rounding <= D_ERROR_BOUND:
        raise DMatrixRoundingError(f"the quadrature means behind D round by {rounding:.1e} "
                                   f"> {D_ERROR_BOUND:.0e} at kappa = {p.kappa!r}")
    A = a_integrals(p1)
    s1, spsi = varphi_pairings(p1, A)
    psi_h, psi_pp_h, varphi_p_h = half_period_data(p1, A)
    mu = psi_pp_h / (2.0 * varphi_p_h)
    c, F1 = p1.c, p1.F1
    m1, m2, _, m4 = psi_moments(p1)

    # <psi^2, varphi> and <psi^3, varphi> (integration by parts against L+ varphi = 0)
    pair_psi2 = -(4.0 * c / 3.0) * varphi_p_h + (2.0 * c * c / 3.0) * s1
    pair_psi3 = -2.0 * c * psi_h * varphi_p_h - c * F1 * s1

    # the three base pairings of the even inverse
    inv11 = -2.0 * spsi + (2.0 * psi_h - mu * s1) * s1
    inv_psi1 = -1.5 * pair_psi2 + 0.5 * psi_h**2 * s1 + (psi_h - mu * s1) * spsi
    inv_psipsi = -pair_psi3 + (psi_h**2 - mu * spsi) * spsi

    # psi^3 reductions via L+^{-1} psi^3 = -c psi - c F1 L+^{-1} 1
    inv_c1 = -c * m1 - c * F1 * inv11
    inv_cpsi = -c * m2 - c * F1 * inv_psi1
    inv_cc = -c * m4 - c * F1 * inv_c1

    D = np.empty((3, 3))
    D[0, 0] = inv11
    D[0, 1] = D[1, 0] = inv_psi1 / c
    D[0, 2] = D[2, 0] = inv_psi1 + inv_c1 / (2.0 * c * c)
    D[1, 1] = 1.0 / c + inv_psipsi / c**2
    D[1, 2] = D[2, 1] = inv_cpsi / (2.0 * c**3) + inv_psipsi / c + m2 / (2.0 * c * c)
    D[2, 2] = inv_cpsi / c**2 + inv_psipsi + inv_cc / (4.0 * c**4) + m4 / (4.0 * c**3)

    return dmatrix_from_entries(_at_period(D, p.L))


def _at_period(D1: np.ndarray, L: float) -> np.ndarray:
    """S D1 S, S = diag(L^3/2, L^3/2, L^-1/2): the D of period L from that of period 1."""
    s = np.array([L**1.5, L**1.5, L**-0.5])
    return np.outer(s, s) * D1


def hamiltonian_index(d: DMatrix):
    """(k_Ham, n(D)) with k_Ham = 2 - n(D).

    The 2 in the formula is the count n(H) asserted by the reference material;
    the spectra module computes n(H) directly, and the two disagree for this
    wave family (see the acceptance tests and NOTES.md). The formula
    is implemented as specified; consumers can rebuild the count with the
    measured n(H) via k_r + 2 k_c + 2 k_i^- = n(H) - n(D).
    """
    # det D / prod |D_ii|: the same at every period, as n(D) is
    ratio = float(np.linalg.det(_equilibrated(d.entries)))
    if abs(ratio) <= DEGENERATE_DET:
        raise DegenerateDMatrixError(
            f"det D / prod |D_ii| = {ratio:.3e} below degeneracy threshold {DEGENERATE_DET:.0e}")
    k_ham = 2 - d.n_negative
    if k_ham < 0:
        raise InconsistentIndexError(
            f"k_Ham = {k_ham} < 0 with n(D) = {d.n_negative}: count formula violated"
        )
    return k_ham, d.n_negative
