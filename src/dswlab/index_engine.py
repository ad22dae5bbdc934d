"""Quadrature pipeline for the Hamiltonian instability index.

Builds the non-periodic second kernel element varphi of L+, evaluates the six
elliptic quadratures A1..A6, applies the even inverse of L+ through the
variation-of-parameters formula, assembles the 3x3 matrix D of pairings
<H e_i, e_j> over the generalized kernel, and reports the index count
k_Ham = 2 - n(D), refusing a numerically singular D.

The quadratures over one quarter period come in two families, A1..A6 and the
psi moments. Each family is one adaptive Gauss-Legendre pass over its stacked
integrands, so sn, cn, dn are evaluated once per panel level and family, and
one D costs two passes.

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

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .elliptic import jacobi_sn_cn_dn
from .waves import GridFunction, WaveParams, eval_profile, eval_profile_derivatives

if TYPE_CHECKING:
    from scipy.interpolate import CubicSpline

__all__ = [
    "VarphiTable",
    "DMatrix",
    "AIntegrals",
    "EvenSymmetryError",
    "DegenerateDMatrixError",
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
    "gauss_legendre_adaptive",
    "psi_moments",
]


class EvenSymmetryError(ValueError):
    """Input to the even inverse is not even about 0 within tolerance."""


class DegenerateDMatrixError(ArithmeticError):
    """det(D) is numerically zero: the index is undefined."""


class InconsistentIndexError(ArithmeticError):
    """The count formula produced a negative k_Ham, violating k_Ham >= 0."""


class QuadratureNotConvergedError(ArithmeticError):
    """Panel doubling reached max_panels before two successive values agreed."""


# ---------------------------------------------------------------------------
# quadrature helper

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def gauss_legendre_adaptive(f: Callable, a: float, b: float,
                            rel_tol: float = 1e-12, max_panels: int = 4096):
    """Composite 16-point Gauss-Legendre, doubling the panel count until two
    successive values agree to rel_tol (plus a small absolute floor).

    f maps the node array to one row of values, or to a stack of rows, one per
    integrand, so that quantities sharing an expensive factor evaluate it once
    per level. Each row keeps the value of the level at which it converged,
    which is the value a one-row call on it returns, and the loop runs until
    every row has. One row gives a float, a stack a tuple of floats.

    Raises QuadratureNotConvergedError, naming the rows, when some row has no
    two successive values within max_panels panels that agree.
    """
    prev, done = None, []
    panels = 4
    while panels <= max_panels:
        edges = np.linspace(a, b, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        pts = (mid[:, None] + half * _GL_NODES[None, :]).ravel()
        vals = np.asarray(f(pts))
        rows = vals.reshape(-1, pts.size)
        totals = [half * float(np.sum(row.reshape(panels, -1) @ _GL_WEIGHTS)) for row in rows]
        if prev is None:
            done = [None] * len(totals)
        else:
            for i, (total, last) in enumerate(zip(totals, prev)):
                if done[i] is None and abs(total - last) <= rel_tol * max(abs(total), 1e-300) + 1e-15:
                    done[i] = total
            if None not in done:
                return done[0] if vals.ndim == 1 else tuple(done)
        prev = totals
        panels *= 2
    failed = [i for i, value in enumerate(done) if value is None]
    raise QuadratureNotConvergedError(
        f"integral over [{a}, {b}] not converged to rel_tol={rel_tol} within "
        f"max_panels={max_panels}: row(s) {failed} of {len(done)} "
        f"(last values {[float(prev[i]) for i in failed]!r})")


# ---------------------------------------------------------------------------
# varphi: the even, non-periodic second kernel element of L+

def _c0(p: WaveParams) -> float:
    return 1.0 / (2.0 * p.alpha**2 * p.eta4 * (p.kappa**2 + p.beta_sq))


def _inner_integrand(p: WaveParams, u):
    """Integrand of the accumulated inner integral, as a function of u = alpha x."""
    sn, _, dn = jacobi_sn_cn_dn(u, p.kappa)
    B = 1.0 + p.beta_sq * sn * sn
    k2b2 = p.kappa**2 + p.beta_sq
    return B**3 * (3.0 * k2b2 + 5.0 * p.beta_sq * dn * dn) * (1.0 - 2.0 * sn * sn) / dn**4


@dataclass(frozen=True, eq=False)
class VarphiTable:
    """varphi's closed-form branch with the spline antiderivative G of the
    inner integrand, so varphi can be evaluated anywhere without re-quadrature.
    """

    params: WaveParams
    varphi_half_prime: float
    varphi_0: float
    _G: CubicSpline

    def varphi_at(self, x):
        return _varphi_eval(self.params, self._G, np.asarray(x, dtype=float))[0]

    def varphi_prime_at(self, x):
        return _varphi_eval(self.params, self._G, np.asarray(x, dtype=float))[1]


def _varphi_eval(p: WaveParams, G: CubicSpline, x: np.ndarray):
    """(varphi, varphi') on the non-periodic branch, analytic except for G."""
    u = p.alpha * x
    sn, cn, dn = jacobi_sn_cn_dn(u, p.kappa)
    B = 1.0 + p.beta_sq * sn * sn
    k2 = p.kappa**2
    C0 = _c0(p)

    N_term = B**2 * (1.0 - 2.0 * sn**2) / dn**2
    S_term = sn * cn * dn / B**2
    # the accumulated integral is odd in u (its integrand is even), which keeps
    # the branch formula valid for negative arguments as well
    Gu = np.sign(u) * G(np.abs(u))
    val = C0 * (N_term - S_term * Gu)

    # d/du of the two elliptic factors; varphi' = C0 * alpha * (N_u - S_u G - S M)
    N_u = (4.0 * p.beta_sq * sn * cn * dn * B * (1.0 - 2.0 * sn**2)
           - 4.0 * B**2 * sn * cn * dn) / dn**2 \
        + 2.0 * k2 * sn * cn * B**2 * (1.0 - 2.0 * sn**2) / dn**3
    S_u = (cn**2 * dn**2 - sn**2 * dn**2 - k2 * sn**2 * cn**2) / B**2 \
        - 4.0 * p.beta_sq * sn**2 * cn**2 * dn**2 / B**3
    M_u = _inner_integrand(p, u)
    deriv = C0 * p.alpha * (N_u - S_u * Gu - S_term * M_u)
    return val, deriv


def build_varphi(p: WaveParams) -> VarphiTable:
    """Accumulate the inner integral once on a fine grid.

    The inner integrand is smooth (dn^4 is bounded away from zero), so a cubic
    spline antiderivative over 16384 panels of [0, 2K] carries ~1e-13 accuracy.
    """
    from scipy.interpolate import CubicSpline

    u_grid = np.linspace(0.0, 2.0 * p.K, 16385)
    G = CubicSpline(u_grid, _inner_integrand(p, u_grid)).antiderivative()
    val, deriv = _varphi_eval(p, G, np.array([0.0, 0.5 * p.L]))
    return VarphiTable(params=p, varphi_half_prime=float(deriv[1]), varphi_0=float(val[0]), _G=G)


def non_periodicity_gap(t: VarphiTable) -> float:
    """varphi'(L-) - varphi'(0+); nonzero exactly when A2 != 0."""
    ends = t.varphi_prime_at(np.array([t.params.L, 0.0]))
    return float(ends[0] - ends[1])


# ---------------------------------------------------------------------------
# the six elliptic quadratures

class AIntegrals(NamedTuple):
    A1: float
    A2: float
    A3: float
    A4: float
    A5: float
    A6: float


def a_integrals(p: WaveParams, rel_tol: float = 1e-12) -> AIntegrals:
    """The six quadratures over [0, K(kappa)] entering the pairing closed forms.

    One adaptive pass over the stacked integrands of A1, A2, A3, A4 and A6,
    with one Jacobi evaluation per level. A2's integrand is varphi's inner
    integrand, formed by the same operations as _inner_integrand; A5 is the
    same integral. A4 carries a single power of (1 + beta^2 sn^2); see the A4
    note in NOTES.md.
    """
    b2 = p.beta_sq
    k2b2 = p.kappa**2 + b2

    def integrands(u):
        sn, _, dn = jacobi_sn_cn_dn(u, p.kappa)
        B = 1.0 + b2 * sn * sn
        w = 1.0 - 2.0 * sn * sn
        f = 3.0 * k2b2 + 5.0 * b2 * dn * dn
        return (B * B * w / dn**2, B**3 * f * w / dn**4, B * B * f * w / dn**2,
                B * w, B * f * w)

    A1, A2, A3, A4, A6 = gauss_legendre_adaptive(integrands, 0.0, p.K, rel_tol)
    return AIntegrals(A1=A1, A2=A2, A3=A3, A4=A4, A5=A2, A6=A6)


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
    ip_psi = pref * (A.A4 + A.A5 * (1.0 - k2)**2 / (4.0 * k2b2 * (1.0 + b2)**2)
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


def half_period_data(p: WaveParams, A: AIntegrals):
    """(psi(L/2), psi''(L/2), varphi'(L/2)) from closed forms; varphi'(L/2)
    carries the A2 quadrature.
    """
    k2 = p.kappa**2
    b2 = p.beta_sq
    psi_h, psi_pp_h = _psi_half(p)
    varphi_p_h = p.L * (1.0 - k2) * A.A2 / (4.0 * p.eta4 * p.K * (k2 + b2) * (1.0 + b2) ** 2)
    return psi_h, psi_pp_h, varphi_p_h


# ---------------------------------------------------------------------------
# even inverse of L+

def linv_apply(p: WaveParams, t: VarphiTable, f: GridFunction) -> GridFunction:
    """Apply the even inverse of L+ to an even periodic grid function.

    out(x) = psi'(x) int_0^x varphi f - varphi(x) int_0^x psi' f + C_f varphi(x),
    C_f = int_0^{L/2} psi' f - (psi''(L/2) / (2 varphi'(L/2))) <varphi, f>,
    with <varphi, f> the even-periodized pairing and varphi'(L/2) read from t.
    This C_f makes the output L-periodic with matching one-sided derivatives,
    hence in the domain of L+.

    Inputs are symmetrized; an asymmetry above 1e-8 (relative sup norm) is a
    hard error.
    """
    from scipy.interpolate import CubicSpline

    if f.L != p.L:
        raise ValueError("grid period does not match the wave period")
    vals = f.samples
    reflected = np.roll(vals[::-1], 1)  # f(-x_j) on the same grid
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    asym = float(np.max(np.abs(vals - reflected))) / scale
    if asym > 1e-8:
        raise EvenSymmetryError(f"input asymmetry {asym:.3e} exceeds 1.0e-08")
    sym = 0.5 * (vals + reflected)

    N = f.N
    M = 8 * N
    xf = np.linspace(0.0, p.L, M + 1)
    # trigonometric resampling of f onto the fine grid (exact for band-limited data)
    coeff = np.fft.rfft(sym)
    pad = np.zeros(M // 2 + 1, dtype=complex)
    pad[: coeff.size] = coeff
    pad[N // 2] *= 0.5  # split the shared Nyquist coefficient (N is a power of two)
    f_fine = np.fft.irfft(pad, M) * (M / N)
    f_fine = np.append(f_fine, f_fine[0])

    varphi_f, _ = _varphi_eval(p, t._G, xf)
    _, dpsi_f, _ = eval_profile_derivatives(p, xf)

    F_vf = CubicSpline(xf, varphi_f * f_fine).antiderivative()
    F_pf = CubicSpline(xf, dpsi_f * f_fine).antiderivative()

    _, psi_pp_h = _psi_half(p)
    pair = 2.0 * float(F_vf(0.5 * p.L))
    C_f = float(F_pf(0.5 * p.L)) - psi_pp_h / (2.0 * t.varphi_half_prime) * pair

    x = f.x
    varphi_x, _ = _varphi_eval(p, t._G, x)
    _, dpsi_x, _ = eval_profile_derivatives(p, x)
    out = dpsi_x * F_vf(x) - varphi_x * F_pf(x) + C_f * varphi_x
    return GridFunction(p.L, out)


def lplus_apply(p: WaveParams, g: GridFunction) -> np.ndarray:
    """Spectral application of L+ = -d^2 + c - 3 psi^2/(2c) on the grid."""
    from .waves import spectral_derivative

    psi, _ = eval_profile(p, g.x)
    return -spectral_derivative(g, 2) + (p.c - 1.5 * psi**2 / p.c) * g.samples


# ---------------------------------------------------------------------------
# psi moments and the D matrix

def psi_moments(p: WaveParams, rel_tol: float = 1e-12):
    """(int psi, int psi^2, int psi^3, int psi^4) over one period.

    Closed elliptic forms: int psi^m = eta4^m L / K * int_0^K dn^{2m} / B^m du,
    the four integrands stacked in one adaptive pass.
    """
    b2 = p.beta_sq
    powers = (1, 2, 3, 4)

    def integrands(u):
        sn, _, dn = jacobi_sn_cn_dn(u, p.kappa)
        return [dn ** (2 * m) / (1.0 + b2 * sn * sn) ** m for m in powers]

    moments = gauss_legendre_adaptive(integrands, 0.0, p.K, rel_tol)
    return tuple(p.eta4**m * p.L / p.K * integral for m, integral in zip(powers, moments))


@dataclass(frozen=True, eq=False)
class DMatrix:
    """Symmetric 3x3 matrix of pairings <H e_i, e_j> with derived quantities.

    A holds the quadratures the matrix was assembled from (None for a matrix
    given by its entries). A D that is numerically singular is still
    returned; hamiltonian_index refuses it.
    """

    entries: np.ndarray
    det: float
    n_negative: int
    A: AIntegrals | None = None


def dmatrix_from_entries(entries: np.ndarray) -> DMatrix:
    entries = np.asarray(entries, dtype=float)
    return DMatrix(entries=entries, det=float(np.linalg.det(entries)),
                   n_negative=int(np.sum(np.linalg.eigvalsh(entries) < 0.0)))


def assemble_dmatrix(p: WaveParams, rel_tol: float = 1e-12) -> DMatrix:
    """All six D entries through the closed-form quadrature pipeline.

    Chain: A-integrals -> pairings <varphi,1>, <varphi,psi> -> boundary data at
    L/2 -> the three <L+^{-1} ., .> pairings -> the psi^3 reductions -> D.
    """
    A = a_integrals(p, rel_tol)
    s1, spsi = varphi_pairings(p, A)
    psi_h, psi_pp_h, varphi_p_h = half_period_data(p, A)
    mu = psi_pp_h / (2.0 * varphi_p_h)
    c, F1, L = p.c, p.F1, p.L

    # <psi^2, varphi> and <psi^3, varphi> (integration by parts against L+ varphi = 0)
    pair_psi2 = -(4.0 * c / 3.0) * varphi_p_h + (2.0 * c * c / 3.0) * s1
    pair_psi3 = -2.0 * c * psi_h * varphi_p_h - c * F1 * s1

    # the three base pairings of the even inverse
    inv11 = -2.0 * spsi + (2.0 * psi_h - mu * s1) * s1
    inv_psi1 = -1.5 * pair_psi2 + 0.5 * psi_h**2 * s1 + (psi_h - mu * s1) * spsi
    inv_psipsi = -pair_psi3 + (psi_h**2 - mu * spsi) * spsi

    m1, m2, _, m4 = psi_moments(p, rel_tol)

    # psi^3 reductions via L+^{-1} psi^3 = -c psi - c F1 L+^{-1} 1
    inv_c1 = -c * m1 - c * F1 * inv11
    inv_cpsi = -c * m2 - c * F1 * inv_psi1
    inv_cc = -c * m4 - c * F1 * inv_c1

    D = np.empty((3, 3))
    D[0, 0] = inv11
    D[0, 1] = D[1, 0] = inv_psi1 / c
    D[0, 2] = D[2, 0] = inv_psi1 + inv_c1 / (2.0 * c * c)
    D[1, 1] = L / c + inv_psipsi / c**2
    D[1, 2] = D[2, 1] = inv_cpsi / (2.0 * c**3) + inv_psipsi / c + m2 / (2.0 * c * c)
    D[2, 2] = inv_cpsi / c**2 + inv_psipsi + inv_cc / (4.0 * c**4) + m4 / (4.0 * c**3)

    return replace(dmatrix_from_entries(D), A=A)


def hamiltonian_index(d: DMatrix):
    """(k_Ham, n(D)) with k_Ham = 2 - n(D).

    The 2 in the formula is the count n(H) asserted by the reference material;
    the spectra module computes n(H) directly, and the two disagree for this
    wave family (see the acceptance tests and NOTES.md). The formula
    is implemented as specified; consumers can rebuild the count with the
    measured n(H) via k_r + 2 k_c + 2 k_i^- = n(H) - n(D).
    """
    threshold = 1e-12 * float(np.linalg.norm(d.entries)) ** 3
    if abs(d.det) <= threshold:
        raise DegenerateDMatrixError(
            f"det D = {d.det:.3e} below degeneracy threshold {threshold:.3e}")
    k_ham = 2 - d.n_negative
    if k_ham < 0:
        raise InconsistentIndexError(
            f"k_Ham = {k_ham} < 0 with n(D) = {d.n_negative}: count formula violated"
        )
    return k_ham, d.n_negative
