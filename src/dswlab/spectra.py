"""Fourier-collocation operators and their spectra.

Dense matrices for L+, the 2x2 block operator H on L-, and the linearized
evolution generator dH = diag(d/dxi) H. Each operator is decomposed once and
every consumer reads that decomposition: one `eigh` of L+ and one of H give
their Morse counts and kernel alignments; one `eig` of dH gives the spectrum,
its zero cluster, the Krein signs and the quadruplet symmetry residual. The
Krein sign of an imaginary pair with eigenvector v is the sign of the trace
of the 2x2 form <H f, f> on span(Re v, Im v), that is of Re(v* H v). The
independent oracle for the quadrature pipeline pairs the solutions of
H e = rhs, all found by one bordered solve against the analytic kernel
(psi', phi').

Any grid size N works, odd or even: the zero cluster of dH has 4 members at
odd N and 6 at even N (see _nonzero_spectrum).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .waves import WaveParams, eval_profile_derivatives

__all__ = [
    "OperatorMatrix",
    "SpectrumReport",
    "EigensolveError",
    "assemble",
    "assemble_operator",
    "morse_index",
    "kernel_alignment",
    "unstable_modes",
    "unstable_eigenmode",
    "pseudo_inverse_apply",
    "dmatrix_via_collocation",
]

OPERATOR_KINDS = ("Lplus", "Hcal", "dHcal")
SYMMETRIC_KINDS = ("Lplus", "Hcal")

# An eigenvalue is unstable when its real part exceeds RE_TOL, and the upper
# member of its pair when its imaginary part does. It is real (imaginary) when
# its imaginary (real) part is at most CLASS_TOL * max(1, |lambda|).
RE_TOL = 1e-6
CLASS_TOL = 1e-7

# eigenvector columns (Krein forms) and eigenvalue rows (partner gaps) per batch;
# bounds the temporaries at 2N x 64 instead of 2N x 2N
_CHUNK = 64


class EigensolveError(RuntimeError):
    """Dense eigensolve failed to converge."""


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    kind: str
    matrix: np.ndarray
    c: float = 1.0


def _fourier_diff_matrices(N: int, L: float):
    """Dense spectral derivative matrices D1 and D2, columns irfft((ik)^m rfft(e_j)).

    At even N, irfft drops the imaginary Nyquist coefficient that ik puts on
    the unpaired mode (-1)^j, so D1 annihilates it while D2 keeps -(pi N/L)^2.
    """
    ik = 2j * np.pi * np.fft.rfftfreq(N, d=L / N)[:, None]
    F = np.fft.rfft(np.eye(N), axis=0)
    return np.fft.irfft(ik * F, N, axis=0), np.fft.irfft(ik * ik * F, N, axis=0)


def _schrodinger(D2: np.ndarray, c: float, potential: np.ndarray) -> np.ndarray:
    A = -D2 + np.diag(c - potential)
    return 0.5 * (A + A.T)


def _operator(kind: str, D1: np.ndarray, D2: np.ndarray, c: float, psi: np.ndarray) -> np.ndarray:
    """Collocation matrix of one operator kind from the derivative matrices."""
    if kind == "Lplus":
        return _schrodinger(D2, c, 1.5 * psi**2 / c)
    Lm = _schrodinger(D2, c, 0.5 * psi**2 / c)
    if kind == "Hcal":
        return np.block([[Lm, -np.diag(psi)], [-np.diag(psi), c * np.eye(psi.size)]])
    # dHcal = diag(D1, D1) @ Hcal, formed block by block
    off = -D1 * psi
    return np.block([[D1 @ Lm, off], [off, c * D1]])


def _grid(p: WaveParams, N: int):
    """(psi, psi') of the wave p on the N-point grid x_j = j L / N."""
    psi, dpsi, _ = eval_profile_derivatives(p, np.arange(N) * (p.L / N))
    return psi, dpsi


def assemble_operator(kind: str, L: float, c: float, psi: np.ndarray) -> OperatorMatrix:
    """Collocation matrix of the requested operator from raw profile samples."""
    if kind not in OPERATOR_KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    psi = np.asarray(psi, dtype=float)
    A = _operator(kind, *_fourier_diff_matrices(psi.size, L), c, psi)
    return OperatorMatrix(kind=kind, matrix=A, c=float(c))


def assemble(kind: str, p: WaveParams, N: int = 256) -> OperatorMatrix:
    """Collocation matrix for the wave profile of p on an N-point grid."""
    if N < 128:
        raise ValueError(f"N must be >= 128 (got {N})")
    return assemble_operator(kind, p.L, p.c, _grid(p, N)[0])


def _eigh(A: np.ndarray):
    """(eigenvalues, eigenvectors) of a symmetric operator matrix: its one decomposition."""
    try:
        return np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigensolveError(str(exc)) from exc


def _morse_counts(lam: np.ndarray, c: float):
    zero_tol = 1e-6 * max(1.0, abs(c))
    return int(np.sum(lam < -zero_tol)), int(np.sum(np.abs(lam) <= zero_tol))


def _kernel_overlap(lam: np.ndarray, vec: np.ndarray, reference: np.ndarray) -> float:
    v = vec[:, int(np.argmin(np.abs(lam)))]
    r = np.asarray(reference, dtype=float)
    return float(abs(v @ r) / (np.linalg.norm(v) * np.linalg.norm(r)))


def morse_index(m: OperatorMatrix):
    """(n_negative, n_zero) of a symmetric operator matrix.

    The zero tolerance is 1e-6 times the operator's physical scale max(1, |c|):
    the kernel eigenvalue sits at the eigensolver noise floor (eps times the
    spectral radius, <= 1e-8 here) while the smallest genuinely nonzero
    eigenvalues are >= 1e-4 c across the sweep range, so the split is robust.
    (A spectral-radius anchor would grow like N^2 and swallow small physical
    eigenvalues; see NOTES.md.)
    """
    if m.kind not in SYMMETRIC_KINDS:
        raise ValueError(f"morse_index requires a symmetric kind, got {m.kind!r}")
    return _morse_counts(_eigh(m.matrix)[0], m.c)


def kernel_alignment(m: OperatorMatrix, reference: np.ndarray) -> float:
    """|cos angle| between the near-kernel eigenvector and a reference vector."""
    return _kernel_overlap(*_eigh(m.matrix), reference)


# ---------------------------------------------------------------------------
# the oracle for the quadrature pipeline

def pseudo_inverse_apply(m: OperatorMatrix, f: np.ndarray) -> np.ndarray:
    """Solve m x = f on the orthogonal complement of the near-kernel mode.

    The smallest-|eigenvalue| direction is dropped; for even right-hand sides
    this reproduces the even periodic inverse exactly (the kernel is odd).
    """
    lam, vec = _eigh(m.matrix)
    inv = 1.0 / lam
    inv[int(np.argmin(np.abs(lam)))] = 0.0
    return vec @ (inv * (vec.T @ np.asarray(f, dtype=float)))


def dmatrix_via_collocation(p: WaveParams, N: int = 512) -> np.ndarray:
    """Independent D matrix: solve H e_i = rhs_i off-kernel and pair on the grid.

    The three solves are one LU solve of the bordered system
    [[H, k], [k^T, 0]] with k the normalised analytic kernel (psi', phi');
    for the even right-hand sides (the kernel is odd) its solution is the
    k-orthogonal inverse. Uses only the collocation H and trapezoid
    quadrature; shares nothing with the quadrature pipeline except the wave
    profile itself.
    """
    psi, dpsi = _grid(p, N)
    phi = psi * psi / (2.0 * p.c)  # as eval_profile forms it
    H = assemble_operator("Hcal", p.L, p.c, psi).matrix
    k = np.concatenate([dpsi, psi * dpsi / p.c])[:, None]
    k /= np.linalg.norm(k)
    one, zero = np.ones(N), np.zeros(N)
    rhs = np.stack([np.concatenate([one, zero]),
                    np.concatenate([zero, one]),
                    np.concatenate([psi, phi])], axis=1)
    bordered = np.block([[H, k], [k.T, np.zeros((1, 1))]])
    sols = np.linalg.solve(bordered, np.vstack([rhs, np.zeros((1, 3))]))[:-1]
    D = (p.L / N) * (rhs.T @ sols)
    return 0.5 * (D + D.T)


# ---------------------------------------------------------------------------
# full spectrum of dHcal

@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Eigenvalue lists and index counts for the linearized evolution generator.

    classes, krein and partner_gaps are aligned with eigenvalues: each
    eigenvalue's class ("real", "imaginary" or "quadruplet"), its Krein sign
    (+-1 on the upper member Im > RE_TOL of an imaginary pair, 0 on every
    other eigenvalue) and its distance to the nearest -lambda partner.
    """

    params: WaveParams
    N: int
    eigenvalues: np.ndarray          # nonzero spectrum, zero cluster excluded
    classes: np.ndarray
    krein: np.ndarray
    zero_cluster: np.ndarray         # the 4 (odd N) or 6 (even N) smallest-|.| eigenvalues
    n_Lplus: tuple
    n_H: tuple
    kernel_overlap_Lplus: float
    kernel_overlap_H: float
    k_r: int
    k_c: int
    krein_negative: int
    lambda_max_real: float
    symmetry_residual: float         # max of partner_gaps
    partner_gaps: np.ndarray         # min_j |lambda_j + lambda_i| / max(1, |lambda_i|) per eigenvalue

    def count_identity_lhs(self) -> int:
        return self.k_r + 2 * self.k_c + 2 * self.krein_negative

    def n_H_minus_nD(self, n_D: int) -> int:
        return self.n_H[0] - n_D


def _classify(eigs: np.ndarray) -> np.ndarray:
    """The class of each eigenvalue: "real", "imaginary" or "quadruplet"."""
    tol = CLASS_TOL * np.maximum(1.0, np.abs(eigs))
    return np.where(np.abs(eigs.imag) <= tol, "real",
                    np.where(np.abs(eigs.real) <= tol, "imaginary", "quadruplet"))


def _nonzero_spectrum(dH: np.ndarray):
    """eig of dHcal with its zero cluster split off.

    The cluster is the 4-dimensional generalized kernel (e1, e2, the kernel
    pair (psi', phi') and the e3 chain), plus, at even N, the Nyquist mode
    (-1)^j of each component, which D1 annihilates. Returns (eigvals, eigvecs,
    keep, cluster): keep indexes the eigenvalues outside the cluster, in order
    of |lambda|, so eigvecs[:, keep[i]] belongs to eigvals[keep[i]]. Raises
    EigensolveError when LAPACK fails or the cluster is not separated from the
    spectrum by a factor 10.
    """
    try:
        eigvals, eigvecs = np.linalg.eig(dH)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigensolveError(str(exc)) from exc
    size = 4 if (dH.shape[0] // 2) % 2 else 6
    order = np.argsort(np.abs(eigvals))
    cluster, keep = eigvals[order[:size]], order[size:]
    cluster_top = float(np.max(np.abs(cluster)))
    first = float(np.min(np.abs(eigvals[keep])))
    if cluster_top > 0.1 * first:
        raise EigensolveError(
            f"zero cluster (|.|<= {cluster_top:.2e}) not separated from the "
            f"spectrum (next |.| = {first:.2e})"
        )
    return eigvals, eigvecs, keep, cluster


def _krein_signs(H: np.ndarray, eigvecs: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """sign Re(v* H v) for the eigenvector columns cols, _CHUNK columns at a time.

    For v = u1 + i u2 this is the trace u1.H u1 + u2.H u2 of the 2x2 form of H
    on span(u1, u2), the sum of its two eigenvalues.
    """
    signs = np.empty(cols.size, dtype=int)
    for s in range(0, cols.size, _CHUNK):
        V = eigvecs[:, cols[s:s + _CHUNK]]
        form = (np.einsum("ij,ij->j", V.real, H @ V.real)
                + np.einsum("ij,ij->j", V.imag, H @ V.imag))
        signs[s:s + _CHUNK] = np.sign(form)
    return signs


def _partner_gaps(eigs: np.ndarray) -> np.ndarray:
    """min_j |lambda_j + lambda_i| / max(1, |lambda_i|) for each lambda_i, _CHUNK rows at a time.

    The Hamiltonian quadruplet symmetry gives every eigenvalue a -lambda partner.
    """
    gaps = np.empty(eigs.size)
    for s in range(0, eigs.size, _CHUNK):
        lam = eigs[s:s + _CHUNK]
        # hypot rounds as the scalar abs(lambda) does; np.abs of a complex array
        # can differ in the last bit, which would move the CSV column
        gaps[s:s + _CHUNK] = (np.min(np.abs(eigs + lam[:, None]), axis=1)
                              / np.maximum(1.0, np.hypot(lam.real, lam.imag)))
    return gaps


def unstable_modes(p: WaveParams, N: int = 256) -> SpectrumReport:
    """Full eigensolve of dHcal with symmetry classification and Krein signs.

    The zero cluster (see _nonzero_spectrum) is excluded from the counts; its
    Jordan-splitting noise would otherwise contaminate k_r. A separation
    factor between the cluster and the first genuine mode is asserted.
    """
    psi, dpsi = _grid(p, N)
    D1, D2 = _fourier_diff_matrices(N, p.L)
    H = _operator("Hcal", D1, D2, p.c, psi)
    eigvals, eigvecs, keep, cluster = _nonzero_spectrum(_operator("dHcal", D1, D2, p.c, psi))
    eigs = eigvals[keep]

    classes = _classify(eigs)
    real_mask = classes == "real"
    k_r = int(np.sum(real_mask & (eigs.real > RE_TOL)))
    k_c = int(np.sum((classes == "quadruplet") & (eigs.real > RE_TOL) & (eigs.imag > RE_TOL)))

    # Krein signature of each purely imaginary pair with Im > 0
    pairs = np.where((classes == "imaginary") & (eigs.imag > RE_TOL))[0]
    krein = np.zeros(eigs.size, dtype=int)
    krein[pairs] = _krein_signs(H, eigvecs, keep[pairs])
    del eigvecs  # 2N x 2N complex: free it before the two eigh calls
    gaps = _partner_gaps(eigs)

    Lp = _operator("Lplus", D1, D2, p.c, psi)
    lam_lp, vec_lp = _eigh(Lp)
    lam_h, vec_h = _eigh(H)
    reals = eigs.real[real_mask & (eigs.real > RE_TOL)]

    return SpectrumReport(
        params=p, N=N, eigenvalues=eigs, classes=classes, krein=krein, zero_cluster=cluster,
        n_Lplus=_morse_counts(lam_lp, p.c), n_H=_morse_counts(lam_h, p.c),
        kernel_overlap_Lplus=_kernel_overlap(lam_lp, vec_lp, dpsi),
        kernel_overlap_H=_kernel_overlap(lam_h, vec_h, np.concatenate([dpsi, psi * dpsi / p.c])),
        k_r=k_r, k_c=k_c, krein_negative=int(np.sum(krein < 0)),
        lambda_max_real=float(np.max(reals)) if reals.size else 0.0,
        symmetry_residual=float(np.max(gaps)), partner_gaps=gaps)


class NoUnstableModeError(RuntimeError):
    """The discretized spectrum has no eigenvalue with positive real part."""


def _dhcal_spectrum(p: WaveParams, N: int):
    """(eigvals, eigvecs, keep) of dHcal for the wave p; see _nonzero_spectrum."""
    psi, _ = _grid(p, N)
    return _nonzero_spectrum(_operator("dHcal", *_fourier_diff_matrices(N, p.L), p.c, psi))[:3]


def unstable_eigenmode(p: WaveParams, N: int = 256):
    """(lambda, U, V) for the most unstable mode, if one exists.

    Raises NoUnstableModeError when the spectrum (zero cluster excluded) has
    no eigenvalue with real part above RE_TOL -- which is the measured state
    of affairs for this wave family; see NOTES.md.
    """
    eigvals, eigvecs, keep = _dhcal_spectrum(p, N)
    eigs = eigvals[keep]
    idx = int(np.argmax(eigs.real))
    if eigs.real[idx] <= RE_TOL:
        raise NoUnstableModeError(
            f"max Re lambda = {eigs.real[idx]:.3e} <= {RE_TOL}: spectrum is stable"
        )
    lam = eigs[idx]
    v = eigvecs[:, keep[idx]]
    if _classify(eigs)[idx] == "real":
        v = v.real / np.linalg.norm(v.real)
        lam = complex(lam.real, 0.0)
    return lam, v[:N], v[N:]


def imaginary_eigenmode(p: WaveParams, N: int = 256):
    """(mu, U, V) for the smallest purely imaginary pair with Im > 0.

    Used by the simulation cross-check: the seeded deviation oscillates at
    frequency mu in the co-moving frame.
    """
    eigvals, eigvecs, keep = _dhcal_spectrum(p, N)
    eigs = eigvals[keep]
    imag = np.where((_classify(eigs) == "imaginary") & (eigs.imag > 0))[0]
    idx = imag[int(np.argmin(eigs.imag[imag]))]
    v = eigvecs[:, keep[idx]]
    return float(eigs.imag[idx]), v[:N], v[N:]
