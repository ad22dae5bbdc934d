"""Fourier-collocation operators and their spectra.

Dense matrices for L+, the 2x2 block operator H on L-, and the linearized
evolution generator dH = J H with J = diag(d/dxi, d/dxi). The wave is even,
so on the orthonormal grid cosine and sine bases L+ and H each split into an
even and an odd block, and J maps each parity onto the other: d/dxi takes
cos_k to -k sin_k and sin_k to k cos_k. No basis is formed: in cosine (sine)
coordinates multiplication by an even grid function f is a Toeplitz plus
(minus) a Hankel matrix of Re fft(f) over N, strided views, the cosines'
constant and Nyquist rows and columns scaled by sqrt(1/2), so one FFT of psi
and one of psi^2 assemble every block of a grid in O(N^2). Each L+ block is
diag(k^2 + c) - (3 / 2c) M2, M2 the block of psi^2. One decomposition per L+
block serves L+ and H: multiplication by the even psi keeps parity, so on
each block M1 M1 = M2, the Schur complement of c I in
H = [[Lm, -M1], [-M1, c I]] is L+, Haynsworth's inertia additivity gives
n(H) = n(L+) for c > 0, and H's kernel is the lift (u, M1 u / c) of L+'s
kernel u.

The certificate of `unstable_modes` is the finite-dimensional form of
n(H) - n(D) = 0 (Kapitula & Promislow 2013, ch. 7). On range(J), the modes
0 < k < N/2, K = J^-1 is explicit. An eigenvector of a nonzero eigenvalue
lies in range(J) and is orthogonal to K e1 and K e2, where e1 = (psi', phi')
spans the kernel of H and H e2 = K e1. So H is written once, on range(J) alone,
into one array of both parities, cut from those blocks: range(J) leaves out
the two scaled cosines. K e1 is even and K e2 odd; e2 solves the even block
through the Schur complement of c I, one solve of size m = (N - 1) // 2 with
Lm - M1 M1 / c (M1 of range(J) alone, whose square is not M2). One
Householder reflector per parity, applied as one symmetric rank-two update,
gives the constrained Hessian Hc = Q^T H Q, Q the reflector's columns but
the first. If Hc has a Cholesky factor Hc = R^T R, then every nonzero
eigenvalue of dH is imaginary, +-i omega, with Krein sign +1: the
eigenvalues are those of the skew matrix R Kc^-1 R^T, with Kc = Q^T K Q. The
parities make it block off-diagonal, so the omega are the singular values of
one block, X = R_e (Q_e^T K_EO Q_o)^-T R_o^T, whose middle factor has a
diagonal-plus-rank-two inverse. The two Cholesky factors, X and its SVD are
the only O(N^3) work besides the solve for e2. If Hc has no Cholesky factor,
IndefiniteHessianError names the inertia of the failing block; no other
symmetric eigensolve runs at N. The certificate rests on e1 being the kernel
of the collocation H; KernelResidualError says when it is not, for a profile
that does not solve its equation or a grid too coarse.

The margin lambda_min(Hc) says by how much the certificate holds; no
threshold on Re lambda enters. It, n(L+) = n(H) and the kernel overlaps
are properties of the wave, fixed once the grid resolves psi, so they come
from the same blocks on a core grid sized by the wave, not by N: with m*
the mode where the quadrature sampler chops psi's Fourier series at period
1 (the dn^2 / B row of index_engine._quarter_period_record, keyed by kappa),
at least 2, it has min(N, 4 m* + 1) points, and the D oracle runs on it too
(NOTES.md, point 5 of the stability finding, has the sizes). A non-positive
lambda_min on the core raises IndefiniteHessianError too: it is never
reported as a margin. A LAPACK failure is an EigensolveError.

`assemble` returns the full collocation matrix of L+, H or dH, for the
oracles of the tests and `unstable_eigenmode`; the eigh oracles refuse a
matrix that is not exactly symmetric. The dense `eig` of dH remains only
there: its zero cluster has 4 members at odd N and 6 at even N, and the
certified spectrum has as many eigenvalues as it leaves, 2N - 4 or 2N - 6.

Only unstable_modes, dmatrix_via_collocation, their sampler _grid and the
oracles `assemble` and unstable_eigenmode read WaveParams. The two entries
move the wave to period 1, sample (psi, psi') there and scale their results
once (NOTES.md, the scaling symmetry); below them every function reads the
samples and c alone. The oracles compute at the given period. Both entries
and unstable_eigenmode run on one OpenBLAS thread and give the caller's
count back, so their results do not depend on the thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .index_engine import _PSI_ROW, D_ERROR_BOUND, _at_period, _quarter_period_record
from .waves import RefusalError, WaveParams, _rescaled, eval_profile_derivatives, grid_points

__all__ = [
    "SpectrumReport",
    "EigensolveError",
    "IndefiniteHessianError",
    "KernelResidualError",
    "assemble",
    "morse_index",
    "kernel_alignment",
    "unstable_modes",
    "unstable_eigenmode",
    "pseudo_inverse_apply",
    "dmatrix_via_collocation",
]

# In the dense eigensolve of unstable_eigenmode, an eigenvalue is unstable
# when its real part exceeds RE_TOL and the eig's rounding, EIG_ROUNDING eps
# max|lambda|: lambda scales as L^-3, and the rounding on Re lambda of an
# imaginary spectrum measures 0.3-2.0 eps max|lambda| for kappa in
# [0.0015, 0.99], L in [1e-6, 1e6], N in 64..512. It is real when its
# imaginary part is at most CLASS_TOL |lambda| or that rounding.
RE_TOL = 1e-6
CLASS_TOL = 1e-7
EIG_ROUNDING = 16

# |H (psi', phi')| / (c |(psi', phi')|) above which the certificate has no
# premise. Waves from params_from_kappa give 3e-14 to 4e-12 at N = 128..384
# for kappa in [1e-3, 0.999] (1e-10 at N = 2048: rounding grows like N^2);
# grids that do not resolve the wave give 3e-8 (kappa = 0.99, N = 64) and more.
KERNEL_RESIDUAL_BOUND = 1e-8

# The core grid (module docstring) has CORE_FACTOR m* + 1 points: the products
# psi^2 in H reach mode 2 m*, and the factor 4 keeps them clear of aliasing.
# m* counts as at least CHOP_MIN, since below kappa ~ 3e-4 psi chops at mode 1
# and a wave constant to rounding at mode 0. NOTES.md, point 5 of the
# stability finding, measures both choices.
CORE_FACTOR = 4
CHOP_MIN = 2


class EigensolveError(RefusalError):
    """A dense factorization failed, or its result fails a structural check."""


class IndefiniteHessianError(EigensolveError):
    """The constrained Hessian of one parity block has no Cholesky factor.

    Without the factor nothing certifies that the spectrum is imaginary.
    inertia is (n_negative, n_zero, n_positive) of that block, with zeros
    counted as morse_index counts them.
    """

    def __init__(self, block: str, inertia: tuple):
        super().__init__(f"the constrained Hessian of the {block} block has no Cholesky "
                         f"factor: inertia (n-, n0, n+) = {inertia}")
        self.block = block
        self.inertia = inertia


class KernelResidualError(EigensolveError):
    """(psi', phi') is not the kernel of the collocation H, so nothing is certified.

    residual is |H (psi', phi')| / (c |(psi', phi')|), above KERNEL_RESIDUAL_BOUND.
    """

    def __init__(self, residual: float):
        super().__init__(f"(psi', phi') is not the kernel of H: kernel residual "
                         f"{residual:.3e} > {KERNEL_RESIDUAL_BOUND:.0e}")
        self.residual = residual


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
    """Collocation matrix of L+ ("Lplus"), H ("Hcal") or dH ("dHcal") from the derivative
    matrices; L+ and H come out exactly symmetric. Any other kind is a ValueError."""
    if kind == "Lplus":
        return _schrodinger(D2, c, 1.5 * psi**2 / c)
    if kind not in ("Hcal", "dHcal"):
        raise ValueError(f"unknown operator kind {kind!r}")
    Lm = _schrodinger(D2, c, 0.5 * psi**2 / c)
    if kind == "Hcal":
        return np.block([[Lm, -np.diag(psi)], [-np.diag(psi), c * np.eye(psi.size)]])
    # dHcal = diag(D1, D1) @ Hcal, formed block by block
    off = -D1 * psi
    return np.block([[D1 @ Lm, off], [off, c * D1]])


def _grid(p: WaveParams, N: int):
    """(psi, psi') of the wave p on the N-point grid; N < 3 leaves range(J) empty: ValueError."""
    if N < 3:
        raise ValueError(f"N must be >= 3 (got {N})")
    psi, dpsi, _ = eval_profile_derivatives(p, grid_points(p.L, N))
    return psi, dpsi


def assemble(kind: str, p: WaveParams, N: int) -> np.ndarray:
    """Collocation matrix of one operator kind (_operator) for the wave p on an N-point grid."""
    return _operator(kind, *_fourier_diff_matrices(N, p.L), p.c, _grid(p, N)[0])


def _lapack(routine, *args, **kwargs):
    """routine(*args, **kwargs), a numpy.linalg call; a LAPACK failure is an EigensolveError.

    LinAlgError is a ValueError, which the command line reports as an input error.
    """
    try:
        return routine(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise EigensolveError(str(exc)) from exc


class _OneBlasThread(contextlib.ContextDecorator):
    """Context manager and decorator: one OpenBLAS thread while any pinned call runs, in
    any Python thread; the count from before the first is put back when the last leaves.

    OpenBLAS's thread count is process-wide, so BLAS calls of other threads run
    on one thread meanwhile. One thread fixes the bytes of every result (two
    threads move the last digits of the omega and of the dense eig) and is the
    faster below N ~ 512 on two cores; NOTES.md, point 5 of the stability
    finding, has the figures. config is the library's get_config() string.
    """

    def __init__(self, set_threads, get_threads, config: str):
        self.set_threads, self.get_threads, self.config = set_threads, get_threads, config
        self._lock = threading.Lock()
        self._depth, self._saved = 0, None

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = self.get_threads()
                self.set_threads(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                self.set_threads(self._saved)


def _find_openblas():
    """The _OneBlasThread of the OpenBLAS that numpy.linalg calls, or None: found through
    numpy's linalg extension, whose handle searches the libraries it links, so not
    an OpenBLAS that another package loads (scipy's)."""
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            try:
                setter, getter, config = [getattr(lib, f"{prefix}{name}{suffix}") for name in
                                          ("set_num_threads", "get_num_threads", "get_config")]
            except AttributeError:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            config.argtypes, config.restype = [], ctypes.c_char_p
            return _OneBlasThread(setter, getter, config().decode())
    return None


# looked up once, at import, so every thread shares the one pin; where none is
# found, the pinned entries run on whatever threads numpy's BLAS has
_BLAS_PIN = _find_openblas()
_one_blas_thread = _BLAS_PIN or (lambda func: func)


def _eigh(A: np.ndarray):
    """(eigenvalues, eigenvectors) of a symmetric matrix: its one decomposition.

    eigh reads one triangle, so a matrix that is not exactly symmetric is a ValueError.
    """
    if not np.array_equal(A, A.T):
        raise ValueError("eigh requires an exactly symmetric matrix")
    return _lapack(np.linalg.eigh, A)


def _morse_counts(lam: np.ndarray):
    """(n_negative, n_zero) from the eigenvalues of a symmetric matrix of size n.

    A backward-stable symmetric eigensolve leaves each eigenvalue within
    p(n) eps max|lam| of the exact one (LAPACK Users' Guide, sec. 4.7); with
    p(n) = n that is the floor here. An eigenvalue below -floor is negative,
    and the one nearest zero is the kernel when it lies within the floor.
    The kernel of L+ is simple, since theta > 0 across the family (hill),
    and H's is its lift, so any other eigenvalue within the floor is a
    positive one the eigensolve cannot resolve: L+'s second even eigenvalue,
    about 3.2 c kappa^4, sinks there near kappa = 1e-3.
    """
    floor = lam.size * np.finfo(float).eps * float(np.max(np.abs(lam)))
    return int(np.sum(lam < -floor)), int(np.min(np.abs(lam)) <= floor)


def _cosine(v: np.ndarray, r: np.ndarray) -> float:
    return float(abs(v @ r) / (np.linalg.norm(v) * np.linalg.norm(r)))


def morse_index(A: np.ndarray):
    """(n_negative, n_zero) of a symmetric matrix, counted by _morse_counts."""
    return _morse_counts(_eigh(A)[0])


def kernel_alignment(A: np.ndarray, reference: np.ndarray) -> float:
    """|cos angle| between the near-kernel eigenvector of a symmetric matrix and a reference."""
    lam, vec = _eigh(A)
    return _cosine(vec[:, int(np.argmin(np.abs(lam)))], np.asarray(reference, dtype=float))


# ---------------------------------------------------------------------------
# the parity blocks, from the DFT of the profile

def _cosine_coordinates(f: np.ndarray) -> np.ndarray:
    """C^T f along the last axis: w_k Re rfft(f)[k], k = 0..N//2, with w_k = sqrt(2/N) the
    norm that makes the grid cosine cos(2 pi j k / N) orthonormal, but 1/sqrt(N) at the
    constant and, at even N, the Nyquist mode (-1)^j."""
    N = f.shape[-1]
    w = np.full(N // 2 + 1, np.sqrt(2.0 / N))
    w[[0, N // 2][:2 - N % 2]] = 1.0 / np.sqrt(N)
    return w * np.fft.rfft(f).real


def _sine_coordinates(f: np.ndarray) -> np.ndarray:
    """S^T f along the last axis: -sqrt(2/N) Im rfft(f)[k], k = 1..(N-1)//2."""
    N = f.shape[-1]
    return -np.sqrt(2.0 / N) * np.fft.rfft(f).imag[..., 1:(N - 1) // 2 + 1]


def _toeplitz_hankel(F: np.ndarray, size: int):
    """Views (F[|k - l|], F[(k + l) mod N]) of F, k, l = 0 .. size - 1."""
    toeplitz = sliding_window_view(np.concatenate([F[size - 1:0:-1], F[:size]]), size)[::-1]
    return toeplitz, sliding_window_view(np.append(F, F[0])[:2 * size - 1], size)


def _multiplication_blocks(f: np.ndarray):
    """(C^T diag(f) C, S^T diag(f) S) for an even grid function f, from one FFT.

    A product of two grid cosines (sines) is half the sum (difference) of the
    cosines of the difference and the sum of their wavenumbers, so with
    F = Re fft(f) both blocks are (F[|k - l|] +- F[(k + l) mod N]) / N, with
    the cosine block's rows and columns of the constant and, at even N, of the
    Nyquist mode scaled by sqrt(1/2), the ratio of their weights to the others'
    (_cosine_coordinates).
    """
    N = f.size
    toeplitz, hankel = _toeplitz_hankel(np.fft.fft(f).real, N // 2 + 1)
    cosines = (toeplitz + hankel) / N
    edges = [0, N // 2][:2 - N % 2]
    cosines[edges] *= np.sqrt(0.5)
    cosines[:, edges] *= np.sqrt(0.5)
    sines = slice(1, (N - 1) // 2 + 1)
    return cosines, (toeplitz[sines, sines] - hankel[sines, sines]) / N


def _lplus_block(c: float, m2: np.ndarray, k: np.ndarray) -> np.ndarray:
    """L+ on one parity block with wavenumbers k, m2 the block of multiplication by psi^2."""
    return np.diag(k * k + c) - (1.5 / c) * m2


# ---------------------------------------------------------------------------
# the oracle for the quadrature pipeline

def pseudo_inverse_apply(A: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Solve A x = f, A symmetric, on the orthogonal complement of the near-kernel mode.

    The smallest-|eigenvalue| direction is dropped; for even right-hand sides
    this reproduces the even periodic inverse exactly (the kernel is odd).
    """
    lam, vec = _eigh(A)
    inv = 1.0 / lam
    inv[int(np.argmin(np.abs(lam)))] = 0.0
    return vec @ (inv * (vec.T @ np.asarray(f, dtype=float)))


@_one_blas_thread
def dmatrix_via_collocation(p: WaveParams, N: int) -> np.ndarray:
    """Independent D matrix: solve H e_i = rhs_i off-kernel and pair on the core grid.

    It runs on the n points of the core grid (module docstring), which N only
    bounds. The right-hand sides (1, 0), (0, 1) and (psi, phi) are even and
    the kernel (psi', phi') of H is odd, so the off-kernel solutions are those
    of the even block: D_1 = (1/n) R^T H_even^-1 R for the wave moved to
    period 1, with R = (A, B) the cosine coordinates of the right-hand sides,
    and D = S D_1 S at the period of p (index_engine._at_period).
    H_even (x, y) = (A, B) is L+ x = A + M1 B / c with y = (B + M1 x) / c
    (module docstring): one solve of size n//2 + 1. Shares nothing with the
    quadrature pipeline but the wave profile and the size of its grid.
    N < 3 is refused as by the certificate, and an EigensolveError
    names eps cond of L+'s even block, the error its solve may carry, when it
    exceeds D_ERROR_BOUND: below kappa ~ 7e-3, where L+'s second even
    eigenvalue, ~3.2 c kappa^4, nears zero. It reads 1.3e-5 at kappa = 3e-3
    (D off by 2.8e-5) and 2.4e-7 at 1e-2 (5.0e-8).
    """
    p1 = _rescaled(p, 1.0)
    n = _core_size(p.kappa, N)
    psi, _ = _grid(p1, n)
    k = 2 * np.pi * np.arange(n // 2 + 1)
    phi = psi * psi / (2.0 * p1.c)  # as eval_profile forms it
    m1, m2 = _multiplication_blocks(psi)[0], _multiplication_blocks(psi * psi)[0]
    one, c_psi, c_phi = _cosine_coordinates(np.stack([np.ones(n), psi, phi]))
    zero = np.zeros_like(one)
    A = np.stack([one, zero, c_psi], axis=1)   # the u parts of the right-hand sides
    B = np.stack([zero, one, c_phi], axis=1)   # and their v parts
    lplus = _lplus_block(p1.c, m2, k)
    rounding = np.finfo(float).eps * _lapack(np.linalg.cond, lplus)
    if not rounding <= D_ERROR_BOUND:
        raise EigensolveError(f"L+'s even block is too ill-conditioned for the D oracle: "
                              f"eps cond = {rounding:.1e} > {D_ERROR_BOUND:.0e}")
    x = _lapack(np.linalg.solve, lplus, A + (m1 @ B) / p1.c)
    y = (B + m1 @ x) / p1.c
    D = (A.T @ x + B.T @ y) / n
    return _at_period(0.5 * (D + D.T), p.L)


# ---------------------------------------------------------------------------
# the certified spectrum of dHcal

@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """The certified spectrum of the linearized evolution generator, with index counts.

    The certificate makes every eigenvalue +-i omega with Krein sign +1, so
    for every report k_r = k_c = krein_negative = 0 and the quadruplet
    symmetry residual is 0: class constants, not fields. The dense eig of
    the tests measures what they assert.
    """

    N: int
    eigenvalues: np.ndarray          # nonzero spectrum: pairs +i omega, -i omega, omega ascending
    core_N: int                      # the grid of margin, counts and overlaps
    margin: float                    # min lambda_min(Hc) over the even and odd blocks, at core_N
    kernel_residual: float           # |H (psi', phi')| / (c |(psi', phi')|)
    n_Lplus: tuple
    kernel_overlap_Lplus: float
    kernel_overlap_H: float

    k_r = k_c = krein_negative = 0
    symmetry_residual = 0.0
    n_H = property(lambda self: self.n_Lplus)   # n(H) = n(L+): Haynsworth (module docstring)

    def count_identity_lhs(self) -> int:
        return self.k_r + 2 * self.k_c + 2 * self.krein_negative


def _core_size(kappa: float, N: int) -> int:
    """The points of the core grid (module docstring) of the wave of modulus kappa, at most N."""
    chop = _quarter_period_record(kappa)[1][_PSI_ROW].size - 1
    return min(N, CORE_FACTOR * max(chop, CHOP_MIN) + 1)


def _parity_blocks(c: float, psi: np.ndarray, dpsi: np.ndarray):
    """(k, H, kernel, M2) for the profile (psi, psi') of period 1 and speed c on its grid.

    k = 2 pi (1..m), m = (N - 1) // 2, are the modes of range(J) in each
    parity, and H[0] (even) and H[1] (odd) the blocks [[Lm, -M1], [-M1, c I]]
    of H there, ordered (u, v) (module docstring): the even ones cut from the
    full cosine blocks. kernel is (psi', phi') in sine coordinates, and M2 the
    (cosine, sine) blocks of psi^2 on all their modes.
    """
    m = (psi.size - 1) // 2
    k = 2 * np.pi * np.arange(1, m + 1)
    (m1_e, m1_o), M2 = _multiplication_blocks(psi), _multiplication_blocks(psi * psi)
    J = slice(1, m + 1)   # range(J) among the cosines
    H = np.zeros((2, 2 * m, 2 * m))
    for h, m1, m2 in zip(H, (m1_e[J, J], m1_o), (M2[0][J, J], M2[1])):
        h[:m, :m] = np.diag(k * k + c) - (0.5 / c) * m2
        h[m:, :m] = h[:m, m:] = -m1
        np.fill_diagonal(h[m:, m:], c)
    kernel = _sine_coordinates(np.stack([dpsi, psi * dpsi / c])).ravel()
    return k, H, kernel, M2


def _reflected(A: np.ndarray, g: np.ndarray) -> np.ndarray:
    """P A P less its first row and column, P = I - 2 g g^T, for each symmetric A[i] and
    g[i]: the rank-two update A - g w^T - w g^T with w = 2 A g - 2 (g^T A g) g."""
    Ag = np.matmul(A, g[..., None])[..., 0]
    w = 2.0 * (Ag - np.sum(g * Ag, axis=-1, keepdims=True) * g)
    B = np.matmul(np.stack([g, w], axis=-1), np.stack([w, g], axis=-2))
    return np.subtract(A, B, out=B)[:, 1:, 1:]


def _even_solve(A: np.ndarray, b: np.ndarray, c: float) -> np.ndarray:
    """A^-1 b for A = [[Lm, -M1], [-M1, c I]] through the Schur complement of c I:
    (Lm - M1 M1 / c) x = b_u + M1 b_v / c and y = (b_v + M1 x) / c."""
    m = b.size // 2
    V = A[m:, :m]   # -M1
    x = _lapack(np.linalg.solve, A[:m, :m] - (V @ V) / c, b[:m] - (V @ b[m:]) / c)
    return np.concatenate([x, (b[m:] - V @ x) / c])


def _inertia(lam: np.ndarray) -> tuple:
    """(n_negative, n_zero, n_positive) from the eigenvalues of a symmetric matrix."""
    neg, zero = _morse_counts(lam)
    return neg, zero, lam.size - neg - zero


def _factor(Hc: np.ndarray, block: str) -> np.ndarray:
    """L with Hc = L L^T; IndefiniteHessianError, with Hc's inertia, when L does not exist."""
    try:
        return np.linalg.cholesky(Hc)
    except np.linalg.LinAlgError:
        raise IndefiniteHessianError(block, _inertia(_lapack(np.linalg.eigvalsh, Hc))) from None


def _kc_inverse_t(K: np.ndarray, g_e: np.ndarray, g_o: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kc^-T B for Kc = (P_e diag(K) P_o)[1:, 1:], P = I - 2 g g^T, without a factorization.

    Kc^T is the trailing block of P_o diag(K) P_e, whose inverse is
    W = P_e diag(d) P_o = diag(d) + U V^T, d = 1/K, U = (g_e, d g_o) and
    V = (4 (g_e^T d g_o) g_o - 2 d g_e, -2 g_o). Bordering gives
    Kc^-T = W[1:, 1:] - W[1:, 0] W[0, 1:] / W[0, 0] with W[1:, 0] = U[1:] V[0]^T:
    diag(d[1:]) + U[1:] C V[1:]^T, C = I - V[0]^T U[0] / W[0, 0].
    """
    d = 1.0 / K
    U = np.stack([g_e, d * g_o], axis=1)
    V = np.stack([4.0 * (g_e @ (d * g_o)) * g_o - 2.0 * d * g_e, -2.0 * g_o], axis=1)
    C = np.eye(2) - np.outer(V[0], U[0]) / (d[0] + U[0] @ V[0])
    return d[1:, None] * B + U[1:] @ (C @ (V[1:].T @ B))


def _constrained_hessians(H: np.ndarray, kernel: np.ndarray, k: np.ndarray, c: float):
    """(Hc, g, K_eo): the constrained Hessians Hc[0] (even) and Hc[1] (odd) on range(J).

    H, kernel and k are those of _parity_blocks. The complements of the
    Householder reflectors g[0] and g[1] are Q_e and Q_o, and K_eo is the
    diagonal of K = J^-1 from the odd to the even coordinates. The even
    block is nonsingular, since the kernel of H is odd.
    """
    K_eo = -1.0 / np.concatenate([k, k])   # K takes sin_k to -cos_k / k and cos_k to sin_k / k
    Ke1 = K_eo * kernel
    a = np.stack([Ke1, -K_eo * _even_solve(H[0], Ke1, c)])   # K e1 and K e2
    g = a.copy()   # unit, with (I - 2 g g^T) a on the first axis
    g[:, 0] += np.copysign(np.linalg.norm(a, axis=1), a[:, 0])
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return _reflected(H, g), g, K_eo


def _certify(hessians, g, K_eo, H_odd: np.ndarray, kernel: np.ndarray, c: float):
    """(X, kernel_residual): the certificate on range(J).

    hessians, g and K_eo are those of _constrained_hessians, and
    X = L_e^T Kc^-T L_o with L_e, L_o the lower Cholesky factors of Hc on
    each parity, so R = L^T. Raises IndefiniteHessianError when a factor
    does not exist and then KernelResidualError when the premise,
    H kernel = 0, fails.
    """
    L_e, L_o = _factor(hessians[0], "even"), _factor(hessians[1], "odd")
    residual = float(np.linalg.norm(H_odd @ kernel) / (c * np.linalg.norm(kernel)))
    if residual > KERNEL_RESIDUAL_BOUND:
        raise KernelResidualError(residual)
    X = L_e.T @ _kc_inverse_t(K_eo, *g, L_o)   # Kc = Q_e^T K_EO Q_o
    return X, residual


def _core_figures(hessians, H_odd: np.ndarray, kernel: np.ndarray, M2, c: float):
    """(margin, n(L+), kernel overlaps of L+ and H) from the blocks of the core grid.

    The margin is min lambda_min(Hc) over both parities; a block whose
    lambda_min is not positive raises IndefiniteHessianError with its inertia.
    One eigendecomposition per L+ block, formed from the blocks M2 of psi^2,
    gives the counts and kernel alignments of both L+ and H (module
    docstring). H_odd, kernel and M2 are those of _parity_blocks.
    """
    m = kernel.size // 2
    lam_hc = [_lapack(np.linalg.eigvalsh, Hc) for Hc in hessians]
    for block, lam in zip(("even", "odd"), lam_hc):
        if lam[0] <= 0.0:
            raise IndefiniteHessianError(block, _inertia(lam))
    k = 2 * np.pi * np.arange(M2[0].shape[0])
    lam_even = _lapack(np.linalg.eigvalsh, _lplus_block(c, M2[0], k))
    lam_odd, vec_odd = _lapack(np.linalg.eigh, _lplus_block(c, M2[1], k[1:m + 1]))
    overlaps = (0.0, 0.0)   # an even near-kernel vector is orthogonal to the odd kernel
    if np.min(np.abs(lam_odd)) <= np.min(np.abs(lam_even)):
        u = vec_odd[:, int(np.argmin(np.abs(lam_odd)))]
        # the odd block H = [[Lm, -M1], [-M1, c I]] maps the lift (u, M1 u / c) to (L+ u, 0)
        lift = np.concatenate([u, -H_odd[m:, :m] @ u / c])
        # kernel[:m] is psi' in sine coordinates, the kernel of L+
        overlaps = (_cosine(u, kernel[:m]), _cosine(lift, kernel))
    margin = min(float(lam[0]) for lam in lam_hc)
    return margin, _morse_counts(np.concatenate([lam_even, lam_odd])), overlaps


@_one_blas_thread
def unstable_modes(p: WaveParams, N: int) -> SpectrumReport:
    """The certified spectrum of dHcal, with the Morse counts and kernel alignments of L+ and H.

    At N: the spectrum, +-i omega with omega the singular values of X, less
    the zero cluster of the dense eigensolve, and its certificate, the
    Cholesky factors of both constrained Hessians and the kernel residual
    (module docstring). On the core grid of core_N points, N itself when
    psi does not chop sooner: the margin, n(L+) = n(H) and both kernel
    alignments, which the wave fixes once psi is resolved. Raises
    IndefiniteHessianError when a constrained Hessian has no Cholesky factor
    at N or a non-positive lambda_min at the core, and KernelResidualError
    when (psi', phi') is not the kernel of H at N: no spectrum is reported
    without its certificate. All is computed on p moved to period 1; at L the
    omega scale as L^-3 and the margin as L^-2, and the rest is that of period 1.
    """
    p1 = _rescaled(p, 1.0)
    psi, dpsi = _grid(p1, N)
    core_N = _core_size(p.kappa, N)
    k, H, kernel, M2 = _parity_blocks(p1.c, psi, dpsi)
    hessians, g, K_eo = _constrained_hessians(H, kernel, k, p1.c)
    X, residual = _certify(hessians, g, K_eo, H[1], kernel, p1.c)
    omega = _lapack(np.linalg.svd, X, compute_uv=False)[::-1]
    if core_N < N:
        k, H, kernel, M2 = _parity_blocks(p1.c, *_grid(p1, core_N))
        hessians = _constrained_hessians(H, kernel, k, p1.c)[0]
    margin, n_Lplus, overlaps = _core_figures(hessians, H[1], kernel, M2, p1.c)
    eigs = np.zeros(2 * omega.size, dtype=complex)
    eigs.imag[0::2], eigs.imag[1::2] = omega / p.L**3, -omega / p.L**3
    return SpectrumReport(
        N=N, eigenvalues=eigs, core_N=core_N, margin=margin / p.L**2,
        kernel_residual=residual, n_Lplus=n_Lplus,
        kernel_overlap_Lplus=overlaps[0], kernel_overlap_H=overlaps[1])


# ---------------------------------------------------------------------------
# the dense eigensolve of dHcal: unstable_eigenmode and the tests' oracle

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
    eigvals, eigvecs = _lapack(np.linalg.eig, dH)
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


class NoUnstableModeError(RefusalError):
    """The discretized spectrum has no eigenvalue with positive real part."""


@_one_blas_thread
def unstable_eigenmode(p: WaveParams, N: int):
    """(lambda, U, V) for the most unstable mode, if one exists.

    Raises NoUnstableModeError when the spectrum (zero cluster excluded) has
    no eigenvalue with real part above max(RE_TOL, EIG_ROUNDING eps max|lambda|)
    -- which is the measured state of affairs for this wave family at every
    period; see NOTES.md.
    """
    eigvals, eigvecs, keep, _ = _nonzero_spectrum(assemble("dHcal", p, N))
    rounding = EIG_ROUNDING * np.finfo(float).eps * float(np.max(np.abs(eigvals)))
    tol = max(RE_TOL, rounding)
    eigs = eigvals[keep]
    idx = int(np.argmax(eigs.real))
    if eigs.real[idx] <= tol:
        raise NoUnstableModeError(
            f"max Re lambda = {eigs.real[idx]:.3e} <= {tol:.3g}: spectrum is stable"
        )
    lam = eigs[idx]
    v = eigvecs[:, keep[idx]]
    if abs(lam.imag) <= max(CLASS_TOL * abs(lam), rounding):   # a real eigenvalue
        v = v.real / np.linalg.norm(v.real)
        lam = complex(lam.real, 0.0)
    return lam, v[:N], v[N:]
