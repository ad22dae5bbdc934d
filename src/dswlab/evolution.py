"""Pseudospectral time integration of the coupled system

    u_t + (u v)_x + u_xxx = 0,    v_t + u u_x = 0

in the lab frame or a frame moving at constant speed. The quadratic terms are
evaluated pseudospectrally and always dealiased by the 2/3 rule, a Galerkin
truncation that conserves l2 exactly. So the stepper's state is one (2, M)
array of the rfft coefficients of (u, v) on the M = ceil(N/3) modes 3k < N,
the band; an even N's Nyquist mode lies outside it. One inverse and one
forward real transform per stage serve both fields: below N = _DENSE_BELOW
they are products with a precomputed real DFT pair, since at such N a
numpy.fft call costs more in overhead than its arithmetic; from there on they
are numpy.fft's irfft, which zero-pads the band, and rfft cut to the band.
Time stepping is exponential time differencing RK4 (Cox & Matthews, JCP 2002):
the linear symbols i(k^3 + s k) for u and i s k for v enter exactly through
e^z, e^{z/2} and the phi-function weights of z = i dt omega, which are means
over 32 points w on a unit circle around each z (Kassam & Trefethen, SISC
2005), free of the cancellation of their closed forms at small |z|, and
polynomials in 1/w, so no power of w overflows at large |z|. The nonlinear
symbol is folded into those weights, and each stage is formed in place.

Each sample logs the four invariants from its band alone (conserved_of_state):
the masses are mode 0, which the scheme never moves, so they stay exactly
constant; int u_x^2 and l2 come by Parseval; int u^2 v is the trapezoid sum of
the sample's grid fields, exact for band data, as u^2 v has degree at most
N - 1 and so aliases nothing onto the mean. The same grid fields start the
next step.

ETD keeps equilibria, so the co-moving traveling wave is a fixed point of the
scheme up to rounding, which the step-size resonance of NOTES.md amplifies:
at N = 128, dt = 1e-3 the wave (2, 0.3) blows up near t = 12.5. In the lab
frame it is accurate to ~1e-7 at dt = 1e-3 over T = 0.5. The measured step
envelope and the cost of a step on both transform paths are in NOTES.md. A
run blows up when max|X| passes BLOWUP_LIMIT times its start, a bound that
reads the same at every scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .waves import GridFunction, RefusalError, WaveParams, profile_grid

__all__ = [
    "SimState",
    "Trajectory",
    "BlowUpError",
    "WindowTooShortError",
    "state_fields",
    "preprocess",
    "undo_preprocess",
    "simulate",
    "growth_rate_experiment",
    "conserved_of_state",
]

# max|X| / max|X(0)| above which a run has blown up: the semi-discrete l2 is conserved
BLOWUP_LIMIT = 1e12


class BlowUpError(RefusalError):
    """max|X| passed BLOWUP_LIMIT times its start; carries the last time that passed the check."""

    def __init__(self, message: str, t_last: float, trajectory):
        super().__init__(message)
        self.t_last = t_last
        self.trajectory = trajectory


class WindowTooShortError(RefusalError):
    """The deviation left the linear regime before the fit window closed."""


@dataclass(frozen=True, eq=False)
class SimState:
    """Spectral state at time t: X holds the rfft coefficients of (u, v) on the band,
    shape (2, ceil(N/3)), the stepper's own state; every mode past the band is zero.
    """

    t: float
    X: np.ndarray
    N: int
    L: float

    def _full(self, row: int) -> np.ndarray:
        h = self.X[row]
        return np.concatenate([h, np.zeros(self.N - 2 * h.size + 1), np.conj(h[:0:-1])])

    @property
    def u_hat(self) -> np.ndarray:
        """Full-length FFT coefficients of u: X, zeros, and X's mirror by Hermitian symmetry."""
        return self._full(0)

    @property
    def v_hat(self) -> np.ndarray:
        """Full-length FFT coefficients of v: X, zeros, and X's mirror by Hermitian symmetry."""
        return self._full(1)


def _band(N: int) -> int:
    """Number M = ceil(N/3) of the modes 3k < N kept by the 2/3 rule; strict, as
    at N divisible by 3 the product mode 2N/3 aliases to -N/3."""
    return (N + 2) // 3


def state_fields(s: SimState):
    """Physical-space (u, v) as GridFunctions."""
    u, v = np.fft.irfft(s.X, s.N)
    return GridFunction(s.L, u), GridFunction(s.L, v)


# ---------------------------------------------------------------------------
# mean-zero preconditioning of v

def preprocess(u0: GridFunction, v0: GridFunction):
    """(u0, v0 - g0, g0): remove the mean g0 of v0; evolution then runs with mean-zero v.

    The removed mean g0 turns into the spatial shift x -> x + g0 t that
    undo_preprocess applies when mapping states back to the lab frame. In the
    shifted frame the u equation keeps its lab form while v is transported at
    speed g0, so the downstream evolution is
    simulate(u0', v0', ..., frame_speed=0.0, frame_speed_v=g0).
    """
    if u0.N != v0.N or u0.L != v0.L:
        raise ValueError("u0 and v0 must share the same grid")
    g0 = float(np.mean(v0.samples))
    return u0, GridFunction(v0.L, v0.samples - g0), g0


def undo_preprocess(g0: float, u: GridFunction, v: GridFunction, t: float):
    """Map a preprocessed state at time t, of removed mean g0, back to a lab-frame solution."""
    k = 2.0 * np.pi * np.fft.rfftfreq(u.N, d=u.L / u.N)
    shifted = np.fft.rfft(np.stack([u.samples, v.samples])) * np.exp(-1j * k * (g0 * t))
    u_lab, v_lab = np.fft.irfft(shifted, u.N)
    return GridFunction(u.L, u_lab), GridFunction(v.L, v_lab + g0)


# ---------------------------------------------------------------------------
# the ETDRK4 stepper

_CHECK_EVERY = 8  # steps between blow-up checks; every sample is checked too
_DENSE_BELOW = 256  # N below which a step's transforms are the dense pair (NOTES.md)


def _etd_coefficients(z: np.ndarray, h: float):
    """ETDRK4 weights of z = h * symbol: e^z, e^{z/2} and (Q, f1, f2, f3) = h * phi-type
    functions, means over 32 points w = z + r on the unit circle around z; (h/2, h/6, h/6, h/6)
    at 0. Each is a polynomial in 1/w: no power of w is formed, so no |z| overflows."""
    E, E2 = np.exp(z), np.exp(z / 2.0)
    sums = np.zeros((4,) + z.shape, dtype=complex)
    for r in np.exp(1j * np.pi * np.arange(1, 64, 2) / 32):
        iw = 1.0 / (z + r)
        ew, iw2 = E * np.exp(r), iw * iw
        iw3 = iw2 * iw
        sums += ((E2 * np.exp(r / 2.0) - 1.0) * iw,
                 -4.0 * iw3 - iw2 + ew * (4.0 * iw3 - 3.0 * iw2 + iw),
                 2.0 * iw3 + iw2 + ew * (iw2 - 2.0 * iw3),
                 -4.0 * iw3 - 3.0 * iw2 - iw + ew * (4.0 * iw3 - iw2))
    return (E, E2, *(h / 32.0 * sums))


def _dft_pair(N: int, M: int):
    """Real DFT matrices of the band: X.view(float) @ inv is irfft(X, N) for X of shape
    (2, M), and (p @ fwd).view(complex) is rfft(p)[:, :M] for p of shape (2, N).

    Rows and columns alternate (cos, -sin) of the angles 2 pi (k j mod N) / N, reduced
    exactly in integers; inv carries irfft's 1/N and the factor 2 of each mode k > 0,
    whose conjugate -k it stands for (the band never holds the Nyquist mode).
    """
    angle = (2.0 * np.pi / N) * (np.outer(np.arange(M), np.arange(N)) % N)
    pair = np.empty((2 * M, N))
    pair[0::2], pair[1::2] = np.cos(angle), -np.sin(angle)
    weight = np.repeat(np.where(np.arange(M) > 0, 2.0, 1.0) / N, 2)
    return weight[:, None] * pair, np.ascontiguousarray(pair.T)


class _Stepper:
    """ETDRK4 weights for fixed (N, L, dt, frame speeds) on the band of M = _band(N) modes.

    The state and the weights hold only the band. The nonlinear symbol g is folded into
    the four stage weights Q, f1, f2, f3, so a stage's transforms feed them directly.
    Below N = _DENSE_BELOW, inv and fwd are the dense real DFT pair of the band; from
    there on they are None and the transforms are numpy.fft's.

    v may ride in its own frame: the mean-zero preconditioning transports v at
    g0 while u keeps its lab form, and the extra g0 dv/dx joins v's symbol.
    """

    def __init__(self, N: int, L: float, dt: float, frame_speed: float,
                 frame_speed_v: float | None):
        self.N, self.M = N, _band(N)
        k = 2.0 * np.pi * np.fft.rfftfreq(N, d=L / N)[:self.M]
        sv = frame_speed if frame_speed_v is None else frame_speed_v
        z = 1j * dt * np.stack([k**3 + frame_speed * k, sv * k])
        self.E, self.E2, Q, f1, f2, f3 = _etd_coefficients(z, dt)
        # rows act on rfft(v u) and rfft(u u): -ik (uv) for u, -ik (u^2 / 2) for v
        g = -1j * np.array([[1.0], [0.5]]) * k
        self.Q, self.f1, self.f3 = Q * g, f1 * g, f3 * g
        self.f2 = 2.0 * f2 * g  # weighs both middle stages
        self.inv, self.fwd = _dft_pair(N, self.M) if N < _DENSE_BELOW else (None, None)

    def fields(self, X):
        """(u, v) on the grid from the band X."""
        if self.inv is None:
            return np.fft.irfft(X, self.N)
        return X.view(float) @ self.inv

    def products(self, w):
        """The band of rfft(v u, u u) for the grid fields w = (u, v), a new contiguous array:
        the in-place stage arithmetic runs faster on it than on a strided view."""
        if self.inv is None:
            return np.fft.rfft(w[::-1] * w[0])[:, :self.M].copy()
        return (w[::-1] * w[0] @ self.fwd).view(complex)

    def advance(self, X, w=None):
        """One step from X, whose grid fields w may be passed in. Each stage is formed in
        place on arrays of this step; X, w and the shared weights are only read.

        A blow-up overflows here: simulate steps under np.errstate, so its blow-up check,
        not a warning, reports it."""
        px = self.products(self.fields(X) if w is None else w)
        e2x = self.E2 * X
        a = self.Q * px
        a += e2x
        pa = self.products(self.fields(a))
        b = self.Q * pa
        b += e2x
        pb = self.products(self.fields(b))
        c = np.multiply(2.0, pb, out=b)   # b is spent: c = E2 a + Q (2 pb - px) in its place
        c -= px
        c *= self.Q
        a *= self.E2
        c += a
        pc = self.products(self.fields(c))
        out = np.multiply(self.E, X, out=a)
        px *= self.f1
        out += px
        pa += pb
        pa *= self.f2
        out += pa
        pc *= self.f3
        out += pc
        return out


@lru_cache(maxsize=8)
def _stepper(N: int, L: float, dt: float, frame_speed: float,
             frame_speed_v: float | None) -> _Stepper:
    """Memo of _Stepper: repeated simulate calls with the same grid, step and frame speeds
    build the ETDRK4 weights and the DFT pair once.

    Every caller shares the returned weights, so they are made read-only.
    """
    stepper = _Stepper(N, L, dt, frame_speed, frame_speed_v)
    for weights in vars(stepper).values():
        if isinstance(weights, np.ndarray):
            weights.flags.writeable = False
    return stepper


def _band_integrals(s: SimState):
    """(int u_x^2, int(u^2 + v^2)) by Parseval over the band.

    Each mode k > 0 stands for its conjugate -k too, so it weighs 2 and mode 0 weighs 1;
    the band never holds the Nyquist mode. The trapezoid rule of N points is then
    L / N^2 times the weighted sum of |X|^2.
    """
    sq = s.X.real**2 + s.X.imag**2
    sq[:, 1:] *= 2.0
    k = (2.0 * np.pi / s.L) * np.arange(s.X.shape[1])
    w = s.L / s.N**2
    return w * float(sq[0] @ (k * k)), w * float(np.sum(sq))


def _conserved(s: SimState, w: np.ndarray):
    """conserved_of_state(s) with the grid fields w = (u, v) of s already at hand."""
    ux2, l2 = _band_integrals(s)
    u, v = w
    m_u, m_v = (s.L / s.N) * s.X[:, 0].real
    return float(m_u), float(m_v), ux2 - (s.L / s.N) * float(u * u @ v), l2


def conserved_of_state(s: SimState):
    """(int u, int v, int(u_x^2 - u^2 v), int(u^2 + v^2)) of the state, from its band alone.

    The masses are L/N times mode 0, which ETDRK4 never moves (its symbol and g vanish
    there), so they stay exactly constant over a run. int u_x^2 and l2 come by Parseval
    over the band, and int u^2 v is the trapezoid sum of one inverse transform. Each is
    the trapezoid rule of the grid route (waves.conserved_quantities) up to rounding, and
    exact for band data: u^2 v has degree 3(M - 1) <= N - 1, so no product aliases onto
    the mean.
    """
    return _conserved(s, np.fft.irfft(s.X, s.N))


def _drift_scales(s: SimState, q0: np.ndarray) -> np.ndarray:
    """|q0| for each of (m_u, m_v, e_mixed, l2) at the state s of t = 0 or, where q0 is
    zero to rounding, the quantity's natural size: sqrt(L l2) for the masses and
    int u_x^2 + int |u^2 v| for e_mixed, by Parseval and one inverse transform of the band.

    A natural size bounds |q0|, and the trapezoid sum of N terms behind q0 rounds by
    up to N eps of it: at or below that, q0 counts as zero. All-zero data has size 0.
    """
    ux2, _ = _band_integrals(s)
    u, v = np.fft.irfft(s.X, s.N)
    l2 = q0[3]
    mass = np.sqrt(s.L * l2)
    energy = ux2 + (s.L / s.N) * float(np.sum(np.abs(u * u * v)))
    natural = np.array([mass, mass, energy, l2])
    return np.where(np.abs(q0) > s.N * np.finfo(float).eps * natural, np.abs(q0), natural)


@dataclass(frozen=True, eq=False)
class Trajectory:
    states: list
    conserved: np.ndarray       # rows: (t, m_u, m_v, e_mixed, l2), one per state
    max_rel_drift: float        # max over samples of |q - q0| / _drift_scales
    dt: float                   # the step actually taken: T / ceil(T / dt_requested)


def simulate(u0: GridFunction, v0: GridFunction, T: float, dt: float,
             frame_speed: float = 0.0, frame_speed_v: float | None = None) -> Trajectory:
    """Evolve (u0, v0) to time T, always dealiased, logging the four conserved quantities.

    Takes n = ceil(T/dt) equal steps of T/n <= dt and ends at T exactly.
    frame_speed_v overrides the v-component frame (see _Stepper). Samples: one every
    max(1, n // 64) steps and one at T, 65 to 128 for n >= 64. The state is checked against
    BLOWUP_LIMIT times its start every _CHECK_EVERY steps and at every sample;
    BlowUpError carries the time of the last check passed and the partial trajectory.
    """
    for name, value in (("T", T), ("dt", dt)):
        if not (0.0 < value < np.inf):
            raise ValueError(f"{name} must be positive and finite (got {value!r})")
    if u0.N != v0.N or u0.L != v0.L:
        raise ValueError("u0 and v0 must share the same grid")
    if not 0.0 < T / dt < np.inf:
        raise ValueError(f"T/dt must be positive and finite (got {T / dt!r})")
    n_steps = int(np.ceil(T / dt * (1.0 - 1e-12)))  # a whole T/dt with rounding stays whole
    h = T / n_steps
    sample_every = max(1, n_steps // 64)
    stepper = _stepper(u0.N, u0.L, h, frame_speed, frame_speed_v)
    X = np.fft.rfft(np.stack([u0.samples, v0.samples]))[:, :stepper.M]
    limit = BLOWUP_LIMIT * np.max(np.abs(X))

    states, logs = [], []
    t_ok = 0.0
    # overflow/invalid are the blow-up detection signal, not a fault
    with np.errstate(over="ignore", invalid="ignore"):
        w = None   # a sample's grid fields, which also start the next step
        for n in range(n_steps + 1):
            if n:
                X = stepper.advance(X, w)
                w = None
            t = T if n == n_steps else n * h
            sampled = n % sample_every == 0 or n == n_steps
            if sampled or n % _CHECK_EVERY == 0:
                if not np.max(np.abs(X)) <= limit:   # a nan fails it too
                    partial = Trajectory(states, np.reshape(logs, (-1, 5)), np.nan, h)
                    raise BlowUpError(f"solution blew up between t = {t_ok:.6g} and {t:.6g}",
                                      t_last=t_ok, trajectory=partial)
                t_ok = t
            if sampled:
                snap = SimState(t=t, X=X, N=u0.N, L=u0.L)
                states.append(snap)
                w = stepper.fields(X)
                logs.append((t, *_conserved(snap, w)))

    logs = np.asarray(logs)
    q0 = logs[0, 1:]
    scale = _drift_scales(states[0], q0)
    drift = float(np.max(np.divide(np.abs(logs[:, 1:] - q0), scale, where=scale > 0.0,
                                   out=np.zeros_like(logs[:, 1:]))))
    return Trajectory(states=states, conserved=logs, max_rel_drift=drift, dt=h)


# ---------------------------------------------------------------------------
# growth-rate experiment: criterion 7's oracle, run only by the tests

@dataclass(frozen=True)
class GrowthResult:
    lambda_fit: float
    lambda_lin: float
    rel_err: float


def growth_rate_experiment(p: WaveParams, eps: float, T: float, N: int,
                           dt: float) -> GrowthResult:
    """Seed the wave with eps times the most unstable eigenmode and fit the rate.

    The paper's corroboration of its instability claim, kept as criterion 7's
    oracle; the tests are its only callers, as the certified spectrum gives the
    stability verdict. It requires an unstable mode from the dense eig of dH;
    for this wave family the computed spectrum is purely imaginary, so the seed
    step raises NoUnstableModeError (see NOTES.md). The tests' oscillation
    cross-check runs deviation_series and fit_growth_rate on a seeded imaginary
    mode, fitting ~0.
    """
    from .spectra import unstable_eigenmode

    if not (1e-8 <= eps <= 1e-3):
        raise ValueError(f"eps must lie in [1e-8, 1e-3] (got {eps!r})")

    lam, U, V = unstable_eigenmode(p, N)  # raises NoUnstableModeError if stable
    lam_lin = float(lam.real)
    psi, phi = profile_grid(p, N)
    znorm = np.sqrt(p.L / N * (np.sum(np.abs(U) ** 2) + np.sum(np.abs(V) ** 2)))
    u0 = GridFunction(p.L, psi.samples + eps * U.real / znorm)
    v0 = GridFunction(p.L, phi.samples + eps * V.real / znorm)

    traj = simulate(u0, v0, T, dt, frame_speed=p.c)
    times, devs = deviation_series(traj, p)
    lam_fit = fit_growth_rate(times, devs, p, eps)
    return GrowthResult(lambda_fit=lam_fit, lambda_lin=lam_lin,
                        rel_err=abs(lam_fit - lam_lin) / abs(lam_lin))


def deviation_series(traj: Trajectory, p: WaveParams):
    """(times, L2 norm of (u - psi, v - phi)) at each sampled state (co-moving frame)."""
    psi, phi = profile_grid(p, traj.states[0].N)
    devs = []
    for s in traj.states:
        u, v = state_fields(s)
        devs.append(np.sqrt(p.L / u.N * (np.sum((u.samples - psi.samples) ** 2)
                                         + np.sum((v.samples - phi.samples) ** 2))))
    return traj.conserved[:, 0], np.asarray(devs)


def fit_growth_rate(times: np.ndarray, devs: np.ndarray, p: WaveParams, eps: float) -> float:
    """Least-squares slope of log(deviation) over the exponential window.

    The window keeps samples after a 10% warmup and below 1e-2 times psi's L2
    norm on the 256-point grid; fewer than five qualifying samples is an error.
    """
    wave_norm = np.sqrt(p.L * np.mean(profile_grid(p, 256)[0].samples ** 2))
    ok = (times >= 0.1 * times[-1]) & (devs < 1e-2 * wave_norm) & (devs > 0)
    if int(np.sum(ok)) < 5:
        raise WindowTooShortError(
            f"only {int(np.sum(ok))} samples inside the linear-regime window"
        )
    A = np.vstack([times[ok], np.ones(int(np.sum(ok)))]).T
    slope, _ = np.linalg.lstsq(A, np.log(devs[ok]), rcond=None)[0]
    return float(slope)
