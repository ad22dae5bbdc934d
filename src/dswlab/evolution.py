"""Pseudospectral time integration of the coupled system

    u_t + (u v)_x + u_xxx = 0,    v_t + u u_x = 0

in the lab frame or a frame moving at constant speed. The state is one
(2, N//2+1) array of rfft coefficients of (u, v), so one inverse and one
forward real FFT per stage serve both fields. Time stepping is exponential
time differencing RK4 (Cox & Matthews, JCP 2002): the linear symbols
i(k^3 + s k) for u and i s k for v enter exactly through e^z, e^{z/2} and the
phi-function weights of z = i dt omega, which are means over 32 points on a
unit circle around each z (Kassam & Trefethen, SISC 2005), free of the
cancellation of their closed forms at small |z|. The quadratic terms are
evaluated pseudospectrally with 2/3-rule dealiasing (products truncated to
|k| <= N/3, state kept in the same band).

ETD keeps equilibria exactly, so the co-moving traveling wave is a fixed
point; in the lab frame the wave (2, 0.3) at N = 128 is accurate to ~1e-7 at
dt = 1e-3. The measured step envelope is in NOTES.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .waves import GridFunction, WaveParams, eval_profile

__all__ = [
    "SimState",
    "PreprocessRecord",
    "Trajectory",
    "BlowUpError",
    "WindowTooShortError",
    "make_state",
    "state_fields",
    "preprocess",
    "undo_preprocess",
    "step",
    "simulate",
    "growth_rate_experiment",
    "conserved_of_state",
]

BLOWUP_LIMIT = 1e12


class BlowUpError(RuntimeError):
    """A coefficient left the finite range; carries the last finite time."""

    def __init__(self, message: str, t_last: float, trajectory=None):
        super().__init__(message)
        self.t_last = t_last
        self.trajectory = trajectory


class WindowTooShortError(ValueError):
    """The deviation left the linear regime before the fit window closed."""


@dataclass(frozen=True, eq=False)
class SimState:
    """Spectral state: full-length complex FFT coefficient arrays (Hermitian)."""

    t: float
    u_hat: np.ndarray
    v_hat: np.ndarray
    frame_speed: float
    L: float

    @property
    def N(self) -> int:
        return self.u_hat.size

    def hermitian_defect(self) -> float:
        """Max deviation of the coefficient arrays from Hermitian symmetry."""
        d = max(float(np.max(np.abs(h - np.conj(h[-np.arange(h.size) % h.size]))))
                for h in (self.u_hat, self.v_hat))
        scale = max(float(np.max(np.abs(self.u_hat))), float(np.max(np.abs(self.v_hat))), 1.0)
        return d / scale


def _dealias_mask(N: int) -> np.ndarray:
    """rfft-length mask of the modes |k| <= N/3 kept by the 2/3 rule."""
    return np.arange(N // 2 + 1) <= N // 3


def _spectrum(u: GridFunction, v: GridFunction, dealias: bool = True) -> np.ndarray:
    """The (2, N//2+1) rfft state of (u, v), masked to the dealiased band."""
    if u.N != v.N or u.L != v.L:
        raise ValueError("u and v must share the same grid")
    X = np.fft.rfft(np.stack([u.samples, v.samples]))
    return X * _dealias_mask(u.N) if dealias else X


def _state(X: np.ndarray, t: float, N: int, L: float, frame_speed: float) -> SimState:
    """Expand the rfft state to the full-length Hermitian coefficient arrays."""
    full = np.concatenate([X, np.conj(X[:, (N + 1) // 2 - 1:0:-1])], axis=1)
    return SimState(t=t, u_hat=full[0], v_hat=full[1], frame_speed=float(frame_speed), L=L)


def make_state(u: GridFunction, v: GridFunction, frame_speed: float = 0.0) -> SimState:
    return _state(_spectrum(u, v), 0.0, u.N, u.L, frame_speed)


def state_fields(s: SimState):
    """Physical-space (u, v) as GridFunctions."""
    u, v = np.fft.irfft(np.stack([s.u_hat, s.v_hat])[:, :s.N // 2 + 1], s.N)
    return GridFunction(s.L, u), GridFunction(s.L, v)


# ---------------------------------------------------------------------------
# mean-zero preconditioning of v

@dataclass(frozen=True)
class PreprocessRecord:
    g0: float
    shift_rule: str


def preprocess(u0: GridFunction, v0: GridFunction):
    """Remove the mean of v0; evolution then runs with mean-zero v.

    The removed mean g0 turns into the spatial shift x -> x + g0 t that
    undo_preprocess applies when mapping states back to the lab frame. In the
    shifted frame the u equation keeps its lab form while v is transported at
    speed g0, so the downstream evolution is
    simulate(u0', v0', ..., frame_speed=0.0, frame_speed_v=rec.g0).
    """
    if u0.N != v0.N or u0.L != v0.L:
        raise ValueError("u0 and v0 must share the same grid")
    g0 = float(np.mean(v0.samples))
    v_shifted = GridFunction(v0.L, v0.samples - g0)
    rec = PreprocessRecord(g0=g0, shift_rule=f"x -> x + ({g0!r}) * t applied at output")
    return u0, v_shifted, rec


def undo_preprocess(rec: PreprocessRecord, u: GridFunction, v: GridFunction, t: float):
    """Map a preprocessed state at time t back to a lab-frame solution."""
    shift = rec.g0 * t
    k = 2.0 * np.pi * np.fft.fftfreq(u.N, d=u.L / u.N)
    phase = np.exp(-1j * k * shift)
    u_lab = np.fft.ifft(np.fft.fft(u.samples) * phase).real
    v_lab = np.fft.ifft(np.fft.fft(v.samples) * phase).real + rec.g0
    return GridFunction(u.L, u_lab), GridFunction(v.L, v_lab)


# ---------------------------------------------------------------------------
# the ETDRK4 stepper

_CHECK_EVERY = 8  # steps between blow-up checks; every sample is checked too


def _etd_coefficients(z: np.ndarray, h: float):
    """ETDRK4 weights of z = h * symbol: e^z, e^{z/2} and (Q, f1, f2, f3) = h * phi-type
    functions, means over 32 points on the unit circle around z; (h/2, h/6, h/6, h/6) at 0."""
    E, E2 = np.exp(z), np.exp(z / 2.0)
    sums = np.zeros((4,) + z.shape, dtype=complex)
    for r in np.exp(1j * np.pi * np.arange(1, 64, 2) / 32):
        w = z + r
        ew, w2 = E * np.exp(r), w * w
        iw3 = 1.0 / (w2 * w)
        sums += ((E2 * np.exp(r / 2.0) - 1.0) / w, (-4.0 - w + ew * (4.0 - 3.0 * w + w2)) * iw3,
                 (2.0 + w + ew * (w - 2.0)) * iw3, (-4.0 - 3.0 * w - w2 + ew * (4.0 - w)) * iw3)
    return (E, E2, *(h / 32.0 * sums))


class _Stepper:
    """ETDRK4 weights for fixed (N, L, dt, frame speeds, dealias) on the rfft state.

    v may ride in its own frame: the mean-zero preconditioning transports v at
    g0 while u keeps its lab form, and the extra g0 dv/dx joins v's symbol.
    """

    def __init__(self, N: int, L: float, dt: float, frame_speed: float = 0.0,
                 frame_speed_v: float | None = None, dealias: bool = True):
        k = 2.0 * np.pi * np.fft.rfftfreq(N, d=L / N)
        k[N // 2] = 0.0  # unpaired Nyquist mode breaks Hermitian symmetry
        sv = frame_speed if frame_speed_v is None else frame_speed_v
        z = 1j * dt * np.stack([k**3 + frame_speed * k, sv * k])
        self.N = N
        self.E, self.E2, self.Q, self.f1, f2, self.f3 = _etd_coefficients(z, dt)
        self.f2 = 2.0 * f2  # weighs both middle stages
        # rows act on rfft(v u) and rfft(u u): -ik (uv) for u, -ik (u^2 / 2) for v
        self.g = -1j * np.array([[1.0], [0.5]]) * k * (_dealias_mask(N) if dealias else 1.0)

    def nonlinear(self, X):
        w = np.fft.irfft(X, self.N)
        return self.g * np.fft.rfft(w[::-1] * w[0])

    def advance(self, X):
        # overflow/invalid are the blow-up detection signal, not a fault
        with np.errstate(over="ignore", invalid="ignore"):
            nx = self.nonlinear(X)
            e2x = self.E2 * X
            a = e2x + self.Q * nx
            na = self.nonlinear(a)
            nb = self.nonlinear(e2x + self.Q * na)
            nc = self.nonlinear(self.E2 * a + self.Q * (2.0 * nb - nx))
            return self.E * X + self.f1 * nx + self.f2 * (na + nb) + self.f3 * nc

    def blown_up(self, X) -> bool:
        return not np.max(np.abs(X)) <= BLOWUP_LIMIT * self.N  # a nan fails it too


@lru_cache(maxsize=8)
def _stepper(N: int, L: float, dt: float, frame_speed: float, frame_speed_v: float | None,
             dealias: bool) -> _Stepper:
    """Memo of _Stepper: a loop of `step` calls builds the ETDRK4 weights once.

    Every caller shares the returned weights, so they are made read-only.
    """
    stepper = _Stepper(N, L, dt, frame_speed, frame_speed_v, dealias)
    for weights in vars(stepper).values():
        if isinstance(weights, np.ndarray):
            weights.flags.writeable = False
    return stepper


def step(s: SimState, dt: float, dealias: bool = True) -> SimState:
    """Advance one ETDRK4 step; the weights of the last few (N, L, dt, frame) are kept."""
    if not (dt > 0.0):
        raise ValueError(f"dt must be positive (got {dt!r})")
    stepper = _stepper(s.N, s.L, dt, s.frame_speed, None, dealias)
    X = stepper.advance(np.stack([s.u_hat, s.v_hat])[:, :s.N // 2 + 1])
    if stepper.blown_up(X):
        raise BlowUpError(f"solution blew up in the step from t = {s.t:.6g}", t_last=s.t)
    return _state(X, s.t + dt, s.N, s.L, s.frame_speed)


def conserved_of_state(s: SimState):
    from .waves import conserved_quantities

    u, v = state_fields(s)
    return conserved_quantities(u, v)


@dataclass(frozen=True, eq=False)
class Trajectory:
    times: np.ndarray
    states: list
    conserved: np.ndarray       # rows: (t, m_u, m_v, e_mixed, l2)
    max_rel_drift: float
    dt: float                   # the step actually taken: T / ceil(T / dt_requested)


def simulate(u0: GridFunction, v0: GridFunction, T: float, dt: float,
             frame_speed: float = 0.0, sample_every: int | None = None,
             dealias: bool = True, frame_speed_v: float | None = None) -> Trajectory:
    """Evolve (u0, v0) to time T, logging the four conserved quantities.

    Takes n = ceil(T/dt) equal steps of T/n <= dt and ends at T exactly.
    frame_speed_v overrides the v-component frame (see _Stepper). Samples are
    taken every sample_every steps (default: ~64 samples total). The state is
    checked every _CHECK_EVERY steps and at every sample; BlowUpError carries
    the time of the last finite check and the partial trajectory.
    """
    if not (T > 0.0 and dt > 0.0):
        raise ValueError("T and dt must be positive")
    n_steps = int(np.ceil(T / dt * (1.0 - 1e-12)))  # a whole T/dt with rounding stays whole
    h = T / n_steps
    sample_every = sample_every or max(1, n_steps // 64)
    X = _spectrum(u0, v0, dealias)
    stepper = _stepper(u0.N, u0.L, h, frame_speed, frame_speed_v, dealias)

    times, states, logs = [], [], []
    t_ok = 0.0
    for n in range(n_steps + 1):
        if n:
            X = stepper.advance(X)
        t = T if n == n_steps else n * h
        sampled = n % sample_every == 0 or n == n_steps
        if sampled or n % _CHECK_EVERY == 0:
            if stepper.blown_up(X):
                partial = Trajectory(np.asarray(times), states, np.asarray(logs), np.nan, h)
                raise BlowUpError(f"solution blew up between t = {t_ok:.6g} and {t:.6g}",
                                  t_last=t_ok, trajectory=partial)
            t_ok = t
        if sampled:
            snap = _state(X, t, u0.N, u0.L, frame_speed)
            times.append(t)
            states.append(snap)
            logs.append((t, *conserved_of_state(snap)))

    logs = np.asarray(logs)
    q0 = logs[0, 1:]
    scale = np.maximum(np.abs(q0), 1.0)
    drift = float(np.max(np.abs(logs[:, 1:] - q0) / scale))
    return Trajectory(times=np.asarray(times), states=states, conserved=logs,
                      max_rel_drift=drift, dt=h)


# ---------------------------------------------------------------------------
# growth-rate experiment

@dataclass(frozen=True)
class GrowthResult:
    lambda_fit: float
    lambda_lin: float
    rel_err: float
    times: np.ndarray
    deviations: np.ndarray


def growth_rate_experiment(p: WaveParams, eps: float, T: float, N: int = 256,
                           dt: float = 1e-3) -> GrowthResult:
    """Seed the wave with eps times the most unstable eigenmode and fit the rate.

    Requires an unstable mode from the collocation eigensolve; for this wave
    family the computed spectrum is purely imaginary, so the seed step raises
    NoUnstableModeError (see NOTES.md). The fitting machinery itself is
    exercised by the oscillation-frequency cross-check in the tests.
    """
    from .spectra import unstable_eigenmode

    if not (1e-8 <= eps <= 1e-3):
        raise ValueError(f"eps must lie in [1e-8, 1e-3] (got {eps!r})")

    lam, U, V = unstable_eigenmode(p, N)  # raises NoUnstableModeError if stable
    lam_lin = float(lam.real)
    x = np.arange(N) * (p.L / N)
    psi, phi = eval_profile(p, x)
    znorm = np.sqrt(p.L / N * (np.sum(np.abs(U) ** 2) + np.sum(np.abs(V) ** 2)))
    u0 = GridFunction(p.L, psi + eps * U.real / znorm)
    v0 = GridFunction(p.L, phi + eps * V.real / znorm)

    traj = simulate(u0, v0, T, dt, frame_speed=p.c)
    times, devs = deviation_series(traj, p)
    lam_fit = fit_growth_rate(times, devs, p, eps)
    return GrowthResult(lambda_fit=lam_fit, lambda_lin=lam_lin,
                        rel_err=abs(lam_fit - lam_lin) / abs(lam_lin),
                        times=times, deviations=devs)


def deviation_series(traj: Trajectory, p: WaveParams):
    """L2 norm of (u - psi, v - phi) at each sampled state (co-moving frame)."""
    devs = []
    for s in traj.states:
        u, v = state_fields(s)
        psi, phi = eval_profile(p, u.x)
        w = p.L / u.N
        devs.append(np.sqrt(w * (np.sum((u.samples - psi) ** 2)
                                 + np.sum((v.samples - phi) ** 2))))
    return traj.times, np.asarray(devs)


def fit_growth_rate(times: np.ndarray, devs: np.ndarray, p: WaveParams, eps: float) -> float:
    """Least-squares slope of log(deviation) over the exponential window.

    The window keeps samples after a 10% warmup and below 1e-2 times the wave
    norm; fewer than five qualifying samples is an error.
    """
    wave_norm = np.sqrt(p.L * np.mean(eval_profile(p, np.linspace(0, p.L, 256))[0] ** 2))
    ok = (times >= 0.1 * times[-1]) & (devs < 1e-2 * wave_norm) & (devs > 0)
    if int(np.sum(ok)) < 5:
        raise WindowTooShortError(
            f"only {int(np.sum(ok))} samples inside the linear-regime window"
        )
    A = np.vstack([times[ok], np.ones(int(np.sum(ok)))]).T
    slope, _ = np.linalg.lstsq(A, np.log(devs[ok]), rcond=None)[0]
    return float(slope)
