"""Every stability verdict is the same at the period L as at L = 1.

The wave (L, kappa) is the wave (1, kappa) rescaled (NOTES.md, the scaling
symmetry), so the theta-table indices, n(D) and k_Ham, the certified spectrum's
counts, the dense eigensolve's "no unstable mode" and the size of the invariant
drift of a run over the same scaled time are functions of kappa alone.
"""

import numpy as np
import pytest

from dswlab.cli import main
from dswlab.evolution import simulate
from dswlab.index_engine import assemble_dmatrix, hamiltonian_index
from dswlab.spectra import (NoUnstableModeError, dmatrix_via_collocation, unstable_eigenmode,
                            unstable_modes)
from dswlab.waves import RefusalError, params_from_kappa, profile_grid


def refusal_or(f, *args):
    """f(*args), or the type of the refusal it raises."""
    try:
        return f(*args)
    except RefusalError as exc:
        return type(exc)


def verdicts(L, kappa, tmp_path):
    """(the verdicts at (L, kappa), max_rel_drift of a lab-frame run to T = 0.3 L^3).

    A refusal is a verdict too: theta is degenerate (n_minus = n_zero = -1) below
    kappa ~ 1.49e-3, and D raises DMatrixRoundingError below ~3.7e-5.
    """
    p = params_from_kappa(L, kappa)
    out = tmp_path / "theta.csv"
    assert main(["theta-table", "--pairs", f"{L!r}:{kappa!r}", "--out", str(out)]) == 0
    n_minus, n_zero = out.read_text().splitlines()[-1].split(",")[-2:]
    rep = unstable_modes(p, 128)
    with pytest.raises(NoUnstableModeError):
        unstable_eigenmode(p, 128)
    u0, v0 = profile_grid(p, 16)
    drift = simulate(u0, v0, T=0.3 * L**3, dt=0.3 * L**3 / 400).max_rel_drift
    return {
        "theta-table (n_minus, n_zero)": (n_minus, n_zero),
        "(k_Ham, n(D))": refusal_or(lambda: hamiltonian_index(assemble_dmatrix(p))),
        "spectrum counts": (rep.n_Lplus, rep.n_H, rep.k_r, rep.k_c, rep.krein_negative),
    }, drift


@pytest.mark.parametrize("kappa", [0.0015, 0.3])
@pytest.mark.parametrize("L", [1e-6, 0.1, 0.2, 1.0, 1e6])
def test_every_verdict_is_that_of_the_unit_period(L, kappa, tmp_path):
    got, drift = verdicts(L, kappa, tmp_path)
    unit, unit_drift = verdicts(1.0, kappa, tmp_path)
    assert got == unit
    assert got["theta-table (n_minus, n_zero)"] == ("1", "1")
    assert unit_drift / 10 <= drift <= 10 * unit_drift


# whether the wave builds used to depend on how L rounds: each of these raised
# WaveInvariantError ("root ordering violated") while (1, 1e-9) built
@pytest.mark.parametrize("L, kappa", [(2.7, 1e-9), (1.5, 1e-9), (3.0, 1e-9), (2.7, 1e-8),
                                      (1e-3, 1e-8), (0.212802078381784, 1e-8), (1e40, 1e-9)])
def test_a_tiny_modulus_builds_at_every_period(L, kappa, tmp_path):
    got, drift = verdicts(L, kappa, tmp_path)
    unit, unit_drift = verdicts(1.0, kappa, tmp_path)
    assert got == unit
    # such a wave is constant to rounding on 16 points, so its drift may be rounding alone:
    # at or below _drift_scales' floor N eps, the drift at L must stay there too
    floor = 16 * np.finfo(float).eps
    if unit_drift > floor:
        assert unit_drift / 10 <= drift <= 10 * unit_drift
    else:
        assert drift <= floor


@pytest.mark.parametrize("L", [0.5, 2.0, 4.0])
def test_figures_at_a_power_of_two_period_are_the_unit_ones_scaled(L):
    # the routes compute at period 1 and scale once, and a power of two scales exactly
    unit, p = params_from_kappa(1.0, 0.3), params_from_kappa(L, 0.3)
    rep1, rep = unstable_modes(unit, 128), unstable_modes(p, 128)
    assert np.array_equal(rep.eigenvalues.imag, rep1.eigenvalues.imag / L**3)
    assert rep.margin == rep1.margin / L**2
    assert (rep.kernel_residual, rep.core_N) == (rep1.kernel_residual, rep1.core_N)
    s = np.array([L**1.5, L**1.5, L**-0.5])
    D1 = dmatrix_via_collocation(unit, 512)
    assert np.array_equal(dmatrix_via_collocation(p, 512), np.outer(s, s) * D1)
