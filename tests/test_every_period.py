"""Every stability verdict is the same at the period L as at L = 1.

The wave (L, kappa) is the wave (1, kappa) rescaled (NOTES.md, the scaling
symmetry), so the theta-table indices, n(D) and k_Ham, the certified spectrum's
counts, the dense eigensolve's "no unstable mode" and the size of the invariant
drift of a run over the same scaled time are functions of kappa alone.
"""

import pytest

from dswlab.cli import main
from dswlab.evolution import simulate
from dswlab.index_engine import assemble_dmatrix, hamiltonian_index
from dswlab.spectra import NoUnstableModeError, unstable_eigenmode, unstable_modes
from dswlab.waves import params_from_kappa, profile_grid


def verdicts(L, kappa, tmp_path):
    """(the verdicts at (L, kappa), max_rel_drift of a lab-frame run to T = 0.3 L^3)."""
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
        "(k_Ham, n(D))": hamiltonian_index(assemble_dmatrix(p)),
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
