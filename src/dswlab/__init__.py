"""Numerical laboratory for periodic traveling waves of the coupled
dispersive / dispersionless system u_t + (uv)_x + u_xxx = 0, v_t + u u_x = 0.

Submodules: elliptic (special functions), waves (the wave family), hill
(Floquet classification), index_engine (quadrature index pipeline), spectra
(collocation eigensolves), evolution (pseudospectral time integration),
normal_form (the bilinear multiplier), cli (command-line front end).
"""

__version__ = "0.1.0"

from .waves import (GridFunction, RefusalError, SpeedBelowThresholdError, WaveParams,  # noqa: F401
                    conserved_quantities, eval_profile, kappa_from_c,
                    params_from_kappa, profile_grid, profile_residual)
