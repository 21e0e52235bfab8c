"""Numerical homogenisation of linear-growth phase-field energies.

The package estimates the effective bulk density, its recession, and the
effective cohesive surface density of phase-field functionals whose bulk
term grows linearly in the gradient, by minimising discrete cell
problems on (rotated) cubes and driving the cell size to the asymptotic
regime.  Deterministic, periodic and random stationary coefficient
fields are supported, and an executable property suite verifies the
quantitative structure of the estimated densities.
"""

__version__ = "0.1.0"

import os

# one BLAS thread unless the caller chose a count, set before numpy loads: a
# multi-threaded OpenBLAS runs the small band factorisations several times slower
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .fields import (
    PhaseField,
    VectorField,
    affine_datum,
    bulk_energy,
    jump_datum,
    surface_energy,
)
from .geometry import (
    CellDomain,
    Rotation,
    make_box_cell,
    make_cell,
    rotation_for_normal,
)
from .homogenise import (
    HomEstimate,
    Schedule,
    estimate_f_hom,
    estimate_f_inf_hom,
    estimate_g_hom,
    mc_expectation,
    subadditive_process_eval,
)
from .integrand import (
    Integrand,
    RandomIntegrandModel,
    area,
    euclid,
    laminate,
    make_checkerboard,
    resolve,
    shift,
    validate_admissibility,
)
from .solvers import (
    CellResult,
    SolverBreakdown,
    minimize_u_given_v,
    minimize_v_given_u,
    solve_bulk_cell,
    solve_surface_cell,
)
from .verify import (
    PropertyCheck,
    check_fhom_growth,
    check_fhom_lipschitz,
    check_fhom_rank_one_convexity,
    check_ghom_bounds,
    check_ghom_symmetry_and_lipschitz,
    check_recession_routes,
    check_subadditive_process,
    run_suite,
)
