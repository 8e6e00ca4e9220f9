"""Certified hyperbolicity and bi-shadowing for pseudo-orbits of smooth maps.

The package certifies product-form hyperbolicity estimates for segmented
pseudo-orbits on flat tori and Euclidean space, upgrades nearly invariant
splittings to invariant ones with a graph transform, and computes true
orbits of perturbed maps that shadow a given pseudo-orbit, including
windowed two-sided and periodic variants.
"""

__version__ = "0.1.0"

from .adapted import (
    InfeasiblePairError,
    scale_factors,
    well_adapted_sequence,
)
from .certification import (
    Certificate,
    OrbitBlocks,
    certify_pseudo_orbit,
    is_quasi_hyperbolic,
    min_feasible_lambda,
    pseudo_orbit_blocks,
)
from .oracle import (
    AffineSequenceSystem,
    bounded_orbit_closed_form,
    brute_force_shadow,
    cat_map_periodic_points,
)
from .pseudo_orbit import (
    SegmentedPseudoOrbit,
    SplittingAssignment,
    assign_splittings,
    flatten,
    generate,
)
from .refinement import (
    RefinementResult,
    make_refinement_config,
    refine,
)
from .shadowing import (
    ShadowingResult,
    SolverConfig,
    make_solver_config,
    shadowing_preconditions,
    solve_finite,
    solve_infinite,
    solve_periodic,
)
from .splitting import (
    Splitting,
    eigen_splitting,
    min_norm,
    op_norm,
)
from .systems import (
    AffineMap,
    PerturbedCatMap,
    Phase,
    ShiftedMap,
    SmoothMap,
    SystemBounds,
    TorusLinearMap,
    cat_map,
    map_distance,
    system_bounds,
)
