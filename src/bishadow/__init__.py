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
    check_pair,
    is_balance_sequence,
    rescaled_blocks,
    scale_factors,
    verify_well_adapted,
    well_adapted_sequence,
)
from .certification import (
    Certificate,
    OrbitBlocks,
    block_norms,
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
    solve_stable_graphs,
    solve_unstable_graphs,
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
    BlockJacobian,
    Splitting,
    block_decompose,
    box_norm,
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
    estimate_bounds,
    sup_distance,
)
