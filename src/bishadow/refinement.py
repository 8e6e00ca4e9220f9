"""Graph-transform refinement of nearly invariant splittings.

Given derivative blocks along a pseudo-orbit whose off-diagonal coupling
is small, the unstable graph transform

    P_{j+1} = (C_j + D_j P_j) (A_j + B_j P_j)^(-1)

is a contraction on the unit ball of graphs; its fixed point tilts each
unstable subspace onto an exactly invariant family.  The mirrored
backward transform

    Q_j = A_j^(-1) (Q_{j+1} C_j Q_j + Q_{j+1} D_j - B_j)

does the same for the stable side.  Replacing the original subspaces by
the two graph families block-diagonalizes the derivative; the refined
splitting then certifies at a slightly weaker rate with zero
off-diagonal tolerance.

Finite windows pin the unstable graph to zero at the left edge and the
stable graph at the right edge.  With the boundary pinned, graph(P_j) is
the image of the left edge's unstable subspace along the orbit and
graph(Q_j) the preimage of the right edge's stable subspace: the two
cocycle passes of ``power`` splittings, the second run on the transposed
Jacobians, so no Jacobian is inverted.  Boundary influence decays
geometrically into the interior, which callers can quantify by comparing windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certification import Certificate, _singular_values, _solve_stack, certify_pseudo_orbit
from .pseudo_orbit import SegmentedPseudoOrbit, SplittingAssignment, pull_back, push_forward
from .splitting import _checked_basis, min_norm
from .systems import SmoothMap

__all__ = [
    "RefinementConfig",
    "make_refinement_config",
    "PreconditionError",
    "GraphTransformError",
    "invariant_graphs",
    "RefinementResult",
    "refine",
]


class PreconditionError(RuntimeError):
    """Input violates the bounds the refinement contraction needs."""


class GraphTransformError(RuntimeError):
    """A graph solve failed: a singular denominator, or a graph outside the
    unit ball.  How invariant the refined splitting is, is read from its
    certificate's off-diagonal rows, not checked here."""


@dataclass(frozen=True)
class RefinementConfig:
    """Rates and tolerance for one refinement solve; eps_cap, a property of
    the fields, is the largest admissible off-diagonal size for an interior
    rate lam0 between the certified and the target rate."""

    lam: float
    lam_tilde: float
    lam0: float
    R: float
    offdiag_tol: float = 1e-8
    eps_cap = property(lambda self: min(
        (1.0 - self.lam0 * self.lam0) / ((self.lam0 * self.lam0 + 6.0) * self.R),
        (self.lam0 - self.lam) / (self.lam0 * self.R)))


def make_refinement_config(
    lam: float,
    lam_tilde: float,
    R: float,
    lam0: float | None = None,
    offdiag_tol: float = 1e-8,
) -> RefinementConfig:
    if not (0.0 < lam < lam_tilde < 1.0):
        raise ValueError("need 0 < lam < lam_tilde < 1")
    if lam0 is None:
        lam0 = 0.5 * (lam + lam_tilde)
    if not (lam < lam0 < lam_tilde):
        raise ValueError("lam0 must lie strictly between lam and lam_tilde")
    if R < 1.0:
        raise ValueError("R must be at least 1")
    return RefinementConfig(lam=lam, lam_tilde=lam_tilde, lam0=lam0, R=R, offdiag_tol=offdiag_tol)


def _graphs(num, den):
    """G_j = num_j den_j^(-1) and ||G_j|| for every j; ||G_j|| = inf where
    den_j is singular.  [den_j; num_j] holds the coordinates of orthonormal
    columns in a splitting, so its smallest singular value is at least
    1/sqrt(2), and m(den_j) <= 1e-14 would mean ||G_j|| >= 7e13."""
    singular = _singular_values(den, -1, np.inf) <= 1e-14
    den = np.where(singular[:, None, None], np.eye(den.shape[-1]), den)
    G = np.swapaxes(_solve_stack(np.swapaxes(den, -1, -2), np.swapaxes(num, -1, -2))[0], -1, -2)
    return G, np.where(singular, np.inf, _singular_values(G, 0, 0.0))


def invariant_graphs(splittings: SplittingAssignment, jacs) -> tuple:
    """Pinned fixed points P ``(N + 1, ds, du)`` and Q ``(N + 1, du, ds)`` of
    both graph transforms, for the splittings and the N Jacobians jacs, and
    the invariant splitting: the two pass stacks, in their orientation.

    graph(P_j) = span(u_j + s_j P_j) is the image of span(u_0) under
    J_{j-1}...J_0 (push_forward), graph(Q_j) the preimage of span(s_N)
    (pull_back, a pass of the J^T), seeded by the bases u_0 and s_N that the
    pinned boundary keeps.  With [X_j; Y_j] = basis_inv_j times a pass basis,
    one batched solve per side reads P_j = Y_j X_j^(-1) and Q_j = X_j Y_j^(-1).
    A singular graph, or one outside the unit ball, raises
    GraphTransformError at its first index in pass order (the lowest for
    P, the highest for Q), where a per-index recursion would stop.
    """
    du = splittings.dim_u
    cu = splittings.basis_inv @ (u := push_forward(jacs, splittings.unstable[0]))
    P, norms = _graphs(cu[:, du:], cu[:, :du])
    bad = np.flatnonzero(norms > 1.0 + 1e-9)
    if bad.size and np.isinf(norms[j := bad[0]]):
        den = splittings.basis_inv[j] @ jacs[j - 1] @ splittings.basis[j - 1]
        raise GraphTransformError(f"singular unstable denominator at index {j - 1}: m(A + B P) = "
                                  f"{min_norm(den[:du, :du] + den[:du, du:] @ P[j - 1]):.3e}")
    if bad.size:
        raise GraphTransformError(f"graph left the unit ball at index {j} (norm {norms[j]:.6f}); "
                                  "off-diagonal bounds too weak")
    cs = splittings.basis_inv @ (s := pull_back(jacs, splittings.stable[-1]))
    Q, norms = _graphs(cs[:, :du], cs[:, du:])
    bad = np.flatnonzero(norms > 1.0 + 1e-9)
    if bad.size and np.isinf(norms[j := bad[-1]]):
        raise GraphTransformError(f"singular stable solve at index {j}")
    if bad.size:
        raise GraphTransformError(f"stable graph left the unit ball at index {j} "
                                  f"(norm {norms[j]:.6f})")
    P[0], Q[-1] = 0.0, 0.0  # the pinned boundary
    return P, Q, SplittingAssignment(u, s, _checked_basis(u, s)[1])


@dataclass(eq=False)
class RefinementResult:
    splittings: SplittingAssignment
    certificate: Certificate
    unstable_graphs: np.ndarray
    stable_graphs: np.ndarray


def refine(
    po: SegmentedPseudoOrbit,
    splittings: SplittingAssignment,
    f: SmoothMap,
    config: RefinementConfig,
    delta: float | None = None,
    blocks=None,
) -> RefinementResult:
    """Upgrade a certified nearly-invariant splitting to an invariant one.

    Requires the input blocks to certify at (lam, eps) with eps at most
    eps_cap; returns a splitting family together with its certificate at
    (lam_tilde, offdiag_tol, delta), whose B and C blocks are that
    splitting's invariance defect.  An input whose off-diagonal blocks are
    already at most offdiag_tol is returned as it is, with zero graphs and
    its own blocks certified at lam_tilde: every rate margin grows with the
    rate and lam < lam_tilde, so that certificate passes.  Any other input
    is tilted onto the graphs of invariant_graphs, and its pass bases are
    the refined splitting.  blocks, when given, are what pseudo_orbit_blocks
    returns and must cover po; the returned certificate's blocks have the same form.
    """
    if delta is None:
        delta = float(po.residuals.max())
    input_cert = certify_pseudo_orbit(po, splittings, f, config.lam, config.eps_cap, delta,
                                      blocks=blocks)
    eps_actual = input_cert.max_offdiagonal
    if eps_actual > config.eps_cap:
        raise PreconditionError(
            f"off-diagonal size {eps_actual:.3e} exceeds the admissible cap "
            f"{config.eps_cap:.3e} at rate {config.lam}"
        )
    if not input_cert.passed:
        worst = input_cert.worst()
        raise PreconditionError(
            f"input does not certify at rate {config.lam}: binding condition "
            f"{worst.condition} at segment {worst.segment}, step {worst.step} "
            f"(margin {worst.margin:.3e})"
        )

    if eps_actual <= config.offdiag_tol:  # invariant already: the input is the answer
        du, ds = splittings.dim_u, splittings.stable.shape[-1]
        P, Q = np.zeros((po.n_steps + 1, ds, du)), np.zeros((po.n_steps + 1, du, ds))
        refined, blocks = splittings, input_cert.blocks
    else:
        P, Q, refined = invariant_graphs(splittings,
                                         f.jacobian_along(po.points[:-1], np.arange(po.n_steps)))
        blocks = None
    certificate = certify_pseudo_orbit(po, refined, f, config.lam_tilde, config.offdiag_tol,
                                       delta, blocks=blocks)
    return RefinementResult(splittings=refined, certificate=certificate, unstable_graphs=P,
                            stable_graphs=Q)
