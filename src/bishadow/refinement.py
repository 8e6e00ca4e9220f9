"""Graph-transform refinement of nearly invariant splittings.

Given derivative blocks along a pseudo-orbit whose off-diagonal coupling
is small, the unstable graph transform

    P_{j+1} = (C_j + D_j P_j) (A_j + B_j P_j)^(-1)

is a contraction on the unit ball of graphs; its fixed point tilts each
unstable subspace onto an exactly invariant family.  The mirrored
backward transform

    Q_j = A_j^(-1) (Q_{j+1} C_j Q_j + Q_{j+1} D_j - B_j)

does the same for the stable side (solved per index as a small linear
equation).  Replacing the original subspaces by the two graph families
block-diagonalizes the derivative; the refined splitting then certifies
at a slightly weaker rate with zero off-diagonal tolerance.

Finite windows pin the unstable graph to zero at the left edge and the
stable graph at the right edge.  With the boundary pinned, each fixed
point is a single pass of its transform: forward for P, backward for Q.
Boundary influence decays geometrically into the interior, which callers
can quantify by comparing windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certification import (Certificate, OrbitBlocks, _covering, _singular_values, block_norms,
                            certify_pseudo_orbit, pseudo_orbit_blocks)
from .pseudo_orbit import SegmentedPseudoOrbit, SplittingAssignment
from .splitting import min_norm, op_norm
from .systems import SmoothMap

__all__ = [
    "RefinementConfig",
    "make_refinement_config",
    "PreconditionError",
    "GraphTransformError",
    "solve_unstable_graphs",
    "solve_stable_graphs",
    "RefinementResult",
    "refine",
]


class PreconditionError(RuntimeError):
    """Input violates the bounds the refinement contraction needs."""


class GraphTransformError(RuntimeError):
    """A graph solve failed: singular denominator, ball escape, or an
    invariance residual above tolerance."""


@dataclass(frozen=True)
class RefinementConfig:
    """Rates and tolerance for one refinement solve.

    eps_cap is the largest admissible off-diagonal size,
    min((1 - lam0^2) / ((lam0^2 + 6) R), (lam0 - lam) / (lam0 R)) for an
    interior rate lam0 between the certified and the target rate.
    """

    lam: float
    lam_tilde: float
    lam0: float
    R: float
    eps_cap: float
    offdiag_tol: float = 1e-8


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
    eps_cap = min(
        (1.0 - lam0 * lam0) / ((lam0 * lam0 + 6.0) * R),
        (lam0 - lam) / (lam0 * R),
    )
    return RefinementConfig(
        lam=lam, lam_tilde=lam_tilde, lam0=lam0, R=R, eps_cap=eps_cap,
        offdiag_tol=offdiag_tol,
    )


def solve_unstable_graphs(blocks: OrbitBlocks) -> np.ndarray:
    """Fixed point of the unstable graph transform, pinned to zero at index 0.

    With P_0 fixed, P_{j+1} depends on P_j alone, so the fixed point is the
    forward recursion itself.  Returns P with shape (N + 1, ds, du).
    """
    A, B, C, D = blocks.A, blocks.B, blocks.C, blocks.D
    P = np.zeros((len(blocks) + 1,) + C.shape[1:])
    for j in range(len(blocks)):
        den = A[j] + B[j] @ P[j]
        try:
            P[j + 1] = np.linalg.solve(den.T, (C[j] + D[j] @ P[j]).T).T
        except np.linalg.LinAlgError as exc:
            raise GraphTransformError(
                f"singular unstable denominator at index {j}: "
                f"m(A + B P) = {min_norm(den):.3e}"
            ) from exc
        if op_norm(P[j + 1]) > 1.0 + 1e-9:
            raise GraphTransformError(
                f"graph left the unit ball at index {j + 1} "
                f"(norm {op_norm(P[j + 1]):.6f}); off-diagonal bounds too weak"
            )
    return P


def solve_stable_graphs(blocks: OrbitBlocks) -> np.ndarray:
    """Fixed point of the mirrored transform, pinned to zero at index N.

    One backward pass: Q_j solves (I - A_j^(-1) Q_{j+1} C_j) Q_j
    = A_j^(-1) (Q_{j+1} D_j - B_j).  Returns Q with shape (N + 1, du, ds).
    """
    A, B, C, D = blocks.A, blocks.B, blocks.C, blocks.D
    Q = np.zeros((len(blocks) + 1,) + B.shape[1:])
    for j in range(len(blocks) - 1, -1, -1):
        lhs = np.eye(A.shape[1]) - np.linalg.solve(A[j], Q[j + 1] @ C[j])
        rhs = np.linalg.solve(A[j], Q[j + 1] @ D[j] - B[j])
        try:
            Q[j] = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError as exc:
            raise GraphTransformError(f"singular stable solve at index {j}") from exc
        if op_norm(Q[j]) > 1.0 + 1e-9:
            raise GraphTransformError(
                f"stable graph left the unit ball at index {j} "
                f"(norm {op_norm(Q[j]):.6f})"
            )
    return Q


def unstable_invariance_residuals(P: np.ndarray, blocks: OrbitBlocks) -> np.ndarray:
    """||P_{j+1} (A_j + B_j P_j) - (C_j + D_j P_j)|| per index."""
    b = blocks
    return _singular_values(P[1:] @ (b.A + b.B @ P[:-1]) - (b.C + b.D @ P[:-1]), 0, 0.0)


def stable_invariance_residuals(Q: np.ndarray, blocks: OrbitBlocks) -> np.ndarray:
    """||A_j Q_j + B_j - Q_{j+1} (C_j Q_j + D_j)|| per index."""
    b = blocks
    return _singular_values(b.A @ Q[:-1] + b.B - Q[1:] @ (b.C @ Q[:-1] + b.D), 0, 0.0)


@dataclass(eq=False)
class RefinementResult:
    splittings: SplittingAssignment
    certificate: Certificate
    unstable_graphs: np.ndarray
    stable_graphs: np.ndarray
    blocks: OrbitBlocks
    max_invariance_residual: float
    max_offdiagonal: float


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
    eps_cap; returns the graph-tilted splitting family together with its
    certificate at (lam_tilde, offdiag_tol, delta).  blocks, when given,
    are what pseudo_orbit_blocks returns and must cover po; the refined
    blocks on the result have the same form.
    """
    blocks = _covering(po, splittings, f, blocks)
    eps_actual = float(block_norms(blocks)[2].max())
    if eps_actual > config.eps_cap:
        raise PreconditionError(
            f"off-diagonal size {eps_actual:.3e} exceeds the admissible cap "
            f"{config.eps_cap:.3e} at rate {config.lam}"
        )
    if delta is None:
        delta = float(po.residuals.max()) if po.residuals.size else 0.0
    input_cert = certify_pseudo_orbit(po, splittings, f, config.lam,
                                      max(eps_actual, 1e-15), delta, blocks=blocks)
    if not input_cert.passed:
        worst = input_cert.worst()
        raise PreconditionError(
            f"input does not certify at rate {config.lam}: binding condition "
            f"{worst.condition} at segment {worst.segment}, step {worst.step} "
            f"(margin {worst.margin:.3e})"
        )

    P = solve_unstable_graphs(blocks)
    Q = solve_stable_graphs(blocks)
    max_res = float(max(unstable_invariance_residuals(P, blocks).max(),
                        stable_invariance_residuals(Q, blocks).max()))
    if max_res > config.offdiag_tol:
        raise GraphTransformError(
            f"graph invariance residual {max_res:.3e} exceeds {config.offdiag_tol:.3e}"
        )

    u, s = splittings.unstable, splittings.stable
    refined = SplittingAssignment.from_bases(u + s @ P, s + u @ Q)
    new_blocks = pseudo_orbit_blocks(po, refined, f)
    certificate = certify_pseudo_orbit(po, refined, f, config.lam_tilde,
                                       config.offdiag_tol, delta, blocks=new_blocks)
    return RefinementResult(
        splittings=refined,
        certificate=certificate,
        unstable_graphs=P,
        stable_graphs=Q,
        blocks=new_blocks,
        max_invariance_residual=max_res,
        max_offdiagonal=certificate.max_offdiagonal,
    )
