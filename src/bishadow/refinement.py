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

from .certification import Certificate, certify_blocks, pseudo_orbit_blocks
from .pseudo_orbit import SegmentedPseudoOrbit, SplittingAssignment
from .splitting import Splitting, min_norm, op_norm
from .systems import SmoothMap

__all__ = [
    "RefinementConfig",
    "make_refinement_config",
    "PreconditionError",
    "GraphTransformError",
    "chart_blocks",
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


def chart_blocks(
    po: SegmentedPseudoOrbit,
    splittings: SplittingAssignment,
    f: SmoothMap,
    delta_cap: float | None = None,
):
    """Flat list of chart-derivative blocks along the pseudo-orbit.

    On flat phase spaces the chart derivative at the origin is the
    ambient Jacobian, read from each index's splitting into the next
    one's (the next seed's splitting at segment joins).
    """
    if delta_cap is not None and po.residuals.size and float(po.residuals.max()) > delta_cap:
        raise PreconditionError(
            f"residual {float(po.residuals.max()):.3e} exceeds the chart threshold {delta_cap:.3e}"
        )
    per_segment = pseudo_orbit_blocks(po, splittings, f)
    return [b for seg in per_segment for b in seg]


def _split_by_offsets(flat, offsets):
    return tuple(tuple(flat[int(a):int(b)]) for a, b in zip(offsets[:-1], offsets[1:]))


def solve_unstable_graphs(blocks) -> np.ndarray:
    """Fixed point of the unstable graph transform, pinned to zero at index 0.

    With P_0 fixed, P_{j+1} depends on P_j alone, so the fixed point is the
    forward recursion itself.  Returns P with shape (N + 1, ds, du).
    """
    n = len(blocks)
    du, ds = blocks[0].A.shape[1], blocks[0].D.shape[1]
    P = np.zeros((n + 1, ds, du))
    for j, blk in enumerate(blocks):
        den = blk.A + blk.B @ P[j]
        try:
            P[j + 1] = np.linalg.solve(den.T, (blk.C + blk.D @ P[j]).T).T
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


def solve_stable_graphs(blocks) -> np.ndarray:
    """Fixed point of the mirrored transform, pinned to zero at index N.

    One backward pass: Q_j solves (I - A_j^(-1) Q_{j+1} C_j) Q_j
    = A_j^(-1) (Q_{j+1} D_j - B_j).  Returns Q with shape (N + 1, du, ds).
    """
    n = len(blocks)
    du, ds = blocks[0].A.shape[1], blocks[0].D.shape[1]
    Q = np.zeros((n + 1, du, ds))
    for j in range(n - 1, -1, -1):
        blk = blocks[j]
        lhs = np.eye(du) - np.linalg.solve(blk.A, Q[j + 1] @ blk.C)
        rhs = np.linalg.solve(blk.A, Q[j + 1] @ blk.D - blk.B)
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


def unstable_invariance_residuals(P: np.ndarray, blocks) -> np.ndarray:
    """||P_{j+1} (A_j + B_j P_j) - (C_j + D_j P_j)|| per index."""
    return np.array([
        op_norm(P[j + 1] @ (b.A + b.B @ P[j]) - (b.C + b.D @ P[j]))
        for j, b in enumerate(blocks)
    ])


def stable_invariance_residuals(Q: np.ndarray, blocks) -> np.ndarray:
    """||A_j Q_j + B_j - Q_{j+1} (C_j Q_j + D_j)|| per index."""
    return np.array([
        op_norm(b.A @ Q[j] + b.B - Q[j + 1] @ (b.C @ Q[j] + b.D))
        for j, b in enumerate(blocks)
    ])


@dataclass(eq=False)
class RefinementResult:
    splittings: SplittingAssignment
    certificate: Certificate
    unstable_graphs: np.ndarray
    stable_graphs: np.ndarray
    blocks: tuple
    max_invariance_residual: float
    max_offdiagonal: float

    @property
    def is_block_diagonal(self) -> bool:
        return self.max_offdiagonal <= 1e-8


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
    certificate at (lam_tilde, offdiag_tol, delta).
    """
    if blocks is None:
        blocks = chart_blocks(po, splittings, f)
    eps_actual = max(max(op_norm(b.B), op_norm(b.C)) for b in blocks)
    if eps_actual > config.eps_cap:
        raise PreconditionError(
            f"off-diagonal size {eps_actual:.3e} exceeds the admissible cap "
            f"{config.eps_cap:.3e} at rate {config.lam}"
        )
    if delta is None:
        delta = float(po.residuals.max()) if po.residuals.size else 0.0
    by_seg = _split_by_offsets(blocks, po.offsets)
    input_cert = certify_blocks(by_seg, po.residuals, po, config.lam,
                                max(eps_actual, 1e-15), delta)
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

    refined = []
    for j in range(po.n_steps + 1):
        base = splittings[j]
        u_raw = base.unstable + base.stable @ P[j]
        s_raw = base.stable + base.unstable @ Q[j]
        refined.append(Splitting.from_bases(u_raw, s_raw))
    refined = SplittingAssignment(tuple(refined))

    new_blocks = pseudo_orbit_blocks(po, refined, f)
    flat_new = [b for seg in new_blocks for b in seg]
    max_off = max(max(op_norm(b.B), op_norm(b.C)) for b in flat_new)
    certificate = certify_blocks(new_blocks, po.residuals, po,
                                 config.lam_tilde, config.offdiag_tol, delta)
    return RefinementResult(
        splittings=refined,
        certificate=certificate,
        unstable_graphs=P,
        stable_graphs=Q,
        blocks=tuple(flat_new),
        max_invariance_residual=max_res,
        max_offdiagonal=float(max_off),
    )
