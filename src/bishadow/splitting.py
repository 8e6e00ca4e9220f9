"""Tangent-space splittings, block decompositions, and the associated norms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Splitting",
    "BlockJacobian",
    "eigen_splitting",
    "block_decompose",
    "min_norm",
    "op_norm",
    "box_norm",
    "box_equivalence_constant",
]

_ORTHO_TOL = 1e-12


def _orthonormalize(basis: np.ndarray) -> np.ndarray:
    """QR-orthonormalize columns with a deterministic sign convention."""
    q, r = np.linalg.qr(basis)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


@dataclass(frozen=True, eq=False)
class Splitting:
    """An unstable/stable decomposition of the tangent space.

    Both bases are stored with orthonormal columns; the two subspaces
    together must span the space but need not be mutually orthogonal.
    Component coordinates are taken with the oblique projections along
    the complementary subspace.
    """

    unstable: np.ndarray
    stable: np.ndarray

    def __post_init__(self):
        u = np.atleast_2d(np.asarray(self.unstable, dtype=float))
        s = np.atleast_2d(np.asarray(self.stable, dtype=float))
        if u.shape[0] != s.shape[0]:
            raise ValueError("bases live in different ambient dimensions")
        dim = u.shape[0]
        if u.shape[1] + s.shape[1] != dim:
            raise ValueError("subspace dimensions must add up to the ambient dimension")
        for name, b in (("unstable", u), ("stable", s)):
            if b.shape[1] and np.abs(b.T @ b - np.eye(b.shape[1])).max() > 1e-9:
                raise ValueError(f"{name} basis is not orthonormal; use from_bases")
        basis = np.concatenate([u, s], axis=1)
        if np.linalg.svd(basis, compute_uv=False)[-1] < _ORTHO_TOL:
            raise ValueError("rank-deficient splitting: subspaces are not transverse")
        for arr in (u, s, basis):
            arr.setflags(write=False)
        object.__setattr__(self, "unstable", u)
        object.__setattr__(self, "stable", s)
        object.__setattr__(self, "_basis", basis)
        object.__setattr__(self, "_basis_inv", np.linalg.inv(basis))

    @classmethod
    def from_bases(cls, unstable, stable) -> "Splitting":
        u = np.atleast_2d(np.asarray(unstable, dtype=float))
        s = np.atleast_2d(np.asarray(stable, dtype=float))
        return cls(_orthonormalize(u) if u.shape[1] else u, _orthonormalize(s) if s.shape[1] else s)

    @property
    def dim(self) -> int:
        return self.unstable.shape[0]

    @property
    def dim_u(self) -> int:
        return self.unstable.shape[1]

    @property
    def dim_s(self) -> int:
        return self.stable.shape[1]

    @property
    def basis(self) -> np.ndarray:
        return self._basis

    @property
    def basis_inv(self) -> np.ndarray:
        return self._basis_inv

    def coords(self, v):
        """Oblique components (a, b) with v = U a + S b."""
        c = self._basis_inv @ np.asarray(v, dtype=float)
        return c[: self.dim_u], c[self.dim_u :]

    def unstable_coords(self, v):
        return self.coords(v)[0]

    def stable_coords(self, v):
        return self.coords(v)[1]

    def assemble(self, a, b):
        return self.unstable @ np.asarray(a, float) + self.stable @ np.asarray(b, float)

    def project_unstable(self, v):
        return self.unstable @ self.unstable_coords(v)

    def project_stable(self, v):
        return self.stable @ self.stable_coords(v)


@dataclass(frozen=True, eq=False)
class BlockJacobian:
    """Blocks of a linear map read in a source and a target splitting.

    A maps unstable to unstable, D stable to stable; B and C are the
    off-diagonal couplings (stable-to-unstable and unstable-to-stable).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    src: Splitting
    dst: Splitting

    def assembled(self) -> np.ndarray:
        """Reconstruct the ambient matrix from the blocks."""
        top = np.concatenate([self.A, self.B], axis=1)
        bot = np.concatenate([self.C, self.D], axis=1)
        return self.dst.basis @ np.concatenate([top, bot], axis=0) @ self.src.basis_inv

    def scaled(self, factor: float) -> "BlockJacobian":
        return BlockJacobian(
            self.A * factor, self.B * factor, self.C * factor, self.D * factor,
            self.src, self.dst,
        )


def block_decompose(J, src: Splitting, dst: Splitting) -> BlockJacobian:
    """Represent the matrix J in the two splittings' orthonormal bases."""
    J = np.asarray(J, dtype=float)
    if J.shape != (dst.dim, src.dim):
        raise ValueError("matrix shape does not match the splittings")
    sv = np.linalg.svd(J, compute_uv=False)
    if sv[-1] <= sv[0] * 1e-14:
        raise ValueError("singular matrix cannot be block-decomposed here")
    m = dst.basis_inv @ J @ src.basis
    du_s, du_d = src.dim_u, dst.dim_u
    return BlockJacobian(
        A=m[:du_d, :du_s],
        B=m[:du_d, du_s:],
        C=m[du_d:, :du_s],
        D=m[du_d:, du_s:],
        src=src,
        dst=dst,
    )


def min_norm(block) -> float:
    """Smallest singular value; +inf for an empty block."""
    block = np.atleast_2d(np.asarray(block, dtype=float))
    if block.size == 0:
        return np.inf
    return float(np.linalg.svd(block, compute_uv=False)[-1])


def op_norm(block) -> float:
    """Largest singular value; 0 for an empty block."""
    block = np.atleast_2d(np.asarray(block, dtype=float))
    if block.size == 0:
        return 0.0
    return float(np.linalg.svd(block, compute_uv=False)[0])


def box_norm(v, sp: Splitting) -> float:
    """max(|v_u|, |v_s|) over the splitting's component decomposition."""
    a, b = sp.coords(v)
    return float(max(np.linalg.norm(a), np.linalg.norm(b)))


def box_equivalence_constant(sp: Splitting) -> float:
    """kappa with |v|/kappa <= box(v) <= kappa |v| for all v."""
    t_hi = op_norm(sp.basis)
    t_inv_hi = op_norm(sp.basis_inv)
    return float(max(t_inv_hi, np.sqrt(2.0) * t_hi))


def eigen_splitting(matrix, dim_u: int | None = None) -> Splitting:
    """Splitting spanned by eigenvectors, expanding directions first.

    Only real spectra are supported; by default the unstable part
    collects the eigenvalues of modulus greater than one.
    """
    m = np.asarray(matrix, dtype=float)
    w, v = np.linalg.eig(m)
    scale = max(1.0, float(np.abs(w).max()))
    if np.abs(w.imag).max() > 1e-10 * scale:
        raise ValueError("complex spectrum; supply a splitting explicitly")
    w, v = w.real, v.real
    order = np.argsort(-np.abs(w))
    w, v = w[order], v[:, order]
    if dim_u is None:
        dim_u = int(np.sum(np.abs(w) > 1.0))
    if dim_u == 0 or dim_u == m.shape[0]:
        raise ValueError("eigen splitting needs both expanding and contracting directions")
    # deterministic sign: first nonzero component of each column positive
    for k in range(v.shape[1]):
        nz = np.flatnonzero(np.abs(v[:, k]) > 1e-14)[0]
        if v[nz, k] < 0:
            v[:, k] = -v[:, k]
    return Splitting.from_bases(v[:, :dim_u], v[:, dim_u:])
