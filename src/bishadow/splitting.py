"""Tangent-space splittings, eigen splittings, and block norms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Splitting",
    "eigen_splitting",
    "min_norm",
    "op_norm",
]

_ORTHO_TOL = 1e-12


def _orthonormalize(basis: np.ndarray) -> np.ndarray:
    """QR-orthonormalize the columns of one ``(n, k)`` basis or a stack
    ``(..., n, k)`` of them, with a deterministic sign convention."""
    if not basis.shape[-1]:
        return basis
    q, r = np.linalg.qr(basis)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return q * signs[..., None, :]


def _not_transverse(j):
    return ValueError("rank-deficient splitting: subspaces are not transverse")


def _checked_basis(u: np.ndarray, s: np.ndarray, min_gap: float = _ORTHO_TOL,
                   gap_error=_not_transverse):
    """[u | s] and its inverse for one orthonormal basis pair or for stacks
    ``(..., n, du)``/``(..., n, ds)`` of them, each check run on the whole stack.
    A basis whose smallest singular value is below min_gap raises
    gap_error(j), j the first such index of a stack."""
    if u.shape[-2] != s.shape[-2]:
        raise ValueError("bases live in different ambient dimensions")
    if u.shape[-1] + s.shape[-1] != u.shape[-2]:
        raise ValueError("subspace dimensions must add up to the ambient dimension")
    for name, b in (("unstable", u), ("stable", s)):
        gram = np.swapaxes(b, -1, -2) @ b
        if b.shape[-1] and np.abs(gram - np.eye(b.shape[-1])).max() > 1e-9:
            raise ValueError(f"{name} basis is not orthonormal; use from_bases")
    basis = np.concatenate([u, s], axis=-1)
    narrow = np.flatnonzero(np.linalg.svd(basis, compute_uv=False)[..., -1] < min_gap)
    if narrow.size:
        raise gap_error(int(narrow[0]))
    return basis, np.linalg.inv(basis)


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
        basis, basis_inv = _checked_basis(u, s)
        for arr in (u, s, basis):
            arr.setflags(write=False)
        object.__setattr__(self, "unstable", u)
        object.__setattr__(self, "stable", s)
        object.__setattr__(self, "_basis", basis)
        object.__setattr__(self, "_basis_inv", basis_inv)

    @classmethod
    def from_bases(cls, unstable, stable) -> "Splitting":
        return cls(*(_orthonormalize(np.atleast_2d(np.asarray(b, dtype=float)))
                     for b in (unstable, stable)))

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
