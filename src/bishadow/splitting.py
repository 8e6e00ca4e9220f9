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
#: LAPACK's safe minimum over its epsilon, dlamch('S') / dlamch('E'), 2^-969:
#: below it dlarfg rescales its column
_SAFMIN = np.finfo(float).tiny / (np.finfo(float).eps / 2)
_MAX = np.finfo(float).max


def _orthonormalize(basis: np.ndarray) -> np.ndarray:
    """QR-orthonormalize the columns of one ``(n, k)`` basis or a stack
    ``(..., n, k)`` of them, with a deterministic sign convention: the Q
    column signs make R's diagonal nonnegative."""
    if not basis.shape[-1]:
        return basis
    if basis.shape[-2:] == (2, 1):
        q = _householder_columns(basis)
        if q is not None:
            return q
    q, r = np.linalg.qr(basis)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return q * signs[..., None, :]


def _householder_columns(x):
    """_orthonormalize of 2x1 columns x ``(..., 2, 1)`` by LAPACK's own
    arithmetic, for its bits: dlarfg turns (a, b) into beta = -sign(a)
    lapy2(a, b), tau = (beta - a) / beta and v1 = b * (1 / (a - beta)), and
    dorg2r's column is (1 - tau, -tau v1), signed by beta here.  None where
    LAPACK takes another path or overflows: some b is zero (no reflection),
    some |beta| is below _SAFMIN (dlarfg rescales) or not finite."""
    a, b = x[..., 0, 0], x[..., 1, 0]
    abs_a, abs_b = np.abs(a), np.abs(b)
    w, z = np.maximum(abs_a, abs_b), np.minimum(abs_a, abs_b)
    with np.errstate(over="ignore", invalid="ignore"):  # as LAPACK's, past 8.9e307
        norm = w * np.sqrt(1.0 + np.square(z / w))  # dlapy2
        if not (b.all() and _SAFMIN <= np.minimum.reduce(norm, axis=None)
                and np.maximum.reduce(norm, axis=None) <= _MAX):
            return None
        beta = -np.copysign(norm, a)
        tau = (beta - a) / beta
        sign = np.sign(beta)
        q = np.empty_like(x)
        np.multiply(1.0 - tau, sign, out=q[..., 0, 0])
        np.multiply(-tau * (b * (1.0 / (a - beta))), sign, out=q[..., 1, 0])
    return q


def _extreme_singular_values(x):
    """Largest and smallest singular values of every matrix in the stack x
    ``(..., n, n)``, for verdicts only.  A 2x2 [[a, b], [c, d]] has
    s_max = (q + r) / 2 and s_min = |q - r| / 2, with q = |(a + d, c - b)|
    and r = |(a - d, c + b)|: within 8 eps s_max of LAPACK's values, not
    its bits.  A stack with an s_max that is not finite or is below
    _SAFMIN, where subnormal roundings would cost the closed form its
    relative accuracy, goes to LAPACK, as does every other shape; an entry
    that is not finite makes s_max so."""
    if x.shape[-2:] == (2, 2):
        a, b, c, d = x[..., 0, 0], x[..., 0, 1], x[..., 1, 0], x[..., 1, 1]
        with np.errstate(over="ignore", invalid="ignore"):
            q, r = np.hypot(a + d, c - b), np.hypot(a - d, c + b)
            s_max = 0.5 * (q + r)
        if (_SAFMIN <= np.minimum.reduce(s_max, axis=None)
                and np.maximum.reduce(s_max, axis=None) <= _MAX):
            return s_max, 0.5 * np.abs(q - r)
    s = np.linalg.svd(x, compute_uv=False)
    return s[..., 0], s[..., -1]


def _not_transverse(j):
    return ValueError("rank-deficient splitting: subspaces are not transverse")


def _checked_basis(u: np.ndarray, s: np.ndarray, min_gap: float = _ORTHO_TOL,
                   gap_error=_not_transverse):
    """[u | s] and its inverse for one orthonormal basis pair or for stacks
    ``(..., n, du)``/``(..., n, ds)`` of them, each check run on the whole stack.
    A basis whose smallest singular value is below min_gap raises
    gap_error(j), j the first such index of a stack, before any inversion.
    A 2x2 basis [[a, b], [c, d]] is inverted as [[d, -b], [-c, a]] / (ad - bc),
    whose determinant is about min_gap in size or more, as its columns are unit;
    every other shape by LAPACK."""
    if u.shape[-2] != s.shape[-2]:
        raise ValueError("bases live in different ambient dimensions")
    if u.shape[-1] + s.shape[-1] != u.shape[-2]:
        raise ValueError("subspace dimensions must add up to the ambient dimension")
    for name, b in (("unstable", u), ("stable", s)):
        gram = np.swapaxes(b, -1, -2) @ b
        if b.shape[-1] and np.abs(gram - np.eye(b.shape[-1])).max() > 1e-9:
            raise ValueError(f"{name} basis is not orthonormal; use from_bases")
    basis = np.concatenate([u, s], axis=-1)
    narrow = np.flatnonzero(_extreme_singular_values(basis)[1] < min_gap)
    if narrow.size:
        raise gap_error(int(narrow[0]))
    if basis.shape[-2:] == (2, 2):  # the adjugate over the determinant
        a, b, c, d = basis[..., 0, 0], basis[..., 0, 1], basis[..., 1, 0], basis[..., 1, 1]
        inv = np.stack([d, -b, -c, a], axis=-1).reshape(basis.shape)
        inv /= (a * d - b * c)[..., None, None]
        return basis, inv
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
    return Splitting.from_bases(*_eigen_columns(matrix, dim_u))


def _eigen_columns(matrix, dim_u: int | None = None) -> tuple:
    """The unstable and stable eigenvector columns of eigen_splitting, before
    their orthonormalisation."""
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
    return v[:, :dim_u], v[:, dim_u:]
