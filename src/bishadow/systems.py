"""Flat phase spaces and the smooth maps acting on them.

Points are plain numpy arrays.  A phase space is either the flat unit
torus T^n (coordinates canonicalized to [0, 1)) or Euclidean R^n.  On
both, the exponential chart at a point is a translation, so tangent
vectors and displacement vectors coincide and chart derivatives equal
the ambient Jacobian.

Shipped systems: the cat map, a sinusoidally perturbed cat map, affine
maps on R^n, and post-composition with a constant shift (the standard
"perturbed dynamics" used throughout the tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Phase",
    "SmoothMap",
    "TorusLinearMap",
    "cat_map",
    "PerturbedCatMap",
    "AffineMap",
    "ShiftedMap",
    "SystemBounds",
    "system_bounds",
    "cat_amplitude",
    "map_distance",
]

#: most points a sampling grid may hold
MAX_GRID = 2 ** 22


@dataclass(frozen=True)
class Phase:
    """A flat phase space: the unit torus T^n or Euclidean R^n."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in ("torus", "euclidean"):
            raise ValueError(f"unknown phase kind {self.kind!r}")
        if self.dim < 2:
            raise ValueError("phase spaces must be at least 2-dimensional")

    @property
    def injectivity_radius(self) -> float:
        return 0.5 if self.kind == "torus" else np.inf

    def canon(self, x):
        """Canonical representative; torus coordinates in [0, 1).  x - floor(x)
        is one rounding of the real number np.mod(x, 1.0) rounds: its bits."""
        x = np.asarray(x, dtype=float)
        if self.kind == "euclidean":
            return x
        c = np.asarray(x - np.floor(x))
        c[c >= 1.0] = 0.0  # rounding can land exactly on 1.0 for tiny negative inputs
        return c

    def wrap(self, d):
        """Shortest displacement representative, coordinates in (-1/2, 1/2]."""
        d = np.asarray(d, dtype=float)
        if self.kind == "euclidean":
            return d
        w = d - np.floor(d + 0.5)
        return np.where(w <= -0.5, w + 1.0, w)

    def exp(self, x, v):
        """Chart map: the point reached from x by the tangent vector v."""
        return self.canon(np.asarray(x, dtype=float) + np.asarray(v, dtype=float))

    def distance(self, x, q):
        d = np.asarray(q, dtype=float) - np.asarray(x, dtype=float)
        return np.linalg.norm(self.wrap(d), axis=-1)

    # no package path samples grids; perfbench/spans.py still wraps this to count points
    def grid(self, res: int):
        """Uniform sampling grid with ``res`` points per axis (torus only).

        Grids of different resolutions are nested whenever the resolutions
        divide each other, so grid suprema are monotone under refinement.
        """
        if self.kind != "torus":
            raise ValueError("sampling grids are only defined on the torus")
        if res ** self.dim > MAX_GRID:
            raise ValueError("grid too large; lower the per-axis resolution")
        axes = [np.arange(res) / res] * self.dim
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


class SmoothMap:
    """Base class for a C^1 map with an explicit derivative.

    Subclasses provide ``__call__`` and ``jacobian``; both accept a single
    point ``(dim,)`` or a batch ``(m, dim)``.  One hook serves step-indexed
    (nonautonomous) systems: ``along(x, steps)`` and
    ``jacobian_along(x, steps)`` apply step ``steps[r]`` to row r of x, or
    step ``steps`` to every row when it is an int, so any set of steps
    takes one call.  An autonomous map ignores ``steps``.
    """

    phase: Phase

    def __call__(self, x):
        raise NotImplementedError

    def jacobian(self, x):
        raise NotImplementedError

    def along(self, x, steps):
        """Row r of x mapped by step steps[r]."""
        return self(x)

    def jacobian_along(self, x, steps):
        """Derivative of step steps[r] at row r of x, shape ``(m, dim, dim)``."""
        return self.jacobian(x)

    def derivative_bounds(self):
        """Analytic ``(R, L)``, or None when the map has none: R bounds
        ||Df|| and ||Df^-1||, L is a Lipschitz constant of Df.  L = 0 means
        Df is constant and R exact."""
        return None


class TorusLinearMap(SmoothMap):
    """Endomorphism of the torus induced by an integer matrix with nonzero
    determinant: a |det|-to-1 covering, an automorphism when |det| = 1.
    Nothing inverts the map; only derivative_bounds' 1 / s_min needs det != 0."""

    def __init__(self, matrix):
        m = np.asarray(matrix)
        if not np.all(m == np.round(m)):
            raise ValueError("torus endomorphisms need an integer matrix")
        if round(np.linalg.det(m)) == 0:
            raise ValueError("matrix must have a nonzero determinant")
        self.matrix = np.asarray(m, dtype=float)
        self.phase = Phase("torus", self.matrix.shape[0])

    def __call__(self, x):
        return self.phase.canon(_column_sum(np.asarray(x, dtype=float), self.matrix))

    def jacobian(self, x):
        return np.broadcast_to(self.matrix, np.shape(x)[:-1] + self.matrix.shape).copy()

    def derivative_bounds(self):
        s = np.linalg.svd(self.matrix, compute_uv=False)
        return float(max(s[0], 1.0 / s[-1])), 0.0


def cat_map() -> TorusLinearMap:
    """The Arnold cat map [[2, 1], [1, 1]] on T^2."""
    return TorusLinearMap([[2, 1], [1, 1]])


class PerturbedCatMap(SmoothMap):
    """Cat map plus an amplitude-c sinusoidal shear.

    f(x) = A x + (c / 2pi) (sin 2pi x2, sin 2pi x1)  (mod 1),
    with A the cat-map matrix.  The perturbation is 1-periodic in each
    coordinate, so the map is well defined on the torus.
    """

    def __init__(self, amplitude: float):
        self.amplitude = float(amplitude)
        self.matrix = np.array([[2.0, 1.0], [1.0, 1.0]])
        self.phase = Phase("torus", 2)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        c = self.amplitude / (2.0 * np.pi)
        y1 = 2.0 * x1 + x2 + c * np.sin(2.0 * np.pi * x2)
        y2 = x1 + x2 + c * np.sin(2.0 * np.pi * x1)
        return self.phase.canon(np.stack([y1, y2], axis=-1))

    def jacobian(self, x):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        c = self.amplitude
        j = np.empty(x.shape[:-1] + (2, 2))
        j[..., 0, 0] = 2.0
        j[..., 0, 1] = 1.0 + c * np.cos(2.0 * np.pi * x2)
        j[..., 1, 0] = 1.0 + c * np.cos(2.0 * np.pi * x1)
        j[..., 1, 1] = 1.0
        return j

    def derivative_bounds(self):
        # Df = A + E with ||E|| <= |c|, so by Weyl's inequality every singular
        # value of Df lies within |c| of A's; each entry of E is 2 pi |c|-Lipschitz
        c = abs(self.amplitude)
        s = np.linalg.svd(self.matrix, compute_uv=False)
        if c >= s[-1]:
            return None
        return float(max(s[0] + c, 1.0 / (s[-1] - c))), 2.0 * np.pi * c


class AffineMap(SmoothMap):
    """x -> M x + b on Euclidean space, M square and invertible."""

    def __init__(self, matrix, offset=None):
        self.matrix = np.asarray(matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("an affine map needs a square matrix")
        sv = np.linalg.svd(self.matrix, compute_uv=False)
        if sv[-1] <= sv[0] * 1e-14:  # the derivative blocks' singularity test
            raise ValueError(f"affine matrix must be invertible (singular values "
                             f"{sv[0]:.3e} to {sv[-1]:.3e})")
        n = self.matrix.shape[0]
        self.offset = np.zeros(n) if offset is None else np.asarray(offset, dtype=float)
        self.phase = Phase("euclidean", n)

    def __call__(self, x):
        return _column_sum(np.asarray(x, dtype=float), self.matrix) + self.offset

    jacobian = TorusLinearMap.jacobian  # the constant Df = M
    derivative_bounds = TorusLinearMap.derivative_bounds


def _column_sum(x, matrix):
    """x @ matrix.T as a fixed-order sum of columns, so that each row has the
    bits it has alone (a BLAS product may round a row by its place in the
    batch)."""
    y = x[..., 0, None] * matrix[:, 0]
    for k in range(1, matrix.shape[1]):
        y += x[..., k, None] * matrix[:, k]
    return y


class ShiftedMap(SmoothMap):
    """g = shift after f; the derivative is unchanged.

    On a torus the shift is stored as its shortest representative, so that a
    shift by a whole period adds nothing, where in floating point it would
    round away f's value.
    """

    def __init__(self, base: SmoothMap, shift):
        self.base = base
        self.phase = base.phase
        shift = np.asarray(shift, dtype=float)
        if shift.shape != (self.phase.dim,):
            raise ValueError(f"a shift on a {self.phase.dim}-dimensional space needs "
                             f"{self.phase.dim} coordinates")
        self.shift = self.phase.wrap(shift)

    def __call__(self, x):
        return self.phase.canon(self.base(x) + self.shift)

    def jacobian(self, x):
        return self.base.jacobian(x)

    def along(self, x, steps):
        return self.phase.canon(self.base.along(x, steps) + self.shift)

    def jacobian_along(self, x, steps):
        return self.base.jacobian_along(x, steps)

    def derivative_bounds(self):
        return self.base.derivative_bounds()


@dataclass(frozen=True)
class SystemBounds:
    """Derivative constants of a map, and where they come from.

    R bounds both ||Df|| and ||Df^-1||, and L is a Lipschitz constant of
    Df.  kind is "exact" (a constant Df), "bound" (analytic upper bounds)
    or "estimated" (values that are not known to be upper bounds; the
    package never produces them, it only carries through a caller's).
    """

    R: float
    L: float
    kind: str


def system_bounds(f: SmoothMap) -> SystemBounds:
    """f's derivative constants from ``f.derivative_bounds()``.

    A map without analytic bounds raises ValueError: sampled suprema are
    lower estimates, on which no size precondition can rest.
    """
    analytic = f.derivative_bounds()
    if analytic is None:
        raise ValueError(f"{type(f).__name__} has no analytic derivative bounds; "
                         "pass bounds=SystemBounds(R, L, kind) for it")
    R, L = analytic
    return SystemBounds(R=max(R, 1.0), L=L, kind="bound" if L else "exact")


def cat_amplitude(f: SmoothMap):
    """c for PerturbedCatMap(c), 0 for the cat map, None for any other map."""
    if isinstance(f, PerturbedCatMap):
        return f.amplitude
    if isinstance(f, TorusLinearMap) and np.array_equal(f.matrix, cat_map().matrix):
        return 0.0
    return None


_PARAMETERS = {TorusLinearMap: ("matrix",), PerturbedCatMap: ("amplitude",),
               AffineMap: ("matrix", "offset")}


def _same_map(f: SmoothMap, g: SmoothMap) -> bool:
    """Whether g is f, or a map of f's type with the same matrix, offset
    or amplitude."""
    return g is f or (type(g) is type(f) and type(f) in _PARAMETERS and all(
        np.array_equal(getattr(f, name), getattr(g, name)) for name in _PARAMETERS[type(f)]))


def map_distance(f: SmoothMap, g: SmoothMap) -> float:
    """The sup over x of the distance from f(x) to g(x), which is exact.

    It comes from a closed form: g is the same map as f (0), g is
    ShiftedMap(h, s) for h the same map as f (|s|, s stored wrapped); the
    same map means f itself or one of f's type with the same matrix,
    offset or amplitude; the cat map or PerturbedCatMap(c) against
    PerturbedCatMap(c') (sqrt(2) min(|c - c'| / 2 pi, 1/2), at (1/4, 1/4)
    while |c - c'| <= pi), or affine maps with equal matrices.  Any other
    pair raises ValueError: a sampled supremum would only be a lower
    estimate.
    """
    if f.phase != g.phase:
        raise ValueError("maps live on different phase spaces")
    if _same_map(f, g):
        return 0.0
    if isinstance(g, ShiftedMap) and _same_map(f, g.base):
        return float(np.linalg.norm(g.shift))
    cf, cg = cat_amplitude(f), cat_amplitude(g)
    if cf is not None and cg is not None:
        # each component of f - g is (c - c') / 2 pi times an independent sine,
        # and its wrapped size peaks at min(|c - c'| / 2 pi, 1/2)
        return float(np.sqrt(2.0) * min(abs(cf - cg) / (2.0 * np.pi), 0.5))
    if isinstance(f, AffineMap) and isinstance(g, AffineMap) and np.array_equal(f.matrix, g.matrix):
        return float(np.linalg.norm(f.offset - g.offset))
    raise ValueError(f"no closed-form sup distance between {type(f).__name__} and "
                     f"{type(g).__name__}; one exists only for g the same map as f or a ShiftedMap of "
                     "it, "
                     "the cat map or PerturbedCatMap against PerturbedCatMap, and affine maps "
                     "with equal matrices")
