"""Independent validators: closed forms, exhaustive search, exact arithmetic.

These are deliberately different algorithms from the solvers they check:
the bounded-orbit closed form evaluates explicit geometric sums instead
of iterating an operator, the brute-force search scores a grid of
candidate points by direct iteration, and the periodic-point enumerator
works in exact integer/rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .pseudo_orbit import SegmentedPseudoOrbit, flatten
from .splitting import Splitting, min_norm, op_norm
from .systems import AffineMap, Phase, SmoothMap

__all__ = [
    "AffineSequenceSystem",
    "bounded_orbit_closed_form",
    "brute_force_shadow",
    "cat_map_periodic_points",
    "exact_cat_orbit",
]


class AffineSequenceSystem(SmoothMap):
    """Step-indexed affine maps x -> L_j x + r_j on R^n.

    A test double with exact linearization: along the zero pseudo-orbit
    the chart representation of step j is exactly v -> L_j v + r_j, so
    the jump residuals are the |r_j| and every derivative is L_j.
    """

    def __init__(self, matrices, residuals, splitting: Splitting, validate: bool = True):
        mats = np.asarray(matrices, dtype=float)
        res = np.asarray(residuals, dtype=float)
        if mats.ndim != 3 or res.ndim != 2 or mats.shape[0] != res.shape[0]:
            raise ValueError("need matching 3-d matrices and 2-d residuals")
        if mats.shape[1] != mats.shape[2] or mats.shape[1] != res.shape[1]:
            raise ValueError("inconsistent dimensions")
        self.matrices = mats
        self.residuals = res
        self.splitting = splitting
        self.phase = Phase("euclidean", mats.shape[1])
        if validate:
            du = splitting.dim_u
            for j, m in enumerate(mats):
                sv = np.linalg.svd(m, compute_uv=False)
                if sv[-1] <= 1e-12 * sv[0]:
                    raise ValueError(f"step {j} matrix is singular")
                blk = splitting.basis_inv @ m @ splitting.basis
                if op_norm(blk[:du, du:]) > 1e-9 or op_norm(blk[du:, :du]) > 1e-9:
                    raise ValueError(f"step {j} is not block-diagonal in the splitting")
                if op_norm(blk[du:, du:]) >= 1.0 or min_norm(blk[:du, :du]) <= 1.0:
                    raise ValueError(f"step {j} blocks are not hyperbolic")
        self._steps = [AffineMap(m, r) for m, r in zip(mats, res)]

    @property
    def n_steps(self) -> int:
        return len(self._steps)

    def at_step(self, j: int) -> AffineMap:
        return self._steps[j]

    def _steps_batch(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_steps, self.phase.dim):
            raise ValueError(f"need one row per step, shape ({self.n_steps}, {self.phase.dim})")
        return x

    def along(self, x):
        x = self._steps_batch(x)
        return np.matmul(self.matrices, x[..., None])[..., 0] + self.residuals

    def jacobian_along(self, x):
        self._steps_batch(x)
        return self.matrices.copy()

    def __call__(self, x):
        raise TypeError("step-indexed system; use at_step(j)")

    def jacobian(self, x):
        raise TypeError("step-indexed system; use at_step(j).jacobian")

    def derivative_bounds(self):
        s = np.linalg.svd(self.matrices, compute_uv=False)
        return float(max(s[:, 0].max(), (1.0 / s[:, -1]).max())), 0.0

    def zero_pseudo_orbit(self) -> SegmentedPseudoOrbit:
        """The all-zero seeds pseudo-orbit whose jumps are the residuals."""
        n = self.n_steps
        seeds = np.zeros((n + 1, self.phase.dim))
        return flatten(seeds, np.ones(n, dtype=int), self)


def bounded_orbit_closed_form(sys: AffineSequenceSystem, splitting: Splitting | None = None):
    """The unique solution of e_{j+1} = L_j e_j + r_j with pinned boundary
    components (stable part zero at the start, unstable at the end).

    Evaluated as explicit sums: the stable part accumulates forward
    products of the stable blocks, the unstable part backward products of
    inverse unstable blocks.  Each residual's term is carried along once
    and added to every index it reaches, so the cost is O(n^2).
    """
    sp = sys.splitting if splitting is None else splitting
    n = sys.n_steps
    du = sp.dim_u
    blk = sp.basis_inv @ sys.matrices @ sp.basis
    a_blocks, d_blocks = blk[:, :du, :du], blk[:, du:, du:]
    rc = sys.residuals @ sp.basis_inv.T
    r_u, r_s = rc[:, :du], rc[:, du:]
    es = np.zeros((n + 1, sp.dim_s))
    eu = np.zeros((n + 1, du))
    for k in range(n):
        # stable: D_{j-1} ... D_{k+1} r^s_k reaches every j > k
        term = r_s[k]
        es[k + 1] += term
        for j in range(k + 2, n + 1):
            term = d_blocks[j - 1] @ term
            es[j] += term
        # unstable: -(A_k ... A_j)^-1 r^u_k reaches every j <= k
        term = r_u[k]
        for j in range(k, -1, -1):
            term = np.linalg.solve(a_blocks[j], term)
            eu[j] -= term
    return eu @ sp.unstable.T + es @ sp.stable.T


def brute_force_shadow(f: SmoothMap, g: SmoothMap, po: SegmentedPseudoOrbit,
                       radius: float, grid_res: int):
    """Exhaustive grid search for the best shadow point near the first
    pseudo-orbit point, scoring each candidate by its worst distance to
    the pseudo-orbit along the g-orbit.

    Returns (best_point, best_score).  Only meant for short windows; the
    solver should land within one grid cell of the optimum.
    """
    if po.n_steps > 12:
        raise ValueError("brute force is limited to windows of at most 12 steps")
    if grid_res > 61:
        raise ValueError("brute force is limited to 61 grid points per axis")
    phase = po.phase
    offs = np.linspace(-radius, radius, grid_res)
    mesh = np.meshgrid(*([offs] * phase.dim), indexing="ij")
    cand_off = np.stack([m.ravel() for m in mesh], axis=-1)
    cand_off = cand_off[np.linalg.norm(cand_off, axis=-1) <= radius + 1e-15]
    pts = phase.canon(po.points[0] + cand_off)
    score = phase.distance(pts, po.points[0])
    cur = pts
    for j in range(po.n_steps):
        cur = g.at_step(j)(cur)
        score = np.maximum(score, phase.distance(cur, po.points[j + 1]))
    best = int(np.argmin(score))
    return pts[best], float(score[best])


def _smith_diagonalize(m):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns (U, d, V) with U M V = diag(d); exact integer arithmetic.
    """
    a = [[int(x) for x in row] for row in m]
    n = len(a)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # row i -= q * row j
        for t in range(n):
            a[i][t] -= q * a[j][t]
            u[i][t] -= q * u[j][t]

    def col_op(i, j, q):  # col i -= q * col j
        for t in range(n):
            a[t][i] -= q * a[t][j]
            v[t][i] -= q * v[t][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for t in range(n):
            a[t][i], a[t][j] = a[t][j], a[t][i]
            v[t][i], v[t][j] = v[t][j], v[t][i]

    for p in range(n):
        while True:
            best = None
            for i in range(p, n):
                for j in range(p, n):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            swap_rows(p, best[0])
            swap_cols(p, best[1])
            done = True
            for i in range(p + 1, n):
                if a[i][p] != 0:
                    row_op(i, p, a[i][p] // a[p][p])
                    done = done and a[i][p] == 0
            for j in range(p + 1, n):
                if a[p][j] != 0:
                    col_op(j, p, a[p][j] // a[p][p])
                    done = done and a[p][j] == 0
            if done:
                break
    return u, [a[i][i] for i in range(n)], v


def _int_matrix_power(m, p):
    n = len(m)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    base = [row[:] for row in m]
    for _ in range(p):
        out = [[sum(out[i][k] * base[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return out


def cat_map_periodic_points(period: int, matrix=None):
    """All fixed points of the p-th iterate of a torus automorphism,
    enumerated in exact rational arithmetic.

    Solves (M^p - I) x = 0 (mod 1) by integer diagonalization; the count
    equals |det(M^p - I)|.
    """
    if not (1 <= period <= 12):
        raise ValueError("period must be between 1 and 12")
    m = [[2, 1], [1, 1]] if matrix is None else [[int(x) for x in row] for row in matrix]
    n = len(m)
    k = _int_matrix_power(m, period)
    for i in range(n):
        k[i][i] -= 1
    _, diag, v = _smith_diagonalize(k)
    if any(d == 0 for d in diag):
        raise ValueError("the iterate has a full circle of fixed points")
    points = set()
    counters = [abs(d) for d in diag]
    idx = [0] * n
    while True:
        y = [Fraction(idx[t], counters[t]) for t in range(n)]
        x = tuple(
            sum(Fraction(v[i][t]) * y[t] for t in range(n)) % 1 for i in range(n)
        )
        points.add(x)
        t = 0
        while t < n:
            idx[t] += 1
            if idx[t] < counters[t]:
                break
            idx[t] = 0
            t += 1
        if t == n:
            break
    return sorted(points)


def exact_cat_orbit(x, steps: int, matrix=None):
    """Exact rational orbit of a torus automorphism; points stay Fractions."""
    m = [[2, 1], [1, 1]] if matrix is None else [[int(v) for v in row] for row in matrix]
    n = len(m)
    p = tuple(Fraction(c) for c in x)
    out = [p]
    for _ in range(steps):
        p = tuple(sum(Fraction(m[i][j]) * p[j] for j in range(n)) % 1 for i in range(n))
        out.append(p)
    return out
