"""Independent oracles shared by the test modules.

Everything here recomputes expected values by a route different from the
library code under test: finite differences for derivatives, closed-form
eigenvalues for the cat map, the quadratic formula for constant-block
graph fixed points, synchronous graph-transform sweeps iterated to their
fixed point, and LP feasibility for balance-sequence existence.
"""

from __future__ import annotations

import math

import numpy as np

from bishadow.splitting import Splitting

# roots of t^2 - 3t + 1: the cat-map eigenvalues
CAT_EXPANDING = (3.0 + math.sqrt(5.0)) / 2.0
CAT_CONTRACTING = (3.0 - math.sqrt(5.0)) / 2.0


def finite_difference_jacobian(f, p, h=1e-6):
    """Chart-based central differences of a smooth map."""
    phase = f.phase
    p = np.asarray(p, dtype=float)
    fp = f(p)
    cols = []
    for i in range(phase.dim):
        e = np.zeros(phase.dim)
        e[i] = h
        plus = phase.wrap(f(phase.exp(p, e)) - fp)
        minus = phase.wrap(f(phase.exp(p, -e)) - fp)
        cols.append((plus - minus) / (2.0 * h))
    return np.stack(cols, axis=-1)


def graph_fixed_point_quadratic(a, b, c, d):
    """Positive root of b p^2 + (a - d) p - c = 0 (scalar constant blocks)."""
    disc = (a - d) ** 2 + 4.0 * b * c
    return (-(a - d) + math.sqrt(disc)) / (2.0 * b)


def unstable_graph_sweep(P, blocks):
    """One synchronous unstable graph-transform sweep; entry 0 stays pinned."""
    new = P.copy()
    for j, b in enumerate(blocks):
        new[j + 1] = np.linalg.solve((b.A + b.B @ P[j]).T, (b.C + b.D @ P[j]).T).T
    return new


def stable_graph_sweep(Q, blocks):
    """One synchronous sweep of the mirrored transform; entry N stays pinned."""
    new = Q.copy()
    for j, b in enumerate(blocks):
        lhs = np.eye(b.A.shape[0]) - np.linalg.solve(b.A, Q[j + 1] @ b.C)
        new[j] = np.linalg.solve(lhs, np.linalg.solve(b.A, Q[j + 1] @ b.D - b.B))
    return new


def iterate_graph_sweeps(sweep, blocks, tol=1e-12, max_iter=10_000):
    """Sweep from the zero graphs until the max-norm update drops below tol.

    Returns (graphs, updates), one update per sweep.
    """
    du, ds = blocks[0].A.shape[0], blocks[0].D.shape[0]
    shape = (len(blocks) + 1,) + ((ds, du) if sweep is unstable_graph_sweep else (du, ds))
    cur = np.zeros(shape)
    updates = []
    for _ in range(max_iter):
        new = sweep(cur, blocks)
        updates.append(float(np.max(np.abs(new - cur))))
        cur = new
        if updates[-1] < tol:
            return cur, updates
    raise AssertionError(f"graph sweeps did not converge in {max_iter} sweeps")


def quotient_log_bounds(a, b, lam):
    alpha = np.log(np.asarray(a, float)) - math.log(lam)
    beta = np.log(np.asarray(b, float)) + math.log(lam)
    return alpha, beta


def feasible_by_interval(alpha, beta, tol=1e-12):
    """Forward propagation of the reachable partial-sum interval."""
    lo = hi = 0.0
    n = len(alpha)
    for k in range(n):
        lo += alpha[k]
        hi += beta[k]
        if k < n - 1:
            hi = min(hi, 0.0)
        if lo > hi + tol:
            return False
    return lo <= tol and hi >= -tol


def feasible_by_lp(alpha, beta):
    """Balance-sequence feasibility as a linear program (scipy HiGHS)."""
    from scipy.optimize import linprog

    n = len(alpha)
    a_ub = np.tril(np.ones((n - 1, n)))[:, :n] if n > 1 else None
    res = linprog(
        c=np.zeros(n),
        A_ub=a_ub,
        b_ub=np.zeros(n - 1) if n > 1 else None,
        A_eq=np.ones((1, n)),
        b_eq=[0.0],
        bounds=list(zip(alpha, beta)),
        method="highs",
    )
    return res.status == 0


def random_quasi_hyperbolic_pair(rng, n, lam):
    """A pair passing the product-form check by construction.

    Draw a balance sequence from prescribed nonpositive partial sums,
    then shrink a below and grow b above the balanced rates.
    """
    s = np.zeros(n + 1)
    if n > 1:
        s[1:n] = -np.abs(rng.standard_normal(n - 1))
    c = np.exp(np.diff(s))
    u = rng.uniform(0.05, 1.0, n)
    w = rng.uniform(0.05, 1.0, n)
    return c * lam * u, c / lam / w


def random_affine_system(rng, lam=0.75):
    """A step-indexed block-hyperbolic affine system on R^2..R^4."""
    from bishadow.oracle import AffineSequenceSystem

    dim = int(rng.integers(2, 5))
    du = int(rng.integers(1, dim))
    ds = dim - du
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    sp = Splitting(q[:, :du], q[:, du:])
    n = int(rng.integers(5, 41))
    mats = np.empty((n, dim, dim))
    rs = 1e-3 * rng.standard_normal((n, dim))
    for j in range(n):
        a = rng.standard_normal((du, du))
        a *= rng.uniform(1.05 / lam, 2.5) / np.linalg.svd(a, compute_uv=False)[-1]
        d = rng.standard_normal((ds, ds))
        d *= rng.uniform(0.2, 0.9 * lam) / np.linalg.svd(d, compute_uv=False)[0]
        blk = np.zeros((dim, dim))
        blk[:du, :du] = a
        blk[du:, du:] = d
        mats[j] = sp.basis @ blk @ sp.basis_inv
    return AffineSequenceSystem(mats, rs, sp), sp
