"""Independent oracles shared by the test modules.

Everything here recomputes expected values by a route different from the
library code under test: finite differences for derivatives, closed-form
eigenvalues for the cat map, the quadratic formula for constant-block
graph fixed points, synchronous graph-transform sweeps iterated to their
fixed point, splittings, blocks and margin rows built one index at a
time, the shadowing solver update one index at a time, the linear
cat-map shadow orbit by scalar recursions in eigencoordinates, LP
feasibility for balance-sequence existence, and the certificate margin
table written one CSV row at a time.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from bishadow.certification import OrbitBlocks
from bishadow.splitting import Splitting, _orthonormalize, block_decompose, min_norm, op_norm

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
    for j in range(len(blocks)):
        a, b, c, d = blocks.A[j], blocks.B[j], blocks.C[j], blocks.D[j]
        new[j + 1] = np.linalg.solve((a + b @ P[j]).T, (c + d @ P[j]).T).T
    return new


def stable_graph_sweep(Q, blocks):
    """One synchronous sweep of the mirrored transform; entry N stays pinned."""
    new = Q.copy()
    for j in range(len(blocks)):
        a, b, c, d = blocks.A[j], blocks.B[j], blocks.C[j], blocks.D[j]
        lhs = np.eye(a.shape[0]) - np.linalg.solve(a, Q[j + 1] @ c)
        new[j] = np.linalg.solve(lhs, np.linalg.solve(a, Q[j + 1] @ d - b))
    return new


def iterate_graph_sweeps(sweep, blocks, tol=1e-12, max_iter=10_000):
    """Sweep from the zero graphs until the max-norm update drops below tol.

    Returns (graphs, updates), one update per sweep.
    """
    du, ds = blocks.A.shape[1], blocks.D.shape[1]
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


def stack_blocks(blocks):
    """OrbitBlocks holding a sequence of single BlockJacobians in order."""
    return OrbitBlocks(*(np.stack([getattr(b, name) for b in blocks]) for name in "ABCD"))


def constant_blocks(n, a, b, c, d):
    """n copies of the scalar blocks [[a, b], [c, d]]."""
    return OrbitBlocks(*(np.full((n, 1, 1), v, dtype=float) for v in (a, b, c, d)))


def assembled(blocks, splittings, j):
    """Ambient matrix of block j, read back from splittings j and j + 1."""
    m = np.block([[blocks.A[j], blocks.B[j]], [blocks.C[j], blocks.D[j]]])
    return splittings[j + 1].basis @ m @ splittings[j].basis_inv


def power_splittings_per_index(po, f, depth, seed):
    """The chained power passes one index at a time, each index through
    Splitting.from_bases: for every j, iterate the seed's unstable basis
    forward from a fixed start up to j and its stable basis backward from
    a fixed end down to j.  An open orbit starts at 0 and ends at n - 1;
    a closed one starts at -depth and ends at n - 1 + depth, wrapping
    around, and its index n equals index 0."""
    n = po.n_steps
    jacs = [f.at_step(j).jacobian(po.points[j]) for j in range(n)]
    closed = np.array_equal(po.seeds[0], po.seeds[-1])
    warm = depth if closed else 0
    out = []
    for j in range(n + 1):
        if closed and j == n:
            out.append(out[0])
            break
        u = seed.unstable.copy()
        for t in range(-warm, j):
            u = _orthonormalize(jacs[t % n] @ u)
        s = seed.stable.copy()
        for t in range(n - 1 + warm, j - 1, -1):
            s = _orthonormalize(np.linalg.solve(jacs[t % n], s))
        out.append(Splitting.from_bases(u, s))
    return out


def blocks_per_index(po, splittings, f):
    """block_decompose of every step, splittings given one per index."""
    return [block_decompose(f.at_step(j).jacobian(po.points[j]), splittings[j], splittings[j + 1])
            for j in range(po.n_steps)]


def margin_rows_per_index(po, blocks, lam, epsilon, delta):
    """Certificate rows (condition, segment, step, lhs, rhs, margin) from
    single BlockJacobians, norms by min_norm/op_norm, segment by segment."""
    rows = []
    log_lam = math.log(lam)
    segments = [(po.i_min + t, int(a), int(b) - int(a))
                for t, (a, b) in enumerate(zip(po.offsets[:-1], po.offsets[1:]))]
    for index, start, length in segments:
        run = blocks[start : start + length]
        with np.errstate(divide="ignore"):
            cum_d = np.cumsum(np.log([op_norm(b.D) for b in run]))
            tail_a = np.cumsum(np.log([min_norm(b.A) for b in run])[::-1])[::-1]
        for k in range(1, length + 1):
            rhs = k * log_lam
            rows.append(("contraction_product", index, start + k,
                         cum_d[k - 1], rhs, rhs - cum_d[k - 1]))
        for k in range(length):
            rhs = (k - length) * log_lam
            rows.append(("expansion_product", index, start + k, tail_a[k], rhs, tail_a[k] - rhs))
        for t, b in enumerate(run):
            ratio = op_norm(b.D) / min_norm(b.A)
            off = max(op_norm(b.B), op_norm(b.C))
            rows.append(("ratio", index, start + t, ratio, lam * lam, lam * lam - ratio))
            rows.append(("offdiag", index, start + t, off, epsilon, epsilon - off))
    for (index, start, length), residual in zip(segments, po.residuals.tolist()):
        rows.append(("residual", index, start + length, residual, delta, delta - residual))
    return rows


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


def chart_step(problem, m, j, v):
    """Chart representation of the map m between indices j and j+1."""
    y, y1 = problem.po.points[j], problem.po.points[j + 1]
    return problem.phase.wrap(m.at_step(j)(problem.phase.canon(y + v)) - y1)


def invert_unstable_at(problem, j, sv, target):
    """Per-index Newton inversion of the expanding unstable part of F_j.

    Returns w, in index-j unstable coordinates, with the index-(j+1)
    unstable coordinates of F_j(sv + U_j w) - F_j(sv) equal to target;
    raises as the solver does when w leaves the eta-ball, a block is
    singular or Newton stalls.
    """
    from bishadow.shadowing import BallInvariantError, UnstableSolveError

    sp, dst, cfg = problem.splittings[j], problem.splittings[j + 1], problem.config
    fj = problem.f.at_step(j)
    base = chart_step(problem, problem.f, j, sv)
    target = np.asarray(target, dtype=float)

    def a_loc(xi):
        jac = fj.jacobian(problem.phase.canon(problem.po.points[j] + xi))
        return (dst.basis_inv @ jac @ sp.unstable)[: dst.dim_u, :]

    try:
        w = np.linalg.solve(a_loc(sv), target)
    except np.linalg.LinAlgError as exc:
        raise UnstableSolveError(f"singular unstable block at index {j}") from exc
    for _ in range(cfg.newton_max_iter):
        out = chart_step(problem, problem.f, j, sv + sp.unstable @ w) - base
        r = dst.unstable_coords(problem.phase.wrap(out)) - target
        if np.linalg.norm(r) <= cfg.newton_tol:
            size = float(np.linalg.norm(w))
            if size > cfg.eta * problem.l[j] * (1.0 + 1e-9):
                raise BallInvariantError(
                    f"inverted unstable component at index {j} has rescaled size "
                    f"{size / problem.l[j]:.3e} > eta = {cfg.eta:.3e}"
                )
            return w
        try:
            w = w - np.linalg.solve(a_loc(sv + sp.unstable @ w), r)
        except np.linalg.LinAlgError as exc:
            raise UnstableSolveError(f"singular unstable block at index {j}") from exc
    raise UnstableSolveError(
        f"Newton inversion stalled at index {j} (residual {np.linalg.norm(r):.3e})"
    )


def apply_operator_per_index(problem, v, boundary="finite"):
    """The solver update one index at a time: forward stable rows through
    G_j, backward unstable rows by a Newton inversion per index, then the
    boundary rows."""
    n = problem.n_steps
    spl = problem.splittings
    w = np.zeros_like(v)
    g_imgs = [chart_step(problem, problem.g, j, v[j]) for j in range(n)]
    for j in range(n):
        w[j + 1] += spl[j + 1].project_stable(g_imgs[j])
    for j in range(n):
        sv = spl[j].project_stable(v[j])
        target_ambient = (-g_imgs[j] + chart_step(problem, problem.f, j, v[j])
                          - chart_step(problem, problem.f, j, sv) + v[j + 1])
        t = spl[j + 1].unstable_coords(target_ambient)
        w[j] += spl[j].unstable @ invert_unstable_at(problem, j, sv, t)
    if boundary == "periodic":
        w[0] += spl[0].stable @ spl[n].stable_coords(w[n])
        w[n] += spl[n].unstable @ spl[0].unstable_coords(w[0])
    return w


def cat_linear_shadow(points, shift):
    """The bounded solution of v_{j+1} = A v_j + r_j + shift along a cat-map
    pseudo-orbit, r_j = wrap(A y_j - y_{j+1}), with the stable component
    pinned to zero at the start and the unstable one at the end.

    O(N): in eigencoordinates the stable coordinate runs forward from 0 and
    the unstable one backward from 0, each by its scalar recursion.
    """
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    e_u = np.array([1.0, CAT_EXPANDING - 2.0])
    e_s = np.array([1.0, CAT_CONTRACTING - 2.0])
    e_u, e_s = e_u / np.linalg.norm(e_u), e_s / np.linalg.norm(e_s)
    d = points[:-1] @ a.T - points[1:]
    forcing = np.linalg.solve(np.stack([e_u, e_s], axis=1), (d - np.round(d) + shift).T).T
    n = len(d)
    cu = np.zeros(n + 1)
    cs = np.zeros(n + 1)
    for j in range(n):
        cs[j + 1] = CAT_CONTRACTING * cs[j] + forcing[j, 1]
    for j in range(n - 1, -1, -1):
        cu[j] = (cu[j + 1] - forcing[j, 0]) / CAT_EXPANDING
    return np.outer(cu, e_u) + np.outer(cs, e_s)


def margins_csv_rows(cert) -> str:
    """The certify CSV margin table, one writerow per margin row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["segment", "step", "condition", "lhs", "rhs", "margin"])
    columns = (cert.segment, cert.step, cert.condition, cert.lhs, cert.rhs, cert.margin)
    for segment, step, condition, *values in zip(*(c.tolist() for c in columns)):
        writer.writerow([segment, step, condition, *map(repr, values)])
    return buf.getvalue()
