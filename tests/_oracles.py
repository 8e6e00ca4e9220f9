"""Independent oracles shared by the test modules.

Everything here recomputes expected values by a route different from the
library code under test: finite differences for derivatives, closed-form
eigenvalues for the cat map, the quadratic formula for constant-block
graph fixed points, the pinned graph transforms as forward and backward
recursions on the blocks, their invariance residuals, synchronous
graph-transform sweeps iterated to their fixed point, the cocycle passes
by one QR factorisation per step, splittings, blocks and margin rows
built one index at a time, the
shadowing solver update one index at a time, the linear cat-map shadow
orbit by scalar recursions in eigencoordinates, LP
feasibility for balance-sequence existence, one well-adapted balance
sequence with scalar forward and backward passes, and the certificate
margin table written one CSV row at a time.  The tiny-stack forms of the
kernel (canon by floor, |a| and division for 1x1 blocks, closed-form
extreme singular values of 2x2 stacks and dlarfg's arithmetic for 2x1
columns) are checked against the forms they replaced: np.mod, batched
SVD, LAPACK solves and LAPACK's QR.  The adjugate inverse of 2x2 bases has
a reference in Python floats, one matrix at a time.

The last section holds the single-object references the package itself
does not run: one block decomposition, splitting coordinates and box
norms for one splitting, rate-pair checks and balance verifiers, the
rescaling of blocks by weights, orbits of a map by direct calls, and a
flattened pseudo-orbit walked one step at a time.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from bishadow.adapted import InfeasiblePairError
from bishadow.certification import OrbitBlocks, _singular_values
from bishadow.pseudo_orbit import SegmentedPseudoOrbit, _complement, _orth_image
from bishadow.refinement import GraphTransformError
from bishadow.splitting import Splitting, _orthonormalize, min_norm, op_norm
from bishadow.systems import Phase, SmoothMap

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


def unstable_invariance_residuals(P: np.ndarray, blocks: OrbitBlocks) -> np.ndarray:
    """||P_{j+1} (A_j + B_j P_j) - (C_j + D_j P_j)|| per index."""
    b = blocks
    return _singular_values(P[1:] @ (b.A + b.B @ P[:-1]) - (b.C + b.D @ P[:-1]), 0, 0.0)


def stable_invariance_residuals(Q: np.ndarray, blocks: OrbitBlocks) -> np.ndarray:
    """||A_j Q_j + B_j - Q_{j+1} (C_j Q_j + D_j)|| per index."""
    b = blocks
    return _singular_values(b.A @ Q[:-1] + b.B - Q[1:] @ (b.C @ Q[:-1] + b.D), 0, 0.0)


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


def push_forward_qr(jacs, u0):
    """The forward cocycle pass by one QR factorisation per step,
    u_{t+1} = orth(J_t u_t) with orth as in Splitting.from_bases."""
    u = [u0]
    for jac in jacs:
        u.append(_orthonormalize(jac @ u[-1]))
    return np.stack(u)


def pull_back_qr(jacs, s_end):
    """The backward cocycle pass by one solve and one QR factorisation per
    step, s_t = orth(J_t^(-1) s_{t+1})."""
    s = [s_end]
    for jac in jacs[::-1]:
        s.append(_orthonormalize(np.linalg.solve(jac, s[-1])))
    return np.stack(s[::-1])


def power_splittings_per_index(po, f, depth, seed):
    """The chained power passes one index at a time, each index's bases
    taken as the steps leave them: for every j, iterate the seed's unstable basis
    forward from a fixed start up to j and its stable basis backward from
    a fixed end down to j, each step by the passes' own step _orth_image
    (on the backward side, of the transposed Jacobian on the complement of
    the stable basis, whose complement is then the stable basis).  An
    open orbit starts at 0 and ends at n - 1; a closed one starts at -depth
    and ends at n - 1 + depth, wrapping around, and its index n equals
    index 0."""
    n = po.n_steps
    jacs = [f.jacobian_along(po.points[j], j) for j in range(n)]
    closed = np.array_equal(po.seeds[0], po.seeds[-1])
    warm = depth if closed else 0
    out = []
    for j in range(n + 1):
        if closed and j == n:
            out.append(out[0])
            break
        u = seed.unstable.copy()
        for t in range(-warm, j):
            u = _orth_image(jacs[t % n], u, np.empty_like(u))
        c = _complement(seed.stable)
        for t in range(n - 1 + warm, j - 1, -1):
            c = _orth_image(jacs[t % n].T, c, np.empty_like(c))
        out.append(Splitting(u, _complement(c)))
    return out


def blocks_per_index(po, splittings, f):
    """block_decompose of every step, splittings given one per index."""
    return [block_decompose(f.jacobian_along(po.points[j], j), splittings[j], splittings[j + 1])
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


def well_adapted_reference(a, b, lam):
    """The lowest well-adapted balance sequence of one 1-D pair, by scalar
    sums: s_k = min(0, max(sum_{i<k} alpha_i, -sum_{i>=k} beta_i)), summed
    term by term in the order np.cumsum sums."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.size
    alpha, beta = quotient_log_bounds(a, b, lam)
    if np.any(alpha > beta + 1e-12):
        raise InfeasiblePairError("empty quotient window")
    head, tail = [0.0] * n, [0.0] * n
    acc = 0.0
    for k in range(n):
        acc += alpha[k]
        head[k] = acc
        if acc > 1e-12:
            raise InfeasiblePairError(f"contraction product of the first {k + 1} terms "
                                      f"exceeds lam^{k + 1}")
    acc = 0.0
    for k in range(n - 1, -1, -1):
        acc += beta[k]
        tail[k] = acc
    for k in range(n):
        if tail[k] < -1e-12:
            raise InfeasiblePairError(f"expansion product of the last {n - k} terms "
                                      f"is below lam^-{n - k}")
    s = np.zeros(n + 1)
    for k in range(1, n):
        s[k] = min(max(head[k - 1], -tail[k]), 0.0)
    gamma = np.diff(s)
    np.clip(gamma, alpha, beta, out=gamma)
    return np.exp(gamma)


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


def _balance_lp(alpha, beta, objective):
    """linprog over the balance polytope: gamma_i in [alpha_i, beta_i],
    partial sums <= 0, total sum 0 (scipy HiGHS)."""
    from scipy.optimize import linprog

    n = len(alpha)
    a_ub = np.tril(np.ones((n - 1, n)))[:, :n] if n > 1 else None
    return linprog(
        c=objective,
        A_ub=a_ub,
        b_ub=np.zeros(n - 1) if n > 1 else None,
        A_eq=np.ones((1, n)),
        b_eq=[0.0],
        bounds=list(zip(alpha, beta)),
        method="highs",
    )


def feasible_by_lp(alpha, beta):
    """Balance-sequence feasibility as a linear program."""
    return _balance_lp(alpha, beta, np.zeros(len(alpha))).status == 0


def lowest_partial_sum_by_lp(alpha, beta, k):
    """The least k-term partial sum of any feasible gamma, by a linear program."""
    res = _balance_lp(alpha, beta, (np.arange(len(alpha)) < k).astype(float))
    assert res.status == 0, res.message
    return float(res.fun)


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
    return problem.po.phase.wrap(m.along(problem.po.phase.canon(y + v), j) - y1)


def invert_unstable_at(problem, j, sv, target):
    """Per-index chord inversion of the expanding unstable part of F_j,
    with the certificate's unstable block A_j as its matrix.

    Returns w, in index-j unstable coordinates, with the index-(j+1)
    unstable coordinates of F_j(sv + U_j w) - F_j(sv) equal to target;
    raises as the solver does when w leaves the eta-ball, A_j is singular
    or the iteration stalls.
    """
    from bishadow.shadowing import (NEWTON_MAX_ITER, NEWTON_TOL, BallInvariantError,
                                    UnstableSolveError)

    sp, dst, cfg = problem.splittings[j], problem.splittings[j + 1], problem.config
    base = chart_step(problem, problem.f, j, sv)
    target = np.asarray(target, dtype=float)
    a = problem._a[j]
    try:
        w = np.linalg.solve(a, target)
    except np.linalg.LinAlgError as exc:
        raise UnstableSolveError(f"singular unstable block at index {j}") from exc
    for _ in range(NEWTON_MAX_ITER):
        out = chart_step(problem, problem.f, j, sv + sp.unstable @ w) - base
        r = unstable_coords(dst, problem.po.phase.wrap(out)) - target
        if np.linalg.norm(r) <= NEWTON_TOL:
            size = float(np.linalg.norm(w))
            if size > cfg.eta * problem.l[j] * (1.0 + 1e-9):
                raise BallInvariantError(
                    f"inverted unstable component at index {j} has rescaled size "
                    f"{size / problem.l[j]:.3e} > eta = {cfg.eta:.3e}"
                )
            return w
        w = w - np.linalg.solve(a, r)  # the seed's matrix, which was not singular
    raise UnstableSolveError(
        f"chord inversion stalled at index {j} (residual {np.linalg.norm(r):.3e})"
    )


def apply_operator_per_index(problem, v, boundary="finite"):
    """The solver update one index at a time: forward stable rows through
    G_j, backward unstable rows by a chord inversion per index, then the
    boundary rows."""
    n = problem.po.n_steps
    spl = problem.splittings
    w = np.zeros_like(v)
    g_imgs = [chart_step(problem, problem.g, j, v[j]) for j in range(n)]
    for j in range(n):
        w[j + 1] += project_stable(spl[j + 1], g_imgs[j])
    for j in range(n):
        sv = project_stable(spl[j], v[j])
        target_ambient = (-g_imgs[j] + chart_step(problem, problem.f, j, v[j])
                          - chart_step(problem, problem.f, j, sv) + v[j + 1])
        t = unstable_coords(spl[j + 1], target_ambient)
        w[j] += spl[j].unstable @ invert_unstable_at(problem, j, sv, t)
    if boundary == "periodic":
        w[0] += spl[0].stable @ stable_coords(spl[n], w[n])
        w[n] += spl[n].unstable @ unstable_coords(spl[0], w[0])
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


def cat_cycle(period: int, shift):
    """One period of the cat-map cycle through (A^p - I)^-1 (1, 0) mod 1, and
    the point of the periodic orbit of x -> A x + shift (mod 1) next to its
    first point, x_0 + (I - A^p)^-1 sum_{k<p} A^k shift: both in exact
    integer and rational arithmetic, each coordinate rounded once to a
    float.  Any period works: A^1000 has entries of 418 digits."""
    power, total = [[1, 0], [0, 1]], [[0, 0], [0, 0]]
    for _ in range(period):
        total = [[t + a for t, a in zip(*rows)] for rows in zip(total, power)]
        power = [[2 * a + b for a, b in zip(*power)], [a + b for a, b in zip(*power)]]
    (m00, m01), (m10, m11) = (power[0][0] - 1, power[0][1]), (power[1][0], power[1][1] - 1)
    det = m00 * m11 - m01 * m10
    # (A^p - I)^-1 (1, 0) = (m11, -m10) / det, as numerators over |det|
    size, sign = abs(det), (1 if det > 0 else -1)
    first = point = (sign * m11 % size, -sign * m10 % size)
    cycle = []
    for _ in range(period):
        cycle.append([n / size for n in point])  # int / int rounds once
        point = ((2 * point[0] + point[1]) % size, (point[0] + point[1]) % size)
    s = [sum(t * Fraction(x) for t, x in zip(row, shift)) for row in total]
    # (I - A^p)^-1 (s0, s1) = -(m11 s0 - m01 s1, m00 s1 - m10 s0) / det
    offset = (-(m11 * s[0] - m01 * s[1]) / det, -(m00 * s[1] - m10 * s[0]) / det)
    start = [float((Fraction(n, size) + e) % 1) for n, e in zip(first, offset)]
    return np.array(cycle), np.array(start)


def margins_csv_rows(cert) -> str:
    """The certify CSV margin table, one writerow per margin row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["segment", "step", "condition", "lhs", "rhs", "margin"])
    columns = (cert.segment, cert.step, cert.condition, cert.lhs, cert.rhs, cert.margin)
    for segment, step, condition, *values in zip(*(c.tolist() for c in columns)):
        writer.writerow([segment, step, condition, *map(repr, values)])
    return buf.getvalue()


def canon_mod(x):
    """Phase.canon on the torus in its np.mod form."""
    c = np.mod(np.asarray(x, dtype=float), 1.0)
    return np.where(c >= 1.0, 0.0, c)


def singular_values_svd(x, k, empty):
    """Singular value k of every matrix in the stack x by batched SVD alone;
    `empty` for empty matrices."""
    s = np.linalg.svd(x, compute_uv=False)
    return s[:, k] if s.shape[1] else np.full(len(x), empty)


def orthonormalize_qr(basis):
    """splitting._orthonormalize by LAPACK's QR alone: Q with its columns
    signed so that R's diagonal is nonnegative."""
    q, r = np.linalg.qr(basis)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return q * signs[..., None, :]


def adjugate_inverses(bases):
    """[[d, -b], [-c, a]] / (ad - bc) of every 2x2 matrix in the stack, one
    matrix at a time in Python floats, one rounding per operation."""
    out = []
    for (a, b), (c, d) in np.asarray(bases, dtype=float).tolist():
        det = a * d - b * c
        out.append([[d / det, -b / det], [-c / det, a / det]])
    return np.array(out).reshape(np.shape(bases))


def solve_stack_lapack(a, b):
    """Solve a[k] x_k = b[k] by LAPACK alone, a singular system flagged
    with x_k = 0: one batched solve, then one solve per system if any
    system is singular."""
    try:
        return np.linalg.solve(a, b), np.zeros(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    x = np.zeros_like(b)
    singular = np.zeros(len(a), dtype=bool)
    for k in range(len(a)):
        try:
            x[k] = np.linalg.solve(a[k], b[k])
        except np.linalg.LinAlgError:
            singular[k] = True
    return x, singular


def graphs_lapack(num, den):
    """refinement._graphs by batched SVD and LAPACK solves alone."""
    singular = singular_values_svd(den, -1, np.inf) <= 1e-14
    den = np.where(singular[:, None, None], np.eye(den.shape[-1]), den)
    G = np.swapaxes(np.linalg.solve(np.swapaxes(den, -1, -2), np.swapaxes(num, -1, -2)), -1, -2)
    return G, np.where(singular, np.inf, singular_values_svd(G, 0, 0.0))


# --- single-object references -------------------------------------------


def coords(sp: Splitting, v):
    """Oblique components (a, b) with v = U a + S b."""
    c = sp.basis_inv @ np.asarray(v, dtype=float)
    return c[: sp.dim_u], c[sp.dim_u :]


def unstable_coords(sp: Splitting, v):
    return coords(sp, v)[0]


def stable_coords(sp: Splitting, v):
    return coords(sp, v)[1]


def assemble(sp: Splitting, a, b):
    return sp.unstable @ np.asarray(a, float) + sp.stable @ np.asarray(b, float)


def project_unstable(sp: Splitting, v):
    return sp.unstable @ unstable_coords(sp, v)


def project_stable(sp: Splitting, v):
    return sp.stable @ stable_coords(sp, v)


def box_norm(v, sp: Splitting) -> float:
    """max(|v_u|, |v_s|) over the splitting's component decomposition."""
    a, b = coords(sp, v)
    return float(max(np.linalg.norm(a), np.linalg.norm(b)))


def box_equivalence_constant(sp: Splitting) -> float:
    """kappa with |v|/kappa <= box(v) <= kappa |v| for all v."""
    return float(max(op_norm(sp.basis_inv), np.sqrt(2.0) * op_norm(sp.basis)))


@dataclass(frozen=True, eq=False)
class BlockJacobian:
    """Blocks of one linear map read in a source and a target splitting.

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
        m = np.block([[self.A, self.B], [self.C, self.D]])
        return self.dst.basis @ m @ self.src.basis_inv


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
    return BlockJacobian(A=m[:du_d, :du_s], B=m[:du_d, du_s:], C=m[du_d:, :du_s],
                         D=m[du_d:, du_s:], src=src, dst=dst)


def rescaled_blocks(blocks: OrbitBlocks, h) -> OrbitBlocks:
    """Blocks as seen by the rescaled norms: each block divided by its weight."""
    h = np.asarray(h, dtype=float)
    if len(blocks) != h.size:
        raise ValueError("need one weight per block")
    factor = (1.0 / h)[:, None, None]
    return OrbitBlocks(blocks.A * factor, blocks.B * factor, blocks.C * factor, blocks.D * factor)


@dataclass(frozen=True)
class PairCheck:
    ok: bool
    margins: dict


def check_pair(a, b, lam: float, mode: str = "quasi_hyperbolic") -> PairCheck:
    """Check a rate pair stepwise ("hyperbolic") or in product form ("quasi_hyperbolic")."""
    if not (0.0 < lam < 1.0):
        raise ValueError("lambda must lie in (0, 1)")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("a and b must be nonempty sequences of equal length")
    if np.any(a <= 0) or np.any(b <= 0):
        raise ValueError("rates must be positive")
    n = a.size
    if mode == "hyperbolic":
        margins = {
            "contraction": float(np.min(lam - a)),
            "expansion": float(np.min(b - 1.0 / lam)),
        }
    elif mode == "quasi_hyperbolic":
        log_lam = math.log(lam)
        ca = np.cumsum(np.log(a))
        tb = np.cumsum(np.log(b)[::-1])[::-1]
        ks = np.arange(1, n + 1)
        margins = {
            "contraction_product": float(np.min(ks * log_lam - ca)),
            "expansion_product": float(np.min(tb - (ks - n - 1) * log_lam)),
            "ratio": float(np.min(lam * lam - a / b)),
        }
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return PairCheck(ok=all(m >= -1e-12 for m in margins.values()), margins=margins)


def is_balance_sequence(c, tol: float = 1e-12) -> bool:
    """Partial products <= 1 and total product = 1, checked in the log domain."""
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.size == 0 or np.any(c <= 0):
        return False
    sums = np.cumsum(np.log(c))
    return bool(np.all(sums[:-1] <= tol) and abs(sums[-1]) <= tol)


def verify_well_adapted(a, b, c, lam: float, tol: float = 1e-9) -> bool:
    """Accept any c that balances and restores stepwise hyperbolicity."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if not is_balance_sequence(c, tol=tol):
        return False
    return bool(np.all(a / c <= lam * (1.0 + tol)) and np.all(b / c >= (1.0 - tol) / lam))


def random_point(phase, rng):
    """A uniform point of the torus, or of [-1, 1]^n in Euclidean space."""
    if phase.kind == "torus":
        return rng.random(phase.dim)
    return rng.uniform(-1.0, 1.0, phase.dim)


def iterate_orbit(f, x, n: int):
    """Points x, f(x), ..., f^n(x) as an ``(n + 1, dim)`` array, by direct calls."""
    out = np.empty((n + 1, f.phase.dim))
    out[0] = f.phase.canon(x)
    for t in range(n):
        out[t + 1] = f(out[t])
    return out


def flatten_per_step(seeds, lengths, f, i_min: int = 0) -> SegmentedPseudoOrbit:
    """flatten by one sequential walk: every step is one ``f.along`` call on
    a single point, segment after segment."""
    lengths = np.asarray(lengths, dtype=int)
    phase = f.phase
    seeds = phase.canon(np.atleast_2d(np.asarray(seeds, dtype=float)))
    points = np.empty((int(lengths.sum()) + 1, phase.dim))
    residuals = np.empty(lengths.size)
    j = 0
    for t, n in enumerate(lengths):
        x = seeds[t]
        points[j] = x
        for _ in range(int(n)):
            x = f.along(x, j)
            j += 1
            points[j] = x
        residuals[t] = phase.distance(x, seeds[t + 1])
        points[j] = seeds[t + 1]
    return SegmentedPseudoOrbit(phase=phase, lengths=lengths, points=points,
                                residuals=residuals, i_min=i_min)


class MisreportedSteps(SmoothMap):
    """Linear steps x -> (m_j x_1, x_2 / 2) on R^2 whose reported derivative
    may be wrong, one kind per step: "ok" reports the true derivative
    (m_j = 2), "singular" a zero unstable entry, "stall" half the true
    expansion m_j = 4, "late_singular" half of m_j = 4 on the stable axis
    and zero off it.  The solver reads no derivative but its certificate's
    blocks, so with the blocks of all-"ok" steps (A_j = 2) a "singular"
    step solves as an "ok" one, and on a "stall" or "late_singular" step,
    whose expansion is twice A_j, the chord inversion oscillates and
    stalls.  Its Df depends on the point, so it has no derivative_bounds,
    whose L = 0 would say it does not."""

    def __init__(self, kinds):
        self.kinds = np.array(kinds)
        self.rates = np.where(np.isin(self.kinds, ["ok", "singular"]), 2.0, 4.0)
        self.phase = Phase("euclidean", 2)

    def along(self, x, steps):
        x = np.asarray(x, dtype=float)
        return np.stack([self.rates[steps] * x[..., 0], 0.5 * x[..., 1]], axis=-1)

    def jacobian_along(self, x, steps):
        x = np.asarray(x, dtype=float)
        kinds = self.kinds[steps]
        zero = (kinds == "singular") | ((kinds == "late_singular") & (x[..., 0] != 0.0))
        jac = np.zeros(x.shape[:-1] + (2, 2))
        jac[..., 0, 0] = np.where(zero, 0.0, 2.0)
        jac[..., 1, 1] = 0.5
        return jac
