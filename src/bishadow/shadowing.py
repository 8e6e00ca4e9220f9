"""Shadowing solver: true orbits of a perturbed map near a pseudo-orbit.

Everything happens in the exponential charts along the flattened
pseudo-orbit.  F_j and G_j are the chart representations of the
reference map f and the perturbed map g between consecutive points; a
tangent sequence v_j encodes a candidate orbit x_j = exp_{y_j}(v_j).

One solver update rebuilds the sequence componentwise:

  * stable components propagate forward through G_j,
  * unstable components are recovered backward by inverting the
    expanding unstable part of F_j (a Newton solve for every index at
    once, each index stopping at its own tolerance), and
  * boundary rows pin the free components (zero at the window ends, or
    wrapped around for periodic windows).

Every row j of the update is computed from v_j and v_{j+1} alone, so the
update is a fixed number of stacked array operations over all indices:
the splittings are stacked once per problem, and the maps evaluate
step j on row j through SmoothMap.along.

A fixed point of this update is an exact orbit of g: v_{j+1} = G_j(v_j)
with the pinned boundary components, so exp_{y_0}(v_0) shadows the
pseudo-orbit with per-step distance l_j |v_j|_N.  The rescaled norms
|v|_N = |v| / l_j come from a well-adapted weight sequence per segment
and make every unstable step uniformly expanding and every stable step
uniformly contracting, which is what drives the iteration to converge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .adapted import scale_factors, well_adapted_sequence
from .certification import _covering, certify_pseudo_orbit
from .jsonwriter import plain
from .pseudo_orbit import SegmentedPseudoOrbit, SplittingAssignment, _segmentwise
from .systems import SmoothMap, SystemBounds, map_distance, system_bounds

__all__ = [
    "SolverConfig",
    "make_solver_config",
    "ShadowProblem",
    "ShadowingResult",
    "WindowRow",
    "WindowTable",
    "BallInvariantError",
    "UnstableSolveError",
    "apply_operator",
    "solve_finite",
    "solve_periodic",
    "solve_infinite",
    "shadowing_preconditions",
]


DAMPING = 0.5  # step factor once an update grows
NEWTON_TOL = 1e-13  # residual at which one index's Newton inversion stops
NEWTON_MAX_ITER = 50


class BallInvariantError(RuntimeError):
    """An iterate escaped the eta-ball; the size preconditions are too weak."""


class UnstableSolveError(RuntimeError):
    """Newton inversion of the expanding component failed."""


@dataclass(frozen=True)
class SolverConfig:
    """Rates, radii, and budgets for one shadowing solve.

    Derived quantities follow the usual recipe: with R bounding the
    derivative norms and a_max the longest segment, C = R^a_max couples
    the admissible jump size delta0 = delta1 / C and map distance
    d0 = (1 - lam_tilde) eta / (4 C) to the window geometry, and
    eps0 = (1 + lam - 2 lam_tilde) / (4 R) caps the off-diagonal size.
    L is the Lipschitz constant of Df that set eta, and kind says whether
    R and L are "exact", analytic bounds ("bound") or "estimated"; every
    derived constant inherits that kind.
    """

    lam: float
    lam_tilde: float
    epsilon1: float
    eta: float
    R: float
    a_max: int
    C: float
    eps0: float
    delta1: float
    delta0: float
    d0: float
    tol_fix: float = 1e-12
    max_iter: int = 10_000
    L: float = 0.0
    kind: str = "estimated"

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam, "lambda_tilde": self.lam_tilde,
            "epsilon1": self.epsilon1, "eta": self.eta, "R": self.R,
            "a_max": self.a_max, "C": self.C, "eps0": self.eps0,
            "delta1": self.delta1, "delta0": self.delta0, "d0": self.d0,
            "tol_fix": self.tol_fix, "max_iter": self.max_iter,
        }


def make_solver_config(
    po: SegmentedPseudoOrbit,
    f: SmoothMap,
    lam: float,
    lam_tilde: float | None = None,
    epsilon1: float = 0.1,
    eta: float | None = None,
    bounds: SystemBounds | None = None,
    tol_fix: float = 1e-12,
    max_iter: int = 10_000,
) -> SolverConfig:
    """Assemble a solver configuration, deriving the size constants from f.

    R and the Lipschitz constant L of Df come from ``bounds``, by default
    system_bounds(f), which raises ValueError for a map without
    derivative_bounds: such a map needs ``bounds``.  Starting from the
    given eta, by default its cap min(epsilon1, injectivity_radius / 4),
    eta drops to (lam_tilde - lam) / (5 R L) where that is smaller, so
    that the modulus of continuity L eta of Df at scale eta stays below
    (lam_tilde - lam) / (5 R).  L = 0 leaves eta unchanged.
    """
    if not (0.0 < lam < 1.0):
        raise ValueError("lambda must lie in (0, 1)")
    if lam_tilde is None:
        lam_tilde = (1.0 + 3.0 * lam) / 4.0
    if not (lam < lam_tilde < (1.0 + lam) / 2.0):
        raise ValueError("lambda_tilde must lie in (lambda, (1 + lambda) / 2)")
    if epsilon1 <= 0.0:
        raise ValueError("epsilon1 must be positive")
    eta_cap = min(epsilon1, f.phase.injectivity_radius / 4.0)
    eta_val = eta_cap if eta is None else float(eta)
    if not (0.0 < eta_val <= eta_cap):
        raise ValueError(f"eta must lie in (0, {eta_cap:g}]")
    if bounds is None:
        bounds = system_bounds(f)
    R, L = max(bounds.R, 1.0), bounds.L
    if L > 0.0:
        eta_val = min(eta_val, (lam_tilde - lam) / (5.0 * R * L))
    a_max = int(np.max(po.lengths))
    C = R ** a_max
    delta1 = (1.0 - lam_tilde) * eta_val / 4.0
    return SolverConfig(
        lam=lam, lam_tilde=lam_tilde, epsilon1=epsilon1, eta=eta_val,
        R=R, a_max=a_max, C=C,
        eps0=(1.0 + lam - 2.0 * lam_tilde) / (4.0 * R),
        delta1=delta1, delta0=delta1 / C,
        d0=(1.0 - lam_tilde) * eta_val / (4.0 * C),
        tol_fix=tol_fix, max_iter=max_iter, L=L, kind=bounds.kind,
    )


class ShadowProblem:
    """A pseudo-orbit, its splittings, the two maps, and the rescaled norms.

    blocks, when given, are what pseudo_orbit_blocks returns for these
    splittings and must cover po; they set the adapted weights.  The chart
    maps, their Jacobians and the Newton inversion read the stacked
    splittings and act on all N indices at a time: row j of an ``(N, n)``
    argument is the tangent vector at index j.
    """

    def __init__(self, po, splittings, f, g, config, blocks=None):
        if len(splittings) != po.n_steps + 1:
            raise ValueError("need one splitting per flattened index, closing point included")
        if f.phase != po.phase or g.phase != po.phase:
            raise ValueError("maps and pseudo-orbit live on different phase spaces")
        self.po = po
        self.splittings = splittings
        self.f = f
        self.g = g
        self.config = config
        m_a, norm_d, _ = _covering(po, splittings, f, blocks).norms
        self.weights = _segmentwise(partial(well_adapted_sequence, lam=config.lam),
                                    po.offsets, norm_d, m_a)
        self.l = scale_factors(self.weights, po.offsets)
        self.phase = po.phase
        self.dim_u = splittings.dim_u
        self.steps = np.arange(po.n_steps)

    @property
    def n_steps(self) -> int:
        return self.po.n_steps

    def coords(self, at: slice, x):
        """Oblique components (a, b) of each row of x in the splitting at
        the matching index of ``at``, with x_k = U a_k + S b_k."""
        c = _matvec(self.splittings.basis_inv[at], x)
        return c[:, : self.dim_u], c[:, self.dim_u :]

    def _chart(self, m, v):
        pts = self.po.points
        return self.phase.wrap(m.along(self.phase.canon(pts[:-1] + v), self.steps) - pts[1:])

    def F(self, v):
        """Chart representations F_j(v_j) of f between indices j and j+1, j < N."""
        return self._chart(self.f, v)

    def G(self, v):
        """Chart representations G_j(v_j) of g between indices j and j+1, j < N."""
        return self._chart(self.g, v)

    def chart_jacobian(self, xi):
        """Derivatives of the chart maps F_j at the tangent offsets xi_j."""
        return self.f.jacobian_along(self.phase.canon(self.po.points[:-1] + xi), self.steps)

    def _unstable_blocks(self, xi):
        # the unstable-to-unstable blocks of DF_j at xi_j, (N, du, du)
        spl = self.splittings
        jac = np.matmul(np.matmul(spl.basis_inv[1:], self.chart_jacobian(xi)), spl.unstable[:-1])
        return jac[:, : self.dim_u, :]

    def invert_unstable(self, sv, target, base):
        """Newton inversion of the expanding unstable parts of all F_j at once.

        sv holds the stable parts of the v_j and base their images F(sv),
        which the caller has already computed.  Returns the rows w_j, in
        index-j unstable coordinates, such that F_j(sv_j + U_j w_j) - base_j
        has index-(j+1) unstable coordinates equal to target_j; each w_j
        must lie in the eta-ball.  Every index runs its own
        Newton iteration and stops once its residual is below NEWTON_TOL.
        When indices fail (singular block, stalled Newton, eta-ball
        escape), the error of the lowest one is raised.
        """
        cfg = self.config
        target = np.asarray(target, dtype=float)
        failures = []  # (index, error): the lowest index of each failing batch
        # seed with the linear prediction; exact for affine charts
        w, singular = _solve_rows(self._unstable_blocks(sv), target)
        _record_singular(failures, np.flatnonzero(singular))
        live = ~singular
        done = np.zeros_like(live)
        for _ in range(NEWTON_MAX_ITER):
            x = sv + _matvec(self.splittings.unstable[:-1], w)
            r = self.coords(slice(1, None), self.phase.wrap(self.F(x) - base))[0] - target
            res = np.sqrt(_sq_norms(r))
            done |= live & (res <= NEWTON_TOL)
            live &= ~done
            rows = np.flatnonzero(live)
            if rows.size == 0:
                break
            step, singular = _solve_rows(self._unstable_blocks(x)[rows], r[rows])
            _record_singular(failures, rows[singular])
            live[rows[singular]] = False
            w[rows[~singular]] -= step[~singular]
        else:
            rows = np.flatnonzero(live)
            if rows.size:
                failures.append((rows[0], UnstableSolveError(
                    f"Newton inversion stalled at index {rows[0]} (residual {res[rows[0]]:.3e})"
                )))
        size = np.sqrt(_sq_norms(w))
        l_src = self.l[:-1]
        escaped = np.flatnonzero(done & (size > cfg.eta * l_src * (1.0 + 1e-9)))
        if escaped.size:
            j = escaped[0]
            failures.append((j, BallInvariantError(
                f"inverted unstable component at index {j} has rescaled size "
                f"{size[j] / l_src[j]:.3e} > eta = {cfg.eta:.3e}"
            )))
        if failures:
            raise min(failures, key=lambda item: item[0])[1]
        return w


def _matvec(m, x):
    """Row k of x multiplied by the matrix m[k]."""
    return np.matmul(m, x[..., None])[..., 0]


def _sq_norms(x):
    """Squared Euclidean length of each row, as a per-row dot product
    (rounded as np.linalg.norm rounds a single vector)."""
    return np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0]


def _solve_rows(a, b):
    """Solve a[k] x_k = b_k for every row k.

    Returns (x, singular): a row whose matrix LAPACK finds exactly
    singular is flagged instead of raising, and its x_k is zero.
    """
    try:
        return np.linalg.solve(a, b[..., None])[..., 0], np.zeros(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    # failure path only: locate the singular rows one by one
    x = np.zeros_like(b)
    singular = np.zeros(len(a), dtype=bool)
    for k in range(len(a)):
        try:
            x[k] = np.linalg.solve(a[k], b[k])
        except np.linalg.LinAlgError:
            singular[k] = True
    return x, singular


def _record_singular(failures, rows):
    if rows.size:
        failures.append((rows[0], UnstableSolveError(f"singular unstable block at index {rows[0]}")))


def apply_operator(problem: ShadowProblem, v: np.ndarray, boundary: str = "finite") -> np.ndarray:
    """One solver update: forward stable rows, backward unstable rows,
    boundary rows per mode ("finite" pins the free components to zero,
    "periodic" wraps them around the seam).  Every row is updated at
    once from the stacked splittings."""
    if boundary not in ("finite", "periodic"):
        raise ValueError(f"unknown boundary mode {boundary!r}")
    n, du, spl = problem.n_steps, problem.dim_u, problem.splittings
    src, dst = slice(None, -1), slice(1, None)
    w = np.zeros_like(v)
    g_imgs = problem.G(v[:-1])
    w[1:] += _matvec(spl.stable[dst], problem.coords(dst, g_imgs)[1])
    sv = _matvec(spl.stable[src], problem.coords(src, v[:-1])[1])
    f_sv = problem.F(sv)
    target_ambient = -g_imgs + problem.F(v[:-1]) - f_sv + v[1:]
    wu = problem.invert_unstable(sv, problem.coords(dst, target_ambient)[0], f_sv)
    w[:-1] += _matvec(spl.unstable[src], wu)
    if boundary == "periodic":
        w[0] += spl.stable[0] @ (spl.basis_inv[n] @ w[n])[du:]
        w[n] += spl.unstable[n] @ (spl.basis_inv[0] @ w[0])[:du]
    return w


def _check_ball(problem: ShadowProblem, w: np.ndarray) -> float:
    """Largest rescaled box norm max(|w_u|, |w_s|) / l_j over all indices."""
    eta = problem.config.eta
    # squared component lengths as per-index dot products, rounded as box_norm rounds them
    sq = [_sq_norms(part) for part in problem.coords(slice(None), w)]
    worst = float((np.sqrt(np.maximum(*sq)) / problem.l).max())
    if worst > eta * (1.0 + 1e-9):
        raise BallInvariantError(
            f"iterate left the eta-ball ({worst:.3e} > {eta:.3e}); "
            "jump sizes or the map distance exceed the admissible bounds"
        )
    return worst


@dataclass(eq=False)
class ShadowingResult:
    """A converged (or diagnosed) shadowing solve.

    distances[j] is the chart distance of the shadow orbit from the
    pseudo-orbit at index j, equal to l_j |v_j|_N by construction.
    """

    v: np.ndarray
    shadow_point: np.ndarray
    distances: np.ndarray
    orbit_residuals: np.ndarray
    iterations: int
    converged: bool
    update_history: list = field(repr=False)
    ball_margin: float
    scale: np.ndarray = field(repr=False)
    boundary: str
    config: SolverConfig = field(repr=False)
    periodic_closure: float | None = None
    periodic_closure_polished: float | None = None
    seam_gap: float | None = None
    polish_message: str | None = None

    @property
    def max_distance(self) -> float:
        return float(self.distances.max())

    @property
    def residual_max(self) -> float:
        return float(self.orbit_residuals.max())

    def report(self) -> dict:
        """The JSON report, its arrays left as arrays for the writer."""
        d = {
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "max_distance": self.max_distance,
            "distances": self.distances,
            "residual_max": self.residual_max,
            "ball_margin": float(self.ball_margin),
            "shadow_point": self.shadow_point,
            "boundary": self.boundary,
            "update_history": self.update_history,
        }
        if self.periodic_closure is not None:
            d["closure"] = {
                "pre_polish": float(self.periodic_closure),
                "post_polish": (
                    None if self.periodic_closure_polished is None
                    else float(self.periodic_closure_polished)
                ),
                "seam_gap": float(self.seam_gap),
            }
            if self.polish_message:
                d["closure"]["polish_message"] = self.polish_message
        return d

    def to_dict(self) -> dict:
        return plain(self.report())


def _solve(problem: ShadowProblem, boundary: str) -> ShadowingResult:
    """Iterate the solver update from zero until the rescaled update norm
    drops below tol_fix; once an update grows, every later step is damped.
    A converged solve whose residuals or distances come out too large is
    reported as not converged."""
    cfg = problem.config
    v = np.zeros((problem.n_steps + 1, problem.phase.dim))
    history = []
    ball_worst = 0.0
    damping_on = False
    converged = False
    for _ in range(cfg.max_iter):
        w = apply_operator(problem, v, boundary=boundary)
        ball_worst = max(ball_worst, _check_ball(problem, w))
        step = w - v
        upd = float((np.linalg.norm(step, axis=-1) / problem.l).max())
        if history and upd > history[-1]:
            damping_on = True
        history.append(upd)
        v = v + DAMPING * step if damping_on else w
        if upd < cfg.tol_fix:
            converged = True
            break
    residuals = np.sqrt(_sq_norms(v[1:] - problem.G(v[:-1]))) / problem.l[1:]
    distances = np.linalg.norm(v, axis=-1)
    if converged and (residuals.max() > 10.0 * cfg.tol_fix or distances.max() > cfg.epsilon1):
        converged = False
    return ShadowingResult(
        v=v, shadow_point=problem.phase.exp(problem.po.points[0], v[0]), distances=distances,
        orbit_residuals=residuals, iterations=len(history), converged=converged,
        update_history=history, ball_margin=ball_worst / cfg.eta, scale=problem.l,
        boundary=boundary, config=cfg,
    )


def solve_finite(po, splittings, f, g, config, blocks=None) -> ShadowingResult:
    """Shadow a finite pseudo-orbit window: iterate the solver update from
    zero until the rescaled update norm drops below tol_fix.

    Non-convergence is reported on the result (converged=False with the
    full update history), not raised.
    """
    return _solve(ShadowProblem(po, splittings, f, g, config, blocks=blocks), "finite")


def _periodic_polish(g, phase, x0, nsteps, tol=1e-13, max_iter=16):
    """Newton solve of g^nsteps(p) = p from x0.

    Returns (res, msg, closure): the residual of the last iterate, why the
    Newton stopped short of tol (None when it did not), and the distance
    from x0 to g^nsteps(x0), taken from the first pass.
    """
    dim = x0.size
    p = x0.copy()
    closure = None
    for _ in range(max_iter):
        q = p
        jac = np.eye(dim)
        for t in range(nsteps):
            jac = g.jacobian_along(q, t) @ jac
            q = g.along(q, t)
        if closure is None:
            closure = float(phase.distance(q, p))
        r = phase.wrap(q - p)
        res = float(np.linalg.norm(r))
        if res <= tol:
            return res, None, closure
        try:
            p = phase.canon(p - np.linalg.solve(jac - np.eye(dim), r))
        except np.linalg.LinAlgError:
            return res, "polish Jacobian singular (eigenvalue 1 on the cycle)", closure
    return res, "polish Newton did not reach tolerance", closure


def solve_periodic(po, splittings, f, g, config, blocks=None) -> ShadowingResult:
    """Shadow one period of a periodic pseudo-orbit with a periodic orbit of g.

    The pseudo-orbit must cover exactly one period: its closing seed must
    equal its first seed bitwise.  The seam identifies the first and last
    indices, so the fixed point satisfies v_0 = v_N and the shadow point
    is periodic with period N.  A Newton polish afterwards drives the
    orbit closure to roundoff.
    """
    if not po.closed:
        raise ValueError("periodic solve needs the closing seed equal to the first seed")
    n = po.n_steps
    if not np.allclose(*splittings.basis[[0, n]], atol=1e-9):
        raise ValueError("periodic solve needs matching splittings at the seam")
    seam = np.r_[0:n, 0]
    splittings = SplittingAssignment(splittings.unstable[seam], splittings.stable[seam],
                                     splittings.basis_inv[seam])
    result = _solve(ShadowProblem(po, splittings, f, g, config, blocks=blocks), "periodic")
    result.seam_gap = float(np.linalg.norm(result.v[0] - result.v[n]))
    res, msg, closure = _periodic_polish(g, po.phase, result.shadow_point, n)
    result.periodic_closure = closure
    if msg is None or res < closure:
        result.periodic_closure_polished = res
    result.polish_message = msg
    return result


@dataclass(frozen=True)
class WindowRow:
    k: int
    v0: np.ndarray
    diff: float
    window_converged: bool


@dataclass(eq=False)
class WindowTable:
    rows: list
    converged: bool

    def diffs(self):
        return [r.diff for r in self.rows[1:]]

    def to_dict(self) -> dict:
        return {
            "converged": bool(self.converged),
            "rows": [
                {
                    "k": r.k,
                    "v0": r.v0.tolist(),
                    "diff": None if np.isnan(r.diff) else float(r.diff),
                    "window_converged": bool(r.window_converged),
                }
                for r in self.rows
            ],
        }


def solve_infinite(window_problem, window_ks, config) -> tuple:
    """Two-sided shadowing by growing windows.

    window_problem(k) must return (po, splittings, f, g) for the window
    covering segments -k..k; the anchor tangent vector v_0 (at the
    segment-0 seed) is compared across windows and declared converged
    when consecutive windows agree to 10 * tol_fix.  window_ks must be
    strictly increasing.  Returns the result of the largest window
    together with the convergence table.
    """
    window_ks = list(window_ks)
    if not window_ks or any(a >= b for a, b in zip(window_ks, window_ks[1:])):
        raise ValueError("window sizes must be increasing")
    rows = []
    prev = None
    result = None
    for k in window_ks:
        po, spl, f, g = window_problem(k)
        result = solve_finite(po, spl, f, g, config)
        v0 = result.v[po.center]
        diff = float("nan") if prev is None else float(np.linalg.norm(v0 - prev))
        rows.append(WindowRow(k=k, v0=v0, diff=diff, window_converged=result.converged))
        prev = v0
    converged = (
        all(r.window_converged for r in rows)
        and len(rows) >= 2
        and rows[-1].diff < 10.0 * config.tol_fix
    )
    return result, WindowTable(rows=rows, converged=converged)


def shadowing_preconditions(po, splittings, f, g, config):
    """Certificate plus size margins required by the shadowing solve.

    Returns (certificate, margins, distance): the orbit certified at
    (lam, eps0, delta0), the off-diagonal / residual / map-distance
    slacks, all nonnegative when the preconditions hold, and the map
    distance map_distance(f, g) the last slack is taken from.
    """
    cert = certify_pseudo_orbit(po, splittings, f, config.lam, config.eps0, config.delta0)
    distance = map_distance(f, g)
    margins = {
        "epsilon": config.eps0 - cert.max_offdiagonal,
        "delta": config.delta0 - float(po.residuals.max()),
        "map_distance": config.d0 - distance,
    }
    return cert, margins, distance
