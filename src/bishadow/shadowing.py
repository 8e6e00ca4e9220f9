"""Shadowing solver: true orbits of a perturbed map near a pseudo-orbit.

Everything happens in the exponential charts along the flattened
pseudo-orbit.  F_j and G_j are the chart representations of the
reference map f and the perturbed map g between consecutive points; a
tangent sequence v_j encodes a candidate orbit x_j = exp_{y_j}(v_j).

One solver update rebuilds the sequence componentwise:

  * stable components propagate forward through G_j,
  * unstable components are recovered backward by inverting the
    expanding unstable part of F_j (a Newton solve per index), and
  * boundary rows pin the free components (zero at the window ends, or
    wrapped around for periodic windows).

A fixed point of this update is an exact orbit of g: v_{j+1} = G_j(v_j)
with the pinned boundary components, so exp_{y_0}(v_0) shadows the
pseudo-orbit with per-step distance l_j |v_j|_N.  The rescaled norms
|v|_N = |v| / l_j come from a well-adapted weight sequence per segment
and make every unstable step uniformly expanding and every stable step
uniformly contracting, which is what drives the iteration to converge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adapted import scale_factors, well_adapted_sequence
from .certification import block_norms, certify_pseudo_orbit, pseudo_orbit_blocks
from .pseudo_orbit import SegmentedPseudoOrbit, SplittingAssignment
from .systems import SmoothMap, SystemBounds, estimate_bounds, sup_distance

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
    damping: float = 0.5
    newton_tol: float = 1e-13
    newton_max_iter: int = 50

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
    grid_res: int = 256,
) -> SolverConfig:
    """Assemble a solver configuration, deriving the size constants from f.

    eta defaults to min(epsilon1, injectivity_radius / 4) and is halved
    until the sampled continuity modulus of Df at scale eta stays below
    (lam_tilde - lam) / (5 R).
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
        bounds = estimate_bounds(f, grid_res=grid_res, scale=eta_val)
    R = max(bounds.R, 1.0)
    modulus_bound = (lam_tilde - lam) / (5.0 * R)
    modulus = bounds.lip_modulus
    for _ in range(8):
        if modulus <= modulus_bound or modulus == 0.0:
            break
        eta_val *= 0.5
        # modulus of continuity shrinks at least linearly with the scale
        modulus *= 0.5
    else:
        raise ValueError("derivative varies too fast for any admissible eta")
    a_max = int(np.max(po.lengths))
    C = R ** a_max
    delta1 = (1.0 - lam_tilde) * eta_val / 4.0
    return SolverConfig(
        lam=lam, lam_tilde=lam_tilde, epsilon1=epsilon1, eta=eta_val,
        R=R, a_max=a_max, C=C,
        eps0=(1.0 + lam - 2.0 * lam_tilde) / (4.0 * R),
        delta1=delta1, delta0=delta1 / C,
        d0=(1.0 - lam_tilde) * eta_val / (4.0 * C),
        tol_fix=tol_fix, max_iter=max_iter,
    )


class ShadowProblem:
    """A pseudo-orbit, its splittings, the two maps, and the rescaled norms.

    blocks, when given, are the per-segment tuples of pseudo_orbit_blocks
    for these splittings; they set the adapted weights.
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
        if blocks is None:
            blocks = pseudo_orbit_blocks(po, splittings, f)
        weights = []
        for seg_blocks in blocks:
            m_a, norm_d, _ = block_norms(seg_blocks)
            weights.append(well_adapted_sequence(norm_d, m_a, config.lam))
        self.weights = np.concatenate(weights) if weights else np.ones(0)
        self.l = scale_factors(self.weights, po.offsets)
        self.phase = po.phase
        # (N + 1, n, n): every index's map to oblique components, for the ball check
        self.basis_inv = np.stack([sp.basis_inv for sp in splittings.splittings])

    @property
    def n_steps(self) -> int:
        return self.po.n_steps

    def point(self, j: int):
        return self.po.points[j]

    def F(self, j: int, v):
        """Chart representation of f between indices j and j+1."""
        y, y1 = self.po.points[j], self.po.points[j + 1]
        fj = self.f.at_step(j)
        return self.phase.wrap(fj(self.phase.canon(y + v)) - y1)

    def G(self, j: int, v):
        """Chart representation of g between indices j and j+1."""
        y, y1 = self.po.points[j], self.po.points[j + 1]
        gj = self.g.at_step(j)
        return self.phase.wrap(gj(self.phase.canon(y + v)) - y1)

    def chart_jacobian(self, j: int, xi):
        """Derivative of the chart map F_j at tangent offset xi."""
        return self.f.at_step(j).jacobian(self.phase.canon(self.po.points[j] + xi))

    def norm_n(self, j: int, v) -> float:
        """Rescaled norm |v| / l_j at index j."""
        return float(np.linalg.norm(v) / self.l[j])

    def _check_eta(self, j: int, size: float, what: str):
        if size > self.config.eta * self.l[j] * (1.0 + 1e-9):
            raise BallInvariantError(
                f"{what} at index {j} has rescaled size "
                f"{size / self.l[j]:.3e} > eta = {self.config.eta:.3e}"
            )

    def invert_unstable(self, j: int, sv, target):
        """Newton inversion of the expanding unstable part of F_j.

        sv is the stable part of v_j.  Returns w, in index-j unstable
        coordinates, such that F_j(sv + U_j w) - F_j(sv) has index-(j+1)
        unstable coordinates equal to target; w must lie in the eta-ball.
        """
        sp = self.splittings[j]
        dst = self.splittings[j + 1]
        base = self.F(j, sv)
        target = np.asarray(target, dtype=float)
        # seed with the linear prediction; exact for affine charts
        jac = self.chart_jacobian(j, sv)
        a_loc = (dst.basis_inv @ jac @ sp.unstable)[: dst.dim_u, :]
        try:
            w = np.linalg.solve(a_loc, target)
        except np.linalg.LinAlgError as exc:
            raise UnstableSolveError(f"singular unstable block at index {j}") from exc
        for _ in range(self.config.newton_max_iter):
            out = self.F(j, sv + sp.unstable @ w) - base
            r = dst.unstable_coords(self.phase.wrap(out)) - target
            if np.linalg.norm(r) <= self.config.newton_tol:
                self._check_eta(j, float(np.linalg.norm(w)), "inverted unstable component")
                return w
            jac = self.chart_jacobian(j, sv + sp.unstable @ w)
            a_loc = (dst.basis_inv @ jac @ sp.unstable)[: dst.dim_u, :]
            try:
                w = w - np.linalg.solve(a_loc, r)
            except np.linalg.LinAlgError as exc:
                raise UnstableSolveError(
                    f"singular unstable block at index {j}"
                ) from exc
        raise UnstableSolveError(
            f"Newton inversion stalled at index {j} "
            f"(residual {np.linalg.norm(r):.3e})"
        )


def apply_operator(problem: ShadowProblem, v: np.ndarray, boundary: str = "finite") -> np.ndarray:
    """One solver update: forward stable rows, backward unstable rows,
    boundary rows per mode ("finite" pins the free components to zero,
    "periodic" wraps them around the seam)."""
    if boundary not in ("finite", "periodic"):
        raise ValueError(f"unknown boundary mode {boundary!r}")
    n = problem.n_steps
    w = np.zeros_like(v)
    g_imgs = [problem.G(j, v[j]) for j in range(n)]
    for j in range(n):
        w[j + 1] += problem.splittings[j + 1].project_stable(g_imgs[j])
    for j in range(n):
        sp = problem.splittings[j]
        sv = sp.project_stable(v[j])
        target_ambient = -g_imgs[j] + problem.F(j, v[j]) - problem.F(j, sv) + v[j + 1]
        t = problem.splittings[j + 1].unstable_coords(target_ambient)
        wu = problem.invert_unstable(j, sv, t)
        w[j] += sp.unstable @ wu
    if boundary == "periodic":
        sp0 = problem.splittings[0]
        spn = problem.splittings[n]
        w[0] += sp0.stable @ spn.stable_coords(w[n])
        w[n] += spn.unstable @ sp0.unstable_coords(w[0])
    return w


def _check_ball(problem: ShadowProblem, w: np.ndarray) -> float:
    """Largest rescaled box norm max(|w_u|, |w_s|) / l_j over all indices."""
    eta = problem.config.eta
    c = np.matmul(problem.basis_inv, w[:, :, None])
    du = problem.splittings[0].dim_u
    # squared component lengths as per-index dot products, rounded as box_norm rounds them
    sq = [np.matmul(part.transpose(0, 2, 1), part)[:, 0, 0] for part in (c[:, :du], c[:, du:])]
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
    pseudo-orbit at index j, equal to l_j |v_j|_N by construction;
    orbit_drift additionally reports how far direct iteration of g from
    the shadow point strays from the chart orbit (it accumulates the
    per-step residual amplified by the dynamics).
    """

    v: np.ndarray
    shadow_point: np.ndarray
    distances: np.ndarray
    orbit_residuals: np.ndarray
    iterations: int
    converged: bool
    update_history: list = field(repr=False)
    ball_margin: float
    orbit_drift: float
    scale: np.ndarray = field(repr=False)
    boundary: str
    config: SolverConfig = field(repr=False)
    periodic_closure: float | None = None
    periodic_closure_polished: float | None = None
    polished_point: np.ndarray | None = None
    seam_gap: float | None = None
    polish_message: str | None = None

    @property
    def max_distance(self) -> float:
        return float(self.distances.max())

    @property
    def residual_max(self) -> float:
        return float(self.orbit_residuals.max())

    def to_dict(self) -> dict:
        d = {
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "max_distance": self.max_distance,
            "distances": [float(x) for x in self.distances],
            "residual_max": self.residual_max,
            "ball_margin": float(self.ball_margin),
            "orbit_drift": float(self.orbit_drift),
            "shadow_point": [float(x) for x in self.shadow_point],
            "boundary": self.boundary,
            "update_history": [float(u) for u in self.update_history],
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


def _iterate(problem: ShadowProblem, boundary: str):
    n = problem.n_steps
    v = np.zeros((n + 1, problem.phase.dim))
    history = []
    ball_worst = 0.0
    damping_on = False
    prev_upd = np.inf
    converged = False
    iterations = 0
    for iterations in range(1, problem.config.max_iter + 1):
        w = apply_operator(problem, v, boundary=boundary)
        ball_worst = max(ball_worst, _check_ball(problem, w))
        step = w - v
        upd = float((np.linalg.norm(step, axis=-1) / problem.l).max())
        history.append(upd)
        if upd > prev_upd:
            damping_on = True
        prev_upd = upd
        v = v + problem.config.damping * step if damping_on else w
        if upd < problem.config.tol_fix:
            converged = True
            break
    return v, history, converged, iterations, ball_worst


def _finish(problem: ShadowProblem, v, history, converged, iterations, ball_worst, boundary):
    n = problem.n_steps
    residuals = np.array([
        problem.norm_n(j + 1, v[j + 1] - problem.G(j, v[j])) for j in range(n)
    ])
    distances = np.linalg.norm(v, axis=-1)
    if converged and (residuals.max() > 10.0 * problem.config.tol_fix
                      or distances.max() > problem.config.epsilon1):
        converged = False
    x = problem.phase.exp(problem.po.points[0], v[0])
    drift = 0.0
    p = x
    for j in range(n + 1):
        drift = max(drift, float(problem.phase.distance(
            p, problem.phase.exp(problem.po.points[j], v[j]))))
        if j < n:
            p = problem.g.at_step(j)(p)
    return ShadowingResult(
        v=v, shadow_point=x, distances=distances, orbit_residuals=residuals,
        iterations=iterations, converged=converged, update_history=history,
        ball_margin=ball_worst / problem.config.eta, orbit_drift=drift,
        scale=problem.l, boundary=boundary, config=problem.config,
    )


def solve_finite(po, splittings, f, g, config, blocks=None) -> ShadowingResult:
    """Shadow a finite pseudo-orbit window: iterate the solver update from
    zero until the rescaled update norm drops below tol_fix.

    Non-convergence is reported on the result (converged=False with the
    full update history), not raised.
    """
    problem = ShadowProblem(po, splittings, f, g, config, blocks=blocks)
    v, history, converged, iterations, ball_worst = _iterate(problem, "finite")
    return _finish(problem, v, history, converged, iterations, ball_worst, "finite")


def _periodic_polish(g, phase, x0, nsteps, tol=1e-13, max_iter=16):
    dim = x0.size
    p = x0.copy()
    res = np.inf
    for _ in range(max_iter):
        q = p
        jac = np.eye(dim)
        for t in range(nsteps):
            gt = g.at_step(t)
            jac = gt.jacobian(q) @ jac
            q = gt(q)
        r = phase.wrap(q - p)
        res = float(np.linalg.norm(r))
        if res <= tol:
            return p, res, None
        try:
            p = phase.canon(p - np.linalg.solve(jac - np.eye(dim), r))
        except np.linalg.LinAlgError:
            return p, res, "polish Jacobian singular (eigenvalue 1 on the cycle)"
    return p, res, "polish Newton did not reach tolerance"


def solve_periodic(po, splittings, f, g, config, polish: bool = True, blocks=None) -> ShadowingResult:
    """Shadow one period of a periodic pseudo-orbit with a periodic orbit of g.

    The pseudo-orbit must cover exactly one period: its closing seed must
    equal its first seed bitwise.  The seam identifies the first and last
    indices, so the fixed point satisfies v_0 = v_N and the shadow point
    is periodic with period N.  An optional Newton polish afterwards
    drives the orbit closure to roundoff.
    """
    if not np.array_equal(po.seeds[0], po.seeds[-1]):
        raise ValueError("periodic solve needs the closing seed equal to the first seed")
    n = po.n_steps
    if not np.allclose(splittings[0].basis, splittings[n].basis, atol=1e-9):
        raise ValueError("periodic solve needs matching splittings at the seam")
    seam = list(splittings.splittings)
    seam[n] = seam[0]
    splittings = SplittingAssignment(tuple(seam))
    problem = ShadowProblem(po, splittings, f, g, config, blocks=blocks)
    v, history, converged, iterations, ball_worst = _iterate(problem, "periodic")
    result = _finish(problem, v, history, converged, iterations, ball_worst, "periodic")
    result.seam_gap = float(np.linalg.norm(v[0] - v[n]))
    x = result.shadow_point
    closure = float(problem.phase.distance(g_iterate(g, x, n), x))
    result.periodic_closure = closure
    if polish:
        p, res, msg = _periodic_polish(g, problem.phase, x, n)
        if msg is None or res < closure:
            result.polished_point = p
            result.periodic_closure_polished = res
        result.polish_message = msg
    return result


def g_iterate(g, x, n):
    p = np.asarray(x, dtype=float)
    for t in range(n):
        p = g.at_step(t)(p)
    return p


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
                    "v0": [float(x) for x in r.v0],
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
    when consecutive windows agree to 10 * tol_fix.  Returns the result
    of the largest window together with the convergence table.
    """
    window_ks = list(window_ks)
    if not window_ks or sorted(window_ks) != window_ks:
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


def shadowing_preconditions(po, splittings, f, g, config, grid_res: int = 256):
    """Certificate plus size margins required by the shadowing solve.

    Returns (certificate, margins): the orbit certified at
    (lam, eps0, delta0), the off-diagonal / residual / map-distance
    slacks, all nonnegative when the preconditions hold.
    """
    cert = certify_pseudo_orbit(po, splittings, f, config.lam, config.eps0, config.delta0)
    eps_actual = max(float(block_norms(seg)[2].max()) for seg in cert.blocks)
    d_actual = sup_distance(f, g, grid_res=grid_res) if f is not g else 0.0
    margins = {
        "epsilon": config.eps0 - eps_actual,
        "delta": config.delta0 - (float(po.residuals.max()) if po.residuals.size else 0.0),
        "map_distance": config.d0 - d_actual,
    }
    return cert, margins
