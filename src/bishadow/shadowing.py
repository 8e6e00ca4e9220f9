"""Shadowing solver: true orbits of a perturbed map near a pseudo-orbit.

Everything happens in the exponential charts along the flattened
pseudo-orbit.  F_j and G_j are the chart representations of the
reference map f and the perturbed map g between consecutive points; a
tangent sequence v_j encodes a candidate orbit x_j = exp_{y_j}(v_j).

One solver update rebuilds the sequence componentwise:

  * stable components propagate forward through G_j,
  * unstable components are recovered backward by inverting the
    expanding unstable part of F_j (a chord iteration for every index at
    once, with the certificate's unstable block A_j as its matrix, each
    index stopping at its own tolerance), and
  * boundary rows pin the free components (zero at the window ends, or
    wrapped around for periodic windows).

Every row j of the update is computed from v_j and v_{j+1} alone, so the
update is a fixed number of stacked array operations over all indices:
the splittings are stacked once per problem, and the maps evaluate
step j on row j through SmoothMap.along.  For the same reason several
problems can share one update.  A ShadowProblem holds one problem's
data; the update acts only on a stack (_Stack), which concatenates the
rows of its problems and masks the step from one problem's last row to
the next one's first.  _solve, the one solver loop, iterates a stack; a
single solve is a stack of one, and sweeps and window ladders solve all
their problems as one stack, each with the bits it has alone.

A fixed point of this update is an exact orbit of g: v_{j+1} = G_j(v_j)
with the pinned boundary components, so exp_{y_0}(v_0) shadows the
pseudo-orbit with per-step distance l_j |v_j|_N.  The rescaled norms
|v|_N = |v| / l_j come from a well-adapted weight sequence per segment
and make every unstable step uniformly expanding and every stable step
uniformly contracting, which is what drives the iteration to converge.

Iterated from zero, the update takes ten to twenty iterations, since row j + 1
of an update reads only row j of the iterate.  So _solve first takes
whole-orbit quasi-Newton steps (_quasi_newton), the classical numerical
shadowing method (Hammel, Yorke and Grebogi, Bull. AMS 19, 1988; Coomes,
Kocak and Palmer, Numer. Math. 69, 1995): each solves the
block-diagonal linearisation of v_{j+1} = G_j(v_j) along the whole orbit
as two scalar recurrences, so two or three steps reach the fixed point
to rounding.  One update then confirms it, and its size bounds the
distance to the fixed point (ShadowingResult.enclosure_radius).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .adapted import _term_logs, scale_factors, well_adapted_sequence
from .certification import _covering, _solve_stack, certify_pseudo_orbit
from .jsonwriter import plain
from .pseudo_orbit import SegmentedPseudoOrbit, SplittingAssignment, _segmentwise
from .systems import ShiftedMap, SmoothMap, SystemBounds, map_distance, system_bounds

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


NEWTON_TOL = 1e-13  # residual at which one index's chord inversion stops, unless rounding
NEWTON_ULPS = 8  # allows less: ulps of the larger of the two points a step joins
NEWTON_MAX_ITER = 50

# why an index failed in invert_unstable
_SINGULAR, _STALLED, _ESCAPED = 1, 2, 3


class BallInvariantError(RuntimeError):
    """An iterate escaped the eta-ball; the size preconditions are too weak."""


class UnstableSolveError(RuntimeError):
    """Chord inversion of the expanding component failed."""


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
    """One problem: a pseudo-orbit, its splittings, the two maps, the config
    and the rescaled norms.

    blocks, when given, are what pseudo_orbit_blocks returns for these
    splittings and must cover po; they set the adapted weights, and their
    diagonal blocks A_j and D_j are the only derivatives the solver reads.
    _rounding is the rounding floor of each step's chord inversion (see
    _Stack.invert_unstable).  The update itself acts on a _Stack.
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
        blocks = _covering(po, splittings, f, blocks)
        m_a, norm_d, _ = blocks.norms
        self._a, self._d = blocks.A, blocks.D  # the diagonal blocks the solver solves with
        # the terms are checked on the whole orbit first, so that the lowest
        # bad one, m(A_j) = 0 say, is named by its orbit index j and segment
        _term_logs(norm_d, m_a, config.lam, lambda i: f"at index {i[0]} (segment "
                   f"{po.i_min + np.searchsorted(po.offsets, i[0], side='right') - 1})")
        self.weights = _segmentwise(partial(well_adapted_sequence, lam=config.lam),
                                    po.offsets, norm_d, m_a)
        self.l = scale_factors(self.weights, po.offsets)
        size = np.abs(po.points).max(axis=-1)
        self._rounding = NEWTON_ULPS * np.finfo(float).eps * np.maximum(size[:-1], size[1:])

    # read by perfbench/spans.py, which counts the rows of each apply_operator call
    @property
    def n_steps(self) -> int:
        return self.po.n_steps


class _Stack:
    """ShadowProblems that share a phase space and dim_u, solved as one: their
    rows concatenated, so that one apply_operator call updates every one.

    The chart maps and the chord inversion read the stacked splittings and
    unstable blocks and act on all rows at a time: row j of an ``(N, n)``
    argument is the tangent vector at row j.  The step from one problem's
    last row to the next one's first, a cut, is computed like any other,
    with an identity block, and then masked: it adds nothing to the update,
    is no inverted index and fails nothing.  Every other row is computed
    by the same row operations on C-ordered copies of its problem's arrays,
    so it has the bits it has alone; a stack of one holds the problem's own
    arrays.  A failing problem does not raise: after each apply_operator
    call, errors maps the position of every problem that failed in it to
    its error, and that problem's rows mean nothing.
    """

    def __init__(self, problems):
        self.phase, self.dim_u = problems[0].po.phase, problems[0].splittings.dim_u
        if any(p.po.phase != self.phase or p.splittings.dim_u != self.dim_u for p in problems):
            raise ValueError("stacked problems need one phase space and one dim_u")
        lengths = [len(p.po.points) for p in problems]
        self.starts = np.cumsum([0] + lengths)
        self.points = _rows([p.po.points for p in problems])
        self.splittings = SplittingAssignment(*(
            _rows([getattr(p.splittings, name) for p in problems])
            for name in ("unstable", "stable", "basis_inv")))
        self.l = _rows([p.l for p in problems])
        # a cut takes step 0, which every step-indexed map has
        self.steps = np.concatenate([np.append(np.arange(p.po.n_steps), 0) for p in problems])[:-1]
        self._cuts = self.starts[1:-1] - 1
        self._eta = np.repeat([p.config.eta for p in problems], lengths)[:-1]
        self._newton_tol = np.maximum(NEWTON_TOL, np.concatenate(
            [np.append(p._rounding, 0.0) for p in problems])[:-1])
        # the diagonal blocks A_j of the problems' certificates; a cut takes the identity
        eye = np.eye(self.dim_u)[None]
        self._a = _rows([a for p in problems for a in (p._a, eye)][:-1])
        self._f_images, self._g_images = _map_calls(problems, self.starts)
        self.errors = {}

    @property
    def n_steps(self) -> int:
        return len(self.points) - 1

    def coords(self, at: slice, x):
        """Oblique components (a, b) of each row of x in the splitting at
        the matching index of ``at``, with x_k = U a_k + S b_k."""
        c = _matvec(self.splittings.basis_inv[at], x)
        return c[:, : self.dim_u], c[:, self.dim_u :]

    def _chart(self, images):
        return self.phase.wrap(images - self.points[1:])

    def F(self, v):
        """Chart representations F_j(v_j) of f between rows j and j+1, j < N."""
        return self._chart(self._f_images(self.phase.canon(self.points[:-1] + v), self.steps))

    def charts(self, v):
        """F(v) and the chart representations G(v) of g, from one evaluation
        of f: one along call per distinct map, none for a g that is f or a
        ShiftedMap of f."""
        x = self.phase.canon(self.points[:-1] + v)
        fx = self._f_images(x, self.steps)
        g_chart = self._chart(self._g_images(x, self.steps, fx))
        return self._chart(fx), g_chart

    def invert_unstable(self, sv, target, base):
        """Chord inversion of the expanding unstable parts of all F_j at once.

        sv holds the stable parts of the v_j and base their images F(sv),
        which the caller has already computed.  Returns the rows w_j, in
        index-j unstable coordinates, such that F_j(sv_j + U_j w_j) - base_j
        has index-(j+1) unstable coordinates equal to target_j; each w_j
        must lie in the eta-ball.  Every index runs its own chord
        iteration, w_j = A_j^-1 target_j and then w_j -= A_j^-1 r_j with
        the residual r_j, so that the only derivative it reads is the
        certificate's block A_j at the pseudo-orbit; where DF is constant,
        as for an affine map, that is Newton's iteration.  An index stops
        once its residual is below NEWTON_TOL, or below NEWTON_ULPS ulps of
        the larger point its step joins where that is more
        (ShadowProblem._rounding).  That is what rounding allows: F_j
        evaluates f at canon(y_j + x), which rounds at the ulps of y_j, and
        subtracts y_{j+1} from an image of about its size, rounded at its
        ulps, so the computed residual of even the exact w is of that size.  On a torus, whose points lie in [0, 1),
        it is below 2e-15 and the stop is NEWTON_TOL; an affine orbit
        whose coordinates grow to 4e4 needs about 1e-11.
        When indices fail (singular block, stalled iteration, eta-ball
        escape), errors keeps the error of each failing problem's lowest
        index; the cuts are no inverted index.
        """
        target = np.asarray(target, dtype=float)
        # seed with the linear prediction; exact for affine charts
        w, singular = _solve_rows(self._a, target)
        live = ~singular
        live[self._cuts] = False
        failed = [(np.flatnonzero(singular), _SINGULAR)]  # failing indices, and why
        done = np.zeros_like(live)
        for _ in range(NEWTON_MAX_ITER):
            x = sv + _matvec(self.splittings.unstable[:-1], w)
            r = self.coords(slice(1, None), self.phase.wrap(self.F(x) - base))[0] - target
            res = np.sqrt(_sq_norms(r))
            done |= live & (res <= self._newton_tol)
            live &= ~done
            rows = np.flatnonzero(live)
            if rows.size == 0:
                break
            # the seed's blocks: none of the live rows is singular
            w[rows] -= _solve_rows(self._a[rows], r[rows])[0]
        else:
            failed.append((np.flatnonzero(live), _STALLED))
        size = np.sqrt(_sq_norms(w))
        l_src = self.l[:-1]
        failed.append((np.flatnonzero(done & (size > self._eta * l_src * (1.0 + 1e-9))), _ESCAPED))
        self.errors = {}
        for row, why in sorted((row, why) for rows, why in failed for row in rows.tolist()):
            k = int(np.searchsorted(self.starts, row, side="right")) - 1
            if k in self.errors:  # only the lowest failing index of each problem
                continue
            j = row - self.starts[k]
            if why == _SINGULAR:
                self.errors[k] = UnstableSolveError(f"singular unstable block at index {j}")
            elif why == _STALLED:
                self.errors[k] = UnstableSolveError(
                    f"chord inversion stalled at index {j} (residual {res[row]:.3e})")
            else:
                self.errors[k] = BallInvariantError(
                    f"inverted unstable component at index {j} has rescaled size "
                    f"{size[row] / l_src[row]:.3e} > eta = {self._eta[row]:.3e}")
        return w


def _rows(arrays):
    """The rows of the arrays, concatenated into one new C-ordered array, or
    a lone array as it is.  (np.concatenate of the broadcast stacks of a
    constant splitting returns an array whose first axis varies fastest,
    and np.matmul rounds such a stack differently.)"""
    if len(arrays) == 1:
        return arrays[0]
    out = np.empty((sum(len(a) for a in arrays),) + arrays[0].shape[1:])
    return np.concatenate(arrays, out=out)


def _map_calls(problems, starts):
    """The calls that map the stacked rows, each row by its problem's maps:
    f_images(x, steps) and g_images(x, steps, fx), with one call per
    distinct map.  g's images come from f's images fx at the same points
    where they can: a g that is f takes them as they are, and a ShiftedMap
    of f adds its shift to them (ShiftedMap.along's bits); any other g maps
    its rows itself.  Each problem's rows include its cut."""
    n = int(starts[-1]) - 1
    fs, gs, shifts = {}, {}, []
    for p, a, b in zip(problems, starts[:-1], starts[1:]):
        rows = np.arange(a, min(b, n))
        fs.setdefault(id(p.f), (p.f, []))[1].append(rows)
        if p.g is p.f:
            key, call = "f", _f_images
        elif isinstance(p.g, ShiftedMap) and p.g.base is p.f:
            key, call = "shift", None
            shifts.append(np.broadcast_to(p.g.shift, (len(rows), len(p.g.shift))))
        else:
            key, call = id(p.g), partial(_own_images, p.g)
        gs.setdefault(key, (call, []))[1].append(rows)
    if shifts:
        gs["shift"] = (partial(_shifted_images, problems[0].po.phase, _rows(shifts)),
                       gs["shift"][1])
    return _each_map([(f.along, rows) for f, rows in fs.values()]), _each_map(list(gs.values()))


def _each_map(plan):
    """One call over all stacked rows from the calls of plan and their rows:
    the call itself when there is one, else each call on its rows, the
    results put together in row order."""
    if len(plan) == 1:
        return plan[0][0]
    plan = [(call, np.concatenate(rows)) for call, rows in plan]

    def each(*arrays):
        parts = [(rows, call(*(a[rows] for a in arrays))) for call, rows in plan]
        out = np.empty((len(arrays[0]),) + parts[0][1].shape[1:])
        for rows, part in parts:
            out[rows] = part
        return out

    return each


def _f_images(x, steps, fx):
    return fx


def _own_images(g, x, steps, fx):
    return g.along(x, steps)


def _shifted_images(phase, shifts, x, steps, fx):
    return phase.canon(fx + shifts)


def _matvec(m, x):
    """Row k of x multiplied by the matrix m[k]."""
    return np.matmul(m, x[..., None])[..., 0]


def _sq_norms(x):
    """Squared Euclidean length of each row, as a per-row dot product
    (rounded as np.linalg.norm rounds a single vector)."""
    return np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0]


def _solve_rows(a, b):
    """_solve_stack with one right-hand side per row: (x, singular), where
    1x1 blocks divide and larger ones go to LAPACK."""
    x, singular = _solve_stack(a, b[..., None])
    return x[..., 0], singular


def apply_operator(problem: ShadowProblem, v: np.ndarray, boundary: str = "finite") -> np.ndarray:
    """One solver update: forward stable rows, backward unstable rows,
    boundary rows per mode ("finite" pins the free components to zero,
    "periodic" wraps them around the seam).  Every row is updated at
    once from the stacked splittings.  A ShadowProblem is updated as a
    stack of one and raises its error.  problem may be a _Stack: its cuts
    add nothing, the boundary rows are those of each problem, and the
    problems that fail leave their errors in problem.errors instead of
    raising."""
    if boundary not in ("finite", "periodic"):
        raise ValueError(f"unknown boundary mode {boundary!r}")
    stack = problem if isinstance(problem, _Stack) else _Stack([problem])
    du, spl = stack.dim_u, stack.splittings
    src, dst = slice(None, -1), slice(1, None)
    w = np.zeros_like(v)
    f_imgs, g_imgs = stack.charts(v[:-1])
    w[1:] += _matvec(spl.stable[dst], stack.coords(dst, g_imgs)[1])
    sv = _matvec(spl.stable[src], stack.coords(src, v[:-1])[1])
    f_sv = stack.F(sv)
    target_ambient = -g_imgs + f_imgs - f_sv + v[1:]
    del f_imgs  # not kept through the chord solve: a higher heap peak costs page faults
    wu = stack.invert_unstable(sv, stack.coords(dst, target_ambient)[0], f_sv)
    if stack is not problem and stack.errors:
        raise stack.errors[0]
    unstable = _matvec(spl.unstable[src], wu)
    w[stack._cuts + 1] = unstable[stack._cuts] = 0.0  # a cut adds nothing to either row it joins
    w[:-1] += unstable
    if boundary == "periodic":
        for a, b in zip(stack.starts[:-1], stack.starts[1:] - 1):
            w[a] += spl.stable[a] @ (spl.basis_inv[b] @ w[b])[du:]
            w[b] += spl.unstable[b] @ (spl.basis_inv[a] @ w[a])[:du]
    return w


def _ball_norms(stack: _Stack, w: np.ndarray) -> np.ndarray:
    """Largest rescaled box norm max(|w_u|, |w_s|) / l_j over the indices of
    each problem of the stack."""
    # squared component lengths as per-index dot products, rounded as box_norm rounds them
    sq = [_sq_norms(part) for part in stack.coords(slice(None), w)]
    return np.maximum.reduceat(np.sqrt(np.maximum(*sq)) / stack.l, stack.starts[:-1])


@dataclass(eq=False)
class ShadowingResult:
    """A converged (or diagnosed) shadowing solve.

    distances[j] is the chart distance of the shadow orbit from the
    pseudo-orbit at index j, equal to l_j |v_j|_N by construction.
    update_history holds the rescaled size of each of the iterations
    solver updates, and quasi_newton_history that of each quasi-Newton
    step before them (_quasi_newton).  A periodic result also holds its
    closures and seam gap (solve_periodic).
    """

    v: np.ndarray
    shadow_point: np.ndarray
    distances: np.ndarray
    orbit_residuals: np.ndarray
    iterations: int
    converged: bool
    update_history: list = field(repr=False)
    quasi_newton_history: list = field(repr=False)
    ball_margin: float
    scale: np.ndarray = field(repr=False)
    boundary: str
    config: SolverConfig = field(repr=False)
    periodic_closure: float | None = None
    periodic_closure_polished: float | None = None
    seam_gap: float | None = None

    @property
    def max_distance(self) -> float:
        return float(self.distances.max())

    @property
    def residual_max(self) -> float:
        return float(self.orbit_residuals.max())

    @property
    def enclosure_radius(self) -> float:
        """lam_tilde / (1 - lam_tilde) times the last update: the fixed point
        of the lam_tilde-contraction lies within that rescaled distance of v."""
        lam_tilde = self.config.lam_tilde
        return lam_tilde / (1.0 - lam_tilde) * self.update_history[-1]

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
            "quasi_newton_history": self.quasi_newton_history,
            "enclosure_radius": self.enclosure_radius,
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
        return d

    def to_dict(self) -> dict:
        return plain(self.report())


def _solve(problems, boundary: str) -> list:
    """The solver loop, over a stack of problems that share a phase space
    and dim_u: start from the quasi-Newton iterate of each problem
    (_quasi_newton; zero where it took no steps), then iterate the solver
    update until each problem's rescaled update norm drops below its
    tol_fix, usually on the first update.  Under the certified
    preconditions the update is a lam_tilde-contraction, so every step takes
    it whole; an update that grows anyway ends as an eta-ball escape, as a
    solve not converged at max_iter, or in _result's residual check.
    iterations, update_history, max_iter and the ball margin count these
    updates only; quasi_newton_history holds the steps.

    Each iteration is one apply_operator call for every problem still in
    the stack.  A problem leaves the stack once it converges, reaches its
    max_iter or fails, and the others go on with the bits each would have
    alone.  A converged periodic problem takes one more update, its polish,
    before it leaves.  The running stack's G charts give each leaving
    problem its residuals and each converging periodic one its closure.
    Returns, in order, each problem's ShadowingResult or the error it
    failed with.  A converged solve whose residuals or distances come out
    too large is reported as not converged.
    """
    if not problems:
        return []
    out = [None] * len(problems)
    history = [[] for _ in problems]
    ball_worst = [0.0] * len(problems)
    closure = {}  # a converged periodic problem's closure before its polish
    live = list(range(len(problems)))
    stack = _Stack(problems)
    v, qn_history = _quasi_newton(stack, problems, boundary)
    while live:
        w = apply_operator(stack, v, boundary=boundary)
        upd = np.maximum.reduceat(np.linalg.norm(w - v, axis=-1) / stack.l, stack.starts[:-1])
        v = w
        worst = _ball_norms(stack, v).tolist()
        done, polish = [], []  # positions in the stack of the problems that leave it, or polish
        for i, (k, u) in enumerate(zip(live, upd.tolist())):
            cfg = problems[k].config
            if i not in stack.errors and worst[i] > cfg.eta * (1.0 + 1e-9):
                stack.errors[i] = BallInvariantError(
                    f"iterate left the eta-ball ({worst[i]:.3e} > {cfg.eta:.3e}); "
                    "jump sizes or the map distance exceed the admissible bounds")
            if i in stack.errors:
                out[k] = stack.errors[i]
                done.append(i)
                continue
            ball_worst[k] = max(ball_worst[k], worst[i])
            history[k].append(u)
            if u < cfg.tol_fix and boundary == "periodic" and k not in closure:
                polish.append(i)
            elif k in closure or u < cfg.tol_fix or len(history[k]) == cfg.max_iter:
                done.append(i)
        starts = stack.starts.tolist()
        leaving = [i for i in done if out[live[i]] is None]
        if polish or leaving:
            g_chart = stack.charts(v[:-1])[1]
            for i in polish:
                a, b = starts[i], starts[i + 1]
                closure[live[i]] = _closure(v[a:b], g_chart[a:b - 1])
            for i in leaving:
                k, a, b = live[i], starts[i], starts[i + 1]
                out[k] = _result(problems[k], v[a:b], g_chart[a:b - 1], history[k], qn_history[k],
                                 ball_worst[k], boundary, closure.get(k))
        if done:
            stay = [i for i in range(len(live)) if i not in done]
            live = [live[i] for i in stay]
            v = _rows([v[starts[i]:starts[i + 1]] for i in stay]) if stay else None
            stack = _Stack([problems[k] for k in live]) if live else None
    return out


def _quasi_newton(stack: _Stack, problems, boundary: str):
    """The start of _solve: v after whole-orbit quasi-Newton steps on the
    stack, and the rescaled size of each problem's steps, as _solve
    measures an update.

    A step adds to v the solution of the block-diagonal linearisation of
    v_{j+1} = G_j(v_j) along the pseudo-orbit.  The residuals
    r_j = G_j(v_j) - v_{j+1} are split at index j + 1 into (r^u_j, r^s_j);
    the step is U_j a_j + S_j b_j, with b_{j+1} = D_j b_j + r^s_j run forward
    from b_0 = 0 and a_j = (a_{j+1} - r^u_j) / A_j backward from a_N = 0,
    A_j and D_j being the problem's diagonal blocks.  A periodic problem
    closes both recurrences around the cycle.  A problem takes steps until
    one is below its tol_fix; that last step is measured, not taken, so an
    exact orbit keeps v = 0.  Only 1x1 blocks take steps (a phase dim of 2
    with dim_u = 1).  A problem whose step is not finite, divides by zero,
    fails to shrink by lam_tilde or leaves the eta-ball goes back to v = 0
    with no steps, and the plain loop then solves it as if from the start
    (where it meets a zero A_j again, as a singular block).
    """
    v = np.zeros((stack.n_steps + 1, stack.phase.dim))
    qn_history = [[] for _ in problems]
    if (stack.phase.dim, stack.dim_u) != (2, 1):
        return v, qn_history
    periodic = boundary == "periodic"
    starts = stack.starts.tolist()
    diagonal = [(p._a[:, 0, 0].tolist(), p._d[:, 0, 0].tolist()) for p in problems]
    unstable, stable = stack.splittings.unstable[..., 0], stack.splittings.stable[..., 0]
    live = list(range(len(problems)))
    while live:
        r = stack.charts(v[:-1])[1] - v[1:]
        ru, rs = (c[:, 0].tolist() for c in stack.coords(slice(1, None), r))
        a, b = np.zeros(len(v)), np.zeros(len(v))
        for k in live:
            (a_k, d_k), lo, hi = diagonal[k], starts[k], starts[k + 1]
            ru_k, rs_k = ru[lo:hi - 1], rs[lo:hi - 1]
            try:
                a[lo:hi] = _backward(a_k, ru_k, 0.0)
                b[lo:hi] = _forward(d_k, rs_k, 0.0)
                if periodic:  # x_0 = x_N: (the pass from 0) / (1 - product of the coefficients)
                    a[lo:hi] = _backward(a_k, ru_k, a[lo] / (1.0 - 1.0 / math.prod(a_k)))
                    b[lo:hi] = _forward(d_k, rs_k, b[hi - 1] / (1.0 - math.prod(d_k)))
            except ZeroDivisionError:
                a[lo:hi] = np.nan
        with np.errstate(over="ignore", invalid="ignore"):
            w = v + (unstable * a[:, None] + stable * b[:, None])
            size = np.maximum.reduceat(np.linalg.norm(w - v, axis=-1) / stack.l,
                                       stack.starts[:-1]).tolist()
            ball = _ball_norms(stack, w).tolist()
        stepping = []
        for k in live:
            cfg, lo, hi = problems[k].config, starts[k], starts[k + 1]
            if size[k] < cfg.tol_fix:
                qn_history[k].append(size[k])
            elif (ball[k] <= cfg.eta * (1.0 + 1e-9)  # false for a step that is not finite
                  and (not qn_history[k] or size[k] < cfg.lam_tilde * qn_history[k][-1])):
                v[lo:hi] = w[lo:hi]
                qn_history[k].append(size[k])
                stepping.append(k)
            else:
                v[lo:hi] = 0.0
                qn_history[k] = []
        live = stepping
    return v, qn_history


def _forward(c, r, x):
    """x_0 .. x_N of x_{j+1} = c_j x_j + r_j, from x_0 = x."""
    out = [x]
    for c_j, r_j in zip(c, r):
        x = c_j * x + r_j
        out.append(x)
    return out


def _backward(c, r, x):
    """x_0 .. x_N of x_j = (x_{j+1} - r_j) / c_j, from x_N = x."""
    out = [x]
    for c_j, r_j in zip(reversed(c), reversed(r)):
        x = (x - r_j) / c_j
        out.append(x)
    out.reverse()
    return out


def _closure(v, g_chart) -> float:
    """Multiple-shooting closure of one period, max_j |G_j(v_j) - v_{(j+1) mod N}|
    in ambient units, from g_chart = G(v).  Unlike |g^N(x_0) - x_0|, which
    stretches the error of x_0 by the expansion over N steps, it does not
    grow with N."""
    return float(np.sqrt(_sq_norms(g_chart - np.concatenate([v[1:-1], v[:1]]))).max())


def _result(problem, v, g_chart, history, qn_history, ball_worst, boundary,
            closure) -> "ShadowingResult":
    """The result of a solve whose G charts at v are g_chart; closure is a
    periodic solve's closure before its polish, None when it took none.  A
    solve has converged when it was polished or its last update was below
    tol_fix.  A converged solve is reported as not converged when a
    rescaled one-step residual exceeds the larger of 10 tol_fix and its
    step's rounding floor (the one the chord stop allows, over l), or when
    a distance exceeds epsilon1."""
    cfg = problem.config
    residuals = np.sqrt(_sq_norms(v[1:] - g_chart)) / problem.l[1:]
    distances = np.linalg.norm(v, axis=-1)
    floor = np.maximum(10.0 * cfg.tol_fix, problem._rounding / problem.l[1:])
    converged = closure is not None or history[-1] < cfg.tol_fix
    if converged and ((residuals > floor).any() or distances.max() > cfg.epsilon1):
        converged = False
    periodic = {}
    if boundary == "periodic":
        own = _closure(v, g_chart)
        periodic = {"periodic_closure": own if closure is None else closure,
                    "periodic_closure_polished": None if closure is None else own,
                    "seam_gap": float(np.linalg.norm(v[0] - v[-1]))}
    return ShadowingResult(
        v=v, shadow_point=problem.po.phase.exp(problem.po.points[0], v[0]), distances=distances,
        orbit_residuals=residuals, iterations=len(history), converged=converged,
        update_history=history, quasi_newton_history=qn_history, ball_margin=ball_worst / cfg.eta,
        scale=problem.l,
        boundary=boundary, config=cfg, **periodic,
    )


def _solved(problem, boundary) -> "ShadowingResult":
    """The result of a stack of one, or the error it failed with, raised."""
    [result] = _solve([problem], boundary)
    if isinstance(result, Exception):
        raise result
    return result


def solve_finite(po, splittings, f, g, config, blocks=None) -> ShadowingResult:
    """Shadow a finite pseudo-orbit window: quasi-Newton steps, then the
    solver update until the rescaled update norm drops below tol_fix (_solve).

    Non-convergence is reported on the result (converged=False with the
    full update history), not raised.
    """
    return _solved(ShadowProblem(po, splittings, f, g, config, blocks=blocks), "finite")


def _periodic_problem(po, splittings, f, g, config, blocks=None) -> ShadowProblem:
    """The problem solve_periodic solves: index N takes the splitting of index 0."""
    if not po.closed:
        raise ValueError("periodic solve needs the closing seed equal to the first seed")
    n = po.n_steps
    if not np.allclose(*splittings.basis[[0, n]], atol=1e-9):
        raise ValueError("periodic solve needs matching splittings at the seam")
    seam = np.r_[0:n, 0]
    splittings = SplittingAssignment(splittings.unstable[seam], splittings.stable[seam],
                                     splittings.basis_inv[seam])
    return ShadowProblem(po, splittings, f, g, config, blocks=blocks)


def solve_periodic(po, splittings, f, g, config, blocks=None) -> ShadowingResult:
    """Shadow one period of a periodic pseudo-orbit with a periodic orbit of g.

    The pseudo-orbit must cover exactly one period: its closing seed must
    equal its first seed bitwise.  The seam identifies the first and last
    indices, so the fixed point satisfies v_0 = v_N and the shadow point
    is periodic with period N.  Once the update falls below tol_fix, one
    more update polishes v; the result holds the polished v and counts that
    update.  periodic_closure is the _closure of the solver's v and
    periodic_closure_polished that of the polished one, None when the solve
    did not converge and took no polish.
    """
    return _solved(_periodic_problem(po, splittings, f, g, config, blocks), "periodic")


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
    strictly increasing.  The windows are built in order and solved as
    one stack, so their maps must share a phase space and dim_u; the
    error of the smallest window that fails is raised.  Returns the
    result of the largest window together with the convergence table.
    """
    window_ks = list(window_ks)
    if not window_ks or any(a >= b for a, b in zip(window_ks, window_ks[1:])):
        raise ValueError("window sizes must be increasing")
    windows = [window_problem(k) for k in window_ks]
    results = _solve([ShadowProblem(po, spl, f, g, config) for po, spl, f, g in windows], "finite")
    rows = []
    prev = None
    for k, (po, *_), result in zip(window_ks, windows, results):
        if isinstance(result, Exception):
            raise result
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


def shadowing_preconditions(po, splittings, f, g, config, certificate=None):
    """Certificate plus size margins required by the shadowing solve.

    Returns (certificate, margins, distance): the orbit certified at
    (lam, eps0, delta0), the off-diagonal / residual / map-distance
    slacks, all nonnegative when the preconditions hold, and the map
    distance map_distance(f, g) the last slack is taken from.  A caller
    that already holds that certificate passes it as certificate.
    """
    cert = certificate
    if cert is None:
        cert = certify_pseudo_orbit(po, splittings, f, config.lam, config.eps0, config.delta0)
    distance = map_distance(f, g)
    margins = {
        "epsilon": config.eps0 - cert.max_offdiagonal,
        "delta": config.delta0 - float(po.residuals.max()),
        "map_distance": config.d0 - distance,
    }
    return cert, margins, distance
