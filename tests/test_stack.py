"""Stacks of shadow problems: _solve over several problems gives each one
the result, or the error, that solving it alone gives, bit for bit."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bishadow.certification import OrbitBlocks, pseudo_orbit_blocks
from bishadow.oracle import AffineSequenceSystem, cat_map_periodic_points
from bishadow.pseudo_orbit import assign_splittings, flatten, generate
from bishadow.shadowing import (BallInvariantError, ShadowProblem, UnstableSolveError, _Stack,
                                _periodic_problem, _solve, apply_operator, make_solver_config,
                                solve_finite, solve_periodic)
from bishadow.splitting import Splitting
from bishadow.systems import (AffineMap, PerturbedCatMap, ShiftedMap, SystemBounds,
                              TorusLinearMap, cat_map)

from _oracles import MisreportedSteps

AXES = Splitting(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))

FIELDS = ("v", "distances", "orbit_residuals", "shadow_point", "scale", "update_history",
          "quasi_newton_history", "ball_margin", "periodic_closure", "periodic_closure_polished",
          "seam_gap")


def outcome(solve, *args):
    """The result of a solve, or the type and message of its error."""
    try:
        return solve(*args)
    except (BallInvariantError, UnstableSolveError) as exc:
        return type(exc), str(exc)


def assert_same(got, alone):
    """A stacked result holds the bits of the result alone, or the same error."""
    if isinstance(alone, tuple):
        assert (type(got), str(got)) == alone
        return
    assert not isinstance(got, Exception), got
    for name in FIELDS:
        assert np.asarray(getattr(got, name), float).tobytes() == \
            np.asarray(getattr(alone, name), float).tobytes(), name
    assert (got.iterations, got.converged, got.boundary) == \
        (alone.iterations, alone.converged, alone.boundary)


ENDOMORPHISM = [[3, 1], [1, 1]]  # 2-to-1, with entries whose products with points round


def torus_problem(data, maps, closed):
    """A cat, perturbed cat or ENDOMORPHISM problem: an open generated orbit,
    or one period of a jittered cycle of the map's linear part; f is taken
    from maps when the draw shares it, so a stack holds shared and distinct
    map objects."""
    key = data.draw(st.sampled_from([0.0, 0.002, 0.02, "endomorphism"]))
    linear = TorusLinearMap(ENDOMORPHISM) if key == "endomorphism" else cat_map()
    if data.draw(st.booleans()) and key in maps:
        f = maps[key]
    else:
        f = maps[key] = PerturbedCatMap(key) if key in (0.002, 0.02) else linear
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if closed:
        p = data.draw(st.integers(1, 4))
        points = cat_map_periodic_points(p, linear.matrix)
        cycle = np.array(points[int(rng.integers(len(points)))], dtype=float)
        seeds = [cycle]
        for _ in range(p - 1):
            seeds.append(linear(seeds[-1]))
        seeds = f.phase.canon(np.array(seeds) + 1e-6 * rng.standard_normal((p, 2)))
        po = flatten(np.vstack([seeds, seeds[:1]]), [1] * p, f)
    else:
        lengths = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
        po = generate(f, rng.random(2), lengths, 1e-6, int(rng.integers(2**31)))
    strategy = "eigen" if isinstance(f, TorusLinearMap) and data.draw(st.booleans()) else "power"
    spl = assign_splittings(po, f, strategy, depth=8)
    g = data.draw(st.sampled_from(["f", "shift", "other"]))
    if g == "other":  # a g that maps its rows itself
        g = (ShiftedMap(TorusLinearMap(ENDOMORPHISM), rng.uniform(-1e-6, 1e-6, 2))
             if key == "endomorphism" else PerturbedCatMap(key + 1e-6))
    else:
        g = f if g == "f" else ShiftedMap(f, rng.uniform(-1e-6, 1e-6, 2))
    lam, lam_tilde = (0.65, 0.7) if key == "endomorphism" else (0.45, 0.5)
    return po, spl, f, g, make_solver_config(po, f, lam=lam, lam_tilde=lam_tilde)


def affine_problem(data, dim, du, closed):
    """A step-indexed affine problem with a fresh splitting at every index
    (index N the splitting of index 0 when the orbit is one period)."""
    lengths = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = sum(lengths)
    spl = [Splitting.from_bases(rng.standard_normal((dim, du)),
                                rng.standard_normal((dim, dim - du))) for _ in range(n + 1)]
    if closed:
        spl[n] = spl[0]
    mats = np.empty((n, dim, dim))
    for j in range(n):
        rates = np.concatenate([rng.uniform(1.5, 3.0, du), rng.uniform(0.1, 0.6, dim - du)])
        mats[j] = spl[j + 1].basis @ np.diag(rates) @ spl[j].basis_inv
    f = AffineSequenceSystem(mats, 1e-4 * rng.standard_normal((n, dim)), spl[0], validate=False)
    g = ShiftedMap(f, 1e-4 * rng.standard_normal(dim)) if data.draw(st.booleans()) else f
    po = flatten(np.zeros((len(lengths) + 1, dim)), lengths, f)
    cfg = make_solver_config(po, f, lam=0.7, lam_tilde=0.75, epsilon1=1.0)
    return po, assign_splittings(po, f, "user", splittings=spl), f, g, cfg


def affine_map_problem(data, maps, dim, du, closed):
    """A problem of an AffineMap whose matrix has non-integer entries, for
    which one BLAS product of a batch may round a row by its place in the
    batch: an orbit generated near the fixed point, or a jittered period of
    the fixed point; f is shared as in torus_problem."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if data.draw(st.booleans()) and "affine" in maps:
        f = maps["affine"]
    else:
        q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        rates = np.concatenate([rng.uniform(1.5, 2.5, du), rng.uniform(0.1, 0.6, dim - du)])
        f = maps["affine"] = AffineMap(q @ np.diag(rates) @ q.T, rng.standard_normal(dim))
    fixed = np.linalg.solve(np.eye(dim) - f.matrix, f.offset)
    if closed:
        p = data.draw(st.integers(1, 4))
        seeds = fixed + 1e-6 * rng.standard_normal((p, dim))
        po = flatten(np.vstack([seeds, seeds[:1]]), [1] * p, f)
    else:
        lengths = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
        po = generate(f, fixed + 1e-3 * rng.random(dim), lengths, 1e-6, int(rng.integers(2**31)))
    shift = 1e-6 * rng.standard_normal(dim)
    g = data.draw(st.sampled_from([f, ShiftedMap(f, shift), AffineMap(f.matrix, f.offset + shift)]))
    cfg = make_solver_config(po, f, lam=0.7, lam_tilde=0.8, epsilon1=1.0, max_iter=200)
    return po, assign_splittings(po, f, "eigen", dim_u=du), f, g, cfg


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["torus", "sequence", "affine"]), periodic=st.booleans(),
       size=st.integers(1, 6), data=st.data())
def test_stack_equals_solving_alone(kind, periodic, size, data):
    maps, dim = {}, data.draw(st.integers(2, 4))
    du = data.draw(st.integers(1, dim - 1))
    draw = {"torus": lambda: torus_problem(data, maps, periodic),
            "sequence": lambda: affine_problem(data, dim, du, periodic),
            "affine": lambda: affine_map_problem(data, maps, dim, du, periodic)}[kind]
    cases = [draw() for _ in range(size)]
    build, solve = ((_periodic_problem, solve_periodic) if periodic
                    else (ShadowProblem, solve_finite))
    stacked = _solve([build(*case) for case in cases], "periodic" if periodic else "finite")
    for got, case in zip(stacked, cases):
        assert_same(got, outcome(solve, *case))


def plain_loop(problem, boundary):
    """_solve's plain loop without its quasi-Newton start: (v, update history)
    of the updates from zero until one is below tol_fix or max_iter of them,
    and then, periodic, the polish."""
    cfg = problem.config
    v, history = np.zeros_like(problem.po.points), []
    converged = False
    while not converged and len(history) < cfg.max_iter:
        w = apply_operator(problem, v, boundary)
        history.append(float(np.max(np.linalg.norm(w - v, axis=1) / problem.l)))
        v, converged = w, history[-1] < cfg.tol_fix
    if converged and boundary == "periodic":
        w = apply_operator(problem, v, boundary)
        history.append(float(np.max(np.linalg.norm(w - v, axis=1) / problem.l)))
        v = w
    return v, history


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["torus", "sequence"]), periodic=st.booleans(),
       size=st.integers(1, 4), data=st.data())
def test_quasi_newton_start_lands_in_the_enclosure(kind, periodic, size, data):
    # cat, perturbed cat and ENDOMORPHISM problems on T^2, and step-indexed
    # affine ones on the plane: every problem takes quasi-Newton steps, alone
    # or stacked.  Its v and the plain loop's v each lie within their
    # enclosure of the fixed point, widened by the rounding floor rho of one
    # update (ShadowProblem._rounding over l) divided by 1 - lam_tilde.
    maps = {}
    draw = {"torus": lambda: torus_problem(data, maps, periodic),
            "sequence": lambda: affine_problem(data, 2, 1, periodic)}[kind]
    boundary = "periodic" if periodic else "finite"
    problems = [(_periodic_problem if periodic else ShadowProblem)(*draw()) for _ in range(size)]
    for got, problem in zip(_solve(problems, boundary), problems):
        assert got.converged and got.quasi_newton_history
        assert got.quasi_newton_history[-1] < problem.config.tol_fix
        v, history = plain_loop(problem, boundary)
        lam_tilde = problem.config.lam_tilde
        rho = float(np.max(problem._rounding / problem.l[1:]))
        bound = (got.enclosure_radius + lam_tilde / (1.0 - lam_tilde) * history[-1]
                 + 2.0 * rho / (1.0 - lam_tilde))
        assert np.max(np.linalg.norm(got.v - v, axis=1) / problem.l) <= bound


def cat_problem(boundary, seed, **solver):
    """A cat-map problem under a shift of 1e-6: an open generated orbit, or
    one period of a jittered 3-cycle."""
    f, rng = cat_map(), np.random.default_rng(seed)
    if boundary == "periodic":
        points = cat_map_periodic_points(3, f.matrix)
        seeds = [np.array(points[int(rng.integers(1, len(points)))], dtype=float)]
        for _ in range(2):
            seeds.append(f(seeds[-1]))
        seeds = f.phase.canon(np.array(seeds) + 1e-6 * rng.standard_normal((3, 2)))
        po = flatten(np.vstack([seeds, seeds[:1]]), [1] * 3, f)
    else:
        po = generate(f, rng.random(2), [4] * 6, 1e-6, seed)
    cfg = make_solver_config(po, f, lam=0.45, **solver)
    return po, assign_splittings(po, f, "eigen"), f, ShiftedMap(f, [1e-6, 0.0]), cfg


@pytest.mark.parametrize("boundary", ["finite", "periodic"])
def test_failed_quasi_newton_start_is_the_plain_loop(boundary):
    # below rounding no step shrinks by lam_tilde: with tol_fix = 1e-300 the
    # quasi-Newton start falls back, and the plain loop from zero runs out
    # of updates; stacked with healthy problems, it keeps those bits
    build, solve = ((_periodic_problem, solve_periodic) if boundary == "periodic"
                    else (ShadowProblem, solve_finite))
    case = cat_problem(boundary, 5, tol_fix=1e-300, max_iter=25)
    [got] = _solve([build(*case)], boundary)
    v, history = plain_loop(build(*case), boundary)
    assert got.quasi_newton_history == [] and not got.converged
    assert np.array_equal(got.v, v) and got.update_history == history and len(history) == 25
    cases = [cat_problem(boundary, 6), case, cat_problem(boundary, 7)]
    stacked = _solve([build(*case) for case in cases], boundary)
    for got, case in zip(stacked, cases):
        assert_same(got, outcome(solve, *case))
    assert stacked[0].quasi_newton_history and stacked[2].quasi_newton_history


@pytest.mark.parametrize("boundary", ["finite", "periodic"])
@pytest.mark.parametrize("block, value", [("_a", 0.0), ("_d", np.nan)])
def test_broken_block_sends_the_quasi_newton_start_back(boundary, block, value):
    # a zero A_j divides by zero, and a nan D_j makes a step that is not
    # finite; the plain update inverts with the same A_j, so a zero one
    # fails it too
    build = _periodic_problem if boundary == "periodic" else ShadowProblem
    problem = build(*cat_problem(boundary, 8))
    getattr(problem, block)[1] = value
    [got] = _solve([problem], boundary)
    replayed = outcome(plain_loop, problem, boundary)
    if block == "_a":
        singular = (UnstableSolveError, "singular unstable block at index 1")
        assert (type(got), str(got)) == singular and replayed == singular
        return
    v, history = replayed
    assert got.converged and got.quasi_newton_history == []
    assert np.array_equal(got.v, v) and got.update_history == history


def misreported_problem(kinds, jumps, n=8):
    """MisreportedSteps with its kind per step; jumps[j] moves seed j + 1 off
    the orbit along the unstable axis, so the first update inverts it."""
    steps = ["ok"] * n
    for j, kind in kinds.items():
        steps[j] = kind
    f = MisreportedSteps(steps)
    seeds = np.zeros((n + 1, 2))
    for j, size in jumps.items():
        seeds[j + 1, 0] = size
    po = flatten(seeds, [1] * n, f)
    cfg = make_solver_config(po, f, lam=0.55, lam_tilde=0.7, epsilon1=1e-2,
                             bounds=SystemBounds(R=4.0, L=0.0, kind="estimated"))
    spl = assign_splittings(po, f, "user", splittings=AXES)
    # the blocks of "ok" steps: a misreported derivative may be singular
    return po, spl, f, f, cfg, pseudo_orbit_blocks(po, spl, MisreportedSteps(["ok"] * n))


def singular_block_problem(indices, jumps, n=8):
    """misreported_problem of "ok" steps whose certificate misreports: its
    A_j is zero at indices, but its norms, which set the weights, are those
    of the true blocks."""
    *case, blocks = misreported_problem({}, jumps, n)
    a = blocks.A.copy()
    a[indices] = 0.0
    broken = OrbitBlocks(a, blocks.B, blocks.C, blocks.D)
    broken.__dict__["norms"] = blocks.norms  # the cached property, set to the true norms
    return (*case, broken)


def bump_problem(delta, n):
    f = AffineMap(np.diag([2.0, 0.5]))
    seeds = np.zeros((n + 1, 2))
    seeds[1] = [delta, delta]
    po = flatten(seeds, [1] * n, f)
    cfg = make_solver_config(po, f, lam=0.55, lam_tilde=0.7, epsilon1=1.0)
    spl = assign_splittings(po, f, "user", splittings=AXES)
    return po, spl, f, ShiftedMap(f, [delta, 0.0]), cfg


FAILING = {
    # the quasi-Newton start divides by the zero A_2 and falls back, and the
    # plain update's inversion finds it singular
    "singular": (singular_block_problem([2, 5], {2: 1e-4, 5: 1e-4}),
                 UnstableSolveError, "singular unstable block at index 2"),
    # seeds 3 and 6 off the axis, so that the shadow orbit, the zero orbit,
    # moves them: each stall step is then on its path, and the quasi-Newton
    # start, which reads the true blocks, overshoots there and falls back
    "stalled": (misreported_problem({3: "stall", 6: "stall"}, {2: 1e-4, 5: 1e-4}),
                UnstableSolveError, "chord inversion stalled at index 3 "),
    "escape": (misreported_problem({}, {4: 1.0, 6: 1.0}),
               BallInvariantError, "inverted unstable component at index 4 "),
}


@pytest.mark.parametrize("kinds", [["singular"], ["stalled"], ["escape"],
                                   ["escape", "singular", "stalled"]])
def test_failing_problem_keeps_its_error_and_spares_the_others(kinds):
    healthy = [bump_problem(1e-3, 8), bump_problem(2e-3, 5), bump_problem(5e-4, 11)]
    failing = [FAILING[k][0] for k in kinds]
    cases = [healthy[0], *failing[:1], healthy[1], *failing[1:], healthy[2]]
    stacked = _solve([ShadowProblem(*case) for case in cases], "finite")
    for got, case in zip(stacked, cases):
        assert_same(got, outcome(solve_finite, *case))
    for kind, case in zip(kinds, failing):
        _, error, message = FAILING[kind]
        got = stacked[cases.index(case)]
        assert type(got) is error and str(got).startswith(message)
    assert all(stacked[cases.index(case)].converged for case in healthy)


@pytest.mark.parametrize("boundary", ["finite", "periodic"])
def test_rows_failing_as_others_leave_map_without_warning(boundary):
    # Every failing kind fails on the first update, in which the exact orbit
    # converges: the stack's G charts that give it its residuals (finite) or
    # its closure before the polish (periodic) also map the failed rows.
    build, solve = ((_periodic_problem, solve_periodic) if boundary == "periodic"
                    else (ShadowProblem, solve_finite))
    cases = [bump_problem(0.0, 4), *(case for case, _, _ in FAILING.values()),
             bump_problem(1e-3, 5)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = _solve([build(*case) for case in cases], boundary)
    for got, case in zip(stacked, cases):
        assert_same(got, outcome(solve, *case))
    assert [type(got) for got in stacked[1:-1]] == [error for _, error, _ in FAILING.values()]
    assert stacked[0].iterations == (2 if boundary == "periodic" else 1)
    assert stacked[0].converged and stacked[-1].converged


def test_stacked_operands_are_c_ordered():
    # np.concatenate of the broadcast stacks of a constant splitting is not
    # C-ordered, and np.matmul rounds such a stack differently
    f = cat_map()
    cases = []
    for n, seed in ((4, 1), (7, 2), (3, 3)):
        po = generate(f, [0.13, 0.41], [3] * n, 1e-6, seed)
        cases.append((po, assign_splittings(po, f, "eigen"), f, ShiftedMap(f, [1e-6, 0.0]),
                      make_solver_config(po, f, lam=0.45)))
    problems = [ShadowProblem(*case) for case in cases]
    assert not np.concatenate([p.splittings.basis_inv for p in problems]).flags.c_contiguous
    # a stack of one holds the problem's own arrays, broadcast or not
    one = _Stack(problems[:1])
    assert one.splittings.basis_inv is problems[0].splittings.basis_inv
    assert one.points is problems[0].po.points
    stack = _Stack(problems)
    spl = stack.splittings
    for array in (stack.points, stack.l, spl.unstable, spl.stable, spl.basis_inv,
                  stack._g_images.args[-1]):  # the shifts of the g of each row
        assert array.flags.c_contiguous
    for got, case in zip(_solve(problems, "finite"), cases):
        assert_same(got, solve_finite(*case))


def test_stack_needs_one_phase_space_and_one_dim_u():
    f = cat_map()
    po = generate(f, [0.13, 0.41], [3, 3], 1e-6, 1)
    torus = ShadowProblem(po, assign_splittings(po, f, "eigen"), f, f,
                          make_solver_config(po, f, lam=0.45))
    plane = ShadowProblem(*bump_problem(1e-3, 4))
    dims = []  # one phase space, two dim_u
    for du in (1, 2):
        f = AffineMap(np.diag([3.0, 2.0, 0.5]) if du == 2 else np.diag([2.0, 0.5, 0.25]))
        po = flatten(np.zeros((3, 3)), [1, 1], f)
        dims.append(ShadowProblem(po, assign_splittings(po, f, "eigen", dim_u=du), f, f,
                                  make_solver_config(po, f, lam=0.55, epsilon1=1.0)))
    for problems in ([torus, plane], dims):
        with pytest.raises(ValueError, match="stacked problems need one phase space and one dim_u"):
            _solve(problems, "finite")


def test_solver_reads_no_jacobian(monkeypatch):
    # every derivative the solver reads is a block of the problem's
    # certificate: from the blocks on, neither apply_operator nor _solve
    # evaluates Df, whether or not it is constant
    calls = []

    def counting(real):
        def jacobian_along(self, x, steps):
            calls.append(len(x))
            return real(self, x, steps)
        return jacobian_along

    monkeypatch.setattr(TorusLinearMap, "jacobian_along", counting(TorusLinearMap.jacobian_along))
    monkeypatch.setattr(PerturbedCatMap, "jacobian_along", counting(PerturbedCatMap.jacobian_along))
    for f, bounds in ((cat_map(), None), (PerturbedCatMap(0.02), None),
                      (cat_map(), SystemBounds(R=2.7, L=0.0, kind="estimated"))):
        po = generate(f, [0.13, 0.41], [4] * 5, 1e-7, 1)
        spl = assign_splittings(po, f, "eigen" if f.derivative_bounds()[1] == 0.0 else "power")
        cfg = make_solver_config(po, f, lam=0.45, bounds=bounds)
        calls.clear()
        problem = ShadowProblem(po, spl, f, ShiftedMap(f, [1e-9, 0.0]), cfg)
        assert len(calls) == 1  # pseudo_orbit_blocks
        calls.clear()
        [result] = _solve([problem], "finite")
        assert result.converged
        # three updates of one stack from zero, as the plain loop takes them
        stack, v = _Stack([problem]), np.zeros_like(po.points)
        for _ in range(3):
            w = apply_operator(stack, v)
            assert np.max(np.linalg.norm(w - v, axis=1) / problem.l) >= cfg.tol_fix
            v = w
        assert calls == []


def test_misreported_derivative_is_never_read():
    # a map whose reported Df has a zero unstable entry, on the orbit and off
    # it, solves bit for bit as the one that reports Df truly, on the blocks
    # of the true derivative: the solver reads no other
    jumps = {2: 1e-4, 5: 1e-4}
    case = misreported_problem({2: "singular", 5: "singular"}, jumps)
    healthy = misreported_problem({}, jumps)
    assert not case[2].jacobian_along(case[0].points[:-1], np.arange(8))[[2, 5], 0, 0].any()
    got = solve_finite(*case)
    assert got.converged and got.max_distance > 0.0
    assert_same(got, solve_finite(*healthy))
