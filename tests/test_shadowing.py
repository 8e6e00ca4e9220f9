import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bishadow.adapted import InfeasiblePairError
from bishadow.oracle import (AffineSequenceSystem, bounded_orbit_closed_form,
                            cat_map_periodic_points)
from bishadow.pseudo_orbit import assign_splittings, flatten, generate
from bishadow.certification import certify_pseudo_orbit, min_feasible_lambda, pseudo_orbit_blocks
from bishadow.shadowing import (
    BallInvariantError,
    ShadowProblem,
    UnstableSolveError,
    _ball_norms,
    _periodic_problem,
    _Stack,
    apply_operator,
    make_solver_config,
    shadowing_preconditions,
    solve_finite,
    solve_infinite,
    solve_periodic,
)
from bishadow.splitting import Splitting
from bishadow.systems import (
    AffineMap,
    PerturbedCatMap,
    ShiftedMap,
    SystemBounds,
    TorusLinearMap,
    cat_map,
)

from _oracles import (
    MisreportedSteps,
    apply_operator_per_index,
    assemble,
    box_norm,
    cat_cycle,
    cat_linear_shadow,
    chart_step,
    iterate_orbit,
    project_stable,
    random_affine_system,
    unstable_coords,
    well_adapted_reference,
)

AXES = Splitting(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))


def cat_problem(lengths=(4,) * 5, jump=1e-4, seed=42, shift=(1e-4, 0.0),
                lam=0.4, lam_tilde=0.5, **cfg_kw):
    f = cat_map()
    po = generate(f, [0.13, 0.41], list(lengths), jump, seed)
    spl = assign_splittings(po, f, "eigen")
    g = ShiftedMap(f, list(shift)) if any(shift) else f
    cfg = make_solver_config(po, f, lam=lam, lam_tilde=lam_tilde, **cfg_kw)
    return f, g, po, spl, cfg


def bump_problem(delta=1e-3, n=8):
    f = AffineMap(np.diag([2.0, 0.5]))
    seeds = np.zeros((n + 1, 2))
    seeds[1] = [delta, delta]
    po = flatten(seeds, [1] * n, f)
    spl = assign_splittings(po, f, "user", splittings=AXES)
    cfg = make_solver_config(po, f, lam=0.55, lam_tilde=0.7, epsilon1=1.0)
    return f, po, spl, cfg


class TestLocalMaps:
    def test_genuine_orbit_charts_vanish_at_zero(self):
        f, g, po, spl, cfg = cat_problem(jump=0.0, shift=(0.0, 0.0))
        problem = _Stack([ShadowProblem(po, spl, f, f, cfg)])
        assert np.allclose(problem.F(np.zeros((po.n_steps, 2))), 0.0, atol=1e-15)

    def test_chart_offset_at_joins_is_residual(self):
        f, g, po, spl, cfg = cat_problem(jump=1e-4, shift=(0.0, 0.0))
        problem = _Stack([ShadowProblem(po, spl, f, f, cfg)])
        offsets = problem.F(np.zeros((po.n_steps, 2)))
        for i, (start, stop) in enumerate(zip(po.offsets[:-1], po.offsets[1:])):
            j_end = stop - 1
            assert np.isclose(np.linalg.norm(offsets[j_end]), po.residuals[i])
            assert np.allclose(offsets[start:j_end], 0.0, atol=1e-15)

    def test_shift_offset_constant_in_charts(self):
        f, g, po, spl, cfg = cat_problem(shift=(1e-4, 0.0))
        problem = _Stack([ShadowProblem(po, spl, f, g, cfg)])
        rng = np.random.default_rng(0)
        v = 1e-3 * rng.standard_normal((po.n_steps, 2))
        assert np.allclose(problem.charts(v)[1] - problem.F(v), [1e-4, 0.0], atol=1e-15)

    def test_linearization_error_quadratic(self):
        from bishadow.systems import PerturbedCatMap

        f = PerturbedCatMap(0.05)
        po = generate(f, [0.3, 0.8], [3, 3], 0.0, 1)
        spl = assign_splittings(po, f, "power")
        cfg = make_solver_config(po, f, lam=0.45, lam_tilde=0.55)
        problem = _Stack([ShadowProblem(po, spl, f, f, cfg)])
        lip = 0.05 * 2 * np.pi  # derivative Lipschitz constant of the shear
        rng = np.random.default_rng(2)
        z = np.zeros((po.n_steps, 2))
        for _ in range(7):
            v = 0.05 * rng.standard_normal((po.n_steps, 2))
            jac = f.jacobian_along(po.points[:-1], np.arange(po.n_steps))  # DF_j at z_j = 0
            lin = np.matmul(jac, v[..., None])[..., 0] + problem.F(z)
            err = np.linalg.norm(problem.F(v) - lin, axis=-1)
            assert np.all(err <= 0.5 * lip * np.linalg.norm(v, axis=-1) ** 2 * 1.05)


def expand_unstable(problem, v, w):
    """The map invert_unstable inverts, written with F: row j holds the
    index-(j+1) unstable coordinates of F_j(s_j + U_j w_j) - F_j(s_j),
    s_j the stable part of v_j."""
    spl = problem.splittings
    sv = np.stack([project_stable(spl[j], v[j]) for j in range(problem.n_steps)])
    uw = np.stack([spl[j].unstable @ w[j] for j in range(problem.n_steps)])
    out = problem.phase.wrap(problem.F(sv + uw) - problem.F(sv))
    return np.stack([unstable_coords(spl[j + 1], out[j]) for j in range(problem.n_steps)])


class TestAdaptedWeights:
    def test_weights_equal_the_per_segment_reference(self):
        # segments of several lengths, some lengths shared, on a non-constant splitting
        f = PerturbedCatMap(0.03)
        po = generate(f, [0.13, 0.41], [3, 1, 4, 1, 5, 2, 6, 4, 3], 1e-5, 8)
        spl = assign_splittings(po, f, "power")
        cfg = make_solver_config(po, f, lam=0.45)
        m_a, norm_d, _ = pseudo_orbit_blocks(po, spl, f).norms
        cuts = po.offsets[1:-1]
        expected = np.concatenate([well_adapted_reference(d, a, cfg.lam)
                                   for a, d in zip(np.split(m_a, cuts), np.split(norm_d, cuts))])
        assert np.unique(expected).size > 2 * po.n_segments
        assert np.array_equal(ShadowProblem(po, spl, f, f, cfg).weights, expected)

    def test_scale_factors_are_the_certificates_binding_margins(self):
        # ln l_j = -min(the contraction and expansion margins at step j) inside
        # every segment, to 4 ulps of the larger side of those margin rows; and
        # l >= 1 / C wherever the shadowing preconditions hold
        checked = certified = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            f = PerturbedCatMap(float(rng.choice([0.002, 0.02, 0.05])))
            lengths = rng.integers(1, 7, int(rng.integers(1, 10)))
            po = generate(f, rng.random(2), lengths, float(rng.choice([1e-8, 1e-5])),
                          int(rng.integers(2**31)))
            spl = assign_splittings(po, f, "power")
            cfg = make_solver_config(po, f, lam=float(rng.choice([0.4, 0.45, 0.5])))
            try:
                problem = ShadowProblem(po, spl, f, f, cfg)
            except InfeasiblePairError:
                continue
            cert = certify_pseudo_orbit(po, spl, f, cfg.lam, cfg.eps0, cfg.delta0)
            binding = np.full(po.n_steps + 1, np.inf)
            size = np.zeros(po.n_steps + 1)
            rows = np.isin(cert.condition, ["contraction_product", "expansion_product"])
            np.minimum.at(binding, cert.step[rows], cert.margin[rows])
            np.maximum.at(size, cert.step[rows],
                          np.maximum(np.abs(cert.lhs[rows]), np.abs(cert.rhs[rows])))
            inner = np.setdiff1d(np.arange(po.n_steps + 1), po.offsets)
            assert np.all(np.abs(np.log(problem.l[inner]) + binding[inner])
                          <= 4 * np.spacing(size[inner]))
            checked += inner.size
            _, margins, _ = shadowing_preconditions(po, spl, f, ShiftedMap(f, [1e-9, 0.0]), cfg,
                                                    certificate=cert)
            if cert.passed and min(margins.values()) >= 0:
                assert problem.l.min() >= 1.0 / cfg.C
                certified += 1
        assert checked > 100 and certified > 10

    def test_zero_unstable_block_refused_by_position(self):
        # an invertible Df that swaps the axes: A_j = D_j = 0 in the axis
        # splitting, so m(A_j) = 0 has no logarithm and no weight
        f = AffineMap([[0.0, 2.0], [0.5, 0.0]])
        po = flatten(np.zeros((3, 2)), [2, 1], f)
        spl = assign_splittings(po, f, "user", splittings=AXES)
        cfg = make_solver_config(po, f, lam=0.55, lam_tilde=0.7, epsilon1=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasiblePairError,
                               match=r"b = 0 at index 0 \(segment 0\) is not positive"):
                ShadowProblem(po, spl, f, f, cfg)

    def test_lone_zero_unstable_block_named_by_its_orbit_index(self):
        # one axis-swapping step, j = 2, in the second of two segments
        mats = np.array([np.diag([2.0, 0.5])] * 5)
        mats[2] = [[0.0, 2.0], [0.5, 0.0]]
        f = AffineSequenceSystem(mats, np.zeros((5, 2)), AXES, validate=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            po = flatten(np.zeros((3, 2)), [2, 3], f)
            spl = assign_splittings(po, f, "user", splittings=AXES)
            cfg = make_solver_config(po, f, lam=0.55, lam_tilde=0.7, epsilon1=1.0)
            with pytest.raises(InfeasiblePairError,
                               match=r"b = 0 at index 2 \(segment 1\) is not positive"):
                ShadowProblem(po, spl, f, f, cfg)


class TestUnstableComponent:
    def test_zero_maps_to_zero(self):
        f, g, po, spl, cfg = cat_problem()
        problem = _Stack([ShadowProblem(po, spl, f, g, cfg)])
        z = np.zeros((po.n_steps, 2))
        out = expand_unstable(problem, z, np.zeros((po.n_steps, 1)))
        assert np.allclose(out, 0.0, atol=1e-15)
        assert np.allclose(problem.invert_unstable(z, out, problem.F(z)), 0.0, atol=1e-15)
        assert not problem.errors

    def test_linear_diagonal_doubles(self):
        f, po, spl, cfg = bump_problem()
        problem = _Stack([ShadowProblem(po, spl, f, f, cfg)])
        z = np.zeros((po.n_steps, 2))
        w = np.full((po.n_steps, 1), 0.01)
        out = expand_unstable(problem, z, w)
        assert np.allclose(out, 2.0 * w)
        back = problem.invert_unstable(z, out, problem.F(z))
        assert np.allclose(back, w, atol=1e-14)
        assert not problem.errors

    def test_sampled_expansion_factor(self):
        f, g, po, spl, cfg = cat_problem()
        problem = _Stack([ShadowProblem(po, spl, f, g, cfg)])
        rng = np.random.default_rng(3)
        n = po.n_steps
        z = np.zeros((n, 2))
        radius = cfg.eta * problem.l[:-1, None]
        for _ in range(50):
            w1 = radius * rng.uniform(-1, 1, (n, 1))
            w2 = radius * rng.uniform(-1, 1, (n, 1))
            d_out = expand_unstable(problem, z, w1) - expand_unstable(problem, z, w2)
            lhs = np.linalg.norm(d_out, axis=-1) / problem.l[1:]
            rhs = np.linalg.norm(w1 - w2, axis=-1) / problem.l[:-1]
            assert np.all(lhs >= rhs / cfg.lam_tilde * (1 - 1e-9))

    def test_newton_round_trip(self):
        f, g, po, spl, cfg = cat_problem()
        problem = _Stack([ShadowProblem(po, spl, f, g, cfg)])
        rng = np.random.default_rng(4)
        n = po.n_steps
        for _ in range(50):
            v = 1e-3 * rng.standard_normal((n, 2))
            w = 1e-2 * rng.uniform(-1, 1, (n, 1))
            t = expand_unstable(problem, v, w)
            sv = np.stack([project_stable(spl[j], v[j]) for j in range(n)])
            assert np.abs(problem.invert_unstable(sv, t, problem.F(sv)) - w).max() <= 1e-12
            assert not problem.errors


def fresh_splitting_problem(dim, data, jump=0.0, shift=0.0):
    """splitting_problem with du, the segment lengths and the seed drawn."""
    du = data.draw(st.integers(1, dim - 1))
    lengths = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    return splitting_problem(dim, du, lengths, data.draw(st.integers(0, 2**32 - 1)), jump, shift)


def splitting_problem(dim, du, lengths, seed, jump=0.0, shift=0.0):
    """A step-indexed affine problem with a fresh transverse splitting at
    every index and steps mapping each one hyperbolically onto the next;
    jump sizes the step offsets, shift the constant offset of g.  Returns
    the generator seeded with seed, after the problem's draws."""
    rng = np.random.default_rng(seed)
    n = sum(lengths)
    spl = [Splitting.from_bases(rng.standard_normal((dim, du)),
                                rng.standard_normal((dim, dim - du)))
           for _ in range(n + 1)]
    mats = np.empty((n, dim, dim))
    for j in range(n):
        rates = np.concatenate([rng.uniform(1.5, 3.0, du), rng.uniform(0.1, 0.6, dim - du)])
        mats[j] = spl[j + 1].basis @ np.diag(rates) @ spl[j].basis_inv
    f = AffineSequenceSystem(mats, jump * rng.standard_normal((n, dim)), spl[0], validate=False)
    g = ShiftedMap(f, shift * rng.standard_normal(dim)) if shift else f
    po = flatten(np.zeros((len(lengths) + 1, dim)), lengths, f)
    cfg = make_solver_config(po, f, lam=0.7, lam_tilde=0.75, epsilon1=1.0)
    problem = ShadowProblem(po, assign_splittings(po, f, "user", splittings=spl), f, g, cfg)
    return rng, spl, problem


class TestOperator:
    def test_genuine_orbit_zero_fixed(self):
        f, g, po, spl, cfg = cat_problem(jump=0.0, shift=(0.0, 0.0))
        problem = ShadowProblem(po, spl, f, f, cfg)
        v = np.zeros((po.n_steps + 1, 2))
        assert np.allclose(apply_operator(problem, v), 0.0, atol=1e-15)

    def test_ball_invariance_sampled(self):
        f, g, po, spl, cfg = cat_problem()
        problem = ShadowProblem(po, spl, f, g, cfg)
        rng = np.random.default_rng(5)
        eta = cfg.eta
        for _ in range(100):
            v = np.empty((po.n_steps + 1, 2))
            for j in range(po.n_steps + 1):
                sp = spl[j]
                a = eta * problem.l[j] * rng.uniform(-1, 1, 1)
                b = eta * problem.l[j] * rng.uniform(-1, 1, 1)
                v[j] = assemble(sp, a, b)
            w = apply_operator(problem, v)
            for j in range(po.n_steps + 1):
                assert box_norm(w[j], spl[j]) / problem.l[j] <= eta * (1 + 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(2, 5), data=st.data())
    def test_ball_check_equals_box_norm_reference(self, dim, data):
        rng, spl, problem = fresh_splitting_problem(dim, data)
        n = problem.po.n_steps
        cfg = problem.config

        def reference(w):
            return max(box_norm(w[j], spl[j]) / problem.l[j] for j in range(n + 1))

        w = rng.standard_normal((n + 1, dim))
        w *= 0.5 * cfg.eta * 10.0 ** -rng.uniform(0.0, 6.0) / reference(w)
        assert _ball_norms(_Stack([problem]), w).tolist() == [reference(w)]

    def test_affine_single_application_matches_green_sums(self):
        # one application from zero reproduces the depth-one truncated sums
        f = AffineMap(np.diag([2.0, 0.5]))
        seeds = np.zeros((5, 2))
        seeds[2] = [1e-3, 1e-3]
        po = flatten(seeds, [1] * 4, f)
        spl = assign_splittings(po, f, "user", splittings=AXES)
        cfg = make_solver_config(po, f, lam=0.55, lam_tilde=0.7, epsilon1=1.0)
        problem = ShadowProblem(po, spl, f, f, cfg)
        w = apply_operator(problem, np.zeros((5, 2)))
        offsets = _Stack([problem]).F(np.zeros((4, 2)))
        for j in range(4):
            r = offsets[j]
            assert np.isclose(w[j + 1][1], r[1] + 0.0, atol=1e-15)   # stable row
            assert np.isclose(w[j][0], -r[0] / 2.0, atol=1e-15)      # unstable row


def outcome(update, *args):
    try:
        return update(*args)
    except (BallInvariantError, UnstableSolveError) as exc:
        return type(exc), str(exc)


def outcome_tolerance(problem, w):
    """How far two updates w that round differently may lie apart:
    1e-14, or 4 eps cond(B) |w|_inf where the basis condition number is
    larger.  Each row of an update is read through some basis_inv_j, whose
    coordinates of a vector of size |w| are exact only to about
    eps cond(basis_j) |w|; against mpmath at 256 bits, both updates erred
    by up to 0.21 eps cond |w| on the draw of test_ill_conditioned_basis,
    and they differed by at most 1.06 eps cond |w| on 6000 random draws
    while each built its own unstable blocks.  Reading the certificate's
    A_j, both agreed bit for bit on 3000 random affine and 300 random
    perturbed-cat draws."""
    kappa = float(np.linalg.cond(problem.splittings.basis).max())
    return max(1e-14, 4.0 * np.finfo(float).eps * kappa * float(np.abs(w).max()))


def assert_same_outcome(problem, v, boundary):
    """Both updates return within outcome_tolerance, or both raise the same
    error."""
    got = outcome(apply_operator, problem, v, boundary)
    ref = outcome(apply_operator_per_index, problem, v, boundary)
    if isinstance(ref, tuple):
        assert got == ref
    else:
        assert np.abs(got - ref).max() <= outcome_tolerance(problem, ref)


class TestBatchedEqualsPerIndex:
    """apply_operator against the per-index loop of tests/_oracles.py."""

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(2, 5), periodic=st.booleans(), data=st.data())
    def test_step_indexed_affine(self, dim, periodic, data):
        rng, spl, problem = fresh_splitting_problem(dim, data, jump=1e-4, shift=1e-4)
        boundary = "periodic" if periodic else "finite"
        v = 1e-4 * problem.l[:, None] * rng.standard_normal((problem.po.n_steps + 1, dim))
        assert_same_outcome(problem, v, boundary)

    def test_ill_conditioned_basis(self):
        # the basis at index 10 has condition number 3666.  When each update
        # built its own unstable blocks from DF_j, the two differed by
        # 2.28e-14 at row 9, which 1e-14 alone did not allow; both now invert
        # with the certificate's A_j, and agree bit for bit
        rng, spl, problem = splitting_problem(4, 1, [1, 4, 6], 167202, jump=1e-4, shift=1e-4)
        assert np.linalg.cond(spl[10].basis) > 3000
        v = 1e-4 * problem.l[:, None] * rng.standard_normal((problem.po.n_steps + 1, 4))
        ref = apply_operator_per_index(problem, v, "finite")
        assert np.array_equal(apply_operator(problem, v, "finite"), ref)
        assert_same_outcome(problem, v, "finite")

    @settings(max_examples=25, deadline=None)
    @given(amp=st.floats(0.0, 0.05), lengths=st.lists(st.integers(1, 5), min_size=1, max_size=5),
           seed=st.integers(0, 2**32 - 1), periodic=st.booleans())
    def test_perturbed_cat_power_splittings(self, amp, lengths, seed, periodic):
        rng = np.random.default_rng(seed)
        f = PerturbedCatMap(amp)
        po = generate(f, rng.random(2), lengths, 1e-4, seed)
        spl = assign_splittings(po, f, "power", depth=8)
        g = PerturbedCatMap(amp + 1e-3)
        cfg = make_solver_config(po, f, lam=0.45, lam_tilde=0.55, bounds=SystemBounds(
            R=2.8, L=0.0, kind="estimated"))
        problem = ShadowProblem(po, spl, f, g, cfg)
        boundary = "periodic" if periodic else "finite"
        # offsets large enough that the chord iteration needs several steps per index
        v = 1e-2 * rng.standard_normal((po.n_steps + 1, 2))
        assert_same_outcome(problem, v, boundary)

    # a "singular" step reports a zero block that the solver never reads, and
    # solves as an "ok" one; a "late_singular" step stalls as a "stall" one
    @pytest.mark.parametrize("kinds, expected", [
        ({2: "singular", 5: "escape"}, (BallInvariantError, "inverted unstable component at index 5 ")),
        ({2: "escape", 5: "singular"}, (BallInvariantError, "inverted unstable component at index 2 ")),
        ({1: "stall", 4: "singular"}, (UnstableSolveError, "chord inversion stalled at index 1 ")),
        ({1: "singular", 4: "stall"}, (UnstableSolveError, "chord inversion stalled at index 4 ")),
        ({3: "stall", 6: "escape"}, (UnstableSolveError, "chord inversion stalled at index 3 ")),
        ({1: "escape", 5: "stall"}, (BallInvariantError, "inverted unstable component at index 1 ")),
        ({2: "late_singular", 4: "stall"}, (UnstableSolveError, "chord inversion stalled at index 2 ")),
        ({0: "escape", 2: "late_singular"}, (BallInvariantError, "inverted unstable component at index 0 ")),
    ])
    def test_failures_raise_at_the_lowest_index(self, kinds, expected):
        n = 8
        steps = ["ok"] * n
        v = np.zeros((n + 1, 2))
        for j, kind in kinds.items():
            # escape: an unstable offset far beyond eta; otherwise a small
            # one, so the misreporting step has something to invert
            v[j + 1, 0] = 1.0 if kind == "escape" else 1e-4
            if kind != "escape":
                steps[j] = kind
        f = MisreportedSteps(steps)
        po = flatten(np.zeros((n + 1, 2)), [1] * n, f)
        spl = assign_splittings(po, f, "user", splittings=AXES)
        healthy = MisreportedSteps(["ok"] * n)
        cfg = make_solver_config(po, f, lam=0.55, lam_tilde=0.7, epsilon1=1e-2,
                                 bounds=SystemBounds(R=4.0, L=0.0, kind="estimated"))
        problem = ShadowProblem(po, spl, f, f, cfg, blocks=pseudo_orbit_blocks(po, spl, healthy))
        got = outcome(apply_operator, problem, v, "finite")
        ref = outcome(apply_operator_per_index, problem, v, "finite")
        assert got == ref
        assert got[0] is expected[0] and got[1].startswith(expected[1])


class TestSolveFinite:
    def test_genuine_orbit_gives_zero(self):
        f, g, po, spl, cfg = cat_problem(jump=0.0, shift=(0.0, 0.0))
        res = solve_finite(po, spl, f, f, cfg)
        assert res.converged
        assert np.abs(res.v).max() == 0.0
        assert res.max_distance == 0.0
        assert np.array_equal(res.shadow_point, po.points[0])

    def test_bump_oracle_shadow_point(self):
        f, po, spl, cfg = bump_problem(delta=1e-3)
        res = solve_finite(po, spl, f, f, cfg)
        assert res.converged
        assert np.linalg.norm(res.shadow_point) <= 1e-10
        assert np.isclose(res.max_distance, np.sqrt(2) * 1e-3, atol=1e-12)

    def test_cat_jump_and_shift_run(self):
        f, g, po, spl, cfg = cat_problem()
        res = solve_finite(po, spl, f, g, cfg)
        assert res.converged
        assert res.max_distance <= cfg.epsilon1
        assert res.max_distance <= 5 * (1e-4 + 1e-4) / (1 - cfg.lam_tilde)
        assert res.residual_max <= 10 * cfg.tol_fix
        assert res.ball_margin <= 1.0

    def test_distance_identity(self):
        f, g, po, spl, cfg = cat_problem()
        res = solve_finite(po, spl, f, g, cfg)
        for j in range(po.n_steps + 1):
            n_norm = np.linalg.norm(res.v[j]) / res.scale[j]
            assert abs(res.distances[j] - res.scale[j] * n_norm) <= 1e-12

    def test_orbit_drift_stays_small(self):
        # direct iteration of g from the shadow point stays near the chart orbit
        f, g, po, spl, cfg = cat_problem()
        res = solve_finite(po, spl, f, g, cfg)
        orbit = iterate_orbit(g, res.shadow_point, po.n_steps)
        drift = po.phase.distance(orbit, po.phase.exp(po.points, res.v))
        assert drift.max() <= 1e-6

    def test_fixed_point_is_true_orbit_of_g(self):
        f, g, po, spl, cfg = cat_problem()
        problem = ShadowProblem(po, spl, f, g, cfg)
        res = solve_finite(po, spl, f, g, cfg)
        gap = res.v[1:] - _Stack([problem]).charts(res.v[:-1])[1]
        assert np.linalg.norm(gap, axis=-1).max() <= 10 * cfg.tol_fix

    def test_torus_endomorphism_shadow_is_an_orbit(self):
        # [[3, 1], [1, 1]] is 2-to-1 on the torus; neither the certificate
        # nor the solve inverts the map, only its derivative
        f = TorusLinearMap([[3, 1], [1, 1]])
        po = generate(f, [0.21, 0.68], [4] * 250, 1e-7, 3)
        spl = assign_splittings(po, f, "eigen")
        assert min_feasible_lambda(po, spl, f, 0.0) == pytest.approx(2.0 - np.sqrt(2.0))
        assert certify_pseudo_orbit(po, spl, f, 0.65, 0.0, 1e-7).passed
        assert len(assign_splittings(po, f, "power")) == po.n_steps + 1
        g = ShiftedMap(f, [1e-9, 0.0])
        res = solve_finite(po, spl, f, g, make_solver_config(po, f, lam=0.65))
        assert res.converged
        assert res.max_distance <= 2e-7
        x = po.phase.exp(po.points, res.v)
        assert po.phase.distance(g(x[:-1]), x[1:]).max() <= 1e-11

    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_growing_affine_orbit_solves_at_the_rounding_of_its_points(self, seed):
        # the points grow to 4e4, where one ulp is 7e-12: an absolute
        # inversion stop at 1e-13 stalled at index 8 or 9 of orbits 0-2, and orbit 7,
        # whose rescaled residual is 1.06e-11, read as not converged against
        # an absolute 10 tol_fix = 1e-11
        f = AffineMap([[2.3, 0.7], [0.45, 0.6]])
        rng = np.random.default_rng(seed)
        po = generate(f, rng.random(2), [3] * 4, 1e-6, seed)
        assert np.abs(po.points).max() > 1e4
        spl = assign_splittings(po, f, "eigen")
        g = ShiftedMap(f, [1e-6, 0.0])
        res = solve_finite(po, spl, f, g, make_solver_config(po, f, lam=0.7, lam_tilde=0.8))
        assert res.converged and res.max_distance <= 2e-6
        x = po.points + res.v
        step = np.abs(g(x[:-1]) - x[1:]).max(axis=-1)
        assert (step <= 4 * np.spacing(np.abs(x[1:]).max(axis=-1))).all()

    def test_ten_thousand_step_cat_orbit_matches_linear_shadow(self):
        f, g, po, spl, cfg = cat_problem(lengths=(4,) * 2500, shift=(1e-4, 0.0))
        res = solve_finite(po, spl, f, g, cfg)
        assert res.converged
        assert np.abs(res.v - cat_linear_shadow(po.points, [1e-4, 0.0])).max() <= 1e-10

    @settings(max_examples=30, deadline=None)
    @given(lengths=st.lists(st.integers(1, 6), min_size=1, max_size=8),
           jump=st.floats(0.0, 1e-4), shift=st.floats(-1e-4, 1e-4),
           seed=st.integers(0, 2**32 - 1), tol_fix=st.sampled_from([1e-10, 1e-12, 1e-13]))
    def test_converged_solve_has_small_residual(self, lengths, jump, shift, seed, tol_fix):
        f, g, po, spl, cfg = cat_problem(lengths, jump, seed, shift=(shift, 0.0), tol_fix=tol_fix)
        res = solve_finite(po, spl, f, g, cfg)
        problem = ShadowProblem(po, spl, f, g, cfg)
        if res.converged:
            assert res.residual_max <= 10 * tol_fix
            for j in range(po.n_steps):
                gap = res.v[j + 1] - chart_step(problem, g, j, res.v[j])
                assert np.linalg.norm(gap) / res.scale[j + 1] <= 10 * tol_fix

    def test_oracle_equivalence_random_affine(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            sysm, sp = random_affine_system(rng)
            po = sysm.zero_pseudo_orbit()
            spl = assign_splittings(po, sysm, "user", splittings=sp)
            cfg = make_solver_config(po, sysm, lam=0.75, lam_tilde=0.8, epsilon1=1.0)
            res = solve_finite(po, spl, sysm, sysm, cfg)
            oracle = bounded_orbit_closed_form(sysm)
            assert res.converged
            assert np.abs(res.v - oracle).max() <= 1e-8

    def test_swapped_direction_also_converges(self):
        # certify the perturbed map's own pseudo-orbit and shadow with f
        f = cat_map()
        g = ShiftedMap(f, [1e-4, 0.0])
        po = generate(g, [0.13, 0.41], [3, 3, 3], 1e-4, 6)
        spl = assign_splittings(po, g, "eigen")
        cfg = make_solver_config(po, g, lam=0.4, lam_tilde=0.5)
        res = solve_finite(po, spl, g, f, cfg)
        assert res.converged and res.max_distance <= cfg.epsilon1


class TestSolveInfinite:
    @staticmethod
    def _master(jump=1e-4, lengths_each=2, k_max=10, shift=(5e-5, 5e-5)):
        f = cat_map()
        master = generate(f, [0.2, 0.6], [lengths_each] * (2 * k_max + 1),
                          jump, 11, i_min=-k_max)
        g = ShiftedMap(f, list(shift)) if any(shift) else f
        cfg = make_solver_config(master, f, lam=0.4, lam_tilde=0.5, tol_fix=1e-13)

        def window_problem(k):
            w = master.window(-k, k)
            return w, assign_splittings(w, f, "eigen"), f, g

        return window_problem, cfg

    def test_boundary_influence_decays_geometrically(self):
        window_problem, cfg = self._master()
        _, table = solve_infinite(window_problem, [2, 4, 6, 8, 10], cfg)
        d = table.diffs()
        assert all(d[i] / d[i + 1] >= 1.5 for i in range(len(d) - 1))

    def test_genuine_orbit_all_windows_zero(self):
        window_problem, cfg = self._master(jump=0.0, shift=(0.0, 0.0))
        res, table = solve_infinite(window_problem, [2, 4, 6], cfg)
        assert all(np.allclose(r.v0, 0.0, atol=1e-15) for r in table.rows)
        assert table.converged

    def test_declares_convergence_when_diffs_settle(self):
        window_problem, cfg = self._master()
        _, table = solve_infinite(window_problem, [2, 4, 6, 8, 9, 10], cfg)
        assert table.rows[-1].diff < 1e-10

    @pytest.mark.parametrize("window_ks", [[2, 2], [4, 2], []])
    def test_window_sizes_strictly_increasing(self, window_ks):
        # solving one window twice gives diff 0 and would read as converged
        window_problem, cfg = self._master()
        with pytest.raises(ValueError, match="window sizes must be increasing"):
            solve_infinite(window_problem, window_ks, cfg)


class TestSolvePeriodic:
    def test_cat_fixed_point(self):
        f = cat_map()
        seeds = np.zeros((2, 2))
        po = flatten(seeds, [1], f)
        spl = assign_splittings(po, f, "eigen")
        cfg = make_solver_config(po, f, lam=0.4, lam_tilde=0.5)
        res = solve_periodic(po, spl, f, f, cfg)
        assert res.converged
        assert np.array_equal(res.shadow_point, [0.0, 0.0])
        assert res.periodic_closure == res.seam_gap == 0.0

    def test_to_dict_is_the_tree_of_python_values(self):
        f = cat_map()
        po = flatten(np.zeros((4, 2)), [1] * 3, f)
        cfg = make_solver_config(po, f, lam=0.4, lam_tilde=0.5)
        res = solve_periodic(po, assign_splittings(po, f, "eigen"), f, ShiftedMap(f, [1e-4, 0.0]),
                             cfg)
        assert res.to_dict() == {
            "converged": res.converged, "iterations": res.iterations,
            "max_distance": float(res.distances.max()),
            "distances": [float(x) for x in res.distances],
            "residual_max": float(res.orbit_residuals.max()), "ball_margin": res.ball_margin,
            "shadow_point": [float(x) for x in res.shadow_point], "boundary": "periodic",
            "update_history": res.update_history,
            "quasi_newton_history": res.quasi_newton_history,
            "enclosure_radius": res.enclosure_radius,
            "closure": {"post_polish": res.periodic_closure, "seam_gap": res.seam_gap}}

    def test_period_two_cycle_recovered(self):
        f = cat_map()
        cycle = [p for p in cat_map_periodic_points(2) if p != (0, 0)][0]
        x0 = np.array([float(v) for v in cycle])
        orbit = iterate_orbit(f, x0, 1)
        seeds = np.array([orbit[0], orbit[1], orbit[0]])
        po = flatten(seeds, [1, 1], f)
        spl = assign_splittings(po, f, "eigen")
        cfg = make_solver_config(po, f, lam=0.4, lam_tilde=0.5)
        res = solve_periodic(po, spl, f, f, cfg)
        assert res.converged
        assert np.linalg.norm(res.shadow_point - x0) <= 1e-12
        assert res.periodic_closure <= 1e-12

    def test_perturbed_three_segment_cycle(self):
        f = cat_map()
        cyc = [p for p in cat_map_periodic_points(3) if p != (0, 0)][0]
        orb = iterate_orbit(f, np.array([float(v) for v in cyc]), 3)
        rng = np.random.default_rng(5)
        jit = [f.phase.canon(orb[i] + 1e-4 * rng.standard_normal(2)) for i in range(3)]
        po = flatten(np.array(jit + [jit[0]]), [1, 1, 1], f)
        spl = assign_splittings(po, f, "eigen")
        g = ShiftedMap(f, [1e-4, 0.0])
        cfg = make_solver_config(po, f, lam=0.4, lam_tilde=0.5)
        res = solve_periodic(po, spl, f, g, cfg)
        assert res.converged
        assert res.seam_gap <= 1e-10
        assert res.periodic_closure <= 1e-10
        assert res.max_distance <= cfg.epsilon1

    def test_translation_invariance_over_repeated_periods(self):
        # q copies of the cycle give the same anchor tangent vector
        f = cat_map()
        cyc = [p for p in cat_map_periodic_points(2) if p != (0, 0)][0]
        orb = iterate_orbit(f, np.array([float(v) for v in cyc]), 1)
        rng = np.random.default_rng(9)
        jit = [f.phase.canon(orb[i] + 5e-5 * rng.standard_normal(2)) for i in range(2)]
        g = ShiftedMap(f, [5e-5, 0.0])
        anchors = []
        for q in (1, 2, 3):
            seeds = np.array((jit * q) + [jit[0]])
            po = flatten(seeds, [1] * (2 * q), f)
            spl = assign_splittings(po, f, "eigen")
            cfg = make_solver_config(po, f, lam=0.4, lam_tilde=0.5)
            res = solve_periodic(po, spl, f, g, cfg)
            assert res.converged
            anchors.append(res.v[0])
        assert np.abs(anchors[0] - anchors[1]).max() <= 1e-11
        assert np.abs(anchors[0] - anchors[2]).max() <= 1e-11

    def test_periodicity_guard(self):
        f, g, po, spl, cfg = cat_problem(lengths=(2, 2), jump=1e-4)
        with pytest.raises(ValueError):
            solve_periodic(po, spl, f, g, cfg)

    def _jittered_cycle(self, f, cycle, jitter, rng):
        # jitter of size `jitter` in a random direction at each point
        dirs = rng.standard_normal(cycle.shape)
        seeds = f.phase.canon(cycle + jitter * dirs / np.linalg.norm(dirs, axis=1, keepdims=True))
        return flatten(np.vstack([seeds, seeds[:1]]), [1] * len(cycle), f)

    @staticmethod
    def _closure(f, g, po, v):
        """One step of g per index, the last one landing on v_0."""
        x = f.phase.canon(po.points[:-1] + v[:-1])
        steps = f.phase.wrap(g(x) - po.points[1:]) - np.roll(v[:-1], -1, axis=0)
        return np.linalg.norm(steps, axis=1).max()

    def test_periodic_solve_stops_at_its_first_update_below_tol_fix(self):
        # quasi-Newton steps around the cycle until one is below tol_fix, then
        # the plain loop of periodic updates until one is below tol_fix, as a
        # finite solve stops: the returned v, its steps, its iterations, its
        # enclosure and its closure
        f = cat_map()
        cycle, _ = cat_cycle(5, (0.0, 0.0))
        po = self._jittered_cycle(f, cycle, 1e-6, np.random.default_rng(3))
        spl, g = assign_splittings(po, f, "eigen"), ShiftedMap(f, [1e-6, -1e-6])
        cfg = make_solver_config(po, f, lam=0.45)
        problem = _periodic_problem(po, spl, f, g, cfg)
        blocks = pseudo_orbit_blocks(po, problem.splittings, f)
        a_blocks, d_blocks = blocks.A[:, 0, 0].tolist(), blocks.D[:, 0, 0].tolist()

        def size(w, v):
            return float(np.max(np.linalg.norm(w - v, axis=1) / problem.l))

        def forward(b0, rs):  # b_{j+1} = D_j b_j + r^s_j
            b = [b0]
            for d, r in zip(d_blocks, rs):
                b.append(d * b[-1] + r)
            return b

        def backward(a_n, ru):  # a_j = (a_{j+1} - r^u_j) / A_j
            a = [a_n]
            for a_j, r in zip(a_blocks[::-1], ru[::-1]):
                a.append((a[-1] - r) / a_j)
            return a[::-1]

        v, steps = np.zeros_like(po.points), []
        while not steps or steps[-1] >= cfg.tol_fix:
            x = f.phase.canon(po.points[:-1] + v[:-1])
            r = f.phase.wrap(g(x) - po.points[1:]) - v[1:]
            ru, rs = np.matmul(problem.splittings.basis_inv[1:], r[..., None])[..., 0].T.tolist()
            # each recurrence closed around the cycle: x_0 = x_N
            b = forward(forward(0.0, rs)[-1] / (1.0 - math.prod(d_blocks)), rs)
            a = backward(backward(0.0, ru)[0] / (1.0 - 1.0 / math.prod(a_blocks)), ru)
            w = v + (problem.splittings.unstable[..., 0] * np.array(a)[:, None]
                     + problem.splittings.stable[..., 0] * np.array(b)[:, None])
            steps.append(size(w, v))
            if steps[-1] >= cfg.tol_fix:  # the step below tol_fix is not taken
                assert len(steps) == 1 or steps[-1] < cfg.lam_tilde * steps[-2]
                v = w
        history, last = [], v
        while not history or history[-1] >= cfg.tol_fix:
            last, v = v, apply_operator(problem, v, boundary="periodic")
            history.append(size(v, last))
        res = solve_periodic(po, spl, f, g, cfg)
        assert res.converged
        assert np.array_equal(res.v, v)
        assert res.quasi_newton_history == steps and len(steps) >= 2
        assert res.iterations == len(res.update_history) == len(history)
        assert res.update_history == history and history[-1] < cfg.tol_fix
        assert all(u >= cfg.tol_fix for u in history[:-1])
        assert res.enclosure_radius == cfg.lam_tilde / (1.0 - cfg.lam_tilde) * size(v, last)
        assert res.periodic_closure == pytest.approx(self._closure(f, g, po, v), abs=1e-16)
        assert res.periodic_closure <= 10 * cfg.tol_fix
        assert res.seam_gap == np.linalg.norm(v[0] - v[-1])

    def test_unconverged_periodic_solve_reports_the_closure_of_its_last_iterate(self):
        f = cat_map()
        cycle, _ = cat_cycle(3, (0.0, 0.0))
        po = self._jittered_cycle(f, cycle, 1e-6, np.random.default_rng(4))
        # below rounding no quasi-Newton step shrinks by lam_tilde: with
        # tol_fix = 1e-300 the plain loop starts from zero and runs out
        cfg = make_solver_config(po, f, lam=0.45, tol_fix=1e-300, max_iter=3)
        spl = assign_splittings(po, f, "eigen")
        res = solve_periodic(po, spl, f, f, cfg)
        assert not res.converged and res.quasi_newton_history == []
        assert res.iterations == len(res.update_history) == 3
        problem, v = _periodic_problem(po, spl, f, f, cfg), np.zeros_like(po.points)
        for _ in range(3):
            v = apply_operator(problem, v, boundary="periodic")
        assert np.array_equal(res.v, v)
        assert res.periodic_closure == pytest.approx(self._closure(f, f, po, v), abs=1e-16)
        assert res.periodic_closure > 0.0
        assert res.to_dict()["closure"]["post_polish"] == res.periodic_closure

    @pytest.mark.parametrize("period", [200, 1000])
    def test_long_cycle_closes_by_multiple_shooting(self, period):
        # g^p(x) = x by single shooting stretches the point's 1e-12 error by
        # 2.618^p; each step of the cycle is a one-step residual
        f, shift = cat_map(), (1e-9, 0.0)
        cycle, start = cat_cycle(period, shift)
        po = self._jittered_cycle(f, cycle, 1e-9, np.random.default_rng(period))
        cfg = make_solver_config(po, f, lam=0.45)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve_periodic(po, assign_splittings(po, f, "eigen"), f, ShiftedMap(f, shift),
                                 cfg)
        assert res.converged
        assert res.periodic_closure < 1e-10
        assert np.linalg.norm(f.phase.wrap(res.shadow_point - start)) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(period=st.integers(1, 12), data=st.data())
    def test_closure_is_the_largest_step_residual_around_the_cycle(self, period, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        points = cat_map_periodic_points(period)
        x = np.array(points[int(rng.integers(len(points)))], dtype=float)
        cycle = [x]
        for _ in range(period - 1):
            cycle.append(np.array([2 * x[0] + x[1], x[0] + x[1]]) % 1.0)
            x = cycle[-1]
        f = cat_map()
        po = self._jittered_cycle(f, np.array(cycle), data.draw(st.floats(1e-10, 1e-5)), rng)
        shift = np.array([data.draw(st.floats(-1e-5, 1e-5)) for _ in range(2)])
        cfg = make_solver_config(po, f, lam=0.4, lam_tilde=0.5)
        res = solve_periodic(po, assign_splittings(po, f, "eigen"), f, ShiftedMap(f, shift), cfg)
        assert res.converged and res.update_history[-1] < cfg.tol_fix
        # plain numpy: x_j = y_j + v_j, one step of A x + shift, v_{(j+1) mod N}
        x = (po.points[:-1] + res.v[:-1]) % 1.0
        d = x @ np.array([[2.0, 1.0], [1.0, 1.0]]).T + shift - po.points[1:]
        steps = d - np.round(d) - np.roll(res.v[:-1], -1, axis=0)
        assert res.periodic_closure == pytest.approx(
            np.linalg.norm(steps, axis=1).max(), abs=1e-15)
        assert res.periodic_closure < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(period=st.integers(2, 5), jitter=st.floats(1e-10, 1e-6),
           shift=st.tuples(st.floats(-1e-5, 1e-5), st.floats(-1e-5, 1e-5)),
           seed=st.integers(0, 2**32 - 1))
    def test_windows_over_the_repeated_cycle_find_the_periodic_shadow(self, period, jitter,
                                                                      shift, seed):
        # bi-shadowing gives periodicity: the two-sided shadow of a jittered
        # cycle repeated without end is the periodic shadow of one period.
        # Windows reach at least 40 steps each way, where the boundary's
        # influence, of order 0.382^40 times the jitter, is below rounding.
        f = cat_map()
        g = ShiftedMap(f, list(shift))
        rng = np.random.default_rng(seed)
        points = cat_map_periodic_points(period)
        cycle = [np.array(points[int(rng.integers(len(points)))], dtype=float)]
        for _ in range(period - 1):
            cycle.append(f(cycle[-1]))
        po = self._jittered_cycle(f, np.array(cycle), jitter, rng)
        spl = assign_splittings(po, f, "eigen")
        cfg = make_solver_config(po, f, lam=0.45)
        res = solve_periodic(po, spl, f, g, cfg)
        assert res.converged

        reps = -(-40 // period)
        n = 2 * reps * period + 1  # segments -reps p .. reps p, segment i on seed i mod p
        master = flatten(np.vstack([po.seeds[:-1]] * (2 * reps + 1))[:n + 1], [1] * n, f,
                         i_min=-reps * period)
        wcfg = make_solver_config(master, f, lam=0.45)

        def window_problem(k):
            w = master.window(-k, k)
            return w, assign_splittings(w, f, "eigen"), f, g

        ks = range(period, reps * period + 1, period)
        window, table = solve_infinite(window_problem, ks, wcfg)
        assert table.converged
        # each v lies within its enclosure of its fixed point, widened by the
        # rounding floor rho of one update over 1 - lam_tilde
        center = master.window(-ks[-1], ks[-1]).center
        bound = res.enclosure_radius * res.scale[0] + window.enclosure_radius * window.scale[center]
        for problem in (_periodic_problem(po, spl, f, g, cfg),
                        ShadowProblem(*window_problem(ks[-1]), wcfg)):
            rho = float(np.max(problem._rounding / problem.l[1:]))
            bound += 2.0 * rho / (1.0 - problem.config.lam_tilde)
        assert np.linalg.norm(table.rows[-1].v0 - res.v[0]) <= bound


class TestPreconditions:
    def test_margins_nonnegative_for_admissible_run(self):
        f, g, po, spl, cfg = cat_problem()
        cert, margins, _ = shadowing_preconditions(po, spl, f, g, cfg)
        assert cert.passed
        assert min(margins.values()) >= 0

    def test_margins_flag_oversized_jump(self):
        f, g, po, spl, cfg = cat_problem(jump=5e-3)
        cert, margins, _ = shadowing_preconditions(po, spl, f, g, cfg)
        assert margins["delta"] < 0
