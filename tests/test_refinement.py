from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bishadow.refinement
from bishadow.certification import (_COLUMNS, certify_pseudo_orbit, is_quasi_hyperbolic,
                                   pseudo_orbit_blocks)
from bishadow.oracle import AffineSequenceSystem
from bishadow.pseudo_orbit import (SplittingAssignment, assign_splittings, generate, pull_back,
                                   push_forward)
from bishadow.refinement import (
    GraphTransformError,
    PreconditionError,
    invariant_graphs,
    make_refinement_config,
    refine,
)
from bishadow.splitting import (
    Splitting,
    eigen_splitting,
    min_norm,
    op_norm,
)
from bishadow.systems import PerturbedCatMap, cat_map, system_bounds

from _oracles import (
    adjugate_inverses,
    assembled,
    block_decompose,
    constant_blocks,
    graph_fixed_point_quadratic,
    iterate_graph_sweeps,
    solve_stable_graphs,
    solve_unstable_graphs,
    stable_graph_sweep,
    stable_invariance_residuals,
    unstable_graph_sweep,
    unstable_invariance_residuals,
)

def scalar_blocks(n=60, a=2.0, b=0.1, c=0.1, d=0.5):
    return constant_blocks(n, a, b, c, d)


def engine_graphs(po, spl, f):
    """P and Q from the cocycle passes over po's Jacobians."""
    return invariant_graphs(spl, f.jacobian_along(po.points[:-1], np.arange(po.n_steps)))[:2]


def perturbed_setup(amplitude=0.005, lengths=(3, 3, 3), jump=1e-5, seed=7):
    f = PerturbedCatMap(amplitude)
    po = generate(f, [0.3, 0.7], list(lengths), jump, seed)
    base = eigen_splitting(np.array([[2.0, 1.0], [1.0, 1.0]]))
    spl = assign_splittings(po, f, "user", splittings=base)
    return f, po, spl


class TestChartBlocks:
    def test_flat_chart_equals_jacobian_blocks(self):
        # block j reads the Jacobian at point j from splitting j into j + 1,
        # segment by segment (the next seed's splitting at joins)
        f = PerturbedCatMap(0.01)
        po = generate(f, [0.2, 0.5], [2, 3], 1e-4, 1)
        spl = assign_splittings(po, f, "power", depth=3)
        blocks = pseudo_orbit_blocks(po, spl, f)
        assert len(blocks) == 5
        for j in range(len(blocks)):
            y = block_decompose(f.jacobian(po.points[j]), spl[j], spl[j + 1])
            for name in "ABCD":
                assert np.array_equal(getattr(blocks, name)[j], getattr(y, name))

    def test_residual_guard(self):
        # a jump above delta fails the input certificate's residual row
        f = cat_map()
        po = generate(f, [0.2, 0.5], [2, 2], 1e-3, 1)
        spl = assign_splittings(po, f, "eigen")
        cfg = make_refinement_config(0.45, 0.62, R=2.7)
        with pytest.raises(PreconditionError, match="residual"):
            refine(po, spl, f, cfg, delta=1e-4)

    def test_matches_finite_difference_of_chart_map(self):
        f, po, spl = perturbed_setup(amplitude=0.01)
        blocks = pseudo_orbit_blocks(po, spl, f)
        phase = f.phase
        for j in (0, po.n_steps // 2, po.n_steps - 1):
            y0, y1 = po.points[j], po.points[j + 1]
            h = 1e-6
            fd = np.empty((2, 2))
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                plus = phase.wrap(f(phase.canon(y0 + e)) - y1)
                minus = phase.wrap(f(phase.canon(y0 - e)) - y1)
                fd[:, i] = (plus - minus) / (2.0 * h)
            assert np.abs(assembled(blocks, spl, j) - fd).max() <= 1e-6


class TestGraphStep:
    def test_zero_coupling_keeps_zero(self):
        blocks = scalar_blocks(10, b=0.0, c=0.0)
        assert np.array_equal(solve_unstable_graphs(blocks), np.zeros((11, 1, 1)))
        assert np.array_equal(solve_stable_graphs(blocks), np.zeros((11, 1, 1)))

    def test_scalar_oracle_fixed_point(self):
        p = solve_unstable_graphs(scalar_blocks())
        root = graph_fixed_point_quadratic(2.0, 0.1, 0.1, 0.5)
        assert abs(p[-1][0, 0] - root) <= 1e-9

    def test_contraction_on_random_unit_ball_pairs(self):
        blocks = scalar_blocks(20)
        rng = np.random.default_rng(0)
        for _ in range(25):
            p = rng.uniform(-1, 1, (21, 1, 1))
            q = rng.uniform(-1, 1, (21, 1, 1))
            dp = np.abs(unstable_graph_sweep(p, blocks) - unstable_graph_sweep(q, blocks))[1:].max()
            assert dp < np.abs(p - q).max()

    def test_unit_ball_escape_detected(self):
        bad = constant_blocks(1, 1.01, 0.0, 2.0, 0.99)
        with pytest.raises(GraphTransformError, match="index 1"):
            solve_unstable_graphs(bad)

    def test_stable_unit_ball_escape_detected(self):
        bad = constant_blocks(1, 1.01, 2.0, 0.0, 0.99)
        with pytest.raises(GraphTransformError, match="index 0"):
            solve_stable_graphs(bad)


class TestGraphSolves:
    def test_updates_strictly_decreasing(self):
        blocks = scalar_blocks()
        oracle, updates = iterate_graph_sweeps(unstable_graph_sweep, blocks)
        assert all(a > b for a, b in zip(updates, updates[1:]))
        p = solve_unstable_graphs(blocks)
        assert all(abs(g) <= 1.0 for g in p.ravel())
        assert np.abs(p - oracle).max() <= 1e-12

    def test_stable_matches_oracle_sweeps(self):
        blocks = scalar_blocks()
        oracle, updates = iterate_graph_sweeps(stable_graph_sweep, blocks)
        assert all(a > b for a, b in zip(updates, updates[1:]))
        assert np.abs(solve_stable_graphs(blocks) - oracle).max() <= 1e-12

    def test_long_power_splitting_matches_oracle_sweeps(self):
        # 500 steps of the perturbed map from a rough splitting: the
        # constant eigen splitting of its linear part
        f = PerturbedCatMap(0.02)
        po = generate(f, [0.3, 0.7], [4] * 125, 1e-5, 11)
        base = eigen_splitting(np.array([[2.0, 1.0], [1.0, 1.0]]))
        spl = assign_splittings(po, f, "user", splittings=base)
        blocks = pseudo_orbit_blocks(po, spl, f)
        p_oracle, _ = iterate_graph_sweeps(unstable_graph_sweep, blocks)
        q_oracle, _ = iterate_graph_sweeps(stable_graph_sweep, blocks)
        p, q = engine_graphs(po, spl, f)
        assert np.abs(p - p_oracle).max() <= 1e-12
        assert np.abs(q - q_oracle).max() <= 1e-12
        assert unstable_invariance_residuals(p, blocks).max() <= 1e-11
        assert stable_invariance_residuals(q, blocks).max() <= 1e-11

    def test_invariance_residuals_small(self):
        blocks = scalar_blocks()
        p = solve_unstable_graphs(blocks)
        assert unstable_invariance_residuals(p, blocks).max() <= 1e-11

    def test_stable_mirrored_oracle(self):
        # symmetric scalar data: the stable slope magnitude solves the same
        # quadratic as the unstable one (the mirror flips its sign)
        blocks = scalar_blocks()
        q = solve_stable_graphs(blocks)
        root = graph_fixed_point_quadratic(2.0, 0.1, 0.1, 0.5)
        assert abs(abs(q[0][0, 0]) - root) <= 1e-9
        # cross-check: slope of the exact stable eigenvector of [[2,.1],[.1,.5]]
        w, v = np.linalg.eigh(np.array([[2.0, 0.1], [0.1, 0.5]]))
        slope = v[0, 0] / v[1, 0]  # eigh sorts ascending: column 0 is stable
        assert abs(q[0][0, 0] - slope) <= 1e-9
        assert stable_invariance_residuals(q, blocks).max() <= 1e-11

    def test_expansion_and_contraction_conclusions(self):
        f, po, spl = perturbed_setup()
        b = pseudo_orbit_blocks(po, spl, f)
        cfg = make_refinement_config(0.4, 0.5, R=2.63)
        p, q = engine_graphs(po, spl, f)
        eps1 = cfg.eps_cap
        for j in range(len(b)):
            assert min_norm(b.A[j] + b.B[j] @ p[j]) >= min_norm(b.A[j]) - 3 * eps1
            assert op_norm(b.C[j] @ q[j] + b.D[j]) <= op_norm(b.D[j]) + 3 * eps1

    def test_transversality_of_graph_pairs(self):
        f, po, spl = perturbed_setup()
        p, q = engine_graphs(po, spl, f)
        for j in range(po.n_steps + 1):
            base = spl[j]
            gu = base.unstable + base.stable @ p[j]
            gs = base.stable + base.unstable @ q[j]
            m = np.concatenate([gu / np.linalg.norm(gu), gs / np.linalg.norm(gs)], axis=1)
            assert np.linalg.svd(m, compute_uv=False)[-1] >= 0.5


def counted_graphs(monkeypatch):
    """The calls refine makes to invariant_graphs, recorded as they happen."""
    calls = []
    real = bishadow.refinement.invariant_graphs

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bishadow.refinement, "invariant_graphs", counting)
    return calls


def count_passes(monkeypatch):
    """The cocycle passes refine runs, named in the order they run."""
    calls = []
    for name in ("push_forward", "pull_back"):
        def counting(*args, _name=name, _real=getattr(bishadow.refinement, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(bishadow.refinement, name, counting)
    return calls


def same_certificate(a, b):
    return ((a.passed, a.lam, a.epsilon, a.delta) == (b.passed, b.lam, b.epsilon, b.delta)
            and all(np.array_equal(getattr(a, name), getattr(b, name)) for name in _COLUMNS))


def assert_returned_as_is(monkeypatch, po, spl, f, cfg):
    """An input invariant at offdiag_tol is the answer: the same object, zero
    graphs, no graph transform, and its own certificate at lam_tilde."""
    calls = counted_graphs(monkeypatch)
    result = refine(po, spl, f, cfg)
    assert calls == []
    assert result.splittings is spl
    n = po.n_steps + 1
    assert result.unstable_graphs.shape == (n, 1, 1) and not result.unstable_graphs.any()
    assert result.stable_graphs.shape == (n, 1, 1) and not result.stable_graphs.any()
    expected = certify_pseudo_orbit(po, spl, f, cfg.lam_tilde, cfg.offdiag_tol,
                                    float(po.residuals.max()))
    assert expected.passed and expected.max_offdiagonal <= cfg.offdiag_tol
    assert same_certificate(result.certificate, expected)


class TestRefine:
    def test_quasi_hyperbolic_input_unchanged(self, monkeypatch):
        f = cat_map()
        po = generate(f, [0.2, 0.5], [3, 3], 1e-5, 2)
        spl = assign_splittings(po, f, "eigen")
        assert_returned_as_is(monkeypatch, po, spl, f, make_refinement_config(0.45, 0.62, R=2.7))

    def test_open_orbit_power_input_unchanged(self, monkeypatch):
        # power on an open orbit is invariant to rounding
        f = PerturbedCatMap(0.005)
        po = generate(f, [0.3, 0.7], [4] * 10, 1e-5, 7)
        spl = assign_splittings(po, f, "power")
        assert_returned_as_is(monkeypatch, po, spl, f, make_refinement_config(0.4, 0.5, R=2.63))

    def test_non_invariant_input_takes_the_transform(self, monkeypatch):
        # off-diagonal blocks of about the amplitude, above offdiag_tol: the
        # result is the graph transform's, bit for bit, and the refined
        # splitting is its two pass stacks as they are, with no second
        # orthonormalisation
        f, po, spl = perturbed_setup(amplitude=0.005)
        cfg = make_refinement_config(0.4, 0.5, R=2.63)
        assert pseudo_orbit_blocks(po, spl, f).norms[2].max() > cfg.offdiag_tol
        calls = counted_graphs(monkeypatch)
        passes = count_passes(monkeypatch)
        result = refine(po, spl, f, cfg)
        assert len(calls) == 1 and passes == ["push_forward", "pull_back"]
        P, Q = engine_graphs(po, spl, f)
        jacs = f.jacobian_along(po.points[:-1], np.arange(po.n_steps))
        u, s = push_forward(jacs, spl.unstable), pull_back(jacs, spl.stable)
        refined = SplittingAssignment(u, s, adjugate_inverses(np.concatenate([u, s], axis=-1)))
        assert np.array_equal(result.unstable_graphs, P)
        assert np.array_equal(result.stable_graphs, Q)
        for name in ("unstable", "stable", "basis_inv"):
            assert np.array_equal(getattr(result.splittings, name), getattr(refined, name))
        expected = certify_pseudo_orbit(po, refined, f, cfg.lam_tilde, cfg.offdiag_tol,
                                        float(po.residuals.max()))
        assert same_certificate(result.certificate, expected)

    def test_perturbed_cat_refines_to_invariant(self):
        f, po, spl = perturbed_setup(amplitude=0.005)
        cfg = make_refinement_config(0.4, 0.5, R=2.63)
        result = refine(po, spl, f, cfg)
        assert result.certificate.passed
        assert is_quasi_hyperbolic(result.certificate, 1e-8)
        assert result.certificate.max_offdiagonal <= 1e-11

    def test_norm_sandwich(self):
        f, po, spl = perturbed_setup(amplitude=0.005)
        cfg = make_refinement_config(0.4, 0.5, R=2.63)
        original = pseudo_orbit_blocks(po, spl, f)
        result = refine(po, spl, f, cfg, blocks=original)
        lo = cfg.lam0 / cfg.lam_tilde
        hi = cfg.lam_tilde / cfg.lam0
        for a0, a1 in zip(original.A, result.certificate.blocks.A):
            assert lo * min_norm(a0) <= min_norm(a1) + 1e-12
            assert min_norm(a1) <= op_norm(a1) + 1e-12
            assert op_norm(a1) <= hi * op_norm(a0) + 1e-12

    def test_eps_cap_guard(self):
        f, po, spl = perturbed_setup(amplitude=0.2)
        cfg = make_refinement_config(0.45, 0.55, R=2.8)
        with pytest.raises(PreconditionError):
            refine(po, spl, f, cfg)

    def test_window_edge_effects_decay(self):
        # interior graphs agree between a window and the same window grown by 10
        f = PerturbedCatMap(0.005)
        base = eigen_splitting(np.array([[2.0, 1.0], [1.0, 1.0]]))
        po_long = generate(f, [0.3, 0.7], [1] * 40, 0.0, 7)
        po_short = po_long.window(0, 29)
        spl_long = assign_splittings(po_long, f, "user", splittings=base)
        spl_short = assign_splittings(po_short, f, "user", splittings=base)
        p_long = engine_graphs(po_long, spl_long, f)[0]
        p_short = engine_graphs(po_short, spl_short, f)[0]
        mid = 15
        assert np.abs(p_long[mid] - p_short[mid]).max() <= 1e-10


AXES = Splitting(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))


def oracle_refined(spl, blocks):
    """P, Q and orthonormal bases of their graphs from the per-index recursions."""
    p, q = solve_unstable_graphs(blocks), solve_stable_graphs(blocks)
    u, s = spl.unstable, spl.stable
    return p, q, (np.linalg.qr(u + s @ p)[0], np.linalg.qr(s + u @ q)[0])


def projector_distance(a, b):
    """Largest spectral distance between the orthogonal projectors onto
    the column spaces of two stacks of orthonormal bases."""
    gap = a @ np.swapaxes(a, -1, -2) - b @ np.swapaxes(b, -1, -2)
    return float(np.linalg.norm(gap, ord=2, axis=(-2, -1)).max())


def assert_refine_matches_recursions(po, spl, f, cfg):
    # offdiag_tol = 0 sends every input with a nonzero off-diagonal block
    # through the graph transform, which is what this compares; at the
    # default 1e-8 a draw such as amp = 1e-10 on the cat eigenbasis is
    # returned as it is, with zero graphs
    cfg = replace(cfg, offdiag_tol=0.0)
    blocks = pseudo_orbit_blocks(po, spl, f)
    p, q, (u, s) = oracle_refined(spl, blocks)
    result = refine(po, spl, f, cfg, blocks=blocks)
    assert np.abs(result.unstable_graphs - p).max() <= 1e-12
    assert np.abs(result.stable_graphs - q).max() <= 1e-12
    assert projector_distance(result.splittings.unstable, u) <= 1e-12
    assert projector_distance(result.splittings.stable, s) <= 1e-12


class TestPassesEqualRecursions:
    """refine on the cocycle passes against the per-index graph recursions."""

    @settings(max_examples=30, deadline=None)
    @given(amp=st.floats(0.0, 0.05), n_steps=st.integers(3, 200),
           seed=st.integers(0, 2**32 - 1), power=st.booleans())
    def test_perturbed_open_orbits(self, amp, n_steps, seed, power):
        rng = np.random.default_rng(seed)
        lengths = rng.integers(1, 6, n_steps)
        lengths = lengths[: np.searchsorted(np.cumsum(lengths), n_steps) + 1]
        lengths[-1] -= lengths.sum() - n_steps
        f = PerturbedCatMap(amp)
        po = generate(f, rng.random(2), lengths, 1e-5, seed)
        if power:
            spl = assign_splittings(po, f, "power")
        else:
            base = eigen_splitting(np.array([[2.0, 1.0], [1.0, 1.0]]))
            spl = assign_splittings(po, f, "user", splittings=base)
        # R = 1 widens the eps cap so that every draw reaches the graph solves:
        # the property is about the graphs, not about the refined certificate
        assert_refine_matches_recursions(po, spl, f, make_refinement_config(0.45, 0.62, R=1.0))

    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(2, 5), data=st.data())
    def test_affine_sequences(self, dim, data):
        du = data.draw(st.integers(1, dim - 1))
        n = data.draw(st.integers(3, 200))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        sp = Splitting(q[:, :du], q[:, du:])

        def block(rows, cols, lo, hi):
            u, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
            v, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
            k = min(rows, cols)
            return u[:, :k] @ np.diag(rng.uniform(lo, hi, k)) @ v[:, :k].T

        mats = np.empty((n, dim, dim))
        for j in range(n):
            blk = np.block([[block(du, du, 2.2, 3.0), block(du, dim - du, 0.0, 0.005)],
                            [block(dim - du, du, 0.0, 0.005), block(dim - du, dim - du, 0.2, 0.45)]])
            mats[j] = q @ blk @ q.T
        f = AffineSequenceSystem(mats, np.zeros((n, dim)), sp, validate=False)
        po = f.zero_pseudo_orbit()
        spl = assign_splittings(po, f, "user", splittings=sp)
        cfg = make_refinement_config(0.5, 0.8, R=system_bounds(f).R)
        assert_refine_matches_recursions(po, spl, f, cfg)


class TestPassReadBack:
    """The graph checks of the read-back give the recursions' messages."""

    @pytest.mark.parametrize("matrix, n", [
        ([[1.01, 0.0], [2.0, 0.99]], 1),   # unstable graph leaves the ball at index 1
        ([[1.01, 0.0], [2.0, 0.99]], 4),   # ... and at every later index: 1 is reported
        ([[1.01, 2.0], [0.0, 0.99]], 1),   # stable graph leaves the ball at index 0
        ([[1.01, 2.0], [0.0, 0.99]], 4),   # the backward pass meets index 3 first
        ([[0.0, 1.0], [1.0, 0.0]], 2),     # A = 0: singular denominator at index 0
    ])
    def test_same_message_as_recursions(self, matrix, n):
        blocks = constant_blocks(n, *np.ravel(matrix))
        with pytest.raises(GraphTransformError) as expected:
            solve_unstable_graphs(blocks)
            solve_stable_graphs(blocks)
        spl = SplittingAssignment.constant(AXES, n + 1)
        with pytest.raises(GraphTransformError) as got:
            invariant_graphs(spl, np.broadcast_to(np.array(matrix, dtype=float), (n, 2, 2)))
        assert str(got.value) == str(expected.value)


class TestPassCallCounts:
    def test_no_linalg_call_per_step(self, monkeypatch):
        # on T^2 power splittings and refine, whether it returns its input or
        # takes the graph transform, make no qr, inv or solve call, however
        # long the orbit: the complements and the inverses of the bases have
        # closed forms, and every graph solve is a stack of 1x1 systems,
        # which divides.  In R^3 they make a fixed number of qr and inv
        # calls: the passes do no per-step factorisation
        counts = {}
        for name in ("qr", "solve", "inv"):
            def counted(*args, _name=name, _call=getattr(np.linalg, name), **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _call(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)

        def calls(steps):
            f, po, eigen = perturbed_setup(lengths=[4] * (steps // 4))
            counts.clear()
            power = assign_splittings(po, f, "power")
            for spl, transformed in ((power, False), (eigen, True)):
                result = refine(po, spl, f, make_refinement_config(0.4, 0.5, R=2.63))
                assert result.certificate.passed
                assert (result.splittings is not spl) == transformed
            return dict(counts)

        assert calls(100) == calls(400) == {}

        def calls_3d(steps):
            mats = np.broadcast_to(np.diag([2.0, 0.5, 0.4]), (steps, 3, 3))
            f = AffineSequenceSystem(mats, np.zeros((steps, 3)), Splitting(np.eye(3)[:, :1],
                                                                            np.eye(3)[:, 1:]))
            counts.clear()
            assign_splittings(f.zero_pseudo_orbit(), f, "power")
            return dict(counts)

        short = calls_3d(100)
        assert min(short.get(name, 0) for name in ("qr", "inv")) >= 1  # counters see calls
        assert calls_3d(400) == short
