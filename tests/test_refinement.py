import numpy as np
import pytest

from bishadow.certification import is_quasi_hyperbolic, pseudo_orbit_blocks
from bishadow.pseudo_orbit import assign_splittings, generate
from bishadow.refinement import (
    GraphTransformError,
    PreconditionError,
    chart_blocks,
    make_refinement_config,
    refine,
    solve_stable_graphs,
    solve_unstable_graphs,
    stable_invariance_residuals,
    unstable_invariance_residuals,
)
from bishadow.splitting import (
    BlockJacobian,
    Splitting,
    eigen_splitting,
    min_norm,
    op_norm,
)
from bishadow.systems import PerturbedCatMap, cat_map

from _oracles import (
    graph_fixed_point_quadratic,
    iterate_graph_sweeps,
    stable_graph_sweep,
    unstable_graph_sweep,
)

AXES = Splitting(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))


def scalar_blocks(n=60, a=2.0, b=0.1, c=0.1, d=0.5):
    blk = BlockJacobian(np.array([[a]]), np.array([[b]]), np.array([[c]]),
                        np.array([[d]]), AXES, AXES)
    return [blk] * n


def perturbed_setup(amplitude=0.005, lengths=(3, 3, 3), jump=1e-5, seed=7):
    f = PerturbedCatMap(amplitude)
    po = generate(f, [0.3, 0.7], list(lengths), jump, seed)
    base = eigen_splitting(np.array([[2.0, 1.0], [1.0, 1.0]]))
    spl = assign_splittings(po, f, "user", splittings=base)
    return f, po, spl


class TestChartBlocks:
    def test_flat_chart_equals_jacobian_blocks(self):
        f = cat_map()
        po = generate(f, [0.2, 0.5], [2, 2], 1e-4, 1)
        spl = assign_splittings(po, f, "eigen")
        flat = chart_blocks(po, spl, f)
        per_seg = [b for s in pseudo_orbit_blocks(po, spl, f) for b in s]
        for x, y in zip(flat, per_seg):
            assert np.array_equal(x.A, y.A) and np.array_equal(x.D, y.D)

    def test_residual_guard(self):
        f = cat_map()
        po = generate(f, [0.2, 0.5], [2, 2], 1e-3, 1)
        spl = assign_splittings(po, f, "eigen")
        with pytest.raises(PreconditionError):
            chart_blocks(po, spl, f, delta_cap=1e-4)

    def test_matches_finite_difference_of_chart_map(self):
        f, po, spl = perturbed_setup(amplitude=0.01)
        flat = chart_blocks(po, spl, f)
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
            assert np.abs(flat[j].assembled() - fd).max() <= 1e-6


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
        bad = [BlockJacobian(np.array([[1.01]]), np.zeros((1, 1)),
                             np.array([[2.0]]), np.array([[0.99]]), AXES, AXES)]
        with pytest.raises(GraphTransformError, match="index 1"):
            solve_unstable_graphs(bad)

    def test_stable_unit_ball_escape_detected(self):
        bad = [BlockJacobian(np.array([[1.01]]), np.array([[2.0]]),
                             np.zeros((1, 1)), np.array([[0.99]]), AXES, AXES)]
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
        # 500 steps of the perturbed map from a rough (depth-1) power splitting
        f = PerturbedCatMap(0.02)
        po = generate(f, [0.3, 0.7], [4] * 125, 1e-5, 11)
        spl = assign_splittings(po, f, "power", depth=1)
        blocks = chart_blocks(po, spl, f)
        p_oracle, _ = iterate_graph_sweeps(unstable_graph_sweep, blocks)
        q_oracle, _ = iterate_graph_sweeps(stable_graph_sweep, blocks)
        p = solve_unstable_graphs(blocks)
        q = solve_stable_graphs(blocks)
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
        blocks = chart_blocks(po, spl, f)
        cfg = make_refinement_config(0.4, 0.5, R=2.63)
        p = solve_unstable_graphs(blocks)
        q = solve_stable_graphs(blocks)
        eps1 = cfg.eps_cap
        for j, b in enumerate(blocks):
            assert min_norm(b.A + b.B @ p[j]) >= min_norm(b.A) - 3 * eps1
            assert op_norm(b.C @ q[j] + b.D) <= op_norm(b.D) + 3 * eps1

    def test_transversality_of_graph_pairs(self):
        f, po, spl = perturbed_setup()
        blocks = chart_blocks(po, spl, f)
        p = solve_unstable_graphs(blocks)
        q = solve_stable_graphs(blocks)
        for j in range(len(blocks) + 1):
            base = spl[j]
            gu = base.unstable + base.stable @ p[j]
            gs = base.stable + base.unstable @ q[j]
            m = np.concatenate([gu / np.linalg.norm(gu), gs / np.linalg.norm(gs)], axis=1)
            assert np.linalg.svd(m, compute_uv=False)[-1] >= 0.5


class TestRefine:
    def test_quasi_hyperbolic_input_unchanged(self):
        f = cat_map()
        po = generate(f, [0.2, 0.5], [3, 3], 1e-5, 2)
        spl = assign_splittings(po, f, "eigen")
        cfg = make_refinement_config(0.45, 0.62, R=2.7)
        result = refine(po, spl, f, cfg)
        assert np.abs(result.unstable_graphs).max() <= 1e-14
        assert np.abs(result.stable_graphs).max() <= 1e-14
        for j in range(po.n_steps + 1):
            assert np.allclose(result.splittings[j].basis, spl[j].basis, atol=1e-12)
        assert result.certificate.passed

    def test_perturbed_cat_refines_to_invariant(self):
        f, po, spl = perturbed_setup(amplitude=0.005)
        cfg = make_refinement_config(0.4, 0.5, R=2.63)
        result = refine(po, spl, f, cfg)
        assert result.certificate.passed
        assert result.max_offdiagonal <= 1e-8
        assert is_quasi_hyperbolic(result.certificate, 1e-8)
        assert result.max_invariance_residual <= 1e-11

    def test_norm_sandwich(self):
        f, po, spl = perturbed_setup(amplitude=0.005)
        cfg = make_refinement_config(0.4, 0.5, R=2.63)
        original = chart_blocks(po, spl, f)
        result = refine(po, spl, f, cfg, blocks=original)
        lo = cfg.lam0 / cfg.lam_tilde
        hi = cfg.lam_tilde / cfg.lam0
        for b0, b1 in zip(original, result.blocks):
            assert lo * min_norm(b0.A) <= min_norm(b1.A) + 1e-12
            assert min_norm(b1.A) <= op_norm(b1.A) + 1e-12
            assert op_norm(b1.A) <= hi * op_norm(b0.A) + 1e-12

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
        p_long = solve_unstable_graphs(chart_blocks(po_long, spl_long, f))
        p_short = solve_unstable_graphs(chart_blocks(po_short, spl_short, f))
        mid = 15
        assert np.abs(p_long[mid] - p_short[mid]).max() <= 1e-10
