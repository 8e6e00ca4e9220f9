from fractions import Fraction

import numpy as np
import pytest

from bishadow.oracle import (
    AffineSequenceSystem,
    bounded_orbit_closed_form,
    brute_force_shadow,
    cat_map_periodic_points,
    exact_cat_orbit,
)
from bishadow.pseudo_orbit import assign_splittings, flatten, generate
from bishadow.shadowing import make_solver_config, solve_finite
from bishadow.splitting import Splitting
from bishadow.systems import AffineMap, ShiftedMap, cat_map

from _oracles import assemble, random_affine_system

AXES = Splitting(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))


def diag_system(n, rs):
    mats = np.tile(np.diag([2.0, 0.5]), (n, 1, 1))
    return AffineSequenceSystem(mats, np.asarray(rs, dtype=float), AXES)


class TestClosedForm:
    def test_zero_residuals_zero_solution(self):
        sysm = diag_system(6, np.zeros((6, 2)))
        assert np.array_equal(bounded_orbit_closed_form(sysm), np.zeros((7, 2)))

    def test_single_unstable_residual_geometric(self):
        rho = 1e-3
        rs = np.zeros((5, 2))
        rs[0, 0] = rho
        sysm = diag_system(5, rs)
        e = bounded_orbit_closed_form(sysm)
        # e^u_j = -rho * 2^(j-1) for j <= 0 in the truncated window form
        assert np.isclose(e[0, 0], -rho / 2.0)
        assert np.allclose(e[1:, 0], 0.0, atol=1e-18)

    def test_bump_cancellation(self):
        delta = 1e-3
        f = AffineMap(np.diag([2.0, 0.5]))
        seeds = np.zeros((7, 2))
        seeds[1] = [delta, delta]
        po = flatten(seeds, [1] * 6, f)
        rs = np.array([po.phase.wrap(f(po.points[j]) - po.points[j + 1])
                       for j in range(6)])
        sysm = diag_system(6, rs)
        e = bounded_orbit_closed_form(sysm)
        assert np.abs(e[0]).max() <= 1e-18  # -(delta/2 - delta/2) = 0

    def test_residual_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            sysm, sp = random_affine_system(rng)
            e = bounded_orbit_closed_form(sysm)
            for j in range(sysm.n_steps):
                gap = e[j + 1] - (sysm.matrices[j] @ e[j] + sysm.residuals[j])
                assert np.abs(gap).max() <= 1e-12

    def test_equals_per_index_triple_loop(self):
        def triple_loop(sysm, sp):
            # every term recomputed from scratch for every index: O(n^3)
            n, du = sysm.n_steps, sp.dim_u
            blks = [sp.basis_inv @ m @ sp.basis for m in sysm.matrices]
            rcs = [sp.basis_inv @ r for r in sysm.residuals]
            e = np.zeros((n + 1, sysm.phase.dim))
            for j in range(n + 1):
                es = np.zeros(sp.dim_s)
                for k in range(j):
                    term = rcs[k][du:]
                    for t in range(k + 1, j):
                        term = blks[t][du:, du:] @ term
                    es = es + term
                eu = np.zeros(du)
                for k in range(j, n):
                    term = rcs[k][:du]
                    for t in range(k, j - 1, -1):
                        term = np.linalg.solve(blks[t][:du, :du], term)
                    eu = eu - term
                e[j] = assemble(sp, eu, es)
            return e

        rng = np.random.default_rng(1)
        for _ in range(20):
            sysm, sp = random_affine_system(rng)
            assert np.abs(bounded_orbit_closed_form(sysm) - triple_loop(sysm, sp)).max() <= 1e-13

    def test_validation_rejects_bad_blocks(self):
        mats = np.tile(np.diag([2.0, 0.5]), (3, 1, 1))
        mats[1] = [[0.9, 0.0], [0.0, 0.5]]  # no expansion
        with pytest.raises(ValueError):
            AffineSequenceSystem(mats, np.zeros((3, 2)), AXES)
        rot = np.tile(np.array([[2.0, 0.3], [0.0, 0.5]]), (3, 1, 1))
        with pytest.raises(ValueError):
            AffineSequenceSystem(rot, np.zeros((3, 2)), AXES)  # coupled blocks

    def test_step_indexing(self):
        sysm = diag_system(3, np.ones((3, 2)))
        assert np.array_equal(sysm.along([1.0, 1.0], 1), [3.0, 1.5])
        assert np.array_equal(sysm.jacobian_along([1.0, 1.0], 1), np.diag([2.0, 0.5]))
        with pytest.raises(TypeError):
            sysm([0.0, 0.0])
        with pytest.raises(TypeError):
            sysm.jacobian([0.0, 0.0])

    def test_along_non_contiguous_steps(self):
        # row r goes through step steps[r], repeats and any order included,
        # as one matvec per row; a shift of the system passes the steps on
        rng = np.random.default_rng(12)
        sysm, _ = random_affine_system(rng)
        steps = np.array([4, 0, 3, 3, 1, sysm.n_steps - 1])
        x = rng.standard_normal((len(steps), sysm.phase.dim))
        expected = np.stack([sysm.matrices[j] @ row + sysm.residuals[j]
                             for j, row in zip(steps, x)])
        assert np.array_equal(sysm.along(x, steps), expected)
        for r, j in enumerate(steps):
            assert np.array_equal(sysm.along(x, steps)[r], sysm.along(x[r], j))
        assert np.array_equal(sysm.jacobian_along(x, steps), sysm.matrices[steps])
        g = ShiftedMap(sysm, np.full(sysm.phase.dim, 1e-3))
        assert np.array_equal(g.along(x, steps), sysm.along(x, steps) + g.shift)
        assert np.array_equal(g.jacobian_along(x, steps), sysm.matrices[steps])


class TestBruteForce:
    def test_genuine_orbit_best_is_start(self):
        f = cat_map()
        po = generate(f, [0.4, 0.7], [2, 2], 0.0, 1)
        best, score = brute_force_shadow(f, f, po, radius=0.01, grid_res=21)
        assert score <= 1e-12
        assert np.allclose(best, po.points[0], atol=1e-12)

    def test_bump_optimum_near_origin(self):
        f = AffineMap(np.diag([2.0, 0.5]))
        seeds = np.zeros((6, 2))
        seeds[1] = [1e-3, 1e-3]
        po = flatten(seeds, [1] * 5, f)
        best, score = brute_force_shadow(f, f, po, radius=0.02, grid_res=41)
        cell = np.sqrt(2.0) * (0.04 / 40)
        assert np.linalg.norm(best) <= cell

    def test_solver_beats_grid_plus_cell(self):
        f = cat_map()
        po = generate(f, [0.37, 0.81], [2] * 5, 8e-4, 3)
        spl = assign_splittings(po, f, "eigen")
        g = ShiftedMap(f, [4e-4, -2e-4])
        cfg = make_solver_config(po, f, lam=0.4, lam_tilde=0.5)
        res = solve_finite(po, spl, f, g, cfg)
        best, score = brute_force_shadow(f, g, po, radius=0.02, grid_res=41)
        cell = np.sqrt(2.0) * (0.04 / 40)
        assert res.max_distance <= score + cell

    def test_window_guards(self):
        f = cat_map()
        po = generate(f, [0.4, 0.7], [7, 7], 0.0, 1)
        with pytest.raises(ValueError):
            brute_force_shadow(f, f, po, 0.01, 21)


class TestPeriodicPoints:
    def test_period_one_only_origin(self):
        assert cat_map_periodic_points(1) == [(Fraction(0), Fraction(0))]

    def test_period_two_count_matches_determinant(self):
        pts = cat_map_periodic_points(2)
        a2 = np.linalg.matrix_power(np.array([[2, 1], [1, 1]]), 2)
        det = round(float(np.linalg.det(a2 - np.eye(2))))
        assert len(pts) == abs(det) == 5

    @pytest.mark.parametrize("period", [1, 2, 3, 4, 6])
    def test_every_point_exactly_periodic(self, period):
        for pt in cat_map_periodic_points(period):
            orbit = exact_cat_orbit(pt, period)
            assert orbit[-1] == pt  # exact rational equality

    def test_counts_follow_determinant_growth(self):
        a = np.array([[2, 1], [1, 1]])
        for p in (3, 4, 5):
            det = round(float(np.linalg.det(np.linalg.matrix_power(a, p) - np.eye(2))))
            assert len(cat_map_periodic_points(p)) == abs(det)

    @pytest.mark.parametrize("period", [1, 2, 3])
    def test_endomorphism_points_match_brute_force(self, period):
        # every solution of (M^p - I) x = 0 (mod 1) has denominator |det(M^p - I)|
        m = [[3, 1], [1, 1]]
        k = np.linalg.matrix_power(np.array(m), period) - np.eye(2, dtype=int)
        d = abs(round(np.linalg.det(k)))
        grid = [(Fraction(a, d), Fraction(b, d)) for a in range(d) for b in range(d)]
        brute = [pt for pt in grid if exact_cat_orbit(pt, period, m)[-1] == pt]
        assert cat_map_periodic_points(period, m) == brute
        assert len(brute) == d == (1, 7, 31)[period - 1]

    def test_period_guard(self):
        with pytest.raises(ValueError):
            cat_map_periodic_points(0)
        with pytest.raises(ValueError):
            cat_map_periodic_points(13)
